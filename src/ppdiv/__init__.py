"""Divergences, likelihood ratios, and samplers for Poisson point-process
intensity models."""

from .chernoff import ChernoffResult, bayes_risk_sim, chernoff_info
from .disintegration import compound_renyi, flatten_product, tsallis_product
from .divergence import (AcRelation, AcVerdict, DivergenceReport,
                         MassBoundCheck, classify_pp_relation,
                         dominating_intensity, hellinger_measures,
                         hellinger_pp, kl_pp, renyi_pp, tsallis,
                         tsallis_sanity_bound)
from .errors import (DomainMismatch, InfiniteHellinger, InfiniteMass,
                     InfiniteWindowMass, InvalidAlpha, KernelMismatch,
                     NonConvergent, NonDiffuseBase, NotAbsolutelyContinuous,
                     OutOfWindow, PPDivError, ParseError, PointOutsideDomain,
                     QuadratureFailure, ThinningBoundMissing, ZeroMarkAtom)
from .extended import INF, fmt_extended
from .kernel import renyi_poisson
from .likelihood import (LogLikelihoodResult, TruncatedLogLikelihood,
                         log_lr_finite, log_lr_sigma_finite,
                         mc_divergence_estimate)
from .measure import (DensityPair, DiscreteIntensity, GridIntensity,
                      IntensityModel, MarkedModel, PointPattern,
                      ScaledIntensity, SmoothIntensity, SummedIntensity,
                      common_reference, count, intensity_from_density,
                      total_mass)
from .quadrature import QuadratureSpec
from .sampler import (StepPath, compound_path, counting_path, sample_marked,
                      sample_pp, spawn_streams)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
