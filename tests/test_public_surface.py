"""The public surface that callers and scripts rely on: the package's
exported names, the CLI subcommands and flags, the signatures of the
one-value entry points and the names of :class:`DiscreteIntensity` kept
for callers of its pair form.  A change here is an API change and should
be deliberate."""

import argparse
import inspect

import numpy as np
import pytest

import ppdiv
from ppdiv import DiscreteIntensity, cli
from ppdiv.model_io import compile_density

PUBLIC_NAMES = [
    "AcRelation", "AcVerdict", "ChernoffResult", "DensityPair",
    "DiscreteIntensity", "DivergenceReport", "DomainMismatch",
    "GridIntensity", "INF", "InfiniteHellinger", "InfiniteMass",
    "InfiniteWindowMass", "IntensityModel", "InvalidAlpha", "KernelMismatch",
    "LogLikelihoodResult", "MarkedModel", "MassBoundCheck", "NonConvergent",
    "NonDiffuseBase", "NotAbsolutelyContinuous", "OutOfWindow", "PPDivError",
    "ParseError", "PointOutsideDomain", "PointPattern", "QuadratureFailure",
    "QuadratureSpec", "ScaledIntensity", "SmoothIntensity", "StepPath",
    "SummedIntensity", "ThinningBoundMissing", "TruncatedLogLikelihood",
    "ZeroMarkAtom", "bayes_risk_sim", "chernoff", "chernoff_info",
    "classify_pp_relation", "common_reference", "compound_path",
    "compound_renyi", "count", "counting_path", "disintegration",
    "divergence", "dominating_intensity", "errors", "extended",
    "flatten_product", "fmt_extended", "hellinger_measures", "hellinger_pp",
    "intensity_from_density", "kernel", "kl_pp", "likelihood",
    "log_lr_finite", "log_lr_sigma_finite", "mc_divergence_estimate",
    "measure", "quadrature", "renyi_poisson", "renyi_pp", "sample_marked", "sample_pp", "sampler", "spawn_streams",
    "total_mass", "tsallis", "tsallis_product", "tsallis_sanity_bound",
]

CLI_ARGUMENTS = {
    "divergence": ["model_a", "model_b", "--alphas", "--kind", "--format",
                   "--output"],
    "loglr": ["model_a", "model_b", "pattern", "--sigma-finite", "--n-max",
              "--tol", "--output"],
    "sample": ["model", "--window", "--seed", "--count", "--marked",
               "--output"],
    "chernoff": ["model_a", "model_b", "--simulate", "--prior0", "--output"],
}


def test_exported_names():
    assert sorted(ppdiv.__all__) == PUBLIC_NAMES


def test_cli_subcommands_and_flags():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: [opt for a in parser._actions
                  if not isinstance(a, argparse._HelpAction)
                  for opt in (a.option_strings or [a.dest])]
           for name, parser in sub.choices.items()}
    assert got == CLI_ARGUMENTS


@pytest.mark.parametrize("function, parameters", [
    (ppdiv.renyi_poisson, ["s", "t", "alpha"]),
    (compile_density, ["expression", "variables"])])
def test_signatures(function, parameters):
    params = inspect.signature(function).parameters.values()
    assert [p.name for p in params] == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
               for p in params)


def test_discrete_pair_form_names():
    model = DiscreteIntensity({"a": 1.5, "b": 0.0})
    assert model.atoms == (("a", 1.5), ("b", 0.0))
    assert model.index == {"a": 0, "b": 1}
    assert model.support_locations() == ("a", "b")
    assert model.total_mass() == 1.5
    assert DiscreteIntensity(model.atoms) == model
    assert model.weights.dtype == np.float64 and not model.weights.flags.writeable
