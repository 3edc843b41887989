"""Exception types shared across the library."""


class PPDivError(Exception):
    """Base class for every library-specific error."""


class ParseError(PPDivError):
    """Malformed model file, pattern file, or CLI argument."""


class DomainMismatch(PPDivError):
    """Two intensity models do not live on a common domain."""


class InvalidAlpha(PPDivError):
    """Divergence order must be a finite nonnegative real."""


class QuadratureFailure(PPDivError):
    """Adaptive integration did not meet the requested tolerance."""

    def __init__(self, message, value=None, error_estimate=None,
                 possibly_infinite=False):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.possibly_infinite = possibly_infinite


class KernelMismatch(PPDivError):
    """Mark kernels do not share a base domain and mark reference."""


class NonDiffuseBase(PPDivError):
    """Compound models need a diffuse (non-atomic) event intensity."""


class ZeroMarkAtom(PPDivError):
    """Increment kernels of compound models must not put mass at zero."""


class InfiniteMass(PPDivError):
    """Operation requires finite total intensity mass."""


class InfiniteWindowMass(PPDivError):
    """Sampling window must have finite intensity mass."""


class ThinningBoundMissing(PPDivError):
    """No usable upper bound on a smooth density for thinning."""


class PointOutsideDomain(PPDivError):
    """A pattern point lies outside the model domain."""


class OutOfWindow(PPDivError):
    """Requested region exceeds the pattern's observation window."""


class InfiniteHellinger(PPDivError):
    """Operation requires a finite Hellinger distance."""


class NotAbsolutelyContinuous(PPDivError):
    """First intensity is not absolutely continuous w.r.t. the second."""


class NonConvergent(PPDivError):
    """A Monte Carlo average is 0 or past the float range; the library raises
    it nowhere else (the tests' pmf series raises it past its term budget)."""
