"""Exception types shared across the package."""


class SprayWaveError(Exception):
    """Base class for all numerical/domain failures raised by this package."""


class StripViolation(SprayWaveError):
    """Complex evaluation of a bump term requested off the axis at its support edges."""


class InvalidBump(SprayWaveError):
    """Bump-on-tail parameters outside their admissible range."""


class VacuumViolation(SprayWaveError):
    """Volume fraction would be non-positive (kappa * m0 >= 1)."""


class ZeroSigma(SprayWaveError):
    """Phase velocity too close to the sigma = 0 pole."""


class FaddeevaOverflow(SprayWaveError):
    """exp(-z^2) of a Gaussian part (in f or its transform) overflows off the axis."""


class BoundaryRoot(SprayWaveError):
    """A zero sits on or too close to a winding-count contour."""


class NonConvergence(SprayWaveError):
    """Newton or continuation iteration failed to reach tolerance."""


class DegenerateDerivative(SprayWaveError):
    """Real-part derivative of the dispersion function is numerically zero."""


class DegenerateSpectrum(SprayWaveError):
    """Symmetric matrix has (nearly) repeated eigenvalues; strict hyperbolicity fails."""


class RefineGrid(SprayWaveError):
    """Velocity grid too coarse to resolve the requested eigenmode."""


class NotARoot(SprayWaveError):
    """Eigenmode seeding requested at a sigma that does not solve the dispersion
    relation."""


class CflViolation(SprayWaveError):
    """Time step violates the explicit-integrator stability bound."""


class DegenerateFit(SprayWaveError):
    """Growth-rate fit residual too large to report a rate."""


class NoUnstableRoot(SprayWaveError):
    """Scaling experiment requires an unstable root but none exists."""
