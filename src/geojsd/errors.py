"""Exception types shared across the library."""


class GeoJSDError(Exception):
    """Base class for all library-specific errors."""


class InvalidAlpha(GeoJSDError, ValueError):
    """Skew weight outside the open interval (0, 1)."""


class NonPositiveInput(GeoJSDError, ValueError):
    """Mean argument is negative, or zero where the mean is undefined."""


class InvalidDensity(GeoJSDError, ValueError):
    """Weight vector violates a density contract (negativity, mass, shape)."""


class DisjointSupport(GeoJSDError, ValueError):
    """The two densities share no support, so the mixture normalizer is zero."""


class NoConvergence(GeoJSDError, RuntimeError):
    """Iterative search exhausted its iteration budget."""


class DomainViolation(GeoJSDError, ValueError):
    """Natural parameter lies outside the family's domain."""


class NotPositiveDefinite(GeoJSDError, ValueError):
    """Covariance or precision matrix is not symmetric positive-definite."""


class ProposalSupportViolation(GeoJSDError, RuntimeError):
    """Importance-sampling proposal's log-density is not finite at one of its draws."""


class DivergentIntegral(GeoJSDError, ValueError):
    """A moment integral diverges (parameter left the natural domain)."""


class DegenerateQuadratic(GeoJSDError, ValueError):
    """Density-crossover quadratic is numerically singular."""
