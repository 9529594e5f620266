"""Exception types shared across the library."""


class RedBergmanError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(RedBergmanError):
    """A CLI/experiment configuration is malformed or inconsistent."""


class EmptyDomainError(RedBergmanError):
    """A quadrature construction found no interior cells."""


class EvaluationError(RedBergmanError):
    """A basis or weight evaluation produced a non-finite value."""


class DegenerateBasisError(RedBergmanError):
    """Orthonormalization dropped every raw element."""


class NumericalFailureError(RedBergmanError):
    """A root solve or factorization failed to converge."""


class BranchCountError(RedBergmanError):
    """Branch solving returned an unexpected number of roots."""


class NearCriticalError(RedBergmanError):
    """A query point sits too close to a critical value to resolve
    branches reliably."""


class SingularLocusError(RedBergmanError):
    """A correspondence query hit the discriminant locus (collided
    roots)."""
