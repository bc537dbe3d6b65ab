"""Domain exception types shared across the package."""


class SectoriaError(Exception):
    """Base class for every domain error raised by this package."""


class SingularMatrixError(SectoriaError):
    """A least singular value, or an elimination pivot, fell below the
    singularity threshold."""


class SingularLeadingBlockError(SingularMatrixError):
    """The leading block of a partitioned matrix is numerically singular."""


class SingularBlockError(SingularMatrixError):
    """A block required nonsingular by a block identity is singular."""


class NotPositiveDefiniteError(SectoriaError):
    """A Hermitian positive definite operand was expected."""


class NotSectorialError(SectoriaError):
    """The numerical range of the operand is not inside the required sector."""


class NotAccretiveError(NotSectorialError):
    """The real part of the operand is not positive definite, so its
    numerical range lies in no sector of half-angle below pi/2.  Raised by
    ``linalg.accretive_parts`` alone."""


class NotAccretiveDissipativeError(SectoriaError):
    """Real or imaginary part of the operand is not positive definite."""


class OmegaPrimeEmptyError(SectoriaError):
    """The residual subset family is empty (requires n >= 3)."""
