"""Exception types shared across the package."""


class KDError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KDError, ValueError):
    """An input failed a structural or numerical precondition."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class NotHermitian(ValidationError):
    """A matrix violated the Hermitian symmetry tolerance."""


class NoConvergence(KDError):
    """An iterative numerical routine failed to converge."""


class ShapeMismatch(ValidationError):
    """Index sets or array shapes are inconsistent."""


class DimensionTooLarge(ValidationError):
    """The requested dimension exceeds a combinatorial guard."""


class NotCompletelyIncompatible(KDError):
    """An operation requiring complete incompatibility was called on a
    basis pair with a vanishing minor."""


class SolverStall(KDError):
    """The linear-programming solver hit its iteration cap."""


class DegenerateHull(KDError):
    """The generator set does not span a usable affine hull."""


class OutsideHull(KDError):
    """A target point lies outside the convex hull of the generators."""


class NotIsometry(ValidationError):
    """A matrix expected to have orthonormal columns does not."""


class OutOfRange(ValidationError):
    """A scalar parameter lies outside its allowed interval."""


class IndeterminateMembership(KDError):
    """A hull-membership query returned a margin too thin to trust."""


class CertificateError(KDError):
    """A solver certificate failed its post-solve re-validation."""


class MatrixFileError(ValidationError):
    """A matrix file could not be parsed or validated."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class UsageError(KDError):
    """Bad command-line usage."""


class NonGenericPatternWarning(UserWarning):
    """A support pattern produced a null space of dimension above one."""
