"""Dense complex linear algebra for small dimensions.

Everything here operates on plain ``numpy`` arrays at dimensions of order
ten or less: Hermitian eigendecompositions, Haar-random unitaries, and
seeded Gaussian sampling. All routines are pure and deterministic given
their inputs (and seed).
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    NoConvergence,
    NotHermitian,
    ShapeMismatch,
    ValidationError,
)


def as_complex(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex array, rejecting non-finite entries."""
    arr = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return matrix.conj().swapaxes(-1, -2)


def frobenius(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi| of a state vector."""
    psi = as_complex(psi, "state")
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def require_hermitian(stack: np.ndarray) -> None:
    """Raise NotHermitian unless each matrix H of a (..., d, d) stack is Hermitian.

    The test is ``||H - H^H||_F <= config.BASE_TOL * (1 + ||H||_F)``.
    """
    scale = 1.0 + np.linalg.norm(stack, axis=(-2, -1))
    if np.any(np.linalg.norm(stack - dagger(stack), axis=(-2, -1)) > config.BASE_TOL * scale):
        raise NotHermitian("matrix is not Hermitian within tolerance")


def hermitian_eig(matrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when :func:`require_hermitian` does and
    NoConvergence if the underlying solver fails. Eigenvalues are returned
    in descending order.
    """
    h = as_complex(matrix, "matrix")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {h.shape}")
    require_hermitian(h)
    scale = 1.0 + frobenius(h)
    sym = (h + dagger(h)) / 2.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = np.ascontiguousarray(vectors[:, order])
    decomp = EigenDecomposition(values, vectors)
    d = h.shape[0]
    if frobenius(decomp.reconstruct() - h) > config.EIG_RECONSTRUCTION_TOL * scale:
        raise NoConvergence("eigendecomposition failed its reconstruction bound")
    if frobenius(dagger(vectors) @ vectors - np.eye(d)) > config.EIG_ORTHONORMAL_TOL:
        raise NoConvergence("eigenvector matrix is not orthonormal")
    return decomp


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian array (variance 1 per complex entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic for a given seed.

    Draws a complex Ginibre matrix, takes its QR decomposition, and fixes
    the phase convention by right-multiplying with the inverse phases of the
    diagonal of R.
    """
    if d < 2:
        raise ValidationError(f"dimension must be at least 2, got {d}")
    rng = np.random.default_rng(seed)
    z = complex_gaussian((d, d), rng)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()[None, :]


def random_isometry(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x r matrix with orthonormal columns (n >= r)."""
    if n < r:
        raise ShapeMismatch(f"need n >= r, got n={n}, r={r}")
    q, _ = np.linalg.qr(complex_gaussian((n, r), rng))
    return q[:, :r]


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre sample."""
    g = complex_gaussian((d, d), rng)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = complex_gaussian(d, rng)
    return v / np.linalg.norm(v)
