"""Structural validation of the matrix kinds handled by the library."""

import numpy as np

from . import config
from .errors import NotHermitian, ValidationError
from .linalg import as_complex, dagger, frobenius


def _square(matrix, name: str) -> np.ndarray:
    m = as_complex(matrix, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def validate_unitary(matrix) -> np.ndarray:
    u = _square(matrix, "unitary")
    defect = frobenius(dagger(u) @ u - np.eye(u.shape[0]))
    if defect > config.default_tol():
        raise ValidationError(f"matrix is not unitary: ||U^H U - I||_F = {defect:.3e}")
    return u


def require_hermitian(stack: np.ndarray) -> None:
    """Raise NotHermitian unless each matrix of a (..., d, d) stack is Hermitian to tolerance."""
    scale = 1.0 + np.linalg.norm(stack, axis=(-2, -1))
    if np.any(np.linalg.norm(stack - dagger(stack), axis=(-2, -1)) > config.default_tol() * scale):
        raise NotHermitian("matrix is not Hermitian within tolerance")


def validate_hermitian(matrix) -> np.ndarray:
    h = _square(matrix, "hermitian")
    require_hermitian(h)
    return h


def validate_density(matrix) -> np.ndarray:
    tol = config.default_tol()
    rho = validate_hermitian(matrix)
    trace = np.trace(rho).real
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"density matrix trace {trace} is not 1")
    min_eig = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if min_eig < -tol:
        raise ValidationError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return rho


def validate_pure_state(vector) -> np.ndarray:
    psi = as_complex(vector, "pure state")
    if psi.ndim != 1:
        raise ValidationError(f"pure state must be a vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > config.default_tol():
        raise ValidationError(f"pure state norm {norm} is not 1")
    return psi
