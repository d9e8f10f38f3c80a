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


def validate_unitary(matrix, tol: float | None = None) -> np.ndarray:
    tol = config.default_tol() if tol is None else tol
    u = _square(matrix, "unitary")
    defect = frobenius(dagger(u) @ u - np.eye(u.shape[0]))
    if defect > tol:
        raise ValidationError(f"matrix is not unitary: ||U^H U - I||_F = {defect:.3e}")
    return u


def validate_hermitian(matrix, tol: float | None = None) -> np.ndarray:
    tol = config.default_tol() if tol is None else tol
    h = _square(matrix, "hermitian")
    scale = 1.0 + frobenius(h)
    if frobenius(h - dagger(h)) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return h


def validate_density(matrix, tol: float | None = None) -> np.ndarray:
    tol = config.default_tol() if tol is None else tol
    rho = validate_hermitian(matrix, tol)
    trace = np.trace(rho).real
    if abs(trace - 1.0) > tol:
        raise ValidationError(f"density matrix trace {trace} is not 1")
    min_eig = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
    if min_eig < -tol:
        raise ValidationError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return rho


def validate_pure_state(vector, tol: float | None = None) -> np.ndarray:
    tol = config.default_tol() if tol is None else tol
    psi = as_complex(vector, "pure state")
    if psi.ndim != 1:
        raise ValidationError(f"pure state must be a vector, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"pure state norm {norm} is not 1")
    return psi
