import numpy as np
import pytest

from kdwitness import (
    NotHermitian,
    ValidationError,
    haar_unitary,
    hermitian_eig,
    rho_lambda,
)
from kdwitness.linalg import dagger, frobenius, random_density


def test_eig_identity():
    dec = hermitian_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eig_diagonal_descending():
    dec = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(dec.eigenvalues, [2.0, -1.0])


def test_eig_boundary_state_has_zero_eigenvalue():
    dec = hermitian_eig(rho_lambda(4.0 / 7.0))
    assert abs(dec.eigenvalues[-1]) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_eig_reconstruction_and_orthonormality(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + dagger(g)
        dec = hermitian_eig(h)
        scale = 1.0 + frobenius(h)
        assert frobenius(dec.reconstruct() - h) <= 1e-10 * scale
        v = dec.eigenvectors
        assert frobenius(dagger(v) @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_haar_unitarity_and_determinism():
    u1 = haar_unitary(3, seed=1)
    u2 = haar_unitary(3, seed=1)
    assert np.array_equal(u1, u2)
    assert frobenius(dagger(u1) @ u1 - np.eye(3)) <= 1e-10


def test_haar_unitarity_many_seeds():
    for seed in range(100):
        u = haar_unitary(3, seed=seed)
        assert frobenius(dagger(u) @ u - np.eye(3)) <= 1e-10


def test_haar_moment():
    # Monte Carlo oracle for the second moment of one entry, 1/d at d=3.
    values = [abs(haar_unitary(3, seed=s)[0, 0]) ** 2 for s in range(1000)]
    assert abs(np.mean(values) - 1.0 / 3.0) <= 0.05


def test_haar_rejects_small_dimension():
    with pytest.raises(ValidationError):
        haar_unitary(1, seed=0)


def test_random_density_is_a_state():
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
