import numpy as np
import pytest

from kdwitness import (
    complete_incompatibility,
    dft_matrix,
    enumerate_min_uncertainty_states,
    haar_genericity_study,
    haar_unitary,
    is_kd_positive,
    kd_table,
    phase_invariant_distance,
)
from kdwitness.errors import DimensionTooLarge, ValidationError


def test_dft2_is_the_real_fourier_pair():
    u = dft_matrix(2)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.allclose(u, expected)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_dft_is_unitary(d):
    u = dft_matrix(d)
    assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-10


def test_dft_incompatibility_depends_on_primality():
    assert complete_incompatibility(dft_matrix(2)).completely_incompatible
    assert complete_incompatibility(dft_matrix(3)).completely_incompatible
    assert complete_incompatibility(dft_matrix(5)).completely_incompatible
    assert not complete_incompatibility(dft_matrix(4)).completely_incompatible


def test_genericity_study_is_deterministic():
    a = haar_genericity_study(3, 50, seed=7)
    b = haar_genericity_study(3, 50, seed=7)
    assert a == b
    assert a.fraction_completely_incompatible == 1.0
    assert a.min_minor_quantiles["min"] > 0.0


def test_genericity_with_an_explicit_non_generic_point():
    study = haar_genericity_study(4, 50, seed=7)
    assert study.fraction_completely_incompatible == 1.0
    assert not complete_incompatibility(dft_matrix(4)).completely_incompatible


def test_genericity_study_validation():
    # The guard is the minor count: d = 7 runs, d = 9 is refused before any work.
    assert haar_genericity_study(7, 2, seed=0).samples == 2
    with pytest.raises(DimensionTooLarge, match="48619 minors"):
        haar_genericity_study(9, 10, seed=0)
    with pytest.raises(ValidationError):
        haar_genericity_study(3, 0, seed=0)
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        haar_genericity_study(3, 10, seed=-5)


def test_dimension_two_has_only_basis_states():
    # For 50 random bases at d = 2, enumeration returns exactly the four
    # basis states, and a random search finds no further KD-positive pure
    # state.
    rng = np.random.default_rng(77)
    for k in range(50):
        u = haar_unitary(2, seed=4000 + k)
        result = enumerate_min_uncertainty_states(u)
        assert len(result) == 4
        reference = np.array(
            [[1.0, 0.0], [0.0, 1.0], u[:, 0], u[:, 1]], dtype=complex
        )
        for ref in reference:
            assert min(
                phase_invariant_distance(s, ref) for s in result.states
            ) <= 1e-8
        batch = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        for psi in batch:
            if is_kd_positive(kd_table(psi, u)):
                assert min(
                    phase_invariant_distance(psi, ref) for ref in reference
                ) <= 1e-6
