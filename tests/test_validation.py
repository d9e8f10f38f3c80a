import numpy as np
import pytest

from kdwitness import NotHermitian, ValidationError
from kdwitness.errors import DegenerateHull
from kdwitness.geometry import facet_enumeration_points
from kdwitness.pure_positive import _null_vectors, canonical_phase
from kdwitness.validation import (
    validate_density,
    validate_pure_state,
    validate_unitary,
)


def test_validate_unitary_rejects_non_unitary():
    with pytest.raises(ValidationError):
        validate_unitary(np.ones((2, 2)))


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(ValidationError):
        validate_density(np.eye(2))


def test_validate_density_rejects_negative_operator():
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_density_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_validate_pure_state_norm():
    with pytest.raises(ValidationError):
        validate_pure_state(np.array([1.0, 1.0]))
    validate_pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_validate_rejects_non_finite():
    with pytest.raises(ValidationError):
        validate_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_canonical_phase_makes_leading_amplitude_positive():
    psi = np.array([0.0, -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)])
    fixed = canonical_phase(psi)
    assert fixed[1].real > 0.0
    assert abs(fixed[1].imag) <= 1e-15


def test_null_vector_flags_degenerate_systems():
    systems = np.zeros((2, 1, 2), dtype=complex)
    systems[1, 0, 0] = 1.0
    vectors, dims = _null_vectors(systems)
    assert dims.tolist() == [2, 1]
    assert np.allclose(np.abs(vectors[1]), [0.0, 1.0])


def test_facet_enumeration_degenerate_hull():
    with pytest.raises(DegenerateHull):
        facet_enumeration_points(np.zeros((3, 2)))
