import numpy as np
import pytest

from kdwitness import (
    OutsideHull,
    ValidationError,
    facet_enumeration,
    finite_convex_roof,
    hermitian_to_real,
    membership_lp,
    real_to_hermitian,
    rho_lambda,
)
from kdwitness.geometry import (
    facet_enumeration_points,
    finite_convex_roof_points,
    membership_lp_points,
)
from kdwitness.linalg import dagger


def test_embedding_preserves_inner_products():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        for _ in range(20):
            g1 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h1 = g1 + dagger(g1)
            h2 = g2 + dagger(g2)
            hs = float(np.trace(h1 @ h2).real)
            dot = float(hermitian_to_real(h1) @ hermitian_to_real(h2))
            assert abs(hs - dot) <= 1e-12 * (1 + abs(hs))
            assert np.allclose(real_to_hermitian(hermitian_to_real(h1), d), h1)


def test_membership_generator_is_inside(spin1_projectors):
    cert = membership_lp(spin1_projectors[0], spin1_projectors)
    assert cert.verdict == "inside"
    assert cert.weights[0] == pytest.approx(1.0, abs=1e-10)
    assert cert.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_membership_maximally_mixed_inside_basis_hull(spin1_projectors):
    cert = membership_lp(np.eye(3) / 3.0, spin1_projectors[:6])
    assert cert.verdict == "inside"


def test_membership_counterexample_outside(spin1_projectors):
    cert = membership_lp(rho_lambda(0.5), spin1_projectors)
    assert cert.verdict == "outside"
    assert cert.margin > 1e-6
    # The separating functional is re-validated here independently.
    values = [float(np.trace(cert.functional @ g).real) for g in spin1_projectors]
    target_value = float(np.trace(cert.functional @ rho_lambda(0.5)).real)
    assert max(values) <= cert.threshold + 1e-10
    assert target_value >= cert.threshold + cert.margin - 1e-10


def test_membership_indeterminate_on_thin_margin():
    p1 = np.array([0.0, 0.0])
    p2 = np.array([1.0, 0.0])
    target = np.array([0.5, 4e-8])
    outcome = membership_lp_points(target, np.array([p1, p2]))
    assert outcome.verdict == "indeterminate"


def test_facets_of_a_triangle():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    facets = facet_enumeration_points(points)
    assert len(facets) == 3
    for f in facets:
        assert len(f.active) == 2


def test_facet_count_spin1(spin1_projectors):
    facets = facet_enumeration(spin1_projectors)
    assert len(facets) == 28


def test_facet_active_sets_are_unique_near_a_degenerate_set(spin1_projectors):
    # This state lies about 6e-8 inside a spin-1 facet, within the active
    # tolerance, so hyperplanes through different subsets hold one active set.
    psi = np.array(
        [
            -0.3333333333333208,
            0.6666664728479736 + 1.2687796414546038e-10j,
            0.6666668604853097 - 1.2687796414546038e-10j,
        ]
    )
    psi /= np.linalg.norm(psi)
    facets = facet_enumeration(spin1_projectors + [np.outer(psi, psi.conj())])
    actives = [f.active for f in facets]
    assert len(set(actives)) == len(actives) == 57
    assert len(facet_enumeration(spin1_projectors)) == 28


def test_facets_invariant_under_reordering(spin1_projectors):
    facets = facet_enumeration(spin1_projectors)
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(spin1_projectors))
    shuffled = facet_enumeration([spin1_projectors[int(k)] for k in perm])
    assert len(shuffled) == len(facets)
    for f, g in zip(facets, shuffled):
        assert f.offset == pytest.approx(g.offset, abs=1e-9)
        assert np.allclose(f.functional, g.functional, atol=1e-9)
        assert tuple(sorted(perm[list(g.active)])) == tuple(sorted(f.active))


def test_finite_convex_roof_extreme_point(spin1_projectors):
    values = np.arange(15, dtype=float)
    got = finite_convex_roof(values, spin1_projectors[7], spin1_projectors)
    assert got == pytest.approx(7.0, abs=1e-9)


def test_finite_convex_roof_unique_midpoint():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    value, weights = finite_convex_roof_points(
        [0.0, 1.0, 5.0], np.array([0.5, 0.0]), points
    )
    assert value == pytest.approx(0.5, abs=1e-12)
    assert weights[2] == pytest.approx(0.0, abs=1e-12)


def test_mixed_dimension_generators_are_a_validation_error(spin1_projectors):
    generators = [*spin1_projectors[:2], np.eye(2) / 2.0, spin1_projectors[2]]
    with pytest.raises(ValidationError):
        facet_enumeration(generators)
    with pytest.raises(ValidationError):
        finite_convex_roof(np.ones(4), np.eye(3) / 3.0, generators)


def test_finite_convex_roof_outside_raises(spin1_projectors):
    with pytest.raises(OutsideHull):
        finite_convex_roof(np.ones(15), rho_lambda(0.5), spin1_projectors)


def _half_circle_model(n=64):
    angles = 2.0 * np.pi * np.arange(n) / n
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    values = (points[:, 1] >= 0.0).astype(float)
    return points, values


def test_half_circle_roof_vanishes_on_lower_hull():
    points, values = _half_circle_model()
    lower = np.flatnonzero(values == 0.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.dirichlet(np.ones(lower.size))
        target = w @ points[lower]
        value, _ = finite_convex_roof_points(values, target, points)
        assert value == 0.0


def test_half_circle_roof_near_closure_points():
    # Moving along the edge from the last lower vertex toward (1, 0), the
    # roof equals the weight on (1, 0): positive, vanishing only in the
    # limit. The minimum set of the roof is not closed in the continuum
    # model; the discretized model shows the approach.
    points, values = _half_circle_model()
    for t in (0.2, 0.05, 0.01):
        target = t * points[0] + (1 - t) * points[63]
        value, _ = finite_convex_roof_points(values, target, points)
        assert value == pytest.approx(t, abs=1e-9)
        assert value > 0.0


def test_half_circle_roof_positive_on_upper_targets():
    points, values = _half_circle_model()
    value, _ = finite_convex_roof_points(values, np.array([0.0, 0.0]), points)
    assert value > 0.0
    value_up, _ = finite_convex_roof_points(values, np.array([0.0, 0.5]), points)
    assert value_up > value
