from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kdwitness import (
    SPIN1,
    CertificateError,
    DimensionTooLarge,
    KDError,
    NotHermitian,
    OutsideHull,
    ValidationError,
    enumerate_min_uncertainty_states,
    facet_enumeration,
    filter_kd_positive_pure,
    finite_convex_roof,
    haar_unitary,
    hermitian_to_real,
    membership_lp,
    real_to_hermitian,
    rho_lambda,
)
from kdwitness import geometry
from kdwitness.geometry import (
    FACET_BLOCK,
    FACET_PROBE_ANGLE,
    Facet,
    _prefilter,
    facet_enumeration_points,
    finite_convex_roof_points,
    membership_lp_points,
)
from kdwitness.linalg import dagger, projector, random_pure_state
from kdwitness.roof import nonpositivity_values_fn

# A pure state about 6e-8 inside a spin-1 facet, within the active tolerance,
# so hyperplanes through different subsets hold one active set.
NEAR_FACET_STATE = np.array(
    [
        -0.3333333333333208,
        0.6666664728479736 + 1.2687796414546038e-10j,
        0.6666668604853097 - 1.2687796414546038e-10j,
    ]
)
NEAR_FACET_STATE /= np.linalg.norm(NEAR_FACET_STATE)


# -- reference: the facet enumeration one subset at a time ---------------------


def _reference_facets(points, active_tol=1e-7, match_tol=1e-7):
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    centroid = pts.mean(axis=0)
    deltas = pts - centroid
    _, sing, vt = np.linalg.svd(deltas, full_matrices=False)
    rank = int(np.count_nonzero(sing > max(1e-12, sing[0] * 1e-9)))
    basis = vt[:rank].T
    hull_pts = deltas @ basis

    found = []
    for subset in combinations(range(n), rank):
        anchor = hull_pts[subset[0]]
        if rank == 1:
            normal = np.array([1.0])
        else:
            rows = hull_pts[list(subset[1:])] - anchor
            _, sv, svt = np.linalg.svd(rows)
            if int(np.count_nonzero(sv > max(1e-12, sv[0] * 1e-9))) < rank - 1:
                continue
            normal = svt[-1]
        offset = float(normal @ anchor)
        side = hull_pts @ normal - offset
        if side.max() <= active_tol:
            pass
        elif side.min() >= -active_tol:
            normal, offset, side = -normal, -offset, -side
        else:
            continue
        if any(
            abs(offset - off) <= match_tol and np.linalg.norm(normal - nrm) <= match_tol
            for nrm, off, _ in found
        ):
            continue
        active = tuple(int(k) for k in np.flatnonzero(np.abs(side) <= active_tol))
        found.append((normal, offset, active))

    facets = []
    listed = set()
    for normal, offset, active in found:
        if active in listed:
            continue
        listed.add(active)
        ambient = basis @ normal
        facets.append(Facet(ambient, float(offset + ambient @ centroid), active))
    facets.sort(key=lambda f: (round(f.offset, 9),) + tuple(np.round(f.functional, 9)))
    return facets


def _real_projectors(states):
    return np.array([hermitian_to_real(projector(psi)) for psi in states])


def _generic_states(n, seed):
    rng = np.random.default_rng(seed)
    return [random_pure_state(3, rng) for _ in range(n)]


def _generic_projectors(n, seed):
    return _real_projectors(_generic_states(n, seed))


def _reference_cases():
    # Points on a line have affine rank 1, so n of them make n subsets: 1024
    # and 1025 make exactly one block and one block plus one, and 4096 make
    # blocks cut short by the side-test array's size.
    segment = np.outer(np.linspace(-1.0, 1.0, FACET_BLOCK + 1), [1.0, 2.0, -0.5])
    rng = np.random.default_rng(5)
    spin1 = _real_projectors(SPIN1.min_uncertainty_states)
    cases = {
        "spin1": spin1,
        # Three generators twice: C(18, 5) = 8568 subsets, and many one-sided
        # hyperplanes of equal offset in each block for the dedup.
        "spin1_three_repeated": np.vstack([spin1, spin1[[0, 4, 9]]]),
        "spin1_near_degenerate": _real_projectors(
            [*SPIN1.min_uncertainty_states, NEAR_FACET_STATE]
        ),
        "triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "collinear": segment[::64],
        "one_block": rng.standard_normal((FACET_BLOCK, 1)) * [[1.0, -2.0]],
        "one_block_plus_one": segment,
        "long_segment": np.linspace(0.0, 1.0, 4 * FACET_BLOCK)[:, None] * [[3.0, 1.0]],
    }
    cases.update((f"generic_{n}", _generic_projectors(n, 300 + n)) for n in range(11, 17))
    return cases


def test_blocked_facets_match_the_per_subset_reference():
    for name, points in _reference_cases().items():
        got = facet_enumeration_points(points)
        want = _reference_facets(points)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g.active == w.active, name
            assert g.functional.tobytes() == w.functional.tobytes(), name
            assert np.float64(g.offset).tobytes() == np.float64(w.offset).tobytes(), name


def _assert_same_facets(points, name=""):
    got = facet_enumeration_points(points)
    want = _reference_facets(points)
    assert [g.active for g in got] == [w.active for w in want], name
    for g, w in zip(got, want):
        assert g.functional.tobytes() == w.functional.tobytes(), name
        assert np.float64(g.offset).tobytes() == np.float64(w.offset).tobytes(), name


def _prefilter_on(points, subset):
    """The prefilter's margin m for one subset of a full-rank set, and whether it drops it."""
    deltas = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(deltas, full_matrices=False)
    hull_pts = deltas @ vt.T
    slack = 8 * len(subset) * np.finfo(float).eps * float(np.abs(hull_pts).sum(axis=1).max())
    anchors = hull_pts[list(subset[:1])]
    rows = hull_pts[list(subset[1:])][None] - anchors[:, None, :]
    normals, margin = _prefilter(rows, anchors, hull_pts, 1e-7 + slack)
    side = hull_pts @ normals[0] - normals[0] @ anchors[0]
    return float(margin[0]), bool(side.max() > margin[0] and side.min() < -margin[0])


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_points_at_the_prefilter_margin_give_the_reference_facets(sign, factor):
    # The base triangle 0, 1, 2 spans a facet of the tetrahedron; a fifth point
    # sits factor * m inside (sign +1) or outside (sign -1) its plane.
    tetrahedron = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]])

    def with_point(height):
        return np.vstack([tetrahedron, [[0.3, 0.3, height]]])

    margin, _ = _prefilter_on(with_point(sign * 1e-4), (0, 1, 2))
    assert 1e-6 < margin < 1e-2
    points = with_point(sign * factor * margin)
    _, dropped = _prefilter_on(points, (0, 1, 2))
    if factor != 1.0:
        assert dropped == (sign < 0 and factor > 1.0)
    _assert_same_facets(points)


@pytest.mark.parametrize("ratio", [0.5, 2.0, 5.0, 10.0])
def test_facets_spanned_near_the_rank_cutoff_match_the_reference(ratio):
    # Rows (1, 0, 0) and (2, e, 0) have sigma_min / sigma_max = e / 5 to first
    # order, so the base facet's first subset is a sliver at `ratio` times the
    # rank cutoff (below it at 0.5, where a later subset spans the facet). Its
    # normal is off by up to about 1e-7 / ratio, which moves the side value of
    # the far point on the same plane by up to about 1e-6, either way.
    rng = np.random.default_rng(int(ratio * 10))
    e = 5.0 * ratio * 1e-9
    for _ in range(6):
        far = np.append(rng.uniform(-12.0, -6.0, 2), 0.0)
        points = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, e, 0.0], [0.5, 0.5, 1.0], [1.0, -1.0, 0.0], far]
        )
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        _assert_same_facets(points @ rotation.T, f"ratio {ratio}")


def test_prefilter_margin_covers_the_gap_to_the_svd_normal():
    # Sliver subsets within 10x the rank cutoff, where the cheap and the SVD
    # normals differ most: every side value under one lies within the
    # derived delta (the margin less its limit) of the other's, up to sign.
    rng = np.random.default_rng(17)
    limit = 1e-7
    worst = 0.0
    for ratio in np.linspace(1.1, 10.0, 60):
        e = 5.0 * ratio * 1e-9
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sliver = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, e, 0.0]])
        points = np.vstack([sliver, rng.uniform(-30.0, 30.0, (5, 3))]) @ rotation.T
        rows = (points[1:3] - points[0])[None]
        _, sv, svt = np.linalg.svd(rows)
        assert sv[0, -1] > 1e-9 * sv[0, 0]
        cheap, margin = _prefilter(rows, points[:1], points, limit)
        delta = float(margin[0]) - limit
        sides = [(points - points[0]) @ normal for normal in (cheap[0], svt[0, -1])]
        gap = min(np.abs(sides[0] - sides[1]).max(), np.abs(sides[0] + sides[1]).max())
        assert gap <= delta, ratio
        assert delta < 0.1
        worst = max(worst, gap)
    assert worst > 1e-9


def _record_stacked_svd(monkeypatch):
    """Record the spanning rows of every subset that reaches the stacked SVD."""
    svd = np.linalg.svd
    received = []

    def recorded_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            received.extend(np.asarray(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    return received


def test_blocks_without_cheap_normals_reach_the_svd_and_match_the_reference(monkeypatch):
    cases = _reference_cases()
    received = _record_stacked_svd(monkeypatch)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    # Every subset: C(15, 5) on spin-1, C(3, 2) on the triangle and
    # C(14, 8) in 3 blocks on generic_14.
    subsets = {"spin1": 3003, "triangle": 3, "generic_14": 3003}
    for solve in (singular, lambda a, b: np.full(a.shape[:-1], np.nan)):
        monkeypatch.setattr(np.linalg, "solve", solve)
        for name, count in subsets.items():
            received.clear()
            _assert_same_facets(cases[name], name)
            assert len(received) == count, name


def test_exactly_singular_probe_systems_reach_the_svd(monkeypatch):
    # On spin-1 some subsets' probe systems are exactly singular, so every
    # block's stacked solve raises; those systems get no cheap normal, and
    # the stacked SVD judges them.
    points = _reference_cases()["spin1"]
    deltas = points - points.mean(axis=0)
    _, sing, vt = np.linalg.svd(deltas, full_matrices=False)
    rank = int(np.count_nonzero(sing > 1e-9 * sing[0]))
    hull_pts = deltas @ vt[:rank].T
    subsets = np.array(list(combinations(range(len(points)), rank)))
    square = np.empty((len(subsets), rank, rank))
    square[:, :-1] = hull_pts[subsets[:, 1:]] - hull_pts[subsets[:, :1]]
    square[:, -1] = np.cos(FACET_PROBE_ANGLE * np.arange(1, rank + 1))
    singular = square[np.linalg.det(square) == 0, :-1]
    assert 0 < len(singular) < len(subsets)
    received = _record_stacked_svd(monkeypatch)
    _assert_same_facets(points)
    assert len(received) < len(subsets)
    assert {a.tobytes() for a in singular} <= {a.tobytes() for a in received}


def test_rank_one_and_rank_two_sets_match_the_reference():
    rng = np.random.default_rng(11)
    lift = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :2]
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 30))
    polygon = np.column_stack([np.cos(angles), np.sin(angles)])
    # Midpoints of edges and points 1e-8 off them: collinear and nearly
    # collinear triples, on the boundary and within the active tolerance.
    midpoints = (polygon + np.roll(polygon, -1, axis=0)) / 2.0
    nudged = midpoints[::3] * (1.0 + 1e-8)
    cases = {
        "rank1_in_3d": np.outer(rng.uniform(-1.0, 1.0, 50), [1.0, -2.0, 0.5]),
        "rank1_repeated": np.outer([0.0, 1.0, 1.0, 0.5, 0.0], [2.0, 1.0]),
        "rank2_polygon_in_4d": polygon @ lift.T,
        "rank2_on_edges": np.vstack([polygon, midpoints[::2], nudged]) @ lift.T,
        "rank2_repeated": np.vstack([polygon[:8], polygon[:8], [[0.0, 0.0]]]),
    }
    for name, points in cases.items():
        _assert_same_facets(points, name)


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


def test_stacked_embedding_matches_the_per_matrix_embedding():
    rng = np.random.default_rng(32)
    for d in (1, 2, 3, 6):
        for shape in ((5,), (2, 3)):
            g = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
            h = g + dagger(g)
            h[..., 0, -1] = -0.0  # signed zeros keep their sign
            got = hermitian_to_real(h)
            assert got.shape == shape + (d * d,)
            for index in np.ndindex(*shape):
                assert got[index].tobytes() == hermitian_to_real(h[index]).tobytes()


def test_stacked_inverse_embedding_matches_the_per_matrix_inverse():
    rng = np.random.default_rng(33)
    for d in (1, 2, 3, 6):
        for shape in ((5,), (2, 3)):
            x = rng.standard_normal(shape + (d * d,))
            x[..., -1] = -0.0  # signed zeros keep their sign
            got = real_to_hermitian(x, d)
            assert got.shape == shape + (d, d)
            for index in np.ndindex(*shape):
                assert got[index].tobytes() == real_to_hermitian(x[index], d).tobytes()
    with pytest.raises(ValidationError):
        real_to_hermitian(np.zeros((2, 8)), 3)


def test_hermitian_facets_are_the_point_facets_converted_one_by_one(spin1_projectors):
    for generators in (spin1_projectors, [projector(psi) for psi in _generic_states(12, 41)]):
        facets = facet_enumeration(generators)
        points = facet_enumeration_points(np.array([hermitian_to_real(g) for g in generators]))
        assert [f.active for f in facets] == [p.active for p in points]
        for f, p in zip(facets, points):
            assert f.functional.tobytes() == real_to_hermitian(p.functional, 3).tobytes()
            assert f.offset == p.offset


# The diagonal 0.5 + 0.3i, 0.5, 0 and the generator [[1, 1], [0, 0]] are not
# Hermitian; their real and upper-triangle parts alone would give answers.
@pytest.mark.parametrize(
    "call",
    [
        lambda basis, target: membership_lp(target, basis),
        lambda basis, target: finite_convex_roof([1.0, 2.0, 3.0], target, basis),
        lambda basis, target: facet_enumeration([np.diag([1.0, 0.0]), [[1.0, 1.0], [0.0, 0.0]]]),
    ],
    ids=["membership", "finite_roof", "facets"],
)
def test_hull_functions_reject_non_hermitian_matrices(call):
    basis = [np.diag(column).astype(complex) for column in np.eye(3)]
    with pytest.raises(NotHermitian):
        call(basis, np.diag([0.5 + 0.3j, 0.5, 0.0]))


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
    facets = facet_enumeration(spin1_projectors + [projector(NEAR_FACET_STATE)])
    actives = [f.active for f in facets]
    assert len(set(actives)) == len(actives) == 57
    assert len(facet_enumeration(spin1_projectors)) == 28


def test_facet_guard_counts_subsets():
    # 22 generic d = 3 projectors span 8 affine dimensions: C(22, 8) subsets.
    with pytest.raises(DimensionTooLarge, match=f"{comb(22, 8)} subsets"):
        facet_enumeration_points(_generic_projectors(22, 7))
    # 40 points of a polygon span 2: C(40, 2) = 780 subsets, well inside.
    angles = 2.0 * np.pi * np.arange(40) / 40
    facets = facet_enumeration_points(np.column_stack([np.cos(angles), np.sin(angles)]))
    assert len(facets) == 40
    assert sorted(f.active for f in facets) == sorted(
        tuple(sorted((k, (k + 1) % 40))) for k in range(40)
    )


def test_facet_guard_counts_side_test_entries():
    # 20 000 points on a line are only 20 000 subsets, but each subset's side
    # test reads all 20 000 points.
    line = np.linspace(0.0, 1.0, 20_000)[:, None] * [[1.0, 2.0]]
    with pytest.raises(DimensionTooLarge, match=r"C\(20000, 1\) \* 20000 = 400000000 side-test"):
        facet_enumeration_points(line)
    # 4096 points, 2**24 entries, are exactly at the limit.
    facets = facet_enumeration_points(line[:: 20_000 // 4096][:4096])
    assert [f.active for f in facets] == [(0,), (4095,)]


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


def test_finite_convex_roof_at_d6_returns_one_or_a_typed_error():
    # An inside mixture of the KD-positive states of a d = 6 Haar basis: the
    # nonpositivity roof is exactly 1. The phase-two simplex over the 792
    # minimal-state projectors has been seen to reach a singular basis here;
    # that must surface as a KDError, never as a numpy exception.
    u = haar_unitary(6, 302)
    minimal = enumerate_min_uncertainty_states(u)
    positive = filter_kd_positive_pure(minimal, u)
    weights = np.random.default_rng(2).dirichlet(np.ones(len(positive.states)))
    rho = sum(w * projector(s) for w, s in zip(weights, positive.states))
    values = nonpositivity_values_fn(u)(minimal.states)
    try:
        value = finite_convex_roof(values, rho, [projector(s) for s in minimal.states])
    except KDError:
        return
    assert value == pytest.approx(1.0, abs=1e-9)


# Each tampering of the optimal weights [0.5, 0, 0, 0.5] of the square's centre
# fails one inside-certificate check: the first moves the reconstruction, the
# second keeps it and the sum but goes negative (the four corners have one
# affine dependency), the third keeps the reconstruction (the first corner is
# the origin) but not the sum.
@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda w: 3.27 * w, "residual"),
        (lambda w: w + 2.0 * np.array([1.0, -1.0, -1.0, 1.0]), "weight"),
        (lambda w: w + np.array([0.5, 0.0, 0.0, 0.0]), "sum to"),
    ],
    ids=["residual", "negative", "sum"],
)
def test_finite_convex_roof_rechecks_its_weights(monkeypatch, tamper, message):
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    args = ([0.0, 1.0, 1.0, 1.0], np.array([0.5, 0.5]), points)
    value, weights = finite_convex_roof_points(*args)
    assert value == 0.5 and weights.tolist() == [0.5, 0.0, 0.0, 0.5]
    solve = geometry.solve_equality_lp

    def tampered(*a, **k):
        res = solve(*a, **k)
        return replace(res, x=tamper(res.x))

    monkeypatch.setattr(geometry, "solve_equality_lp", tampered)
    with pytest.raises(CertificateError, match=message):
        finite_convex_roof_points(*args)


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


@pytest.mark.parametrize("d", [4, 5, 6])
def test_membership_verdicts_agree_with_highs_on_minimal_states(d):
    optimize = pytest.importorskip("scipy.optimize")
    from kdwitness import enumerate_min_uncertainty_states, haar_unitary

    for seed in (1, 2):
        states = enumerate_min_uncertainty_states(haar_unitary(d, 500 + 10 * d + seed)).states
        generators = [projector(s) for s in states]
        points = np.array([hermitian_to_real(g) for g in generators])
        rng = np.random.default_rng(seed)
        inside = np.einsum("k,kij->ij", rng.dirichlet(np.ones(len(states))), generators)
        outside = projector(random_pure_state(d, rng))
        for expected, target in (("inside", inside), ("outside", outside)):
            a = np.vstack([points.T, np.ones((1, len(points)))])
            b = np.concatenate([hermitian_to_real(target), [1.0]])
            ref = optimize.linprog(np.zeros(len(points)), A_eq=a, b_eq=b, bounds=(0, None),
                                   method="highs")
            assert ref.status == (0 if expected == "inside" else 2)
            assert membership_lp(target, generators).verdict == expected
