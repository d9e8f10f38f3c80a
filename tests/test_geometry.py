from dataclasses import replace
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from kdwitness import (
    SPIN1,
    CertificateError,
    DegenerateHull,
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
from kdwitness import config, geometry
from kdwitness.basis import clear_cache
from kdwitness.geometry import (
    FACET_BLOCK,
    Facet,
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


@pytest.fixture
def subset_search(monkeypatch):
    """Facet enumeration without its gift wrapping, so that every set takes the subset search."""
    monkeypatch.setattr(geometry, "_wrap", lambda hull_pts: None)


def _hull_coordinates(points):
    """Hull coordinates of a point set, as facet_enumeration_points makes them."""
    deltas = points - points.mean(axis=0)
    _, sing, vt = np.linalg.svd(deltas, full_matrices=False)
    rank = int(np.count_nonzero(sing > max(1e-12, sing[0] * 1e-9)))
    return deltas @ vt[:rank].T


def _wraps_as_the_subset_search(points, name=""):
    """Whether gift wrapping gave a result; when it does, the subset search's to the bit."""
    hull_pts = _hull_coordinates(points)
    wrapped = geometry._wrap(hull_pts)
    if wrapped is None:
        return False
    searched = geometry._subset_search(hull_pts)
    assert wrapped[2] == searched[2], name
    assert (wrapped[1] == searched[1]).all(), name
    assert wrapped[0].tobytes() == searched[0].tobytes(), name
    return True


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_points_at_the_prefilter_margin_give_the_reference_facets(sign, factor):
    # The base triangle 0, 1, 2 spans a facet of the tetrahedron; a fifth point
    # sits inside (sign +1) or outside (sign -1) its plane, at factor times
    # heights on both sides of the active tolerance, from 1e-4 (about where the
    # subset search's former prefilter set its margin) down to 1e-9. Within the
    # tolerance, that facet has four members.
    tetrahedron = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]])
    for height in (1e-4, 1e-5, 1e-6, 2e-7, 1e-7, 5e-8, 1e-8, 1e-9):
        points = np.vstack([tetrahedron, [[0.3, 0.3, sign * factor * height]]])
        _assert_same_facets(points, f"height {sign * factor * height:g}")


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


def test_sliver_subsets_give_the_reference_facets():
    # Sliver subsets within 10x the rank cutoff, whose SVD normals are the
    # least determined, among five far points.
    rng = np.random.default_rng(17)
    for ratio in np.linspace(1.1, 10.0, 60):
        e = 5.0 * ratio * 1e-9
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sliver = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, e, 0.0]])
        points = np.vstack([sliver, rng.uniform(-30.0, 30.0, (5, 3))]) @ rotation.T
        sv = np.linalg.svd(points[1:3] - points[0], compute_uv=False)
        assert sv[-1] > 1e-9 * sv[0]
        _assert_same_facets(points, f"ratio {ratio}")


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


def test_blocks_without_cheap_normals_reach_the_svd_and_match_the_reference(
    monkeypatch, subset_search
):
    cases = _reference_cases()
    received = _record_stacked_svd(monkeypatch)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    # Every subset, also where linear solves fail: C(15, 5) on spin-1,
    # C(3, 2) on the triangle and C(14, 8) in 3 blocks on generic_14.
    subsets = {"spin1": 3003, "triangle": 3, "generic_14": 3003}
    for solve in (singular, lambda a, b: np.full(a.shape[:-1], np.nan)):
        monkeypatch.setattr(np.linalg, "solve", solve)
        for name, count in subsets.items():
            received.clear()
            clear_cache()  # each set is walked again under this patch, not read back
            _assert_same_facets(cases[name], name)
            assert len(received) == count, name


def test_exactly_singular_probe_systems_reach_the_svd(monkeypatch, subset_search):
    # On spin-1 some subsets' rows are singular, so those subsets span no
    # hyperplane; the stacked SVD judges them with all the others.
    points = _reference_cases()["spin1"]
    hull_pts = _hull_coordinates(points)
    subsets = np.array(list(combinations(range(len(points)), hull_pts.shape[1])))
    rows = hull_pts[subsets[:, 1:]] - hull_pts[subsets[:, :1]]
    sing = np.linalg.svd(rows, compute_uv=False)
    singular = rows[sing[:, -1] <= 1e-12 * sing[:, 0]]
    assert 0 < len(singular) < len(subsets)
    received = _record_stacked_svd(monkeypatch)
    _assert_same_facets(points)
    assert len(received) == len(subsets)
    assert {a.tobytes() for a in singular} <= {a.tobytes() for a in received}


def test_gift_wrapping_gives_the_subset_search_on_generic_sets():
    # Rank 8, from a simplex (n = 9) to 18 points.
    for n in range(9, 19):
        for seed in range(2 if n <= 15 else 1):
            name = f"generic_{n} seed {seed}"
            assert _wraps_as_the_subset_search(_generic_projectors(n, 900 + 10 * n + seed), name)
    rng = np.random.default_rng(40)
    for rank in (3, 5):
        assert _wraps_as_the_subset_search(rng.standard_normal((rank + 1, rank)), "simplex")


def test_gift_wrapping_gives_the_subset_search_on_non_simplicial_sets():
    spin1 = _real_projectors(SPIN1.min_uncertainty_states)
    cases = {
        # Rank 5; 16 of its 28 facets hold 6, 7 or 9 of the 15 points.
        "spin1": spin1,
        # Copies lie on every facet of their originals, and subsets holding
        # both do not span.
        "spin1_three_repeated": np.vstack([spin1, spin1[[0, 4, 9]]]),
        "cube": np.array(list(product([0.0, 1.0], repeat=3))),
        # Axis-aligned, so the first facet's rotations meet points on their axis.
        "4-cube": np.array(list(product([0.0, 1.0], repeat=4))),
        # Generators inside facets and on edges.
        "3 x 3 x 2 grid": np.array(list(product([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 1.0]))),
        "triangular prism": np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        ),
    }
    for name, points in cases.items():
        assert _wraps_as_the_subset_search(points, name), name


def _near_facet(points, depth):
    """``points`` and the centroid of their first facet's members moved ``depth`` inside it."""
    facet = facet_enumeration_points(points)[0]
    centroid = points[list(facet.active)].mean(axis=0)
    return np.vstack([points, centroid - depth * facet.functional])


def test_gift_wrapping_near_degenerate_sets_gives_the_subset_search_or_gives_up():
    base = _generic_projectors(14, 314)
    outcomes = {}
    for k in range(3, 10):
        for sign in (1.0, -1.0):
            name = f"{sign * 10.0**-k:g} inside a facet"
            outcomes[sign, k] = _wraps_as_the_subset_search(_near_facet(base, sign * 10.0**-k), name)
    # Within the active tolerance the point lies on the facet, which then
    # has nine members, and the walk passes through it; at the tolerance it
    # gives up; far off it the set is generic again.
    assert all(outcomes[sign, k] for sign in (1.0, -1.0) for k in (3, 8, 9))
    assert not any(outcomes[sign, 7] for sign in (1.0, -1.0))
    for k in (4, 8, 12):
        near_copy = np.vstack([base, base[5] + 10.0**-k * np.sin(np.arange(base.shape[1]))])
        wrapped = _wraps_as_the_subset_search(near_copy, f"a copy 1e-{k} off a point")
        # Below the rank cutoff the copy lies on every facet of its original.
        assert k == 4 or wrapped == (k == 12)
    spin1 = _real_projectors(SPIN1.min_uncertainty_states)
    rng = np.random.default_rng(41)
    for k in range(6, 10):
        perturbed = spin1 + 10.0**-k * rng.standard_normal(spin1.shape)
        assert not _wraps_as_the_subset_search(perturbed, f"spin-1 moved by 1e-{k}")


def test_facet_enumeration_falls_back_to_the_subset_search_only_where_wrapping_gives_up(
    monkeypatch,
):
    searched = []
    search = geometry._subset_search

    def recorded(hull_pts):
        searched.append(len(hull_pts))
        return search(hull_pts)

    monkeypatch.setattr(geometry, "_subset_search", recorded)
    facet_enumeration_points(_generic_projectors(16, 316))
    facet_enumeration_points(_generic_projectors(11, 311))
    assert len(facet_enumeration_points(_real_projectors(SPIN1.min_uncertainty_states))) == 28
    assert searched == []
    # A point at the active tolerance of a facet.
    facet_enumeration_points(_near_facet(_generic_projectors(14, 314), 1e-7))
    assert searched == [15]


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


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_membership_refuses_a_tolerance_below_the_floor(spin1_projectors, tol):
    # At rounding-level tolerances phase one's leftover rounding reads as
    # infeasibility, and this inside target would fail its Farkas check.
    with pytest.raises(ValidationError, match="MEMBERSHIP_TOL_FLOOR"):
        membership_lp(np.eye(3) / 3.0, spin1_projectors[:6], tol=tol)


def test_membership_at_the_tolerance_floor_certifies_inside(spin1_projectors):
    tol = config.MEMBERSHIP_TOL_FLOOR
    cert = membership_lp(np.eye(3) / 3.0, spin1_projectors[:6], tol=tol)
    assert cert.verdict == "inside"
    assert cert.tol == tol


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


def _facet_bits(facets):
    return [(f.active, f.functional.tobytes(), float(f.offset).hex()) for f in facets]


def test_a_second_facet_call_walks_nothing_and_gives_the_same_bits(monkeypatch):
    points = _real_projectors(SPIN1.min_uncertainty_states)
    first = facet_enumeration_points(points)
    assert _facet_bits(first) == _facet_bits(_reference_facets(points))
    calls = []
    monkeypatch.setattr(geometry, "_wrap", lambda hull_pts: calls.append("wrap"))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append("svd"))
    second = facet_enumeration_points(points.copy())
    assert calls == []
    assert _facet_bits(second) == _facet_bits(first)


def test_equal_points_share_one_facet_entry(spin1_projectors):
    points = _real_projectors(SPIN1.min_uncertainty_states)
    want = _facet_bits(facet_enumeration_points(points))
    for same in (points.tolist(), np.asfortranarray(points)):
        assert _facet_bits(facet_enumeration_points(same)) == want
    # The Hermitian wrapper embeds the projectors to the same points.
    assert [f.active for f in facet_enumeration(spin1_projectors)] == [a for a, _, _ in want]
    info = geometry._facets.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_cached_facets_are_read_only_in_a_new_list():
    points = _generic_projectors(12, 412)
    first = facet_enumeration_points(points)
    first.pop()
    second = facet_enumeration_points(points)
    assert second is not first and len(second) == len(first) + 1
    for f in second:
        assert not f.functional.flags.writeable
        with pytest.raises(ValueError):
            f.functional[0] = 0.0


def test_failing_point_sets_raise_on_every_facet_call():
    for _ in range(2):
        with pytest.raises(DegenerateHull):
            facet_enumeration_points(np.zeros((3, 2)))
        with pytest.raises(DimensionTooLarge):
            facet_enumeration_points(_generic_projectors(22, 7))
    assert geometry._facets.cache_info().currsize == 0


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


@pytest.mark.parametrize("first", [1.0, np.ones(3)], ids=["scalar", "vector"])
def test_a_first_generator_that_is_not_a_matrix_is_a_validation_error(first):
    with pytest.raises(ValidationError, match="the first generator must be a matrix"):
        membership_lp(np.eye(2) / 2.0, [first])
    with pytest.raises(ValidationError, match="the first generator must be a matrix"):
        facet_enumeration([first, np.eye(2) / 2.0])
    with pytest.raises(ValidationError, match="the first generator must be a matrix"):
        finite_convex_roof([1.0], np.eye(2) / 2.0, [first])


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


@pytest.mark.parametrize("seed", range(6))
def test_finite_convex_roof_of_a_d6_positive_mixture_is_one(seed):
    # As above, at six bases; the roof is exactly 1 on each. The LP has degenerate
    # vertices, where rounding below 0 must not decide the ratio test's ties.
    u = haar_unitary(6, 300 + seed)
    minimal = enumerate_min_uncertainty_states(u)
    positive = filter_kd_positive_pure(minimal, u)
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(positive.states)))
    rho = sum(w * projector(s) for w, s in zip(weights, positive.states))
    values = nonpositivity_values_fn(u)(minimal.states)
    value = finite_convex_roof(values, rho, [projector(s) for s in minimal.states])
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


def test_wide_hull_lps_at_d7_give_checked_verdicts():
    # The 3003 minimal states of a d = 7 basis: 50 x 3003 LPs.
    from kdwitness import config, enumerate_min_uncertainty_states

    u = haar_unitary(7, 1007)
    minimal = enumerate_min_uncertainty_states(u)
    assert len(minimal) == 3003
    points = hermitian_to_real(np.einsum("ki,kj->kij", minimal.states, minimal.states.conj()))
    positive = filter_kd_positive_pure(minimal, u).states
    weights = np.random.default_rng(7).dirichlet(np.ones(len(positive)))
    inside = hermitian_to_real(np.einsum("k,ki,kj->ij", weights, positive, positive.conj()))
    cert = membership_lp_points(inside, points)
    assert cert.verdict == "inside"
    geometry._check_inside(points, inside, cert.weights, cert.tol)

    outside = hermitian_to_real(projector(random_pure_state(7, np.random.default_rng(4007))))
    cert = membership_lp_points(outside, points)
    assert cert.verdict == "outside"
    values = points @ cert.functional
    assert values.max() <= cert.threshold
    assert outside @ cert.functional - values.max() == pytest.approx(cert.margin, abs=1e-12)
    assert cert.margin > config.MARGIN_FACTOR * cert.tol
