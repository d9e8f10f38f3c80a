from itertools import combinations
from math import comb

import numpy as np
import pytest

from kdwitness import (
    DimensionTooLarge,
    SPIN1,
    ValidationError,
    complete_incompatibility,
    support_counts_mixed,
    support_counts_pure,
)
from kdwitness.basis import clear_cache
from kdwitness.incompatibility import _minors_by_recurrence
from kdwitness.linalg import haar_unitary, projector, random_pure_state
from kdwitness.studies import dft_matrix

from conftest import state


# -- reference: the minor stack built one (rows, cols) pair at a time ---------


def _reference_minor_search(u):
    """Smallest |minor|, its (order, rows, cols) and the count, pair by pair."""
    d = u.shape[0]
    best_abs = np.inf
    best = (0, (), ())
    checked = 0
    for order in range(1, d + 1):
        subsets = list(combinations(range(d), order))
        pairs = [(r, c) for r in subsets for c in subsets]
        stacked = np.empty((len(pairs), order, order), dtype=complex)
        for k, (rows, cols) in enumerate(pairs):
            stacked[k] = u[np.ix_(rows, cols)]
        dets = np.abs(np.linalg.det(stacked))
        checked += len(pairs)
        k_min = int(np.argmin(dets))
        if dets[k_min] < best_abs:
            best_abs = float(dets[k_min])
            best = (order, pairs[k_min][0], pairs[k_min][1])
    return best_abs, best, checked


def _planted_zero_minor():
    # Rows {1, 3} x cols {0, 2} of a Haar d = 5 matrix replaced by a rank-one
    # block, so that one 2 x 2 minor vanishes exactly.
    u = haar_unitary(5, seed=3)
    u[np.ix_([1, 3], [0, 2])] = np.outer([0.3, 0.6], [0.5, 1.0])
    return u


def test_gathered_minors_match_the_per_pair_reference():
    # DFT matrices have many minors of equal modulus, so their argmin comes
    # from the lexicographic tie-break.
    cases = {f"haar_{d}": haar_unitary(d, seed=1000 + d) for d in range(2, 9)}
    cases.update((f"dft_{d}", dft_matrix(d)) for d in range(2, 9))
    cases["identity"] = np.eye(4, dtype=complex)
    cases["planted_zero"] = _planted_zero_minor()
    for name, u in cases.items():
        report = complete_incompatibility(u)
        best_abs, best, checked = _reference_minor_search(u)
        assert np.float64(report.min_abs_minor).tobytes() == np.float64(best_abs).tobytes(), name
        assert (report.argmin_order, report.argmin_rows, report.argmin_cols) == best, name
        assert report.minors_checked == checked == comb(2 * u.shape[0], u.shape[0]) - 1, name
    planted = complete_incompatibility(cases["planted_zero"])
    assert planted.min_abs_minor == 0.0 and not planted.completely_incompatible


def _lu_minors(u):
    """Every minor of ``u`` by ``np.linalg.det``, flat in the recurrence's layout."""
    d = u.shape[0]
    dets = []
    for order in range(1, d + 1):
        s = np.array(list(combinations(range(d), order)))
        dets.append(np.linalg.det(u[s[:, None, :, None], s[None, :, None, :]]).ravel())
    return np.concatenate(dets)


def test_recurrence_error_is_within_its_bound_on_every_minor():
    rng = np.random.default_rng(17)
    cases = {f"haar_{d}": haar_unitary(d, seed=1100 + d) for d in range(2, 9)}
    cases["haar_6_x1e3"] = haar_unitary(6, seed=1206) * 1e3
    cases["haar_6_x1e-3"] = haar_unitary(6, seed=1206) * 1e-3
    cases["gaussian_6"] = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for name, u in cases.items():
        orders, bound = _minors_by_recurrence(u)
        minors = np.concatenate(orders)
        assert minors.shape == bound.shape == (comb(2 * u.shape[0], u.shape[0]) - 1,), name
        assert np.all(np.abs(minors - _lu_minors(u)) <= bound), name


def test_near_ties_ordered_opposite_by_the_recurrence_keep_the_lu_argmin():
    # Haar minima come in Jacobi pairs, complementary minors of equal modulus
    # up to rounding, so the recurrence and the LU often order the two
    # smallest minors differently. The report follows the LU either way.
    opposite = 0
    for seed in range(40):
        u = haar_unitary(4, seed=seed)
        orders, bound = _minors_by_recurrence(u)
        minors = np.concatenate(orders)
        lu = np.abs(_lu_minors(u))
        by_rec, by_lu = int(np.argmin(np.abs(minors))), int(np.argmin(lu))
        if lu[by_rec] > lu[by_lu] and abs(minors[by_rec]) < abs(minors[by_lu]):
            opposite += 1
            assert lu[by_rec] - lu[by_lu] < bound[by_lu], seed
        report = complete_incompatibility(u)
        best_abs, best, _ = _reference_minor_search(u)
        assert np.float64(report.min_abs_minor).tobytes() == np.float64(best_abs).tobytes(), seed
        assert (report.argmin_order, report.argmin_rows, report.argmin_cols) == best, seed
    assert opposite >= 2


def test_minors_that_overflow_or_underflow_keep_the_reference_bits():
    for u in (haar_unitary(5, seed=9) * 1e150, haar_unitary(8, seed=9) * 1e-120):
        with np.errstate(over="ignore", invalid="ignore"):
            report = complete_incompatibility(u)
            best_abs, best, _ = _reference_minor_search(u)
        assert np.float64(report.min_abs_minor).tobytes() == np.float64(best_abs).tobytes()
        assert (report.argmin_order, report.argmin_rows, report.argmin_cols) == best


def test_haar_minors_rechecked_by_lu_are_few(monkeypatch):
    # Only the smallest Jacobi pair is near the minimum of a Haar basis.
    det, rechecked = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda a: rechecked.append(len(a)) or det(a))
    for seed in range(5):
        rechecked.clear()
        clear_cache()
        complete_incompatibility(haar_unitary(8, seed=seed))
        assert 1 <= sum(rechecked) <= 8, seed


def test_support_pure_basis_state():
    counts = support_counts_pure(state("a1"), SPIN1.transition)
    assert (counts.n_a, counts.n_b, counts.n_ab) == (1, 3, 4)


def test_support_pure_minimal_state():
    counts = support_counts_pure(state("psi1"), SPIN1.transition)
    assert (counts.n_a, counts.n_b, counts.n_ab) == (2, 2, 4)
    assert counts.smallest_kept == pytest.approx(1.0 / np.sqrt(5.0))
    assert counts.largest_discarded == pytest.approx(0.0, abs=1e-12)


def test_support_pure_generic_state_is_full():
    for k in range(20):
        psi = random_pure_state(3, np.random.default_rng(300 + k))
        counts = support_counts_pure(psi, SPIN1.transition)
        assert (counts.n_a, counts.n_b) == (3, 3)


def test_support_mixed_cases():
    u = SPIN1.transition
    assert support_counts_mixed(np.eye(3) / 3.0, u).n_ab == 6
    mix_ab = (projector(state("a1")) + projector(state("b1"))) / 2.0
    assert support_counts_mixed(mix_ab, u).n_ab == 6
    mix_aa = (projector(state("a1")) + projector(state("a2"))) / 2.0
    assert support_counts_mixed(mix_aa, u).n_ab == 5


def test_mixed_support_on_basis_combinations():
    # Structure of the naive mixed counts on combinations of the two bases:
    # touching both bases fills everything, staying inside one basis gives
    # the dimension plus the number of terms.
    rng = np.random.default_rng(9)
    u = SPIN1.transition
    d = 3
    projs_a = [projector(state(n)) for n in ("a1", "a2", "a3")]
    projs_b = [projector(state(n)) for n in ("b1", "b2", "b3")]
    for _ in range(30):
        k_a = int(rng.integers(1, d + 1))
        k_b = int(rng.integers(1, d + 1))
        lam = rng.dirichlet(np.ones(k_a + k_b))
        rho = sum(w * p for w, p in zip(lam[:k_a], projs_a[:k_a]))
        rho += sum(w * p for w, p in zip(lam[k_a:], projs_b[:k_b]))
        assert support_counts_mixed(rho, u).n_ab == 2 * d
    for _ in range(30):
        k = int(rng.integers(1, d + 1))
        lam = rng.dirichlet(np.ones(k))
        rho_a = sum(w * p for w, p in zip(lam, projs_a[:k]))
        assert support_counts_mixed(rho_a, u).n_ab == d + k
        rho_b = sum(w * p for w, p in zip(lam, projs_b[:k]))
        assert support_counts_mixed(rho_b, u).n_ab == d + k


def test_complete_incompatibility_spin1():
    report = complete_incompatibility(SPIN1.transition)
    assert report.completely_incompatible
    assert report.min_abs_minor == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.minors_checked == sum(comb(3, k) ** 2 for k in range(1, 4))


def test_complete_incompatibility_dft():
    assert complete_incompatibility(dft_matrix(3)).completely_incompatible
    report4 = complete_incompatibility(dft_matrix(4))
    assert not report4.completely_incompatible
    assert report4.min_abs_minor <= 1e-12
    assert report4.argmin_order == 2
    assert report4.minors_checked == sum(comb(4, k) ** 2 for k in range(1, 5))


def test_eps_below_rounding_is_rejected():
    # Minors of DFT 6 that vanish exactly come out at about 1e-17 in float64.
    u = dft_matrix(6)
    assert complete_incompatibility(u).min_abs_minor < 1e-15
    with pytest.raises(ValidationError, match="rounding"):
        complete_incompatibility(u, eps=1e-18)
    assert not complete_incompatibility(u, eps=1e-13).completely_incompatible


def test_complete_incompatibility_identity():
    report = complete_incompatibility(np.eye(3))
    assert not report.completely_incompatible
    assert report.argmin_order == 1


def test_complete_incompatibility_guard():
    # The guard counts minors, C(2d, d) - 1: d = 8 has 12 869, d = 9 48 619.
    assert complete_incompatibility(np.eye(8)).minors_checked == 12_869
    with pytest.raises(DimensionTooLarge, match=r"C\(18, 9\) - 1 = 48619 .* limit of 12869"):
        complete_incompatibility(np.eye(9))


def test_support_floor_for_completely_incompatible_bases():
    # Every pure state of a completely incompatible pair has summed support
    # at least d + 1; checked on ten thousand Haar samples.
    u = SPIN1.transition
    rng = np.random.default_rng(123)
    samples = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    samples /= np.linalg.norm(samples, axis=1)[:, None]
    eps = 1e-9
    n_a = (np.abs(samples) > eps).sum(axis=1)
    n_b = (np.abs(samples @ u.conj()) > eps).sum(axis=1)
    assert int((n_a + n_b).min()) >= 4


def test_haar_samples_are_generically_incompatible():
    for k in range(100):
        u = haar_unitary(3, seed=7000 + k)
        assert complete_incompatibility(u).completely_incompatible
