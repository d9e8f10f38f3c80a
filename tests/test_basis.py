"""The per-basis caches: same answers as fresh work, read-only, bounded."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kdwitness import (
    DimensionMismatch,
    DimensionTooLarge,
    NotCompletelyIncompatible,
    SPIN1,
    ValidationError,
    basis,
    complete_incompatibility,
    config,
    enumerate_min_uncertainty_states,
    facet_enumeration,
    filter_kd_positive_pure,
    geometry,
    haar_unitary,
    incompatibility,
    nonpositivity_roof_bounds,
    pure_positive,
    rho_lambda,
    roof,
    support_roof_bounds,
)
from kdwitness.errors import NonGenericPatternWarning
from kdwitness.io_json import dumps_report, to_jsonable
from kdwitness.studies import dft_matrix

CACHES = (incompatibility._smallest_minor, pure_positive._solve_patterns)


def _inside_mixture(states):
    return np.einsum("ki,kj->ij", states, states.conj()) / len(states)


def test_equal_content_shares_one_pair():
    u = haar_unitary(4, 1)
    first = enumerate_min_uncertainty_states(u)
    assert enumerate_min_uncertainty_states(u.copy()) is first
    assert enumerate_min_uncertainty_states(np.asfortranarray(u)) is first
    assert enumerate_min_uncertainty_states(haar_unitary(4, 2)) is not first
    hits = incompatibility._smallest_minor.cache_info().hits
    complete_incompatibility(np.asfortranarray(u))
    assert incompatibility._smallest_minor.cache_info().hits == hits + 1


def test_computation_gets_a_read_only_c_ordered_copy():
    seen = []
    spy = basis.per_basis(lambda u: seen.append(u) or len(seen))
    u = np.asfortranarray(haar_unitary(3, 4))
    assert spy(u) == spy(u.copy()) == 1
    (copy,) = seen
    assert copy.flags.c_contiguous and not copy.flags.writeable
    assert np.array_equal(copy, u)


def test_cached_arrays_are_read_only():
    u = haar_unitary(4, 3)
    minimal = enumerate_min_uncertainty_states(u)
    rho = _inside_mixture(filter_kd_positive_pure(minimal, u).states)
    assert support_roof_bounds(rho, u).exact and nonpositivity_roof_bounds(rho, u).exact
    assert enumerate_min_uncertainty_states(u) is minimal
    assert not minimal.states.flags.writeable
    with pytest.raises(ValueError):
        minimal.states[0] = 0.0


def test_warnings_are_replayed_on_every_hit(monkeypatch):
    monkeypatch.setattr(
        pure_positive,
        "complete_incompatibility",
        lambda u: SimpleNamespace(completely_incompatible=True),
    )
    seen = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seen.append((enumerate_min_uncertainty_states(dft_matrix(6)), caught))
    (first, first_warnings), (second, second_warnings) = seen
    assert second is first
    messages = [[str(w.message) for w in ws] for ws in (first_warnings, second_warnings)]
    assert messages[0] == messages[1]
    assert len(messages[0]) == len(first.degenerate_patterns) > 1
    assert all(w.category is NonGenericPatternWarning for w in second_warnings)


def test_solves_on_the_kept_pattern_tables_give_the_same_answer(monkeypatch):
    # The pattern tables depend on d alone and outlive the per-basis cache.
    monkeypatch.setattr(
        pure_positive,
        "complete_incompatibility",
        lambda u: SimpleNamespace(completely_incompatible=True),
    )
    for u in (haar_unitary(5, 9), dft_matrix(6)):
        seen = []
        for clear in (True, False, True):
            if clear:
                basis.clear_cache()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = enumerate_min_uncertainty_states(u)
            seen.append((result.states.tobytes(), result.patterns, result.degenerate_patterns,
                         [(w.category, str(w.message)) for w in caught]))
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0][3]) == len(seen[0][2])
    assert len(seen[0][2]) > 1


def test_typed_errors_on_every_call():
    for _ in range(2):
        with pytest.raises(NotCompletelyIncompatible):
            enumerate_min_uncertainty_states(dft_matrix(4))
        with pytest.raises(DimensionTooLarge, match="48619 minors"):
            enumerate_min_uncertainty_states(haar_unitary(9, 1))
        with pytest.raises(DimensionTooLarge):
            complete_incompatibility(np.eye(9))
        with pytest.raises(DimensionMismatch):
            complete_incompatibility(np.ones((2, 3)))
        with pytest.raises(ValidationError, match="rounding"):
            complete_incompatibility(SPIN1.transition, eps=1e-18)
    bad = SPIN1.transition.copy()
    bad[0, 0] = np.nan
    enumerate_min_uncertainty_states(SPIN1.transition)
    with pytest.raises(ValidationError, match="NaN"):
        enumerate_min_uncertainty_states(bad)


def test_mutated_input_gets_a_fresh_answer():
    u = haar_unitary(4, 5).copy()
    before = enumerate_min_uncertainty_states(u)
    u[:] = haar_unitary(4, 6)
    after = enumerate_min_uncertainty_states(u)
    fresh = enumerate_min_uncertainty_states(haar_unitary(4, 6))
    assert after is fresh
    assert not np.array_equal(after.states, before.states)


def test_each_tolerance_still_changes_the_answer():
    # A minor of modulus 1e-7 lies between the default eps and 1e-6.
    u = haar_unitary(3, 8).copy()
    u[0, 0] = 1e-7
    assert complete_incompatibility(u).completely_incompatible
    report = complete_incompatibility(u, eps=1e-6)
    assert not report.completely_incompatible and report.eps == 1e-6
    # The cached minor search keeps no eps: the default answers at BASE_TOL again.
    assert complete_incompatibility(u).completely_incompatible


def test_cache_stays_within_its_size():
    first = enumerate_min_uncertainty_states(haar_unitary(3, 0))
    for seed in range(1, config.BASIS_CACHE_SIZE + 5):
        enumerate_min_uncertainty_states(haar_unitary(3, seed))
    for cache in CACHES:
        assert cache.cache_info().currsize == config.BASIS_CACHE_SIZE
    assert enumerate_min_uncertainty_states(haar_unitary(3, 0)) is not first
    basis.clear_cache()
    assert all(cache.cache_info().currsize == 0 for cache in CACHES)


def test_one_recurrence_per_fresh_basis():
    # The minor search and the pattern solve read the same minors, kept for
    # the last basis only.
    for seed in (7, 8):
        enumerate_min_uncertainty_states(haar_unitary(5, seed))
    info = incompatibility._recurrence.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 1)
    u = haar_unitary(5, 7)
    minors, bound = incompatibility._minors_by_recurrence(u)
    minors.pop()
    again, _ = incompatibility._minors_by_recurrence(u)
    assert len(again) == len(minors) + 1 == 5
    for array in again:
        assert not array.flags.writeable
    basis.clear_cache()
    fresh, fresh_bound = incompatibility._minors_by_recurrence(u.copy())
    assert [m.tobytes() for m in fresh] == [m.tobytes() for m in again]
    assert fresh_bound.tobytes() == bound.tobytes()


def test_facets_are_kept_within_the_cache_size_and_cleared():
    spin1 = [np.outer(s, s.conj()) for s in SPIN1.min_uncertainty_states]
    first = facet_enumeration(spin1)
    for seed in range(config.BASIS_CACHE_SIZE + 2):
        geometry.facet_enumeration_points(np.random.default_rng(seed).standard_normal((6, 3)))
    assert geometry._facets.cache_info().currsize == config.BASIS_CACHE_SIZE
    assert geometry._facets.cache_info().misses == config.BASIS_CACHE_SIZE + 3
    facet_enumeration(spin1)
    assert geometry._facets.cache_info().misses == config.BASIS_CACHE_SIZE + 4
    assert len(facet_enumeration(spin1)) == len(first) == 28
    basis.clear_cache()
    assert geometry._facets.cache_info().currsize == 0


def _spin1_rho():
    return rho_lambda(0.3), SPIN1.transition


def _haar_inside():
    u = haar_unitary(5, 5)
    positive = filter_kd_positive_pure(enumerate_min_uncertainty_states(u), u)
    return _inside_mixture(positive.states), u


@pytest.mark.parametrize("case", [_spin1_rho, _haar_inside], ids=["spin1", "haar5_inside"])
@pytest.mark.parametrize(
    "bounds", [support_roof_bounds, nonpositivity_roof_bounds], ids=["support", "nonpos"]
)
def test_roofs_agree_on_a_cold_and_a_warm_cache(case, bounds):
    rho, u = case()
    basis.clear_cache()
    cold = bounds(rho, u)
    assert all(cache.cache_info().currsize > 0 for cache in CACHES)
    warm = bounds(rho, u)
    assert to_jsonable(warm) == to_jsonable(cold)
    for part in ("weights", "states"):
        assert (getattr(warm.upper_decomposition, part).tobytes()
                == getattr(cold.upper_decomposition, part).tobytes())


def _spin1_inside():
    return _inside_mixture(SPIN1.positive_states), SPIN1.transition


def _counting(monkeypatch, names):
    """Replace each named function of the roof module by one that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(roof, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(roof, name, counted)
    return calls


@pytest.mark.parametrize(
    "bounds", [support_roof_bounds, nonpositivity_roof_bounds], ids=["support", "nonpos"]
)
def test_a_second_roof_call_reuses_the_hull_anchors(monkeypatch, bounds):
    # Inside the hull no column is generated: the anchors alone need points, those
    # of the minimal states and of the KD-positive ones, for either roof.
    rho, u = _spin1_inside()
    basis.clear_cache()
    calls = _counting(monkeypatch, ("filter_kd_positive_pure", "_projector_points"))
    cold = bounds(rho, u)
    assert calls == {"filter_kd_positive_pure": 1, "_projector_points": 2}
    assert roof._hull_anchors.cache_info().misses == 1
    calls.update(dict.fromkeys(calls, 0))
    warm = bounds(rho, u)
    assert calls == {"filter_kd_positive_pure": 0, "_projector_points": 0}
    assert warm.exact and warm.membership.verdict == "inside"
    assert dumps_report({"results": warm}) == dumps_report({"results": cold})


def test_both_roofs_share_one_hull_anchor_entry_per_basis():
    rho, u = _spin1_inside()
    basis.clear_cache()
    support_roof_bounds(rho, u)
    nonpositivity_roof_bounds(rho, u)
    info = roof._hull_anchors.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cached_hull_anchors_are_read_only_and_bounded():
    u = SPIN1.transition.astype(complex)
    anchors = roof._hull_anchors(u)
    assert roof._hull_anchors(u.copy()) is anchors
    for array in (*anchors[0], *anchors[1]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    for seed in range(config.BASIS_CACHE_SIZE + 2):
        roof._hull_anchors(haar_unitary(3, seed))
    assert roof._hull_anchors.cache_info().currsize == config.BASIS_CACHE_SIZE
    (minimal, _), (positive, _) = anchors
    assert len(minimal) == 15 and len(positive) == 9
