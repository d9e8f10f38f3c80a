import numpy as np
import pytest

from kdwitness import (
    OutOfRange,
    SPIN1,
    enumerate_min_uncertainty_states,
    phase_invariant_distance,
    rho_lambda,
    rho_lambda_eigenvalues,
    run_spin1_checks,
)
from kdwitness.spin1 import _match_sets


def test_fixture_invariants():
    u = SPIN1.transition
    assert np.linalg.norm(u @ u.T - np.eye(3)) <= 1e-12
    assert np.trace(SPIN1.witness) == pytest.approx(1.0, abs=1e-15)
    assert SPIN1.min_uncertainty_states.shape == (15, 3)
    assert SPIN1.positive_states.shape == (9, 3)
    assert len(SPIN1.state_labels) == 15


def test_phi3_is_the_difference_of_the_first_two_basis_states():
    phi3 = SPIN1.min_uncertainty_states[SPIN1.state_labels.index("phi3")]
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(phi3, expected)


def test_rho_lambda_endpoints():
    rho0 = rho_lambda(0.0)
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho0).min() >= -1e-12
    assert np.allclose(rho_lambda(1.0), SPIN1.witness)


def test_rho_lambda_psd_window():
    assert abs(np.linalg.eigvalsh(rho_lambda(4.0 / 7.0)).min()) <= 1e-9
    assert np.linalg.eigvalsh(rho_lambda(0.8)).min() < -1e-6


def test_rho_lambda_range_check():
    with pytest.raises(OutOfRange):
        rho_lambda(-0.1)
    with pytest.raises(OutOfRange):
        rho_lambda(1.1)


def test_eigenvalue_formulas_on_grid():
    for lam in np.linspace(0.0, 1.0, 21):
        numeric = np.sort(np.linalg.eigvalsh(rho_lambda(lam)))
        formula = np.sort(rho_lambda_eigenvalues(lam))
        assert np.abs(numeric - formula).max() <= 1e-9


def test_first_eigenvalue_at_the_boundary():
    r1, _, _ = rho_lambda_eigenvalues(4.0 / 7.0)
    assert r1 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_witness_trace_identity_sample():
    value = float(np.trace(SPIN1.witness @ rho_lambda(0.3)).real)
    assert value == pytest.approx(0.525, abs=1e-12)


def test_full_check_run_passes():
    report = run_spin1_checks()
    failures = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {failures}"
    assert report.facet_count == 28
    assert len(report.witness_expectations) == 15
    assert max(report.witness_expectations) == pytest.approx(0.5, abs=1e-12)


def _loop_match(found, reference, tol):
    """The greedy bijection one pair at a time: each reference takes the
    nearest remaining found state, the lower index on ties."""
    remaining = list(range(found.shape[0]))
    worst = 0.0
    for ref in reference:
        best_dist, best_k = min((phase_invariant_distance(found[k], ref), k) for k in remaining)
        if best_dist > tol:
            return float("inf")
        worst = max(worst, best_dist)
        remaining.remove(best_k)
    return worst


def test_match_sets_equals_the_pairwise_loop_on_permuted_phased_fixtures():
    reference = SPIN1.min_uncertainty_states
    enumerated = enumerate_min_uncertainty_states(SPIN1.transition).states
    rng = np.random.default_rng(15)
    for states in (reference, enumerated):
        for _ in range(10):
            order = rng.permutation(len(states))
            phases = np.exp(2j * np.pi * rng.random(len(states)))
            found = states[order] * phases[:, None]
            worst = _match_sets(found, reference, 1e-8)
            assert worst == _loop_match(found, reference, 1e-8)
            assert worst <= 1e-15
    # A state moved off the fixture fails the match; so does a size mismatch.
    moved = reference.copy()
    moved[3] = reference[4]
    assert _match_sets(moved, reference, 1e-8) == _loop_match(moved, reference, 1e-8) == np.inf
    assert _match_sets(reference[:14], reference, 1e-8) == np.inf
