"""Built-in spin-1 system with a completely incompatible basis pair.

The two bases are eigenbases of spin components along axes at a rational
angle, making every fixture entry a ratio of small integers: the
transition matrix has entries in thirds and the bounding witness in
twelfths. This system is the smallest known one where the KD-positive
states strictly exceed the convex hull of the pure KD-positive states, and
``run_spin1_checks`` scores every quantitative claim about it.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRange
from .geometry import OUTSIDE, facet_enumeration, membership_lp
from .incompatibility import complete_incompatibility
from .kd import is_kd_positive, kd_table, total_nonpositivity
from .linalg import projector
from .pure_positive import (
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    phase_invariant_distance,
)
from .roof import nonpositivity_roof_bounds, support_roof_bounds


def _rational_matrix(numerators, denominator: int) -> np.ndarray:
    rows = [[float(Fraction(n, denominator)) for n in row] for row in numerators]
    return np.array(rows, dtype=float)


def _unit(vector) -> np.ndarray:
    v = np.array(vector, dtype=complex)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class Spin1Fixture:
    """Exact fixture data: transition matrix, bounding witness, and the
    minimal-support-uncertainty states with the KD-positive ones first."""

    transition: np.ndarray
    witness: np.ndarray
    min_uncertainty_states: np.ndarray
    positive_states: np.ndarray
    state_labels: tuple[str, ...]
    saturating_labels: tuple[str, ...]


def _build_fixture() -> Spin1Fixture:
    transition = _rational_matrix([[-1, 2, 2], [2, -1, 2], [2, 2, -1]], 3)
    witness = _rational_matrix([[2, -2, -3], [-2, 6, -1], [-3, -1, 4]], 12)
    basis_a = [np.eye(3, dtype=complex)[i] for i in range(3)]
    basis_b = [transition[:, j].astype(complex) for j in range(3)]
    phis = [_unit([0, 1, -1]), _unit([1, 0, -1]), _unit([1, -1, 0])]
    psis = [
        _unit([1, 2, 0]),
        _unit([2, 1, 0]),
        _unit([1, 0, 2]),
        _unit([2, 0, 1]),
        _unit([0, 1, 2]),
        _unit([0, 2, 1]),
    ]
    states = np.array(basis_a + basis_b + phis + psis)
    labels = (
        "a1", "a2", "a3", "b1", "b2", "b3",
        "phi1", "phi2", "phi3",
        "psi1", "psi2", "psi3", "psi4", "psi5", "psi6",
    )
    return Spin1Fixture(
        transition=transition,
        witness=witness,
        min_uncertainty_states=states,
        positive_states=states[:9],
        state_labels=labels,
        saturating_labels=("a2", "b1", "phi1", "phi2", "phi3"),
    )


SPIN1 = _build_fixture()

COUNTEREXAMPLE_LAMBDAS = (0.1, 0.25, 0.5, 4.0 / 7.0)
PSD_LAMBDA_MAX = 4.0 / 7.0


def rho_lambda(lam: float) -> np.ndarray:
    """Interpolation between a uniform mixture of three saturating
    KD-positive projectors (lam=0) and the bounding witness (lam=1).

    The result is KD positive for every lam in [0, 1] and positive
    semidefinite exactly up to lam = 4/7.
    """
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"mixing parameter must lie in [0, 1], got {lam}")
    labels = SPIN1.state_labels
    parts = sum(
        projector(SPIN1.min_uncertainty_states[labels.index(name)])
        for name in ("a2", "b1", "phi3")
    )
    return lam * SPIN1.witness + (1.0 - lam) / 3.0 * parts


def rho_lambda_eigenvalues(lam: float) -> tuple[float, float, float]:
    """Closed-form eigenvalues of :func:`rho_lambda`."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"mixing parameter must lie in [0, 1], got {lam}")
    root = np.sqrt(7.0 * lam * lam - 32.0 * lam + 160.0)
    r1 = (7.0 * lam + 2.0) / 18.0
    r2 = (root - 7.0 * lam + 16.0) / 36.0
    r3 = (-root - 7.0 * lam + 16.0) / 36.0
    return (r1, r2, r3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: object
    computed: object
    tolerance: float
    claim: str


@dataclass(frozen=True)
class Spin1Report:
    checks: tuple[CheckResult, ...]
    witness_expectations: tuple[float, ...]
    facet_count: int
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _match_sets(found: np.ndarray, reference: np.ndarray, tol: float) -> float:
    """Worst phase-invariant distance of a greedy bijection, inf on failure."""
    if found.shape != reference.shape:
        return float("inf")
    dists = phase_invariant_distance(found[:, np.newaxis], reference[np.newaxis])
    worst = 0.0
    for column in dists.T:
        best_k = int(np.argmin(column))
        if column[best_k] > tol:
            return float("inf")
        worst = max(worst, float(column[best_k]))
        dists[best_k] = np.inf
    return worst


def run_spin1_checks() -> Spin1Report:
    """Execute and score every quantitative claim about the spin-1 system.

    Failures become report entries rather than exceptions. Both roofs of the
    hull-excluded counterexamples come from column generation, the support
    roof's with a dual lower bound, the nonpositivity roof's upper bound only.
    """
    start = time.perf_counter()
    u = SPIN1.transition
    w = SPIN1.witness
    checks: list[CheckResult] = []

    def record(name, passed, expected, computed, tolerance, claim):
        checks.append(CheckResult(name, bool(passed), expected, computed, tolerance, claim))

    defect = float(np.linalg.norm(u.T @ u - np.eye(3)))
    record("transition_orthogonal", defect <= 1e-10, 0.0, defect, 1e-10,
           "the transition matrix is real orthogonal")

    incompat = complete_incompatibility(u)
    record("completely_incompatible", incompat.completely_incompatible,
           True, incompat.completely_incompatible, incompat.eps,
           "every minor of the transition matrix is nonvanishing")

    trace_w = float(np.trace(w))
    record("witness_trace", abs(trace_w - 1.0) <= 1e-12, 1.0, trace_w, 1e-12,
           "the bounding witness has unit trace")

    trace_w2 = float(np.trace(w @ w))
    record("witness_trace_square", abs(trace_w2 - 7.0 / 12.0) <= 1e-12,
           7.0 / 12.0, trace_w2, 1e-12,
           "the squared witness has trace 7/12")

    table_w = kd_table(w, u)
    min_real = float(table_w.table.real.min())
    max_imag = float(np.abs(table_w.table.imag).max())
    record("witness_kd_positive",
           min_real >= -1e-10 and max_imag <= 1e-10,
           ">= -1e-10 real", (min_real, max_imag), 1e-10,
           "the quasiprobability table of the witness is real and nonnegative")

    # The roofs below reuse this enumeration.
    minimal = enumerate_min_uncertainty_states(u)
    record("minimal_state_count", len(minimal) == 15, 15, len(minimal), 0.0,
           "exactly fifteen pure states have minimal support uncertainty")
    worst = _match_sets(minimal.states, SPIN1.min_uncertainty_states, 1e-8)
    record("minimal_states_match", worst <= 1e-8, "<= 1e-8", worst, 1e-8,
           "the enumerated states match the fixture list up to global phase")

    positive = filter_kd_positive_pure(minimal, u)
    record("positive_state_count", len(positive) == 9, 9, len(positive), 0.0,
           "exactly nine of the fifteen states are KD positive")
    worst_pos = _match_sets(positive.states, SPIN1.positive_states, 1e-8)
    record("positive_states_match", worst_pos <= 1e-8, "<= 1e-8", worst_pos, 1e-8,
           "the KD-positive states are the six basis states and the three "
           "difference states")

    generators = [projector(s) for s in SPIN1.min_uncertainty_states]
    facets = facet_enumeration(generators)
    record("facet_count", len(facets) == 28, 28, len(facets), 0.0,
           "the hull of the fifteen minimal states has 28 bounding hyperplanes")

    expectations = tuple(
        float(np.real(np.vdot(s, w @ s))) for s in SPIN1.min_uncertainty_states
    )
    saturating = {SPIN1.state_labels.index(l) for l in SPIN1.saturating_labels}
    max_exp = max(expectations)
    sat_ok = (
        abs(max_exp - 0.5) <= 1e-12
        and all(abs(expectations[k] - 0.5) <= 1e-12 for k in saturating)
        and all(expectations[k] < 0.5 - 1e-8 for k in range(15) if k not in saturating)
    )
    record("witness_saturation", sat_ok, 0.5, max_exp, 1e-12,
           "the witness expectation peaks at 1/2 exactly on a2, b1, phi1, "
           "phi2, phi3")

    active_target = tuple(sorted(saturating))
    matching = [f for f in facets if tuple(sorted(f.active)) == active_target]
    record("witness_facet_present", len(matching) == 1, 1, len(matching), 0.0,
           "one facet is supported exactly by the five saturating states")

    grid = np.linspace(0.0, 1.0, 21)
    eig_dev = 0.0
    trace_dev = 0.0
    psd_ok = True
    for lam in grid:
        rho = rho_lambda(lam)
        numeric = np.sort(np.linalg.eigvalsh(rho))
        formula = np.sort(rho_lambda_eigenvalues(lam))
        eig_dev = max(eig_dev, float(np.abs(numeric - formula).max()))
        trace_dev = max(
            trace_dev,
            abs(float(np.trace(w @ rho).real) - (0.5 + lam / 12.0)),
        )
        if lam <= PSD_LAMBDA_MAX:
            psd_ok = psd_ok and numeric[0] >= -1e-9
        else:
            psd_ok = psd_ok and numeric[0] < -1e-9
    record("eigenvalue_formulas", eig_dev <= 1e-9, "<= 1e-9", eig_dev, 1e-9,
           "the closed-form eigenvalues match the numeric spectrum on the grid")
    record("witness_trace_identity", trace_dev <= 1e-12, "<= 1e-12", trace_dev, 1e-12,
           "the witness expectation of the interpolated state is 1/2 plus "
           "one twelfth of the mixing parameter")
    boundary = float(np.linalg.eigvalsh(rho_lambda(PSD_LAMBDA_MAX))[0])
    beyond = float(np.linalg.eigvalsh(rho_lambda(PSD_LAMBDA_MAX + 1e-3))[0])
    record("psd_window", psd_ok and abs(boundary) <= 1e-9 and beyond < 0.0,
           "PSD exactly on [0, 4/7]", (boundary, beyond), 1e-9,
           "the interpolated state is a state exactly up to mixing 4/7")

    supports = {}
    for lam in COUNTEREXAMPLE_LAMBDAS:
        rho = rho_lambda(lam)
        table = kd_table(rho, u)
        positive_state = is_kd_positive(table)
        n_value = total_nonpositivity(table)
        cert = membership_lp(rho, generators)
        excluded = cert.verdict == OUTSIDE and cert.margin > 1e-6
        support = supports[lam] = support_roof_bounds(rho, u)
        nonpos = nonpositivity_roof_bounds(rho, u)
        ok = (
            positive_state
            and abs(n_value - 1.0) <= 2e-9
            and excluded
            and support.lower_strict
            and support.lower_bound == 4.0
            and support.dual_bound > 4.0
            and nonpos.lower_strict
            and nonpos.upper_bound > 1.0 + 1e-4
        )
        record(
            f"counterexample_lambda_{lam:.4f}", ok,
            "KD positive, hull-excluded, roofs above the pure-state bounds",
            {
                "kd_positive": positive_state,
                "total_nonpositivity": n_value,
                "margin": cert.margin if cert.verdict == OUTSIDE else None,
                "support_roof_strict_above": support.lower_bound,
                "support_roof_dual": support.dual_bound,
                "nonpositivity_roof_upper": nonpos.upper_bound,
            },
            1e-6,
            "a KD-positive state outside the hull of the pure KD-positive "
            "states, with both convex roofs certifying the exclusion",
        )

    half, exact = supports[0.5], Fraction(113, 24)
    worst = max(abs(half.dual_bound - float(exact)), abs(half.upper_bound - float(exact)))
    record("support_roof_half", worst <= 1e-7, str(exact), (half.dual_bound, half.upper_bound),
           1e-7, "at mixing 1/2 both support-roof bounds are within 1e-7 of 113/24")

    runtime = time.perf_counter() - start
    return Spin1Report(
        checks=tuple(checks),
        witness_expectations=expectations,
        facet_count=len(facets),
        runtime_seconds=runtime,
    )
