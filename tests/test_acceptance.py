"""Acceptance suite.

One test per criterion; each prints a single pass/fail line. Tolerances are
pinned to the values stated in the contracts, not tuned to the build.
"""

import time

import numpy as np

from kdwitness import (
    SPIN1,
    complete_incompatibility,
    dft_matrix,
    enumerate_min_uncertainty_states,
    facet_enumeration,
    filter_kd_positive_pure,
    haar_genericity_study,
    haar_unitary,
    is_kd_positive,
    kd_table,
    membership_lp,
    nonpositivity_roof_bounds,
    phase_invariant_distance,
    rho_lambda,
    rho_lambda_eigenvalues,
    support_counts_mixed,
    support_roof_bounds,
    total_nonpositivity,
)
from kdwitness.geometry import finite_convex_roof_points
from kdwitness.linalg import projector, random_density

COUNTEREXAMPLE_LAMBDAS = (0.1, 0.25, 0.5, 4.0 / 7.0)


def report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name} failed: {detail}"


def test_criterion_1_spin1_closed_forms():
    start = time.perf_counter()
    w = SPIN1.witness
    ok = abs(float(np.trace(w @ w)) - 7.0 / 12.0) <= 1e-12

    grid = np.linspace(0.0, 1.0, 21)
    for lam in grid:
        rho = rho_lambda(lam)
        ok &= abs(float(np.trace(w @ rho).real) - (0.5 + lam / 12.0)) <= 1e-12
        numeric = np.sort(np.linalg.eigvalsh(rho))
        formula = np.sort(rho_lambda_eigenvalues(lam))
        ok &= float(np.abs(numeric - formula).max()) <= 1e-9
        if lam <= 4.0 / 7.0:
            ok &= numeric[0] >= -1e-9
        else:
            ok &= numeric[0] < -1e-9

    table = kd_table(w, SPIN1.transition)
    ok &= float(table.table.real.min()) >= -1e-10
    ok &= float(np.abs(table.table.imag).max()) <= 1e-10

    ok &= abs(float(np.linalg.eigvalsh(rho_lambda(4.0 / 7.0)).min())) <= 1e-9
    ok &= float(np.linalg.eigvalsh(rho_lambda(4.0 / 7.0 + 1e-3)).min()) < 0.0

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report("criterion 1 (spin-1 closed-form ledger)", ok, f"{elapsed:.2f}s")


def test_criterion_2_enumeration():
    minimal = enumerate_min_uncertainty_states(SPIN1.transition)
    ok = len(minimal) == 15
    remaining = list(range(len(minimal)))
    worst = 0.0
    for ref in SPIN1.min_uncertainty_states:
        scored = [(phase_invariant_distance(minimal.states[k], ref), k)
                  for k in remaining]
        dist, k = min(scored)
        worst = max(worst, dist)
        ok &= dist <= 1e-8
        remaining.remove(k)
    positive = filter_kd_positive_pure(minimal, SPIN1.transition)
    ok &= len(positive) == 9
    rem = list(range(len(positive)))
    for ref in SPIN1.positive_states:
        scored = [(phase_invariant_distance(positive.states[k], ref), k)
                  for k in rem]
        dist, k = min(scored)
        ok &= dist <= 1e-8
        rem.remove(k)
    report("criterion 2 (minimal-state enumeration and positivity filter)", ok,
           f"15 states matched within {worst:.2e}, 9 positive")


def test_criterion_3_facets():
    generators = [projector(s) for s in SPIN1.min_uncertainty_states]
    facets = facet_enumeration(generators)
    ok = len(facets) == 28
    labels = SPIN1.state_labels
    target = tuple(sorted(labels.index(n) for n in SPIN1.saturating_labels))
    matching = [f for f in facets if tuple(sorted(f.active)) == target]
    ok &= len(matching) == 1
    detail = f"{len(facets)} facets"
    if matching:
        f = matching[0]
        values = np.array(
            [float(np.real(np.vdot(s, f.functional @ s)))
             for s in SPIN1.min_uncertainty_states]
        )
        peak = values.max()
        ok &= all(abs(values[k] - peak) <= 1e-8 for k in target)
        ok &= all(values[k] < peak - 1e-8 for k in range(15) if k not in target)
        witness_values = np.array(
            [float(np.real(np.vdot(s, SPIN1.witness @ s)))
             for s in SPIN1.min_uncertainty_states]
        )
        design = np.vstack([witness_values - 0.5, np.ones(15)]).T
        coeff, *_ = np.linalg.lstsq(design, values - f.offset, rcond=None)
        residual = float(np.abs(design @ coeff - (values - f.offset)).max())
        ok &= coeff[0] > 0.0 and residual <= 1e-8
        detail += f", witness facet residual {residual:.2e}"
    report("criterion 3 (28 facets and the witness facet)", ok, detail)


def test_criterion_4_counterexample_certification():
    generators = [projector(s) for s in SPIN1.min_uncertainty_states]
    ok = True
    margins = []
    uppers = []
    for lam in COUNTEREXAMPLE_LAMBDAS:
        rho = rho_lambda(lam)
        cert = membership_lp(rho, generators)
        ok &= cert.verdict == "outside" and cert.margin > 1e-6
        margins.append(cert.margin)
        table = kd_table(rho, SPIN1.transition)
        ok &= is_kd_positive(table)
        ok &= abs(total_nonpositivity(table) - 1.0) <= 2e-9
        support = support_roof_bounds(rho, SPIN1.transition)
        ok &= support.lower_strict and support.lower_bound == 4.0
        nonpos = nonpositivity_roof_bounds(rho, SPIN1.transition)
        ok &= nonpos.lower_strict
        ok &= nonpos.upper_bound > 1.0 + 1e-4
        uppers.append(nonpos.upper_bound)
    report(
        "criterion 4 (KD-positive states beyond the pure hull)", ok,
        f"margins >= {min(margins):.2e}, roof uppers >= {min(uppers):.6f}",
    )


def test_criterion_5_roofs_on_positive_mixtures():
    start = time.perf_counter()
    rng = np.random.default_rng(20_240_101)
    ok = True
    for _ in range(200):
        w = rng.dirichlet(np.ones(9))
        rho = sum(wi * projector(s) for wi, s in zip(w, SPIN1.positive_states))
        support = support_roof_bounds(rho, SPIN1.transition)
        ok &= support.exact and support.lower_bound == support.upper_bound == 4.0
        nonpos = nonpositivity_roof_bounds(rho, SPIN1.transition)
        ok &= nonpos.exact and nonpos.upper_bound == 1.0
        ok &= nonpos.membership is not None and nonpos.membership.verdict == "inside"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report("criterion 5 (roofs on 200 positive mixtures)", ok, f"{elapsed:.1f}s")


def test_criterion_6_witness_laws_on_random_pairs():
    ok = True
    checked = 0
    worst_marginal = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(600 + d)
        for k in range(1000):
            rho = random_density(d, rng)
            u = haar_unitary(d, seed=100_000 * d + k)
            table = kd_table(rho, u)
            rows = table.table.sum(axis=1)
            cols = table.table.sum(axis=0)
            dev = max(
                float(np.abs(rows - np.diagonal(rho)).max()),
                float(np.abs(cols - np.diagonal(u.conj().T @ rho @ u)).max()),
                abs(table.total - 1.0),
            )
            worst_marginal = max(worst_marginal, dev)
            ok &= dev <= 1e-9
            n = total_nonpositivity(table)
            ok &= n >= 1.0 - 1e-9
            ok &= is_kd_positive(table) == (n <= 1.0 + 2e-9)
            checked += 1
        # Positive direction of the equivalence plus convexity spot checks.
        for k in range(100):
            u = haar_unitary(d, seed=777_000 + 1000 * d + k)
            w_mix = rng.dirichlet(np.ones(d))
            rho_pos = (u * w_mix) @ u.conj().T
            t_pos = kd_table(rho_pos, u)
            n_pos = total_nonpositivity(t_pos)
            ok &= is_kd_positive(t_pos) and n_pos <= 1.0 + 2e-9
            rho1 = random_density(d, rng)
            rho2 = random_density(d, rng)
            t = float(rng.uniform())
            lhs = total_nonpositivity(kd_table(t * rho1 + (1 - t) * rho2, u))
            rhs = t * total_nonpositivity(kd_table(rho1, u)) + (
                1 - t
            ) * total_nonpositivity(kd_table(rho2, u))
            ok &= lhs <= rhs + 1e-9
    report("criterion 6 (witness laws on random pairs)", ok,
           f"{checked} pairs, worst marginal deviation {worst_marginal:.2e}")


def test_criterion_7_incompatibility():
    ok = True
    for d in (2, 3, 5):
        ok &= complete_incompatibility(dft_matrix(d)).completely_incompatible
    rep4 = complete_incompatibility(dft_matrix(4))
    ok &= not rep4.completely_incompatible
    ok &= rep4.min_abs_minor <= 1e-12
    ok &= rep4.argmin_order == 2
    fractions = []
    for d in (2, 3, 4):
        study = haar_genericity_study(d, 500, seed=7)
        fractions.append(study.fraction_completely_incompatible)
        ok &= study.fraction_completely_incompatible == 1.0
    report("criterion 7 (incompatibility of Fourier and Haar bases)", ok,
           f"DFT-4 minor {rep4.min_abs_minor:.1e} at order 2, "
           f"Haar fractions {fractions}")


def test_criterion_8_roof_machinery():
    # Half-circle model: 64 extreme points, value 1 on the closed upper
    # half and 0 on the open lower half.
    angles = 2.0 * np.pi * np.arange(64) / 64
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    values = (points[:, 1] >= 0.0).astype(float)
    lower = np.flatnonzero(values == 0.0)
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(50):
        w = rng.dirichlet(np.ones(lower.size))
        target = w @ points[lower]
        value, _ = finite_convex_roof_points(values, target, points)
        ok &= value == 0.0
    for t in (0.3, 0.1, 0.02):
        target = t * points[0] + (1 - t) * points[63]
        value, _ = finite_convex_roof_points(values, target, points)
        ok &= abs(value - t) <= 1e-9 and value > 0.0
    for target in (np.array([0.0, 0.0]), np.array([0.0, 0.4]), np.array([0.3, 0.1])):
        value, _ = finite_convex_roof_points(values, target, points)
        ok &= value > 0.0

    # Naive mixed support counts on combinations of the two bases at d=3.
    d = 3
    u = SPIN1.transition
    projs_a = [projector(s) for s in SPIN1.min_uncertainty_states[:3]]
    projs_b = [projector(s) for s in SPIN1.min_uncertainty_states[3:6]]
    for _ in range(100):
        case = rng.integers(3)
        if case == 0:
            k_a = int(rng.integers(1, d + 1))
            k_b = int(rng.integers(1, d + 1))
            lam = rng.dirichlet(np.ones(k_a + k_b))
            rho = sum(wi * p for wi, p in zip(lam[:k_a], projs_a[:k_a]))
            rho += sum(wi * p for wi, p in zip(lam[k_a:], projs_b[:k_b]))
            expected = 2 * d
        elif case == 1:
            k_a = int(rng.integers(1, d + 1))
            lam = rng.dirichlet(np.ones(k_a))
            rho = sum(wi * p for wi, p in zip(lam, projs_a[:k_a]))
            expected = d + k_a
        else:
            k_b = int(rng.integers(1, d + 1))
            lam = rng.dirichlet(np.ones(k_b))
            rho = sum(wi * p for wi, p in zip(lam, projs_b[:k_b]))
            expected = d + k_b
        ok &= support_counts_mixed(rho, u).n_ab == expected
    report("criterion 8 (finite roof model and naive mixed counts)", ok)
