import numpy as np
import pytest

from kdwitness.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_equality_lp


# -- reference: the tableau simplex with its row and column loops --------------


def _reference_enter_bland(cost_row, n_cols):
    for j in range(n_cols):
        if cost_row[j] < -1e-10:
            return j
    return -1


def _reference_leave_bland(tableau, col, basis):
    best_ratio = np.inf
    best_row = -1
    for i in range(tableau.shape[0]):
        coeff = tableau[i, col]
        if coeff > 1e-10:
            ratio = tableau[i, -1] / coeff
            if ratio < best_ratio - 1e-14 or (
                abs(ratio - best_ratio) <= 1e-14
                and (best_row == -1 or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _reference_pivot(tableau, cost_row, row, col, basis):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    cost_row -= cost_row[col] * tableau[row, :-1]
    basis[row] = col


def _reference_iterate(tableau, cost_row, basis, n_cols):
    for iteration in range(50_000):
        col = _reference_enter_bland(cost_row, n_cols)
        if col < 0:
            return OPTIMAL, iteration
        row = _reference_leave_bland(tableau, col, basis)
        if row < 0:
            return UNBOUNDED, iteration
        _reference_pivot(tableau, cost_row, row, col, basis)
    raise AssertionError("reference simplex did not terminate")


def _reference_solve(a, b, c=None, feas_tol=1e-8):
    """(status, x, farkas, phase1_gap, iterations) of the loop-based simplex."""
    m, n = a.shape
    signs = np.where(b < 0.0, -1.0, 1.0)
    ext = np.hstack([a * signs[:, None], np.eye(m)])
    tableau = np.hstack([ext, (b * signs)[:, None]])
    basis = list(range(n, n + m))
    cost_row = -tableau[:, :-1].sum(axis=0)
    cost_row[n:] += 1.0
    status, iters = _reference_iterate(tableau, cost_row, basis, n + m)
    mass = sum(tableau[i, -1] for i in range(len(basis)) if basis[i] >= n)
    if mass > feas_tol:
        costs_phase1 = np.zeros(n + m)
        costs_phase1[n:] = 1.0
        y = np.linalg.solve(ext[:, basis].T, costs_phase1[list(basis)])
        return INFEASIBLE, None, y * signs, float(mass), iters
    redundant = []
    for i in range(m):
        if basis[i] < n:
            continue
        pivot_col = -1
        for j in range(n):
            if j not in basis and abs(tableau[i, j]) > 1e-10:
                pivot_col = j
                break
        if pivot_col >= 0:
            _reference_pivot(tableau, cost_row, i, pivot_col, basis)
        else:
            redundant.append(i)
    if redundant:
        keep = [i for i in range(tableau.shape[0]) if i not in redundant]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]
    if c is not None:
        tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
        cost_row = np.array(c, dtype=float)
        for i, jb in enumerate(basis):
            cost_row -= cost_row[jb] * tableau[i, :-1]
        status, iters2 = _reference_iterate(tableau, cost_row, basis, n)
        iters += iters2
        if status != OPTIMAL:
            return status, None, None, 0.0, iters
    x = np.zeros(n)
    for i, jb in enumerate(basis):
        if jb < n:
            x[jb] = tableau[i, -1]
    return OPTIMAL, x, None, float(mass), iters


def _reference_lps():
    """Seeded feasible, infeasible, ratio-tie, redundant-row and signed-zero LPs."""
    rng = np.random.default_rng(77)
    for k in range(48):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(dim + 1, 4 * dim + 6))
        points = rng.standard_normal((n, dim))
        if k % 4 == 1:
            # Small integer points repeat and line up, so ratio-test ratios
            # tie and Bland's index rule picks the leaving row.
            points = rng.integers(-1, 2, (n, dim)).astype(float)
        if k % 4 == 2:
            points = np.vstack([points, points[: n // 2]])
        n = points.shape[0]
        if k % 3 == 2:
            target = (np.abs(points).max() + 1.0) * np.sign(rng.standard_normal(dim))
        else:
            target = rng.dirichlet(np.ones(n) / 2) @ points
        a = np.vstack([points.T, np.ones((1, n))])
        b = np.concatenate([target, [1.0]])
        if k % 4 == 3:
            # A repeated row (redundant) and a sign-flipped one (negative
            # right-hand side, so the tableau starts with signed zeros).
            a = np.vstack([a, 2.0 * a[-1:], -a[:1]])
            b = np.concatenate([b, [2.0], -b[:1]])
        yield a, b, rng.standard_normal(n)
    # Small integer systems with -0.0 entries and zero right-hand sides written
    # as -0.0: which rows a pivot skips decides the sign of zeros in x.
    for _ in range(12):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        a = rng.integers(-2, 3, (m, n)).astype(float)
        a[rng.random((m, n)) < 0.3] = -0.0
        b = a @ rng.integers(0, 2, n).astype(float)
        b[b == 0.0] = -0.0
        yield a, b, rng.standard_normal(n)
    # A vertex that sits on several facets at once, and the textbook cycling
    # example (Beale) in equality form, which cycles without an anti-cycling rule.
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    yield np.vstack([points.T, np.ones((1, 6))]), np.array([0.5, 0.5, 1.0]), np.arange(6.0)
    beale = np.array(
        [
            [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    yield beale, np.array([0.0, 0.0, 1.0]), np.array([-0.75, 20.0, -0.5, 6.0, 0, 0, 0])


def test_feasibility_only():
    # x1 + x2 = 1, x >= 0 is feasible.
    res = solve_equality_lp(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert res.status == OPTIMAL
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_minimization():
    # min x2 on the segment x1 + x2 = 1.
    res = solve_equality_lp(
        np.array([[1.0, 1.0]]), np.array([1.0]), c=np.array([0.0, 1.0])
    )
    assert res.status == OPTIMAL
    assert res.objective == 0.0
    assert res.x[0] == pytest.approx(1.0)


def test_negative_rhs_rows_are_handled():
    # Same segment written with a flipped row sign.
    res = solve_equality_lp(
        np.array([[-1.0, -1.0]]), np.array([-1.0]), c=np.array([2.0, 1.0])
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_redundant_rows_are_dropped():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = solve_equality_lp(a, np.array([1.0, 2.0]), c=np.array([1.0, 3.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_infeasible_produces_validated_farkas_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_equality_lp(a, b)
    assert res.status == INFEASIBLE
    y = res.farkas
    assert (a.T @ y).max() <= 1e-8
    assert y @ b > 0.0


def test_infeasible_by_nonnegativity():
    # x1 - x2 = -1 with a second row forcing x2 = 0.
    a = np.array([[1.0, -1.0], [0.0, 1.0]])
    b = np.array([-1.0, 0.0])
    res = solve_equality_lp(a, b)
    assert res.status == INFEASIBLE
    y = res.farkas
    assert (a.T @ y).max() <= 1e-8
    assert y @ b > 0.0


def test_degenerate_vertex_terminates():
    # Multiple generators coincide; Bland's rule must still terminate.
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = np.vstack([points.T, np.ones((1, 5))])
    b = np.array([0.25, 0.25, 1.0])
    res = solve_equality_lp(a, b, c=np.arange(5.0))
    assert res.status == OPTIMAL
    assert res.x @ np.arange(5.0) == pytest.approx(res.objective)


def _random_instances(seed, count):
    """Seeded equality LPs in hull form, [P^T; 1] w = [x; 1], with a cost.

    Even instances place x inside the hull of the points (feasible), odd ones
    well outside it (infeasible).
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(dim + 1, 4 * dim + 4))
        points = rng.standard_normal((n, dim))
        if k % 2 == 0:
            target = rng.dirichlet(np.ones(n)) @ points
        else:
            direction = rng.standard_normal(dim)
            target = (np.abs(points).sum(axis=1).max() + 1.0) * direction / np.linalg.norm(
                direction
            )
        a = np.vstack([points.T, np.ones((1, n))])
        b = np.concatenate([target, [1.0]])
        yield a, b, rng.standard_normal(n)


def test_agrees_with_scipy_highs():
    optimize = pytest.importorskip("scipy.optimize")
    feasible = infeasible = 0
    for a, b, c in _random_instances(seed=404, count=60):
        ref = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        res = solve_equality_lp(a, b, c=c)
        if ref.status == 0:
            feasible += 1
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            assert np.abs(a @ res.x - b).max() <= 1e-9
            assert res.x.min() >= 0.0
        else:
            infeasible += 1
            assert ref.status == 2
            assert res.status == INFEASIBLE
            y = res.farkas
            assert (y @ a).max() <= 1e-6
            assert y @ b > 0.0
    assert feasible == infeasible == 30


def _bytes(array):
    return None if array is None else np.asarray(array).tobytes()


def test_vectorised_simplex_matches_the_loop_reference():
    statuses = set()
    for k, (a, b, c) in enumerate(_reference_lps()):
        for cost in (None, c):
            status, x, farkas, gap, iterations = _reference_solve(a, b, cost)
            res = solve_equality_lp(a, b, c=cost)
            assert res.status == status, k
            assert _bytes(res.x) == _bytes(x), k
            assert _bytes(res.farkas) == _bytes(farkas), k
            assert np.float64(res.phase1_gap).tobytes() == np.float64(gap).tobytes(), k
            assert res.iterations == iterations, k
            statuses.add(status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
