import numpy as np
import pytest

from kdwitness.simplex import INFEASIBLE, OPTIMAL, solve_equality_lp


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
