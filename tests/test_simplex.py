import numpy as np
import pytest

from kdwitness import simplex
from kdwitness.errors import CertificateError, SolverStall
from kdwitness.config import LP_DUAL_TOL
from kdwitness.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_equality_lp


# -- reference: the revised simplex with its row and column loops ---------------


def _reference_enter(cost_row, bland):
    """First improving column under Bland's rule, else the most negative
    (lowest index on ties)."""
    best = -1
    for j in range(len(cost_row)):
        if cost_row[j] < -1e-10:
            if bland:
                return j
            if best == -1 or cost_row[j] < cost_row[best]:
                best = j
    return best


def _reference_leave_bland(inverse, column, basis):
    best_ratio = np.inf
    best_row = -1
    for i in range(len(column)):
        coeff = column[i]
        if coeff > 1e-10:
            ratio = max(inverse[i, -1], 0.0) / coeff
            if ratio < best_ratio - 1e-14 or (
                abs(ratio - best_ratio) <= 1e-14
                and (best_row == -1 or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _reference_pivot(inverse, column, row, col, basis):
    """The rank-one step on [B^-1 | x_B] as column ``col`` (B^-1 a_col = ``column``) enters."""
    pivot_row = inverse[row] / column[row]
    for i in range(len(column)):
        if i != row:
            inverse[i] -= column[i] * pivot_row
    inverse[row] = pivot_row
    basis[row] = col


def _reference_basis_matrix(a, basis):
    """Columns ``basis`` of [a | I], an index j >= n standing for the unit column of row j - n."""
    m, n = a.shape
    matrix = np.zeros((m, len(basis)))
    for k, j in enumerate(basis):
        if j < n:
            matrix[:, k] = a[:, j]
        else:
            matrix[j - n, k] = 1.0
    return matrix


def _reference_reinvert(inverse, cost_row, basis, a, b, costs):
    n = a.shape[1]
    rhs = np.zeros((len(basis), len(basis) + 1))
    for i in range(len(basis)):
        rhs[i, i] = 1.0
        rhs[i, -1] = b[i]
    inverse[:] = np.linalg.solve(_reference_basis_matrix(a, basis), rhs)
    cost_row[:] = costs[:n] - (costs[basis] @ inverse[:, :-1]) @ a
    for j in basis:
        if j < n:
            cost_row[j] = 0.0


def _reference_iterate(inverse, cost_row, basis, a, b, costs, bland_after, reinvert_every):
    """Dantzig pricing, Bland's rule after ``bland_after`` degenerate pivots in a
    row, a reinversion every ``reinvert_every`` pivots and, in a phase longer
    than that, before declaring the basis optimal."""
    n = a.shape[1]
    degenerate = since = 0
    for iteration in range(50_000):
        if since == reinvert_every:
            _reference_reinvert(inverse, cost_row, basis, a, b, costs)
            since = 0
        col = _reference_enter(cost_row, degenerate >= bland_after)
        if col < 0 and since > 0 and iteration > reinvert_every:
            _reference_reinvert(inverse, cost_row, basis, a, b, costs)
            since = 0
            col = _reference_enter(cost_row, degenerate >= bland_after)
        if col < 0:
            return OPTIMAL, iteration
        column = inverse[:, :-1] @ a[:, col]
        row = _reference_leave_bland(inverse, column, basis)
        if row < 0:
            return UNBOUNDED, iteration
        if inverse[row, -1] / column[row] <= 1e-10:
            degenerate += 1
        else:
            degenerate = 0
        _reference_pivot(inverse, column, row, col, basis)
        # The reduced costs by one product of the pivot row of B^-1 with A;
        # basic columns price at exactly 0.
        step = cost_row[col]
        pivot_prices = inverse[row, :-1] @ a
        for j in range(n):
            cost_row[j] -= step * pivot_prices[j]
        for j in basis:
            if j < n:
                cost_row[j] = 0.0
        since += 1
    raise AssertionError("reference simplex did not terminate")


def _reference_solve(a, b, c=None, feas_tol=1e-8, bland_after=32, reinvert_every=64):
    """(status, x, farkas, phase1_gap, iterations) of the loop-based simplex."""
    m, n = a.shape
    rules = (bland_after, reinvert_every)
    signs = np.where(b < 0.0, -1.0, 1.0)
    a_mod, b_mod = a * signs[:, None], b * signs
    # Phase one from the artificial basis B = I, whose columns are not stored.
    inverse = np.zeros((m, m + 1))
    for i in range(m):
        inverse[i, i] = 1.0
        inverse[i, -1] = b_mod[i]
    basis = list(range(n, n + m))
    costs_phase1 = np.zeros(n + m)
    costs_phase1[n:] = 1.0
    cost_row = -a_mod.sum(axis=0)
    status, iters = _reference_iterate(inverse, cost_row, basis, a_mod, b_mod, costs_phase1,
                                       *rules)
    mass = sum(inverse[i, -1] for i in range(m) if basis[i] >= n)
    if mass > feas_tol:
        y = np.linalg.solve(_reference_basis_matrix(a_mod, basis).T, costs_phase1[basis])
        return INFEASIBLE, None, y * signs, float(mass), iters
    for i in range(m):
        if basis[i] < n:
            continue
        prices = inverse[i, :-1] @ a_mod
        for j in range(n):
            if j not in basis and abs(prices[j]) > 1e-10:
                # Not if the pivot would move a basic value by more than 1e-9.
                column = inverse[:, :-1] @ a_mod[:, j]
                step = inverse[i, -1] / column[i]
                moves = [abs(step)] + [abs(column[k] * step) for k in range(m) if k != i]
                if max(moves) <= 1e-9:
                    _reference_pivot(inverse, column, i, j, basis)
                break
    # An artificial still basic marks its constraint row as redundant.
    rows = [k for k in range(m) if n + k not in basis]
    basis = [j for j in basis if j < n]
    a_rows, b_rows = a_mod[rows], b_mod[rows]
    if c is not None:
        costs = np.array(c, dtype=float)
        inverse = np.empty((len(rows), len(rows) + 1))
        cost_row = np.empty(n)
        _reference_reinvert(inverse, cost_row, basis, a_rows, b_rows, costs)
        status, iters2 = _reference_iterate(inverse, cost_row, basis, a_rows, b_rows, costs,
                                            *rules)
        iters += iters2
        if status != OPTIMAL:
            return status, None, None, 0.0, iters
    # x from one solve on the final basis.
    x = np.zeros(n)
    x_basic = np.linalg.solve(_reference_basis_matrix(a_rows, basis), b_rows)
    for k, j in enumerate(basis):
        x[j] = x_basic[k]
    return OPTIMAL, x, None, float(mass), iters


# Beale's cycling example (minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 over
# three equality rows with slacks x1, x2, x3); its optimum is -1/20.
_BEALE_A = np.array(
    [
        [0.25, -60.0, -1 / 25, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1 / 50, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]
)
_BEALE_B = np.array([0.0, 0.0, 1.0])
_BEALE_C = np.array([-0.75, 150.0, -1 / 50, 6.0, 0.0, 0.0, 0.0])


# A d = 5 hull-membership LP (feasibility only): the 25 real coordinates of the
# projectors of 10 KD-positive states (kdbench haar-certify, seed 10, round 2, third
# job) over a row of ones, and the coordinates of their mixture over 1. Phase one
# ends with 17 artificials basic at levels up to 7e-11, and the artificial of row 9,
# at 5.8e-12, has one candidate entry, -1.118e-10: a pivot on it would put -0.0518
# into the basis.
_DRIVE_OUT_POINTS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.3025476472475637, 0.0008476901133463559, 0.408717838139192,
         0.26671470219132537, 0.021172122308572957],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.5440823148476148, 0.03140467901250458, 0.0994762524251739,
         0.11990013033760785, 0.205136623377099],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.03158215198333456, 0.4115340655352892, 0.010240177516735434,
         0.04007280827150784, 0.5065707966931331],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0425891837936754, 0.4310788467394466, 0.07649085606290966,
         0.2516070949723007, 0.19823401843166769],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.07919870212781172, 0.1251347185994132, 0.40507487585598906,
         0.32170526422725826, 0.06888643918952757],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.5340461596131323, 0.004997437768072172, 0.2008004878146331,
         0.24801934719333363, 0.08022888683709316],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.08245422739810833, 0.02333298583330403, -0.026101351805528087,
         0.024455574234459397, 0.06076701913587281],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.03502449656283597, -0.013466386439392877, 0.24994869364896902,
         -0.27452662331357125, 0.073068812666831],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.21292396471525082, -0.012971162948716582, 0.26497609082831625,
         -0.03210796907688694, -0.0069729940874618404],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.04850911873942677, 0.0423584918927913, -0.039783991840242686,
         -0.0028144935242044667, -0.04826912526777083],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.033102932171296104, 0.047827281778913475, 0.08935753415865336,
         -0.21231227048737447, 0.10823038672110344],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.2408271391070223, -0.08345756022927177, -0.08687281152344448,
         0.03302616317891075, -0.10352293053321697],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.04737685532588863, -0.5041886223219785, -0.012380950602998668,
         0.07490760922376449, 0.3942851083753239],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.054220403646863674, -0.1840368115637419, 0.06552588049030314,
         -0.15991496623890408, 0.22420549366547946],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.03604999859170967, 0.0161485455039101, 0.10820987641311522,
         -0.2422565964035839, 0.0818481758948488],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.20980073387567785, -0.005316811786933753, -0.20247123689111166,
         -0.049443488238442315, 0.047430803040810036],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.11095725275675647, 0.012380569026576497, 0.08768925742374256,
         0.14414554844695496, -0.13325812214051716],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.15666460784255332, -0.023441394778734723,
         -0.007211462963292269, 0.24258968630502825, -0.05527222072044788],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.050854176206076955, 0.006625696894972182, 0.5107938198315116,
         -0.41300862679279154, -0.05355671372761518],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.17892301729248786, 0.15509335455222412, 0.021320013140761252,
         0.09798749152671342, -0.4533238765121872],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.21271633527665296, -0.15744312223627416, 0.08504868312295254,
         0.12352710942375128, -0.2638490055870824],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.1678794670076718, -0.029907640870633554, 0.27026612037305897,
         -0.2757794023634935, -0.132458544146604],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.021108048945032085, -0.3171767549032591, -0.03759350942847202,
         0.12064019161760287, 0.21302202376909618],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.04541672294802826, 0.2629160530646874, -0.06326481058724749,
         -0.014507595232758278, -0.13972692429665357],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.07379982224789962, -0.32806262335095193, 0.22418668714770124,
         0.3212450706827808, -0.14356931223163055],
    ]
)
_DRIVE_OUT_A = np.vstack([_DRIVE_OUT_POINTS, np.ones((1, 10))])
_DRIVE_OUT_B = np.concatenate([
    [0.11844707576170063, 0.28084547384893427, 0.24187549884145604, 0.16406872681161827,
     0.1947632247362907, -0.024458979679093645, -0.0036052711313501813, 0.013386764748939918,
     0.0015295516668220844, 0.009933945147207753, 0.014070028215891473, -0.005727369228004837,
     -0.10732498889403855, -0.03136633988440591, 0.01414013206070484, -0.0010615236091717987,
     0.0016667063385250199, -0.017211738763939714, 0.03728469627723409, 0.05079063671027317,
     -0.009603505923846017, 0.027926793763244456, -0.07030095311533749, 0.04866642041397289,
     -0.05780061524903016],
    [1.0],
])
# Phase one ends with the artificial of row 1 basic at 5.8e-12, and that row's one
# candidate entry is -1.118e-10, just above PIVOT_TOL: a pivot on it would put
# x2 = -0.0519 into the basis.
_TINY_PIVOT_A = np.array([[1.0, 1.0], [0.0, -1.118e-10]])
_TINY_PIVOT_B = np.array([1.0, 5.8e-12])


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
            # right-hand side, whose sign flip writes -0.0 into A).
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
    yield _BEALE_A, _BEALE_B, _BEALE_C
    # Artificials that must stay basic, their rows dropped, because driving them
    # out would move a basic value by far more than LP_PRIMAL_TOL.
    yield _TINY_PIVOT_A, _TINY_PIVOT_B, np.array([1.0, 2.0])
    yield _DRIVE_OUT_A, _DRIVE_OUT_B, np.arange(10.0)
    # Hull LPs long enough that the default rule reinverts in mid-run.
    for dim, n in ((12, 150), (20, 400)):
        points = rng.standard_normal((n, dim))
        a = np.vstack([points.T, np.ones((1, n))])
        b = np.concatenate([rng.dirichlet(np.ones(n)) @ points, [1.0]])
        yield a, b, np.abs(points).sum(axis=1)


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


@pytest.mark.parametrize("with_costs", [False, True])
def test_a_drive_out_pivot_never_moves_a_basic_value_beyond_the_primal_tolerance(with_costs):
    res = solve_equality_lp(_TINY_PIVOT_A, _TINY_PIVOT_B,
                            c=np.array([1.0, 2.0]) if with_costs else None)
    assert res.status == OPTIMAL
    assert res.x.tolist() == [1.0, 0.0]
    assert res.basis == (0,)


def test_a_hull_lp_with_tiny_artificial_levels_gives_a_nonnegative_mixture():
    res = solve_equality_lp(_DRIVE_OUT_A, _DRIVE_OUT_B)
    assert res.status == OPTIMAL
    assert res.x.min() >= 0.0
    assert np.abs(_DRIVE_OUT_A @ res.x - _DRIVE_OUT_B).max() <= 1e-10
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


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


def test_a_program_without_columns():
    infeasible = solve_equality_lp(np.zeros((1, 0)), np.array([1.0]))
    assert infeasible.status == INFEASIBLE and infeasible.farkas.tolist() == [1.0]
    assert solve_equality_lp(np.zeros((1, 0)), np.array([0.0])).x.shape == (0,)
    empty = solve_equality_lp(np.zeros((1, 0)), np.array([0.0]), c=np.array([]))
    assert empty.status == OPTIMAL and empty.objective == 0.0
    assert empty.x.shape == (0,) and empty.duals.tolist() == [0.0]


def test_ratio_ties_leave_on_the_lowest_basic_index():
    # Warm basis (2, 1) holds its columns out of row order. Column 0 enters with
    # ratio 1 on both rows; the row whose basic column is 1 (row 1) leaves, not
    # the first tied row. Both choices are optimal at x = (1, 0, 0) in one pivot.
    a = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    res = solve_equality_lp(a, np.array([1.0, 1.0]), c=np.array([-1.0, 0.0, 0.0]), basis=(2, 1))
    assert res.status == OPTIMAL and res.iterations == 1
    assert res.x.tolist() == [1.0, 0.0, 0.0]
    assert res.basis == (2, 0)


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


def _assert_matches_the_loop_reference(**rules):
    statuses = set()
    for k, (a, b, c) in enumerate(_reference_lps()):
        for cost in (None, c):
            status, x, farkas, gap, iterations = _reference_solve(a, b, cost, **rules)
            res = solve_equality_lp(a, b, c=cost)
            assert res.status == status, k
            assert _bytes(res.x) == _bytes(x), k
            assert _bytes(res.farkas) == _bytes(farkas), k
            assert np.float64(res.phase1_gap).tobytes() == np.float64(gap).tobytes(), k
            assert res.iterations == iterations, k
            statuses.add(status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_vectorised_simplex_matches_the_loop_reference():
    _assert_matches_the_loop_reference()


def test_fallback_and_reinversion_match_the_loop_reference(monkeypatch):
    # Bland's rule after every degenerate pivot and a reinversion every three
    # pivots, so that both run on most of the reference LPs.
    monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
    monkeypatch.setattr(simplex, "REINVERT_EVERY", 3)
    _assert_matches_the_loop_reference(bland_after=1, reinvert_every=3)


def test_beale_cycling_lp_terminates_at_its_optimum():
    res = solve_equality_lp(_BEALE_A, _BEALE_B, c=_BEALE_C)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1 / 20, abs=1e-12)
    assert res.x[[0, 2, 4]] == pytest.approx([1 / 25, 1.0, 3 / 100], abs=1e-12)


def _beale_from_the_slack_basis():
    # The slack columns 4, 5 and 6 are the identity, so B^-1 = I and x_B = b.
    inverse = np.hstack([np.eye(3), _BEALE_B[:, None]])
    cost_row, basis = _BEALE_C.copy(), [4, 5, 6]
    status, _ = simplex._iterate(inverse, cost_row, basis, _BEALE_A, _BEALE_B, _BEALE_C)
    x = np.zeros(7)
    x[basis] = inverse[:, -1]
    return status, _BEALE_C @ x


def test_bland_fallback_breaks_the_dantzig_cycle(monkeypatch):
    # From the slack basis, Dantzig's rule with lowest-index ties cycles on
    # Beale's example; the fallback leaves the cycle and reaches the optimum.
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 500)
    status, objective = _beale_from_the_slack_basis()
    assert status == OPTIMAL
    assert objective == pytest.approx(-1 / 20, abs=1e-12)
    monkeypatch.setattr(simplex, "BLAND_AFTER", 10**9)
    with pytest.raises(SolverStall):
        _beale_from_the_slack_basis()


def _corrupt_reinversion(monkeypatch, corrupt):
    """Patch the reinversion so that ``corrupt(inverse, cost_row)`` runs after each."""
    reinvert = simplex._reinvert

    def corrupted(*args):
        inverse, cost_row = reinvert(*args)
        corrupt(inverse, cost_row)
        return inverse, cost_row

    monkeypatch.setattr(simplex, "_reinvert", corrupted)


def _hull_lp(seed=5, dim=4, n=30):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, dim))
    a = np.vstack([points.T, np.ones((1, n))])
    b = np.concatenate([rng.dirichlet(np.ones(n)) @ points, [1.0]])
    return a, b, rng.standard_normal(n)


def test_recheck_rejects_a_drifted_right_hand_side(monkeypatch):
    # Every solve on a basis, the one that gives x included, drifts by 1e-6.
    a, b, c = _hull_lp()
    solve_basis = simplex._solve_basis
    monkeypatch.setattr(simplex, "_solve_basis", lambda *args: solve_basis(*args) + 1e-6)
    with pytest.raises(CertificateError, match="misses A @ x = b"):
        solve_equality_lp(a, b, c=c)


def test_recheck_rejects_a_false_feasibility_claim(monkeypatch):
    # A target outside the hull, and a last phase-one pivot that wipes the
    # artificial values: the LP looks feasible, but no x on its basis is.
    a, b, _ = _hull_lp()
    b[:-1] += 10.0
    pivots = solve_equality_lp(a, b).iterations
    pivot = simplex._pivot
    calls = []

    def corrupted(inverse, column, row, col, basis):
        pivot(inverse, column, row, col, basis)
        calls.append(col)
        if len(calls) == pivots:
            inverse[[i for i, j in enumerate(basis) if j >= a.shape[1]], -1] = 0.0

    monkeypatch.setattr(simplex, "_pivot", corrupted)
    with pytest.raises(CertificateError, match="optimal x"):
        solve_equality_lp(a, b)


def test_recheck_rejects_a_suboptimal_basis(monkeypatch):
    # A cost row wiped to zero makes every basis look optimal; the duals solved
    # on the final basis show that it is not.
    a, b, c = _hull_lp()
    _corrupt_reinversion(monkeypatch, lambda inverse, cost_row: cost_row.fill(0.0))
    with pytest.raises(CertificateError, match="reduced cost"):
        solve_equality_lp(a, b, c=c)


def test_clustered_columns_pass_the_recheck_and_agree_with_highs():
    # Columns in tight clusters with one integer cost per cluster: bases that
    # mix near-parallel columns, and many tied prices. No seeded LP of this
    # kind was found whose basis inverse drifts without reinversion, so this test
    # exercises such bases and the re-check; it does not reproduce a drift.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2024)
    dim, clusters, per = 20, 30, 20
    centers = rng.standard_normal((clusters, dim))
    points = (centers[:, None] + 1e-3 * rng.standard_normal((clusters, per, dim))).reshape(-1, dim)
    n = points.shape[0]
    a = np.vstack([points.T, np.ones((1, n))])
    b = np.concatenate([rng.dirichlet(np.ones(n)) @ points, [1.0]])
    c = np.repeat(rng.integers(2, 8, clusters).astype(float), per)
    res = solve_equality_lp(a, b, c=c)
    ref = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == OPTIMAL and ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)
    assert np.abs(a @ res.x - b).max() <= 1e-12


# -- duals ---------------------------------------------------------------------


def _seeded_lps():
    yield from _reference_lps()
    for seed in range(6, 18):
        yield _hull_lp(seed=seed, dim=2 + seed % 5, n=10 + 3 * seed)


def test_optimal_results_carry_duals_that_certify_them():
    optimal = with_dropped_rows = 0
    for k, (a, b, c) in enumerate(_seeded_lps()):
        assert solve_equality_lp(a, b).duals is None, k
        res = solve_equality_lp(a, b, c=c)
        if res.status != OPTIMAL:
            assert res.duals is None, k
            continue
        optimal += 1
        y = res.duals
        assert y.shape == b.shape, k
        reduced = c - y @ a
        assert reduced.min() >= -LP_DUAL_TOL, k
        # Complementary slackness, and strong duality b @ y = c @ x.
        assert np.abs(res.x * reduced).max() <= 1e-9, k
        assert y @ b == pytest.approx(res.objective, abs=1e-9 * max(1.0, abs(res.objective))), k
        redundant = a.shape[0] - np.linalg.matrix_rank(a)
        if redundant:
            with_dropped_rows += 1
            assert np.count_nonzero(y == 0.0) >= redundant, k
    assert optimal >= 30 and with_dropped_rows >= 5


def test_duals_agree_with_highs_on_nondegenerate_optima():
    optimize = pytest.importorskip("scipy.optimize")
    compared = 0
    for a, b, c in _seeded_lps():
        if np.linalg.matrix_rank(a) < a.shape[0]:
            continue
        res = solve_equality_lp(a, b, c=c)
        # A primal-nondegenerate optimum has one dual solution.
        if res.status != OPTIMAL or np.count_nonzero(res.x > 1e-9) < a.shape[0]:
            continue
        ref = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert np.abs(res.duals - ref.eqlin.marginals).max() <= 1e-7
        compared += 1
    assert compared >= 10


# -- warm starts ---------------------------------------------------------------


def _master_lps():
    """Master LPs of the roofs' column generation, with the basis each started from."""
    from kdwitness import SPIN1, haar_unitary, nonpositivity_roof_bounds, rho_lambda
    from kdwitness import roof, support_roof_bounds
    from kdwitness.linalg import random_density

    recorded = []
    solve = roof.solve_equality_lp

    def recording(a, b, c, basis=None):
        recorded.append((a, b, c, basis))
        return solve(a, b, c, basis=basis)

    roof.solve_equality_lp = recording
    try:
        support_roof_bounds(rho_lambda(0.5), SPIN1.transition)
        nonpositivity_roof_bounds(rho_lambda(0.25), SPIN1.transition)
        nonpositivity_roof_bounds(rho_lambda(0.5), SPIN1.transition)
        nonpositivity_roof_bounds(random_density(4, np.random.default_rng(11)), haar_unitary(4, 3))
    finally:
        roof.solve_equality_lp = solve
    return recorded


def _count_warm_starts(monkeypatch):
    warm = []
    start = simplex._warm_start

    def counted(basis, *args):
        result = start(basis, *args)
        if basis is not None:
            warm.append(result is not None)
        return result

    monkeypatch.setattr(simplex, "_warm_start", counted)
    return warm


def _assert_warm_matches_cold(a, b, c, basis, k):
    cold = solve_equality_lp(a, b, c=c)
    res = solve_equality_lp(a, b, c=c, basis=basis)
    assert res.status == cold.status == OPTIMAL, k
    assert res.objective == pytest.approx(cold.objective, abs=1e-9 * max(1.0, abs(cold.objective)))
    assert np.abs(a @ res.x - b).max() <= 1e-9 and res.x.min() >= -1e-9, k
    rows = np.flatnonzero(np.hstack([a, b[:, None]]).any(axis=1)).tolist()
    y = simplex._recheck(a, b, c, res.x, list(res.basis), rows, 1e-8)
    assert np.array_equal(y, res.duals), k
    assert (c - y @ a).min() >= -LP_DUAL_TOL, k


def test_a_warm_start_after_appending_columns_reaches_the_cold_optimum(monkeypatch):
    warm = _count_warm_starts(monkeypatch)
    for k, (a, b, c) in enumerate(_seeded_lps()):
        half = solve_equality_lp(a[:, : a.shape[1] // 2 + 1], b, c=c[: a.shape[1] // 2 + 1])
        if half.status == OPTIMAL and len(half.basis) == len(b):
            _assert_warm_matches_cold(a, b, c, half.basis, k)
    assert sum(warm) >= 10 and all(warm)


def test_master_lps_warm_started_reach_the_cold_optimum(monkeypatch):
    # Masters that kept every row; those that dropped empty rows follow.
    lps = [lp for lp in _master_lps() if lp[3] is not None and len(lp[3]) == len(lp[1])]
    warm = _count_warm_starts(monkeypatch)
    for k, (a, b, c, basis) in enumerate(lps):
        _assert_warm_matches_cold(a, b, c, basis, k)
    assert len(lps) >= 20 and len(warm) == len(lps) and all(warm)


def test_short_bases_warm_start_while_the_dropped_rows_stay_empty(monkeypatch):
    # Spin-1 support masters have real columns, so their imaginary rows are empty and dropped.
    # The first master's columns are diagonal; the next one's fill rows that it dropped.
    lps = [lp for lp in _master_lps() if lp[3] is not None and len(lp[3]) < len(lp[1])]
    warm = _count_warm_starts(monkeypatch)
    filled = 0
    for k, (a, b, c, basis) in enumerate(lps):
        if len(basis) == np.count_nonzero(np.hstack([a, b[:, None]]).any(axis=1)):
            _assert_warm_matches_cold(a, b, c, basis, k)
            assert warm[-1], k
        else:
            assert _results_equal(solve_equality_lp(a, b, c=c, basis=basis),
                                  solve_equality_lp(a, b, c=c)), k
            assert not warm[-1], k
            filled += 1
    assert len(lps) - filled >= 10 and filled >= 1


def _results_equal(res, ref):
    return (res.status == ref.status and res.iterations == ref.iterations
            and res.phase1_gap == ref.phase1_gap and res.basis == ref.basis
            and _bytes(res.x) == _bytes(ref.x) and _bytes(res.duals) == _bytes(ref.duals))


def test_an_infeasible_or_singular_basis_falls_back_to_the_cold_start(monkeypatch):
    warm = _count_warm_starts(monkeypatch)
    rng = np.random.default_rng(3)
    cases = 0
    for k, (a, b, c) in enumerate(_seeded_lps()):
        m, n = a.shape
        cold = solve_equality_lp(a, b, c=c)
        if cold.status != OPTIMAL or len(cold.basis) != m or n <= m:
            continue
        singular = [cold.basis[0]] * m
        short = cold.basis[:-1]
        for _ in range(50):
            basis = tuple(int(j) for j in rng.choice(n, m, replace=False))
            if abs(np.linalg.det(a[:, basis])) > 1e-6 and np.linalg.solve(
                    a[:, basis], b).min() < -1e-6:
                break
        else:
            continue
        for start in (basis, singular, short, (n,) * m):
            assert _results_equal(solve_equality_lp(a, b, c=c, basis=start), cold), k
        cases += 1
    assert cases >= 10 and not any(warm)
