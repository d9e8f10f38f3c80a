"""Revised two-phase simplex for small equality-form linear programs.

Solves ``min c @ x`` subject to ``A @ x = b`` and ``x >= 0``. Problems in
this package are short and wide: tens of rows and up to some ten thousand
columns (one per hull generator). So the simplex keeps the inverse of the basis
matrix and the basic values as one m x (m + 1) array [B^-1 | x_B], and the
reduced costs of A's columns as one row. A pivot forms the entering column
B^-1 a_q, runs the ratio test on x_B, updates [B^-1 | x_B] by a rank-one step,
and updates the reduced costs by one product, (row of B^-1) @ A; basic columns
price at exactly 0. Phase one's artificial columns are the identity and are not
stored: they never re-enter, and only B^-1 needs them. Pricing takes the most
negative reduced cost (Dantzig's rule, lowest index on ties), with Bland's rule
against cycling after a run of degenerate pivots; long phases recompute
[B^-1 | x_B] and the reduced costs from the original columns now and then, so
rounding cannot pile up. The ratio test of every phase, cold or warm, reads a
basic value below 0 (rounding) as 0, so that rounding noise never decides the
ties of a degenerate vertex. The x of a result comes from one solve on its
final basis, not from the x_B that the pivots carried.

Apart from the pivots, every optimal result is re-checked against the
original ``A``, ``b`` and ``c`` (residual, sign, and reduced costs of the
duals it carries, solved on its final basis), and an infeasible one carries
a Farkas certificate ``y`` with ``y @ A <= 0`` componentwise (within
``config.FARKAS_SLACK_TOL``) and ``y @ b > 0``; a failed check raises
CertificateError, and a basis the pivots left singular raises NoConvergence.
An optimum carries its final basis; passed back after columns are appended, it
starts phase two at once if it has one column per row not zero in A and b, and is
nonsingular and feasible on those rows, else the LP starts cold.
"""

from dataclasses import dataclass

import numpy as np

from .config import (BLAND_TIE_TOL, FARKAS_SLACK_TOL, FEASIBILITY_TOL, LP_DUAL_TOL,
                     LP_PRIMAL_TOL, PIVOT_TOL)
from .errors import CertificateError, NoConvergence, SolverStall

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Each phase raises SolverStall after this many pivots.
MAX_ITERATIONS = 50_000

# Pricing falls back to Bland's rule after this many consecutive pivots whose
# step is at most PIVOT_TOL, and returns to Dantzig's after the next longer one.
BLAND_AFTER = 32

# [B^-1 | x_B] and the reduced costs are recomputed from the original columns
# after this many pivots, and once more at the end of a phase that ran longer.
REINVERT_EVERY = 64


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    farkas: np.ndarray | None
    phase1_gap: float
    iterations: int
    # With costs, an optimum's duals in the original row order and sign (0 on dropped rows).
    duals: np.ndarray | None = None
    basis: tuple[int, ...] | None = None  # an optimum's basic columns, one per kept row


def _enter(cost_row: np.ndarray, bland: bool) -> int:
    """First improving column (Bland), else the most negative one (lowest index on ties)."""
    if not cost_row.size:
        return -1
    col = int((cost_row < -PIVOT_TOL).argmax() if bland else cost_row.argmin())
    return col if cost_row[col] < -PIVOT_TOL else -1


def _leave(column: np.ndarray, values: np.ndarray, basis: list[int]) -> tuple[int, float]:
    """Row by the ratio test on basic values read as 0 where below 0, ties to the lowest basic index.

    Returns the row and its ratio, or (-1, inf) when no entry of ``column`` is positive.
    """
    rows = (column > PIVOT_TOL).nonzero()[0]
    ratios = np.maximum(values[rows], 0.0) / column[rows]
    best_ratio, best_row = np.inf, -1
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - BLAND_TIE_TOL or (
            abs(ratio - best_ratio) <= BLAND_TIE_TOL
            and (best_row == -1 or basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row, best_ratio


def _pivot(inverse: np.ndarray, column: np.ndarray, row: int, col: int,
           basis: list[int]) -> None:
    """Column ``col``, with B^-1 a_col = ``column``, enters [B^-1 | x_B] on ``row``."""
    pivot_row = inverse[row] / column[row]
    inverse -= column[:, None] * pivot_row
    inverse[row] = pivot_row
    basis[row] = col


def _basis_matrix(a: np.ndarray, basis: list[int]) -> np.ndarray:
    """Columns ``basis`` of [a | I]: an index j >= n stands for the unit column of row j - n."""
    n = a.shape[1]
    if not basis or max(basis) < n:
        return a[:, basis]
    index = np.array(basis, dtype=np.intp)
    real = index < n
    matrix = np.zeros((a.shape[0], len(basis)))
    matrix[:, real] = a[:, index[real]]
    matrix[index[~real] - n, (~real).nonzero()[0]] = 1.0
    return matrix


def _solve_basis(a: np.ndarray, basis: list[int], rhs: np.ndarray, pivots: int) -> np.ndarray:
    """B^-1 rhs for B the columns ``basis`` of [a | I]; NoConvergence if B is singular."""
    try:
        return np.linalg.solve(_basis_matrix(a, basis), rhs)
    except np.linalg.LinAlgError:
        raise NoConvergence(f"simplex basis turned singular after {pivots} pivots") from None


def _reinvert(basis: list[int], a: np.ndarray, b: np.ndarray, costs: np.ndarray, pivots: int):
    """[B^-1 | x_B] and the reduced costs of a's columns on ``basis``, from the original columns.

    ``costs`` holds the costs of [a | I], or of a alone when no artificial is basic.
    """
    n = a.shape[1]
    identity_and_b = np.eye(len(basis), len(basis) + 1)
    identity_and_b[:, -1] = b
    inverse = _solve_basis(a, basis, identity_and_b, pivots)
    cost_row = costs[:n] - (costs[basis] @ inverse[:, :-1]) @ a
    cost_row[[j for j in basis if j < n]] = 0.0
    return inverse, cost_row


def _iterate(inverse: np.ndarray, cost_row: np.ndarray, basis: list[int],
             a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> tuple[str, int]:
    """Pivot until no column of ``a`` prices in; in phase one, artificials never re-enter."""
    n = a.shape[1]
    binv, values = inverse[:, :-1], inverse[:, -1]  # views: reinversion writes into inverse
    basic = np.zeros(n, dtype=bool)
    basic[[j for j in basis if j < n]] = True
    degenerate = since_reinversion = 0
    for iteration in range(MAX_ITERATIONS):
        col = _enter(cost_row, degenerate >= BLAND_AFTER)
        if since_reinversion == REINVERT_EVERY or (
                col < 0 and since_reinversion and iteration > REINVERT_EVERY):
            inverse[:], cost_row[:] = _reinvert(basis, a, b, costs, iteration)
            since_reinversion = 0
            col = _enter(cost_row, degenerate >= BLAND_AFTER)
        if col < 0:
            return OPTIMAL, iteration
        column = binv @ a[:, col]
        row, ratio = _leave(column, values, basis)
        if row < 0:
            return UNBOUNDED, iteration
        degenerate = degenerate + 1 if ratio <= PIVOT_TOL else 0
        if basis[row] < n:
            basic[basis[row]] = False
        basic[col] = True
        _pivot(inverse, column, row, col, basis)
        cost_row -= cost_row[col] * (binv[row] @ a)
        cost_row[basic] = 0.0
        since_reinversion += 1
    raise SolverStall(f"simplex did not terminate within {MAX_ITERATIONS} iterations")


def _recheck(a, b, c, x, basis: list[int], rows: list[int], feas_tol: float):
    """Raise CertificateError unless x is feasible and, with costs c, optimal; return its duals."""
    residual = float(np.abs(a @ x - b).max(initial=0.0))
    if residual > feas_tol + LP_PRIMAL_TOL or x.min(initial=0.0) < -LP_PRIMAL_TOL:
        raise CertificateError(f"optimal x misses A @ x = b by {residual:.3e} or has "
                               f"entry {x.min(initial=0.0):.3e} < 0")
    if c is None:
        return None
    y = np.zeros(len(b))
    y[rows] = np.linalg.solve(a[rows][:, basis].T, c[basis])
    lowest = (c - y @ a).min(initial=0.0)
    if lowest < -LP_DUAL_TOL:
        raise CertificateError(f"optimal basis has reduced cost {lowest:.3e} < 0")
    return y


def _warm_start(basis, a: np.ndarray, b: np.ndarray, costs: np.ndarray | None):
    """[B^-1 | x_B], reduced costs and rows on ``basis``, or None unless it is a feasible basis.

    The rows are those not zero in both a and b; the others hold for every x and are dropped.
    """
    if basis is None or costs is None:
        return None
    rows = np.flatnonzero(a.any(axis=1) | (b != 0.0)).tolist()
    if len(basis) != len(rows) or not all(0 <= j < a.shape[1] for j in basis):
        return None
    try:
        inverse, cost_row = _reinvert(list(basis), a[rows], b[rows], costs, 0)
    except NoConvergence:
        return None
    return (inverse, cost_row, rows) if inverse[:, -1].min(initial=0.0) >= -LP_PRIMAL_TOL else None


def solve_equality_lp(A, b, c=None, feas_tol: float = FEASIBILITY_TOL,
                      basis=None) -> LPResult:
    """Two-phase simplex on ``min c@x : A@x = b, x >= 0``.

    With ``c=None`` only feasibility is decided (phase one). On
    infeasibility the result carries a validated Farkas certificate in the
    original row order and sign convention; an optimal result has passed
    the re-check of the module docstring. With costs, a feasible starting
    ``basis`` (one column index per row not zero in A and b) skips phase one.
    """
    a_orig = np.asarray(A, dtype=float)
    b_orig = np.asarray(b, dtype=float)
    m, n = a_orig.shape
    signs = np.where(b_orig < 0.0, -1.0, 1.0)
    a_mod = a_orig * signs[:, None]
    b_mod = b_orig * signs

    costs = None if c is None else np.asarray(c, dtype=float)
    start = _warm_start(basis, a_mod, b_mod, costs)
    if start is not None:
        inverse, cost_row, rows = start
        basis, iters, artificial_mass = list(basis), 0, 0.0
    else:
        # Phase one: artificial costs 1, starting from the artificial basis B = I.
        inverse = np.eye(m, m + 1)
        inverse[:, -1] = b_mod
        basis = list(range(n, n + m))
        costs_phase1 = np.ones(n + m)
        costs_phase1[:n] = 0.0
        cost_row = -a_mod.sum(axis=0)

        status, iters = _iterate(inverse, cost_row, basis, a_mod, b_mod, costs_phase1)
        if status == UNBOUNDED:
            raise CertificateError("phase one of the simplex reported unbounded")
        artificial_mass = sum(inverse[i, -1] for i, j in enumerate(basis) if j >= n)
        if artificial_mass > feas_tol:
            y_orig = np.linalg.solve(_basis_matrix(a_mod, basis).T, costs_phase1[basis]) * signs
            slack = a_orig.T @ y_orig
            if slack.size and slack.max() > FARKAS_SLACK_TOL:
                raise CertificateError(
                    f"Farkas certificate violates y@A <= 0 by {slack.max():.3e}")
            if y_orig @ b_orig <= 0.0:
                raise CertificateError("Farkas certificate has nonpositive objective")
            return LPResult(INFEASIBLE, None, None, y_orig, float(artificial_mass), iters)

        # Drive artificial variables out of the basis, reading row i of B^-1 A. An
        # artificial that cannot leave, or whose pivot would move a basic value by
        # more than LP_PRIMAL_TOL (a tiny level over a tiny entry), marks its
        # constraint row as redundant, and that row is dropped.
        pending = [i for i in range(m) if basis[i] >= n]
        while pending:
            # The rows of B^-1 A of the pending artificials, read again after each pivot.
            entries = np.abs(inverse[pending, :-1] @ a_mod) > PIVOT_TOL
            entries[:, [j for j in basis if j < n]] = False
            for k in entries.any(axis=1).nonzero()[0].tolist():
                i, pivot_col = pending[k], int(entries[k].argmax())
                column = inverse[:, :-1] @ a_mod[:, pivot_col]
                step = inverse[i, -1] / column[i]
                moves = np.abs(column * step)
                moves[i] = abs(step)
                if moves.max() <= LP_PRIMAL_TOL:
                    _pivot(inverse, column, i, pivot_col, basis)
                    pending = pending[k + 1:]
                    break
            else:  # no pending artificial can leave
                break
        rows = [k for k in range(m) if n + k not in basis]
        basis = [j for j in basis if j < n]

    a_rows, b_rows = (a_mod, b_mod) if len(rows) == m else (a_mod[rows], b_mod[rows])
    if costs is not None:
        # Phase two starts from the original columns on the final phase-one basis, or the warm one.
        if start is None:
            inverse, cost_row = _reinvert(basis, a_rows, b_rows, costs, iters)
        status, iters2 = _iterate(inverse, cost_row, basis, a_rows, b_rows, costs)
        iters += iters2
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None, 0.0, iters)

    x = np.zeros(n)
    x[basis] = _solve_basis(a_rows, basis, b_rows, iters)
    duals = _recheck(a_orig, b_orig, costs, x, basis, rows, feas_tol)
    objective = 0.0 if costs is None else float(costs @ x)
    return LPResult(OPTIMAL, x, objective, None, float(artificial_mass), iters, duals,
                    tuple(basis))
