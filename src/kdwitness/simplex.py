"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c @ x`` subject to ``A @ x = b`` and ``x >= 0``. Problems in
this package have tens of rows and up to a few thousand columns (one per
hull generator), so the classic dense tableau is used: each pricing step,
ratio test and pivot is a handful of whole-array operations, and only the
ratio test's tie rule walks the candidate rows one by one. Pricing takes the
most negative reduced cost (Dantzig's rule), with Bland's rule against
cycling after a run of degenerate pivots; long phases recompute the tableau
from the original columns now and then, so rounding cannot pile up.

Apart from the pivots, every optimal result is re-checked against the
original ``A``, ``b`` and ``c`` (residual, sign, and reduced costs of duals
solved on its final basis), and an infeasible one carries a Farkas
certificate ``y`` with ``y @ A <= 0`` componentwise (within
``config.FARKAS_SLACK_TOL``) and ``y @ b > 0``; a failed check raises
CertificateError, and a basis the pivots left singular raises NoConvergence.
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

# The tableau and cost row are recomputed from the original columns after this
# many pivots, and once more at the end of a phase that ran longer.
REINVERT_EVERY = 64


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    farkas: np.ndarray | None
    phase1_gap: float
    iterations: int


def _enter(cost_row: np.ndarray, bland: bool) -> int:
    """First improving column (Bland), else the most negative one (lowest index on ties)."""
    if not cost_row.size:
        return -1
    col = int((cost_row < -PIVOT_TOL).argmax() if bland else cost_row.argmin())
    return col if cost_row[col] < -PIVOT_TOL else -1


def _leave(tableau: np.ndarray, col: int, basis: list[int]) -> int:
    column = tableau[:, col]
    rows = (column > PIVOT_TOL).nonzero()[0]
    ratios = tableau[rows, -1] / column[rows]
    best_ratio = np.inf
    best_row = -1
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - BLAND_TIE_TOL or (
            abs(ratio - best_ratio) <= BLAND_TIE_TOL
            and (best_row == -1 or basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row


def _pivot(tableau: np.ndarray, cost_row: np.ndarray, row: int, col: int,
           basis: list[int]) -> None:
    tableau[row] /= tableau[row, col]
    # Rows whose pivot-column entry is exactly zero are left alone: subtracting
    # a zero multiple could still flip a -0.0 entry to +0.0. The masked
    # in-place update avoids the gather and scatter copies of fancy indexing,
    # which at d = 6 cost about a hundred page faults per pivot.
    factors = tableau[:, col]
    update = np.abs(factors) > 0.0
    update[row] = False
    np.subtract(tableau, np.multiply.outer(factors, tableau[row]), out=tableau,
                where=update[:, None])
    cost_row -= cost_row[col] * tableau[row, :-1]
    basis[row] = col


def _reinvert(basis: list[int], system: np.ndarray, costs: np.ndarray, pivots: int):
    """Tableau and cost row on ``basis``, from ``system = [columns | rhs]`` and ``costs``."""
    try:
        tableau = np.linalg.solve(system[:, basis], system)
    except np.linalg.LinAlgError:
        raise NoConvergence(f"simplex basis turned singular after {pivots} pivots") from None
    tableau[:, basis] = np.eye(len(basis))
    cost_row = costs - costs[basis] @ tableau[:, :-1]
    cost_row[basis] = 0.0
    return tableau, cost_row


def _iterate(tableau: np.ndarray, cost_row: np.ndarray, basis: list[int],
             system: np.ndarray, costs: np.ndarray, n: int) -> tuple[str, int]:
    """Pivot until no column j < n prices in; in phase one, artificials never re-enter."""
    degenerate = since_reinversion = 0
    for iteration in range(MAX_ITERATIONS):
        col = _enter(cost_row[:n], degenerate >= BLAND_AFTER)
        if since_reinversion == REINVERT_EVERY or (
                col < 0 and since_reinversion and iteration > REINVERT_EVERY):
            tableau[:], cost_row[:] = _reinvert(basis, system, costs, iteration)
            since_reinversion = 0
            col = _enter(cost_row[:n], degenerate >= BLAND_AFTER)
        if col < 0:
            return OPTIMAL, iteration
        row = _leave(tableau, col, basis)
        if row < 0:
            return UNBOUNDED, iteration
        degenerate = degenerate + 1 if tableau[row, -1] / tableau[row, col] <= PIVOT_TOL else 0
        _pivot(tableau, cost_row, row, col, basis)
        since_reinversion += 1
    raise SolverStall(f"simplex did not terminate within {MAX_ITERATIONS} iterations")


def _recheck(a, b, c, x, basis: list[int], rows: list[int], feas_tol: float) -> None:
    """Raise CertificateError unless x is feasible and, with costs c, optimal on its basis."""
    residual = float(np.abs(a @ x - b).max(initial=0.0))
    if residual > feas_tol + LP_PRIMAL_TOL or x.min(initial=0.0) < -LP_PRIMAL_TOL:
        raise CertificateError(f"optimal x misses A @ x = b by {residual:.3e} or has "
                               f"entry {x.min(initial=0.0):.3e} < 0")
    if c is not None:
        reduced = c - np.linalg.solve(a[rows][:, basis].T, c[basis]) @ a[rows]
        if reduced.min() < -LP_DUAL_TOL:
            raise CertificateError(f"optimal basis has reduced cost {reduced.min():.3e} < 0")


def solve_equality_lp(A, b, c=None, feas_tol: float = FEASIBILITY_TOL) -> LPResult:
    """Two-phase simplex on ``min c@x : A@x = b, x >= 0``.

    With ``c=None`` only feasibility is decided (phase one). On
    infeasibility the result carries a validated Farkas certificate in the
    original row order and sign convention; an optimal result has passed
    the re-check of the module docstring.
    """
    a_orig = np.asarray(A, dtype=float)
    b_orig = np.asarray(b, dtype=float)
    m, n = a_orig.shape
    signs = np.where(b_orig < 0.0, -1.0, 1.0)
    a_mod = a_orig * signs[:, None]
    b_mod = b_orig * signs

    system = np.hstack([a_mod, np.eye(m), b_mod[:, None]])
    tableau = system.copy()
    basis = list(range(n, n + m))
    # Phase one: artificial costs 1, starting from the artificial basis.
    costs_phase1 = np.repeat([0.0, 1.0], [n, m])
    cost_row = costs_phase1 - tableau[:, :-1].sum(axis=0)

    status, iters = _iterate(tableau, cost_row, basis, system, costs_phase1, n)
    if status == UNBOUNDED:
        raise CertificateError("phase one of the simplex reported unbounded")
    artificial_mass = sum(tableau[i, -1] for i, j in enumerate(basis) if j >= n)
    if artificial_mass > feas_tol:
        y_orig = np.linalg.solve(system[:, basis].T, costs_phase1[basis]) * signs
        slack = a_orig.T @ y_orig
        if slack.size and slack.max() > FARKAS_SLACK_TOL:
            raise CertificateError(f"Farkas certificate violates y@A <= 0 by {slack.max():.3e}")
        if y_orig @ b_orig <= 0.0:
            raise CertificateError("Farkas certificate has nonpositive objective")
        return LPResult(INFEASIBLE, None, None, y_orig, float(artificial_mass), iters)

    # Drive artificial variables out of the basis. An artificial that cannot
    # leave marks its constraint row as redundant, and that row is dropped.
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[[j for j in basis if j < n]] = False
    for i in range(m):
        if basis[i] < n:
            continue
        candidates = (nonbasic & (np.abs(tableau[i, :n]) > PIVOT_TOL)).nonzero()[0]
        if candidates.size:
            pivot_col = int(candidates[0])
            _pivot(tableau, cost_row, i, pivot_col, basis)
            nonbasic[pivot_col] = False
    kept = [i for i, j in enumerate(basis) if j < n]
    rows = [k for k in range(m) if n + k not in basis]
    basis = [basis[i] for i in kept]

    costs = None if c is None else np.asarray(c, dtype=float)
    if costs is None:
        x_basic = tableau[kept, -1]
    else:
        # Phase two starts from the original columns on the final phase-one basis.
        system = np.hstack([a_mod, b_mod[:, None]])[rows]
        tableau, cost_row = _reinvert(basis, system, costs, iters)
        status, iters2 = _iterate(tableau, cost_row, basis, system, costs, n)
        iters += iters2
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None, 0.0, iters)
        x_basic = tableau[:, -1]

    x = np.zeros(n)
    x[basis] = x_basic
    _recheck(a_orig, b_orig, costs, x, basis, rows, feas_tol)
    objective = 0.0 if costs is None else float(costs @ x)
    return LPResult(OPTIMAL, x, objective, None, float(artificial_mass), iters)
