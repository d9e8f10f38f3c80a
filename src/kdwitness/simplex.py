"""Dense two-phase simplex for small equality-form linear programs.

Solves ``min c @ x`` subject to ``A @ x = b`` and ``x >= 0`` with Bland's
rule for anti-cycling. Problems in this package have tens of rows and up to
a few thousand columns (one per hull generator), so the classic dense
tableau is used: each pricing step, ratio test and pivot is a handful of
whole-array operations, and only the ratio test's tie rule walks the
candidate rows one by one. When the constraints are infeasible, a Farkas
certificate ``y`` is produced with ``y @ A <= 0`` componentwise (within
``config.FARKAS_SLACK_TOL``) and ``y @ b > 0``.
"""

from dataclasses import dataclass

import numpy as np

from .config import BLAND_TIE_TOL, FARKAS_SLACK_TOL, FEASIBILITY_TOL, PIVOT_TOL
from .errors import CertificateError, SolverStall

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Each phase raises SolverStall after this many pivots.
MAX_ITERATIONS = 50_000


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    farkas: np.ndarray | None
    phase1_gap: float
    iterations: int


def _enter_bland(cost_row: np.ndarray, n_cols: int) -> int:
    improving = (cost_row[:n_cols] < -PIVOT_TOL).nonzero()[0]
    return int(improving[0]) if improving.size else -1


def _leave_bland(tableau: np.ndarray, col: int, basis: list[int]) -> int:
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


def _iterate(tableau: np.ndarray, cost_row: np.ndarray, basis: list[int],
             n_cols: int) -> tuple[str, int]:
    for iteration in range(MAX_ITERATIONS):
        col = _enter_bland(cost_row, n_cols)
        if col < 0:
            return OPTIMAL, iteration
        row = _leave_bland(tableau, col, basis)
        if row < 0:
            return UNBOUNDED, iteration
        _pivot(tableau, cost_row, row, col, basis)
    raise SolverStall(f"simplex did not terminate within {MAX_ITERATIONS} iterations")


def solve_equality_lp(A, b, c=None, feas_tol: float = FEASIBILITY_TOL) -> LPResult:
    """Two-phase simplex on ``min c@x : A@x = b, x >= 0``.

    With ``c=None`` only feasibility is decided (phase one). On
    infeasibility the result carries a validated Farkas certificate in the
    original row order and sign convention.
    """
    a_orig = np.asarray(A, dtype=float)
    b_orig = np.asarray(b, dtype=float)
    m, n = a_orig.shape
    signs = np.where(b_orig < 0.0, -1.0, 1.0)
    a_mod = a_orig * signs[:, None]
    b_mod = b_orig * signs

    ext = np.hstack([a_mod, np.eye(m)])
    tableau = np.hstack([ext, b_mod[:, None]])
    basis = list(range(n, n + m))
    # Reduced costs for phase 1 (artificial costs 1, basis = artificials).
    cost_row = -tableau[:, :-1].sum(axis=0)
    cost_row[n:] += 1.0

    status, iters = _iterate(tableau, cost_row, basis, n + m)
    if status == UNBOUNDED:
        raise CertificateError("phase one of the simplex reported unbounded")
    artificial_mass = sum(
        tableau[i, -1] for i in range(len(basis)) if basis[i] >= n
    )
    if artificial_mass > feas_tol:
        costs_phase1 = np.zeros(n + m)
        costs_phase1[n:] = 1.0
        basis_cols = ext[:, basis]
        y = np.linalg.solve(basis_cols.T, costs_phase1[list(basis)])
        y_orig = y * signs
        slack = a_orig.T @ y_orig
        gain = float(y_orig @ b_orig)
        if slack.size and slack.max() > FARKAS_SLACK_TOL:
            raise CertificateError(
                f"Farkas certificate violates y@A <= 0 by {slack.max():.3e}"
            )
        if gain <= 0.0:
            raise CertificateError("Farkas certificate has nonpositive objective")
        return LPResult(INFEASIBLE, None, None, y_orig, float(artificial_mass), iters)

    # Drive artificial variables out of the basis; drop redundant rows.
    redundant: list[int] = []
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
        else:
            redundant.append(i)
    if redundant:
        keep = [i for i in range(tableau.shape[0]) if i not in redundant]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]

    total_iters = iters
    if c is not None:
        costs = np.asarray(c, dtype=float)
        tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
        cost_row = costs.copy()
        for i, jb in enumerate(basis):
            cost_row -= cost_row[jb] * tableau[i, :-1]
        status, iters2 = _iterate(tableau, cost_row, basis, n)
        total_iters += iters2
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, None, 0.0, total_iters)

    x = np.zeros(n)
    for i, jb in enumerate(basis):
        if jb < n:
            x[jb] = tableau[i, -1]
    objective = float(np.asarray(c, dtype=float) @ x) if c is not None else 0.0
    return LPResult(OPTIMAL, x, objective, None, float(artificial_mass), total_iters)
