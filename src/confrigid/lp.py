"""Dense phase-1 simplex (Bland's rule) for small equality-form feasibility
problems: find x >= 0 with A x = b, by minimizing the sum of artificial
variables.  Dimensions here are tiny: the character LP over d characters of
an eigenvalue and a generating set S is (2|S| + 1) x (d + 2), so the
priority is determinism, not speed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    x: np.ndarray
    objective: float
    iterations: int


def phase1_feasibility(A: np.ndarray, b: np.ndarray) -> Phase1Result:
    """Solve min 1^T a  s.t.  A x + a = b (rows pre-flipped so b >= 0),
    x, a >= 0, with Bland's anti-cycling rule, in at most MAX_PIVOTS
    pivots.  Feasible iff optimum ~ 0.

    Each pivot enters the first eligible column (flatnonzero), runs the
    ratio test over the rows with a positive entering entry only, and
    eliminates with one rank-1 update of the rows with a nonzero one."""
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # tableau columns: n structural + m artificial + rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    # objective row: minimize sum of artificials -> reduced costs
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    it = 0
    while it < MAX_PIVOTS:
        it += 1
        eligible = np.flatnonzero(T[m, : n + m] < -PIVOT_TOL)
        if eligible.size == 0:
            break
        enter = int(eligible[0])  # Bland: smallest eligible index
        leave, best = -1, np.inf
        for i in np.flatnonzero(T[:m, enter] > PIVOT_TOL).tolist():
            ratio = T[i, -1] / T[i, enter]
            if ratio < best - PIVOT_TOL or (
                abs(ratio - best) <= PIVOT_TOL
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best, leave = ratio, i
        if leave < 0:
            break  # unbounded cannot happen in phase 1; guard anyway
        T[leave] /= T[leave, enter]
        # one rank-1 update of every other row with a nonzero entering entry
        col = T[:, enter].copy()
        col[leave] = 0.0
        rows = np.flatnonzero(np.abs(col) > 0)
        T[rows] -= np.outer(col[rows], T[leave])
        basis[leave] = enter

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i, -1]
    objective = float(-T[m, -1])
    return Phase1Result(
        feasible=objective <= 1e-9, x=x, objective=objective, iterations=it
    )
