"""Dense phase-1 simplex (Bland's rule) for small equality-form feasibility
problems: find x >= 0 with A x = b, by minimizing the sum of artificial
variables.  Dimensions here are tiny: the character LP over d characters of
an eigenvalue and a generating set S is (2|S| + 1) x (d + 2).  At that size
a numpy call costs more than the arithmetic it does, so the tableau is set
up with numpy and pivoted on Python floats: one IEEE-754 double operation
for each of numpy's, in the same order, so the pivots and every bit of the
result are those of the array version."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class Phase1Result:
    x: np.ndarray
    objective: float
    iterations: int


def phase1_feasibility(A: np.ndarray, b: np.ndarray) -> Phase1Result:
    """Solve min 1^T a  s.t.  A x + a = b (rows pre-flipped so b >= 0),
    x, a >= 0, with Bland's anti-cycling rule, in at most MAX_PIVOTS
    pivots.  The system is feasible iff the optimum objective is ~ 0; the
    caller sets the bound.

    Each pivot enters the first eligible column, runs the ratio test over
    the rows with a positive entering entry only, and eliminates from every
    other row with a nonzero entering entry.  The set-up stays numpy's: its
    column sums can be pairwise (a single column of 8 or more rows), and a
    left-to-right sum can differ in the last bit; the pivots run on the
    tableau's rows as lists of Python floats."""
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
    T[m, :n] = -np.add.reduce(A)
    T[m, -1] = -np.add.reduce(b)
    rows = T.tolist()
    basis = list(range(n, n + m))

    it = 0
    while it < MAX_PIVOTS:
        it += 1
        obj = rows[m]
        # Bland: the smallest eligible index enters
        enter = next((j for j in range(n + m) if obj[j] < -PIVOT_TOL), -1)
        if enter < 0:
            break
        leave, best = -1, math.inf
        for i in range(m):
            if rows[i][enter] > PIVOT_TOL:
                ratio = rows[i][-1] / rows[i][enter]
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            break  # unbounded cannot happen in phase 1; guard anyway
        piv = rows[leave][enter]
        prow = rows[leave] = [v / piv for v in rows[leave]]
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and abs(f) > 0:
                rows[i] = [v - f * p for v, p in zip(row, prow)]
        basis[leave] = enter

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    objective = -rows[m][-1]
    return Phase1Result(x=x, objective=objective, iterations=it)
