"""Disproof search over the normalized weight simplex {w >= 0, sum_e w_e =
|E|}.  The rigidity check uses only the seed-free line search along a
given centred edge direction (the equal-length decision's dual c), which
solves one Laplacian per step and stops at the first improving step.
Randomized weight sampling and projected subgradient ascent on lambda_2
(descent on lambda_n) remain as stand-alone searches for library callers;
no verdict depends on them."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian
from .spectra import lambda_ends

IMPROVE_MARGIN = 1e-6
ENDS = ("lower", "upper")

# Cap on one chunk of stacked Laplacians in random_weight_search (5 matrices
# at n = 40); chunking changes no result, only how many solves share a call.
STACK_BYTES = 64 * 1024

# Step sizes of the line search, as fractions of the largest step
# that keeps every weight nonnegative: 1, 1/2, ..., 2^-29.
DIRECTION_STEPS = 2.0 ** -np.arange(30)


@dataclass(frozen=True)
class FalsifierResult:
    end: str  # "lower" | "upper"
    best_w: np.ndarray
    best_value: float
    improved: bool
    trials: int
    steps: int
    seed: int | None  # None for the seed-free line search


def simplex_projection(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = total} by sort-and-threshold."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.clip(v - theta, 0.0, None)


def _check_end(end: str) -> None:
    if end not in ENDS:
        raise ValueError("end must be 'lower' or 'upper'")


def _unit_values(g: Graph) -> dict[str, float]:
    """Target eigenvalues at unit weights; lambda_ends rejects disconnected
    graphs and n < 2, so the stand-alone searches check their input here
    (line_search and reverify take the unit value from their caller)."""
    lam2, lamn = lambda_ends(g)
    return {"lower": lam2, "upper": lamn}


def _value(g: Graph, w: np.ndarray, end: str) -> float:
    vals = np.linalg.eigvalsh(laplacian(g, w))
    return float(vals[1] if end == "lower" else vals[-1])


def _better(end: str, candidate: float, incumbent: float) -> bool:
    return candidate > incumbent if end == "lower" else candidate < incumbent


def _is_improvement(end: str, value: float, unit_value: float) -> bool:
    if end == "lower":
        return value > unit_value * (1.0 + IMPROVE_MARGIN)
    return value < unit_value * (1.0 - IMPROVE_MARGIN)


def _chunk_rows(g: Graph) -> int:
    """Weight rows per chunk of stacked Laplacians (at most STACK_BYTES)."""
    return max(1, STACK_BYTES // (8 * g.n * g.n))


def _best_row(
    g: Graph, chunks: Iterable[np.ndarray], end: str, unit: float
) -> tuple[float, np.ndarray]:
    """(value, weights) of the first strictly best row at `end`, over
    chunks of weight rows solved by one batched eigvalsh each; the unit
    value and unit weights when no row beats them."""
    best, best_w = unit, np.ones(g.m)
    col, pick = (1, np.argmax) if end == "lower" else (-1, np.argmin)
    for W in chunks:
        vals = np.linalg.eigvalsh(laplacian(g, W))[:, col]
        r = int(pick(vals))
        if _better(end, float(vals[r]), best):
            best, best_w = float(vals[r]), W[r].copy()
    return best, best_w


def line_search(g: Graph, end: str, d: np.ndarray, unit: float) -> FalsifierResult:
    """Line search from unit weights along a centred edge direction d, which
    raises the target at the lower end (its negative is followed at the
    upper end); `unit` is the target's value at unit weights.

    The weights w = 1 + t d keep sum m and stay >= 0 for t up to t_max =
    1 / max(-d).  The steps t_max * DIRECTION_STEPS are solved one at a
    time from the largest down, and the first step that improves on `unit`
    by IMPROVE_MARGIN is returned.  When none does, the result is the first
    strictly best step of the grid (unit weights if no step beats them),
    with `improved` false.  `trials` counts the steps solved.  No random
    numbers are drawn.
    """
    _check_end(end)
    if end == "upper":
        d = -d
    best, best_w = unit, np.ones(g.m)
    steps = DIRECTION_STEPS / np.max(-d)
    for j, t in enumerate(steps, start=1):
        # clipping only removes rounding below zero at the boundary step
        w = np.maximum(1.0 + t * d, 0.0)
        val = _value(g, w, end)
        if _better(end, val, best):
            best, best_w = val, w
        if _is_improvement(end, val, unit):
            break
    return FalsifierResult(
        end=end,
        best_w=best_w,
        best_value=best,
        improved=_is_improvement(end, best, unit),
        trials=j,
        steps=0,
        seed=None,
    )


def random_weight_search(
    g: Graph, end: str, trials: int = 1000, seed: int = 0
) -> FalsifierResult:
    """Sample weights uniformly from the simplex (exponential spacings),
    keep the best objective value.

    Rows are drawn and solved in chunks of at most STACK_BYTES of
    Laplacians, one batched eigvalsh per chunk.  The result is bit for bit
    that of drawing, normalizing and solving one row at a time and keeping
    the first strictly best row.
    """
    _check_end(end)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    unit = _unit_values(g)[end]
    rng = np.random.default_rng(seed)
    chunk = _chunk_rows(g)

    def chunks() -> Iterator[np.ndarray]:
        for done in range(0, trials, chunk):
            e = rng.exponential(size=(min(chunk, trials - done), g.m))
            yield e * (g.m / e.sum(axis=1, keepdims=True))

    best, best_w = _best_row(g, chunks(), end, unit)
    return FalsifierResult(
        end=end,
        best_w=best_w,
        best_value=best,
        improved=_is_improvement(end, best, unit),
        trials=trials,
        steps=0,
        seed=seed,
    )


def subgradient_ascent(
    g: Graph,
    end: str,
    start_w: np.ndarray | None = None,
    steps: int = 500,
    seed: int = 0,
    eta0: float = 0.1,
) -> FalsifierResult:
    """Projected subgradient steps on the target eigenvalue.

    Per-edge direction is (phi_i - phi_j)^2 for a unit eigenvector phi of the
    target eigenvalue (from the Dirichlet form); with eigenvalue multiplicity
    above one the eigenvector choice makes this a subgradient step, not a
    gradient step.  The direction is mean-centred (the simplex keeps the
    weight sum) and scaled to norm sqrt(m), since the raw values shrink with
    the graph; the step is eta0 / sqrt(t) times it, and the run stops early
    where the direction vanishes.  Each step's eigh also gives the value of
    the current iterate, so a run makes at most `steps` eigh calls and one
    eigvalsh for the last iterate; it always returns the best seen.
    """
    _check_end(end)
    rng = np.random.default_rng(seed)
    unit = _unit_values(g)[end]
    if start_w is None:
        w = simplex_projection(
            np.ones(g.m) + 0.01 * rng.standard_normal(g.m), float(g.m)
        )
    else:
        w = simplex_projection(np.asarray(start_w, dtype=float), float(g.m))
    best_w, best = np.ones(g.m), unit
    sign = 1.0 if end == "lower" else -1.0
    col = 1 if end == "lower" else g.n - 1
    e = g.edge_array
    for t in range(1, steps + 1):
        vals, vecs = np.linalg.eigh(laplacian(g, w))
        if _better(end, float(vals[col]), best):
            best, best_w = float(vals[col]), w
        phi = vecs[:, col]
        grad = (phi[e[:, 0]] - phi[e[:, 1]]) ** 2
        d = grad - grad.mean()
        norm = np.linalg.norm(d)
        if norm <= 1e-12 * np.linalg.norm(grad):
            break  # stationary to rounding: scaling d up would step on noise
        step = sign * (eta0 / np.sqrt(t)) * np.sqrt(g.m) / norm
        w = simplex_projection(w + step * d, float(g.m))
    val = _value(g, w, end)
    if _better(end, val, best):
        best, best_w = val, w
    return FalsifierResult(
        end=end,
        best_w=best_w,
        best_value=best,
        improved=_is_improvement(end, best, unit),
        trials=0,
        steps=steps,
        seed=seed,
    )


def reverify(g: Graph, res: FalsifierResult, unit: float) -> bool:
    """Recompute the claimed value with one fresh eigensolve and confirm
    both the value and the improvement margin over `unit`, the target's
    value at unit weights."""
    val = _value(g, res.best_w, res.end)
    if abs(val - res.best_value) > 1e-9 * (1.0 + abs(val)):
        return False
    return _is_improvement(res.end, val, unit) == res.improved
