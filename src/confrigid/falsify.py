"""Disproof search: randomized weight sampling and projected subgradient
ascent on lambda_2 (descent on lambda_n) over the normalized weight simplex
{w >= 0, sum_e w_e = |E|}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian
from .spectra import lambda_ends

IMPROVE_MARGIN = 1e-6
ENDS = ("lower", "upper")

# Cap on one chunk of stacked Laplacians in the random search (5 matrices at
# n = 40); chunking changes no result, only how many solves share a call.
STACK_BYTES = 64 * 1024


@dataclass(frozen=True)
class FalsifierResult:
    end: str  # "lower" | "upper"
    best_w: np.ndarray
    best_value: float
    improved: bool
    trials: int
    steps: int
    seed: int


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
    graphs and n < 2, so every public entry point checks its input here."""
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


def _random_search(g: Graph, trials: int, seed: int) -> dict[str, FalsifierResult]:
    """One draw of `trials` simplex samples, scored at both ends.

    Rows are drawn and solved in chunks of at most STACK_BYTES of
    Laplacians, one batched eigvalsh per chunk.  The result for each end is
    bit for bit that of drawing, normalizing and solving one row at a time
    and keeping the first strictly best row.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    unit = _unit_values(g)
    rng = np.random.default_rng(seed)
    chunk = max(1, STACK_BYTES // (8 * g.n * g.n))
    best = dict(unit)
    best_w = {end: np.ones(g.m) for end in ENDS}
    for done in range(0, trials, chunk):
        e = rng.exponential(size=(min(chunk, trials - done), g.m))
        W = e * (g.m / e.sum(axis=1, keepdims=True))
        vals = np.linalg.eigvalsh(laplacian(g, W))
        for end, col, pick in (("lower", 1, np.argmax), ("upper", -1, np.argmin)):
            r = int(pick(vals[:, col]))
            if _better(end, float(vals[r, col]), best[end]):
                best[end], best_w[end] = float(vals[r, col]), W[r].copy()
    return {
        end: FalsifierResult(
            end=end,
            best_w=best_w[end],
            best_value=best[end],
            improved=_is_improvement(end, best[end], unit[end]),
            trials=trials,
            steps=0,
            seed=seed,
        )
        for end in ENDS
    }


def random_weight_search(
    g: Graph, end: str, trials: int = 1000, seed: int = 0
) -> FalsifierResult:
    """Sample weights uniformly from the simplex (exponential spacings),
    keep the best objective value: this end of `_random_search`'s draw."""
    _check_end(end)
    return _random_search(g, trials, seed)[end]


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


def reverify(g: Graph, res: FalsifierResult) -> bool:
    """Recompute the claimed value with a fresh eigensolve and confirm both
    the value and the improvement margin."""
    unit = _unit_values(g)[res.end]
    val = _value(g, res.best_w, res.end)
    if abs(val - res.best_value) > 1e-9 * (1.0 + abs(val)):
        return False
    return _is_improvement(res.end, val, unit) == res.improved
