"""Disproof search: randomized weight sampling and projected subgradient
ascent on lambda_2 (descent on lambda_n) over the normalized weight simplex
{w >= 0, sum_e w_e = |E|}."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian
from .spectra import lambda_ends

IMPROVE_MARGIN = 1e-6


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


def _unit_value(g: Graph, end: str) -> float:
    """Target eigenvalue at unit weights; lambda_ends rejects disconnected
    graphs and n < 2, so every public entry point checks its input here."""
    lam2, lamn = lambda_ends(g)
    return lam2 if end == "lower" else lamn


def _value(g: Graph, w: np.ndarray, end: str) -> float:
    vals = np.linalg.eigvalsh(laplacian(g, w))
    return float(vals[1] if end == "lower" else vals[-1])


def _better(end: str, candidate: float, incumbent: float) -> bool:
    return candidate > incumbent if end == "lower" else candidate < incumbent


def _is_improvement(end: str, value: float, unit_value: float) -> bool:
    if end == "lower":
        return value > unit_value * (1.0 + IMPROVE_MARGIN)
    return value < unit_value * (1.0 - IMPROVE_MARGIN)


def random_weight_search(
    g: Graph, end: str, trials: int = 1000, seed: int = 0
) -> FalsifierResult:
    """Sample weights uniformly from the simplex (exponential spacings),
    keep the best objective value."""
    if end not in ("lower", "upper"):
        raise ValueError("end must be 'lower' or 'upper'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    unit = _unit_value(g, end)
    best_w = np.ones(g.m)
    best = unit
    for _ in range(trials):
        e = rng.exponential(size=g.m)
        w = e * (g.m / e.sum())
        val = _value(g, w, end)
        if _better(end, val, best):
            best, best_w = val, w
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
    gradient step.  Step size eta0 / sqrt(t); always returns the best seen.
    """
    if end not in ("lower", "upper"):
        raise ValueError("end must be 'lower' or 'upper'")
    rng = np.random.default_rng(seed)
    unit = _unit_value(g, end)
    if start_w is None:
        w = simplex_projection(
            np.ones(g.m) + 0.01 * rng.standard_normal(g.m), float(g.m)
        )
    else:
        w = simplex_projection(np.asarray(start_w, dtype=float), float(g.m))
    best_w, best = w.copy(), _value(g, w, end)
    if _better(end, unit, best):
        best_w, best = np.ones(g.m), unit
    sign = 1.0 if end == "lower" else -1.0
    col = 1 if end == "lower" else g.n - 1
    for t in range(1, steps + 1):
        vals, vecs = np.linalg.eigh(laplacian(g, w))
        phi = vecs[:, col]
        grad = np.array([(phi[i] - phi[j]) ** 2 for i, j in g.edges])
        w = simplex_projection(w + sign * (eta0 / np.sqrt(t)) * grad, float(g.m))
        val = _value(g, w, end)
        if _better(end, val, best):
            best, best_w = val, w.copy()
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
    unit = _unit_value(g, res.end)
    val = _value(g, res.best_w, res.end)
    if abs(val - res.best_value) > 1e-9 * (1.0 + abs(val)):
        return False
    return _is_improvement(res.end, val, unit) == res.improved
