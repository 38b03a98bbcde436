"""Disproof search over the normalized weight simplex {w >= 0, sum_e w_e =
|E|}.

The rigidity check uses only `line_search`, seed-free, along a given
centred edge direction (the equal-length decision's dual c), and
`reverify`.  Both decide "does the target eigenvalue beat theta?" by
whether one shifted matrix (`_shifted`) has a Cholesky factorization: a
symmetric matrix is positive definite exactly when it has one (Golub and
Van Loan, Matrix Computations, 4th ed., section 4.2).  The line search
makes one eigensolve, for its witness; `reverify` makes none.
`random_weight_search` (uniform draws from the simplex) and
`subgradient_ascent` (projected subgradient ascent on lambda_2, descent on
lambda_n) are reference code that no check runs, one eigensolve per
weight vector tried: stand-alone searches for library callers and an
independent oracle for the tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _scatter_laplacian, laplacian
from .spectra import lambda_ends

IMPROVE_MARGIN = 1e-6
ENDS = ("lower", "upper")

# Step sizes of the line search, as fractions of the largest step
# that keeps every weight nonnegative: 1, 1/2, ..., 2^-29.
DIRECTION_STEPS = 2.0 ** -np.arange(30)

# subgradient_ascent's step at iteration t is ETA0 / sqrt(t) times a
# direction of norm sqrt(m).
ETA0 = 0.1


@dataclass(frozen=True)
class FalsifierResult:
    end: str  # "lower" | "upper"
    best_w: np.ndarray
    best_value: float
    improved: bool
    trials: int


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


def _value(g: Graph, w: np.ndarray, end: str) -> float:
    vals = np.linalg.eigvalsh(laplacian(g, w))
    return float(vals[1] if end == "lower" else vals[-1])


def _better(end: str, candidate: float, incumbent: float) -> bool:
    return candidate > incumbent if end == "lower" else candidate < incumbent


def _is_improvement(end: str, value: float, unit_value: float) -> bool:
    if end == "lower":
        return value > unit_value * (1.0 + IMPROVE_MARGIN)
    return value < unit_value * (1.0 - IMPROVE_MARGIN)


def _shifted(L: np.ndarray, end: str, theta: float) -> np.ndarray:
    """A fresh matrix that is positive definite exactly when the end's
    target eigenvalue of the Laplacian L beats theta.  At the upper end it
    is theta I - L.  At the lower end it is L + alpha J - theta I with
    alpha = (2|theta| + 1) / n: the all-ones vector, which L sends to 0,
    gets 2|theta| + 1 - theta > 0 for every theta, and the vectors
    orthogonal to it keep L's other eigenvalues minus theta, the least
    lambda_2 - theta."""
    n = len(L)
    if end == "lower":
        A = L + (2.0 * abs(theta) + 1.0) / n
        A.ravel()[:: n + 1] -= theta  # a view: A is a fresh contiguous array
    else:
        A = -L
        A.ravel()[:: n + 1] += theta
    return A


def _positive_definite(A: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _beats(L: np.ndarray, end: str, theta: float) -> bool:
    """lambda_2(L) > theta at the lower end, lambda_n(L) < theta at the
    upper end, by one Cholesky factorization and no eigensolve."""
    return _positive_definite(_shifted(L, end, theta))


def line_search(g: Graph, end: str, d: np.ndarray, unit: float) -> FalsifierResult:
    """Line search from unit weights along a centred edge direction d, which
    raises the target at the lower end (its negative is followed at the
    upper end); `unit` is the target's value at unit weights.

    The weights w = 1 + t d keep sum m and stay >= 0 for t up to t_max =
    1 / max(-d).  The steps t_max * DIRECTION_STEPS are screened one at a
    time from the largest down.  L(w) is L(1) + t L_d, with L_d the
    Laplacian of the signed d, so a base matrix for the margin theta
    (`_shifted`, built once per call) plus or minus t L_d is positive
    definite exactly when the step beats theta: each screen is one
    Cholesky factorization.  The first step that passes is solved with one
    eigensolve of L(w) and returned if `_is_improvement` agrees; if not, the
    screen goes on.  When no step is accepted, the steps are solved one at
    a time from the largest down, stopping at the first improving step;
    with none, the result is the first strictly best step of the grid (unit
    weights if no step beats them), with `improved` false.  `trials` counts
    the steps tried.  A d that lowers no weight (zero up to rounding) gives
    unit weights and tries no step.  No random numbers are drawn.
    """
    _check_end(end)
    if end == "upper":
        d = -d
    top = float(np.maximum.reduce(-d))
    steps = DIRECTION_STEPS / top if top > 0 else ()
    theta = unit * (1.0 + IMPROVE_MARGIN if end == "lower" else 1.0 - IMPROVE_MARGIN)
    base = _shifted(g.unit_laplacian, end, theta)
    # the shifted matrix holds +L(w) at the lower end and -L(w) at the upper
    L_d = _scatter_laplacian(g, d if end == "lower" else -d)
    screen = np.empty(base.shape)  # base + t L_d, step by step in one buffer
    for j, t in enumerate(steps, start=1):
        np.multiply(L_d, t, out=screen)
        screen += base
        if _positive_definite(screen):
            # clipping only removes rounding below zero at the boundary step
            w = np.maximum(1.0 + t * d, 0.0)
            val = _value(g, w, end)
            if _is_improvement(end, val, unit):
                return FalsifierResult(end=end, best_w=w, best_value=val, improved=True, trials=j)
    best, best_w = unit, np.ones(g.m)
    j = 0
    for j, t in enumerate(steps, start=1):
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
    )


def random_weight_search(
    g: Graph, end: str, trials: int = 1000, seed: int = 0
) -> FalsifierResult:
    """Sample weights uniformly from the simplex (exponential spacings), one
    row drawn, normalized and solved at a time, and keep the first strictly
    best row (unit weights when no row beats them)."""
    _check_end(end)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # lambda_ends rejects disconnected graphs and n < 2
    unit = lambda_ends(g)[ENDS.index(end)]
    rng = np.random.default_rng(seed)
    best, best_w = unit, np.ones(g.m)
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
    )


def subgradient_ascent(
    g: Graph, end: str, steps: int = 500, seed: int = 0
) -> FalsifierResult:
    """Projected subgradient steps on the target eigenvalue.

    Per-edge direction is (phi_i - phi_j)^2 for a unit eigenvector phi of the
    target eigenvalue (from the Dirichlet form); with eigenvalue multiplicity
    above one the eigenvector choice makes this a subgradient step, not a
    gradient step.  The direction is mean-centred (the simplex keeps the
    weight sum) and scaled to norm sqrt(m), since the raw values shrink with
    the graph; the step is ETA0 / sqrt(t) times it, and the run stops early
    where the direction vanishes.  The start is unit weights perturbed by
    seeded noise of size 0.01, projected onto the simplex.  Each step's eigh also gives the value of
    the current iterate, so a run makes at most `steps` eigh calls and one
    eigvalsh for the last iterate; it always returns the best seen.
    """
    _check_end(end)
    rng = np.random.default_rng(seed)
    unit = lambda_ends(g)[ENDS.index(end)]
    w = simplex_projection(np.ones(g.m) + 0.01 * rng.standard_normal(g.m), float(g.m))
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
        step = sign * (ETA0 / np.sqrt(t)) * np.sqrt(g.m) / norm
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
    )


def reverify(g: Graph, res: FalsifierResult, unit: float) -> bool:
    """Confirm the claimed value v = res.best_value and the claimed
    improvement over `unit`, the target's value at unit weights, on a fresh
    L(best_w) and with no eigensolve.  Two Cholesky factorizations prove
    v - delta < lambda_2 <= v + delta at the lower end and v - delta <=
    lambda_n < v + delta at the upper end, delta = 1e-9 (1 + |v|): the
    target beats the weaker bound and not the stronger one."""
    v = res.best_value
    if _is_improvement(res.end, v, unit) != res.improved:
        return False
    L = laplacian(g, res.best_w)
    delta = 1e-9 * (1.0 + abs(v))
    weak, strong = (v - delta, v + delta) if res.end == "lower" else (v + delta, v - delta)
    return _beats(L, res.end, weak) and not _beats(L, res.end, strong)
