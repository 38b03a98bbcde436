"""Independent recheck of every verdict the benchmark receives.

Only numpy is used here: the Laplacian, the spectrum, edge lengths and the
circulant decisions are rebuilt from the edge list, and no ``confrigid``
module is imported.  Reports are read through their public attributes.

Each ``*_problems`` function returns a list of human-readable problems; an
empty list means the output passed.  A check with any problem counts as one
failed check.
"""

from __future__ import annotations

import numpy as np

ISO_TOL = 1e-7  # relative spread of edge lengths in a certificate
IMPROVE_MARGIN = 1e-6  # a witness must beat the uniform weights by this share
EIG_TOL = 1e-8  # agreement of eigenvalues, relative to 1 + |lambda|
RESIDUAL_TOL = 1e-7  # |L P - lambda P|, relative to (1 + lambda) * max |P|


def laplacian(n: int, edges, w=None) -> np.ndarray:
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    w = np.ones(len(e)) if w is None else np.asarray(w, dtype=float)
    L = np.zeros((n, n))
    np.add.at(L, (e[:, 0], e[:, 1]), -w)
    np.add.at(L, (e[:, 1], e[:, 0]), -w)
    np.add.at(L, (e[:, 0], e[:, 0]), w)
    np.add.at(L, (e[:, 1], e[:, 1]), w)
    return L


def spectrum_end(L: np.ndarray, end: str) -> float:
    vals = np.linalg.eigvalsh(L)
    return float(vals[1] if end == "lower" else vals[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EIG_TOL * (1.0 + abs(b))


def certificate_problems(n: int, edges, end: str, eigenvalue: float, points) -> list[str]:
    """A certified end: the points lie in the eigenspace of that end's
    eigenvalue, their columns are centred, and every edge has the same
    positive length within ISO_TOL."""
    L = laplacian(n, edges)
    lam = spectrum_end(L, end)
    if not _close(float(eigenvalue), lam):
        return [f"{end}: certificate at {eigenvalue}, spectrum end is {lam}"]
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] != n:
        return [f"{end}: certificate points have shape {P.shape}"]
    scale = float(np.max(np.abs(P))) if P.size else 0.0
    if scale == 0.0:
        return [f"{end}: certificate points are all zero"]
    problems = []
    resid = float(np.max(np.abs(L @ P - lam * P)))
    if resid > RESIDUAL_TOL * (1.0 + lam) * scale:
        problems.append(f"{end}: eigenspace residual {resid:.3e}")
    drift = float(np.max(np.abs(P.sum(axis=0))))
    if drift > RESIDUAL_TOL * n * scale:
        problems.append(f"{end}: columns not centred ({drift:.3e})")
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    lengths = np.linalg.norm(P[e[:, 0]] - P[e[:, 1]], axis=1)
    top = float(lengths.max())
    if top <= 0.0 or float(lengths.min()) <= ISO_TOL * top:
        problems.append(f"{end}: an edge has length 0")
    elif top - float(lengths.min()) > ISO_TOL * top:
        problems.append(f"{end}: edge lengths spread {top - lengths.min():.3e}")
    return problems


def witness_problems(n: int, edges, end: str, w) -> list[str]:
    """A refuted end: w >= 0 with sum m, and a fresh eigensolve beats the
    uniform weights by IMPROVE_MARGIN."""
    m = len(edges)
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        return [f"{end}: witness has shape {w.shape}, expected ({m},)"]
    if float(w.min()) < 0.0:
        return [f"{end}: witness has a negative weight"]
    if abs(float(w.sum()) - m) > 1e-9 * m:
        return [f"{end}: witness sums to {w.sum()}, expected {m}"]
    unit = spectrum_end(laplacian(n, edges), end)
    got = spectrum_end(laplacian(n, edges, w), end)
    if end == "lower" and got > unit * (1.0 + IMPROVE_MARGIN):
        return []
    if end == "upper" and got < unit * (1.0 - IMPROVE_MARGIN):
        return []
    return [f"{end}: witness gives {got!r}, uniform gives {unit!r}"]


def report_problems(n: int, edges, report, truth: str | None) -> list[str]:
    """Recheck both ends of a `RigidityReport` and compare with the known
    truth: "rigid" needs both ends certified, "never_certified" forbids a
    certified end."""
    L = laplacian(n, edges)
    problems = []
    for end, value, claimed in (("lower", spectrum_end(L, "lower"), report.lambda2),
                                ("upper", spectrum_end(L, "upper"), report.lambda_max)):
        if not _close(float(claimed), value):
            problems.append(f"{end}: reported eigenvalue {claimed}, expected {value}")
    verdicts = []
    for er, end in ((report.lower, "lower"), (report.upper, "upper")):
        verdicts.append(er.verdict)
        if er.verdict == "certified":
            cert = er.certificate
            problems += certificate_problems(
                n, edges, end, cert.eigenvalue, cert.embedding.points)
        elif er.verdict == "refuted":
            problems += witness_problems(n, edges, end, er.witness)
        elif er.verdict != "undecided":
            problems.append(f"{end}: unknown verdict {er.verdict!r}")
    if truth == "rigid" and verdicts != ["certified", "certified"]:
        problems.append(f"known rigid, verdicts {verdicts}")
    if truth == "never_certified" and "certified" in verdicts:
        problems.append(f"known not rigid at either end, verdicts {verdicts}")
    return problems


# ---------------------------------------------------------------------------
# the circulant family Cay(Z_3n, {1, n-1}), decided in closed form
# ---------------------------------------------------------------------------


def _classes(values: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    order = np.argsort(values)
    groups, start = [], 0
    for i in range(1, len(order) + 1):
        if i == len(order) or values[order[i]] - values[order[i - 1]] > tol:
            groups.append(order[start:i])
            start = i
    return groups


def family_truth(n: int) -> dict:
    """Spectrum ends, rigidity at each end and 1-walk regularity of
    Cay(Z_N, {+-1, +-(n-1)}), N = 3n, from its characters.

    A translation average keeps an edge-isometric embedding edge-isometric,
    so one exists on an eigenspace iff a convex weighting c of its characters
    k gives equal lengths on both edge classes: sum_k c_k d_k = 0 with
    d_k = cos(theta_k (n-1)) - cos(theta_k), i.e. iff 0 lies between
    min d_k and max d_k.
    """
    N = 3 * n
    theta = 2.0 * np.pi * np.arange(N) / N
    c1, c2 = np.cos(theta), np.cos(theta * (n - 1))
    lam = 4.0 - 2.0 * c1 - 2.0 * c2  # Laplacian eigenvalue of character k
    nonzero = np.arange(1, N)
    out = {"lambda2": float(lam[nonzero].min()), "lambdaMax": float(lam.max())}
    for end, value in (("lower", out["lambda2"]), ("upper", out["lambdaMax"])):
        d = (c2 - c1)[np.abs(lam - value) <= 1e-9 * (1.0 + value)]
        out[end] = bool(d.min() <= 1e-9 and d.max() >= -1e-9)
    # 1-walk regular iff every adjacency eigenprojector is constant on edges
    mu = 2.0 * c1 + 2.0 * c2
    out["walk1"] = all(abs(c1[k].sum() - c2[k].sum()) <= 1e-9 for k in _classes(mu))
    out["lam"] = lam
    return out


def family_rows_problems(n: int, rows) -> list[str]:
    """Recheck the output of `confrigid family n n --json`."""
    if not isinstance(rows, list) or len(rows) != 1:
        return [f"expected one row, got {rows!r:.200}"]
    row = rows[0]
    truth = family_truth(n)
    N = 3 * n
    problems = []
    if row.get("n") != n or row.get("N") != N:
        problems.append(f"row is for n={row.get('n')}, N={row.get('N')}")
    L = laplacian(N, [(i, (i + s) % N) for i in range(N) for s in (1, n - 1)])
    for key, end in (("lambda2", "lower"), ("lambdaMax", "upper")):
        fresh = spectrum_end(L, end)
        if not (_close(float(row[key]), fresh) and _close(truth[key], fresh)):
            problems.append(f"{key} {row[key]}, fresh {fresh}, closed form {truth[key]}")
    lam = truth["lam"]
    if not _close(float(lam[row["argminIndex"]]), truth["lambda2"]):
        problems.append(f"argminIndex {row['argminIndex']} is not a minimizer")
    if not _close(float(lam[row["argmaxIndex"]]), truth["lambdaMax"]):
        problems.append(f"argmaxIndex {row['argmaxIndex']} is not a maximizer")
    if row["walk1"] is not truth["walk1"]:
        problems.append(f"walk1 {row['walk1']}, closed form {truth['walk1']}")
    for key, end in (("lowerVerdict", "lower"), ("upperVerdict", "upper")):
        verdict = row[key]
        if verdict not in ("certified", "refuted", "undecided"):
            problems.append(f"{key} is {verdict!r}")
        elif (verdict == "certified") != truth[end] and verdict != "undecided":
            problems.append(f"{key} {verdict}, but rigid at {end} is {truth[end]}")
    return problems
