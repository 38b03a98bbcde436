"""Traced passes: spans and counts around the public functions of each
confrigid module, recorded from outside the program.

The package binds names with ``from .x import f``, so a wrapper must replace
a function under every name that refers to it, in every ``confrigid``
module, not only where it is defined.  ``Tracer.installed`` does that and
puts the originals back on exit, so untraced passes run unwrapped code.

Only functions at layer boundaries are wrapped.  Helpers called thousands of
times per pass from inside one layer (``symmetry.compose``,
``falsify.simplex_projection``) are left alone: their time stays in the
caller's self time and wrapping them would swamp the trace.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TARGETS = {
    "symmetry": ("find_automorphisms", "group_closure", "orbits", "cayley_translations"),
    "embeddings": ("symmetrized_embedding", "edge_length_profile", "canonical_embedding",
                   "make_embedding", "phi_psi"),
    "sdp": ("build_sdp_instance", "sdp_feasibility", "rank_reduce", "rank_one_vector"),
    "certify": ("check_conformal_rigidity", "eigenvector_certificate",
                "abelian_lp_certificate", "lp_certificate_embedding"),
    "falsify": ("random_weight_search", "subgradient_ascent", "reverify"),
    "spectra": ("lambda_ends", "eigendecompose", "character_spectrum"),
    "graphs": ("laplacian",),
    "walkreg": ("walk_regularity",),
    "lp": ("phase1_feasibility",),
    "cli": ("main", "cmd_family"),
}

def _report_counts(rep) -> dict:
    out: defaultdict = defaultdict(int)
    for er in (rep.lower, rep.upper):
        out[f"certify.ends.{er.verdict}"] += 1
        if er.method is not None:
            out[f"certify.method.{er.method.replace('+', '-')}"] += 1
    return out


# Counts taken from return values, keyed by the wrapped function.
HOOKS = {
    "symmetry.find_automorphisms": lambda r: {
        "symmetry.find_automorphisms.exhausted": int(r.exhausted),
        "symmetry.find_automorphisms.generators": len(r.gens)},
    "symmetry.group_closure": lambda r: {"symmetry.group_closure.elements": len(r)},
    "embeddings.symmetrized_embedding": lambda r: {
        "embeddings.symmetrized_embedding.columns": r.points.shape[1]},
    "embeddings.edge_length_profile": lambda r: {
        "embeddings.isometric": int(r.is_edge_isometric)},
    "sdp.build_sdp_instance": lambda r: {"sdp.build_sdp_instance.group_size": r.group_size},
    "sdp.sdp_feasibility": lambda r: {
        "sdp.sdp_feasibility.iterations": r.iterations,
        "sdp.feasible": int(r.status == "feasible")},
    "falsify.random_weight_search": lambda r: {"falsify.improved": int(r.improved)},
    "falsify.subgradient_ascent": lambda r: {"falsify.improved": int(r.improved)},
    "lp.phase1_feasibility": lambda r: {"lp.pivots": r.iterations},
    "certify.check_conformal_rigidity": _report_counts,
}


class Tracer:
    """Spans kept in memory: (name, start, end, parent span index, graph id).
    Self time is accumulated as each span closes: its duration minus the
    durations of its direct children."""

    def __init__(self):
        self.spans: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: defaultdict = defaultdict(int)
        self.counts: defaultdict = defaultdict(float)
        self.graph_id: str | None = None
        self._stack: list = []  # [span index, seconds covered by children]

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, self_s, calls, counts = (
            self.spans, self._stack, self.self_s, self.calls, self.counts)

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self_s[name] += end - start - frame[1]
                calls[name] += 1
                spans[frame[0]] = (name, start, end, parent, self.graph_id)
            if hook is not None:
                for key, value in hook(result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "confrigid" or k.startswith("confrigid.")]
        patched = []
        try:
            for modname, names in TARGETS.items():
                home = sys.modules[f"confrigid.{modname}"]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapper = self._wrap(f"{modname}.{fname}", orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, graph id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self time, calls and counts of everything recorded, and
        ratios pooled over passes.  A function or count that never fired
        has no entry."""
        out: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            out[f"{name}.self_s"] = seconds / passes
            out[f"{name}.calls"] = self.calls[name] / passes
        c = self.counts
        for key, value in c.items():
            out[key] = value / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["embeddings.isometric_ratio"] = ratio(
            c["embeddings.isometric"], self.calls["embeddings.edge_length_profile"])
        out["sdp.feasible_ratio"] = ratio(c["sdp.feasible"], self.calls["sdp.sdp_feasibility"])
        out["falsify.refute_ratio"] = ratio(
            c["falsify.improved"],
            self.calls["falsify.random_weight_search"] + self.calls["falsify.subgradient_ascent"])
        out["walkreg.calls_per_graph"] = ratio(
            self.calls["walkreg.walk_regularity"], self.calls["certify.check_conformal_rigidity"])
        return out

    def module_shares(self) -> dict[str, float]:
        """Each module's share of all self time recorded."""
        total = sum(self.self_s.values())
        shares: defaultdict = defaultdict(float)
        for name, s in self.self_s.items():
            shares[name.split(".")[0]] += s / total if total else 0.0
        return dict(shares)
