"""Proof that the benchmark's correctness gate can fail.

Each fault is fed through the same `checks.run_check` path the benchmark
uses, next to clean checks, and must count as exactly one failed check:

- a certificate with one point moved,
- a witness that does not beat the uniform weights,
- a check that raises,
- a family row whose verdict is flipped.

Clean outputs of the same items must count as no failed check.  The
benchmark runs this before it measures and reports ``correct: false`` if it
does not pass.  Run it alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import numpy as np


def _moved_point(rep):
    end = "lower" if rep.lower.verdict == "certified" else "upper"
    er = getattr(rep, end)
    emb = er.certificate.embedding
    points = emb.points.copy()
    points[0] += 0.1 * np.abs(points).max()
    cert = replace(er.certificate, embedding=replace(emb, points=points))
    return replace(rep, **{end: replace(er, certificate=cert)})


def _uniform_witness(rep):
    end = "lower" if rep.lower.verdict == "refuted" else "upper"
    er = getattr(rep, end)
    return replace(rep, **{end: replace(er, witness=np.ones(rep.m))})


def _flipped_verdict(out):
    code, text = out
    rows = json.loads(text)
    rows[0]["lowerVerdict"] = "refuted" if rows[0]["lowerVerdict"] == "certified" else "certified"
    return code, json.dumps(rows)


def run(outputs: dict | None = None) -> list[str]:
    """Return what went wrong; empty when every case counts as it should.
    `outputs` maps warm-up item ids to outputs already computed."""
    from confrigid.graphs import Graph

    from checks import call_check, run_check
    from corpus import Item, warmup_items

    items = {item.id: item for item in warmup_items()}
    if outputs is None:
        outputs = {item.id: call_check(item) for item in items.values()}
    petersen, prism, family = (items[k] for k in ("petersen", "triangular_prism", "family_6"))
    if "certified" not in (outputs["petersen"].lower.verdict, outputs["petersen"].upper.verdict):
        return ["petersen has no certified end to perturb"]
    if "refuted" not in (outputs["triangular_prism"].lower.verdict,
                         outputs["triangular_prism"].upper.verdict):
        return ["triangular_prism has no refuted end to perturb"]

    def clean(item):
        return item, lambda it: outputs[it.id]

    def faulty(item, fault):
        return item, lambda it: fault(outputs[it.id])

    disconnected = Item("disconnected", Graph(4, ((0, 1), (2, 3))))
    cases = [
        ("clean outputs", 0, [clean(petersen), clean(prism), clean(family)]),
        ("moved certificate point", 1, [faulty(petersen, _moved_point), clean(prism)]),
        ("witness not beating uniform", 1, [clean(petersen), faulty(prism, _uniform_witness)]),
        ("check that raises", 1, [(disconnected, call_check), clean(prism)]),
        ("flipped family verdict", 1, [faulty(family, _flipped_verdict), clean(petersen)]),
    ]
    wrong = []
    for name, expected, checks in cases:
        failed = sum(run_check(item, call).failed for item, call in checks)
        if failed != expected:
            wrong.append(f"{name}: {failed} failed checks, expected {expected}")
    return wrong


if __name__ == "__main__":
    import run as bench

    bench.import_program()
    wrong = run()
    for line in wrong:
        print("FAIL", line)
    print("selftest:", "failed" if wrong else "passed")
    sys.exit(1 if wrong else 0)
