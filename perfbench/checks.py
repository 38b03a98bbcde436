"""One check of a workload item through the program's public entry points,
and its recheck by `verify`.

Only the call itself is timed.  The recheck runs right after it, outside
the latency, so a report is dropped before the next check starts.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from time import perf_counter

import confrigid
from confrigid import cli

import verify
from corpus import Item

DECIDED = ("certified", "refuted")


@dataclass(frozen=True)
class Outcome:
    latency: float
    decided_ends: int
    problems: tuple[str, ...]
    methods: tuple  # method label per end; None when undecided

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def call_check(item: Item):
    """The program's output for one item: a `RigidityReport`, or the exit
    code and standard output of `confrigid family n n --json`."""
    # called through the module attributes, which a traced pass rebinds
    if item.graph is not None:
        return confrigid.check_conformal_rigidity(item.graph)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["family", str(item.family_n), str(item.family_n), "--json"])
    return code, buf.getvalue()


def inspect(item: Item, out) -> Outcome:
    """Recheck an output; the latency is filled in by `run_check`."""
    if item.graph is not None:
        g = item.graph
        problems = verify.report_problems(g.n, g.edges, out, item.truth)
        verdicts = (out.lower.verdict, out.upper.verdict)
        methods = (out.lower.method, out.upper.method)
    else:
        code, text = out
        if code != 0:
            return Outcome(0.0, 0, (f"exit code {code}",), (None, None))
        rows = json.loads(text)
        problems = verify.family_rows_problems(item.family_n, rows)
        if problems:
            return Outcome(0.0, 0, tuple(problems), (None, None))
        verdicts = (rows[0]["lowerVerdict"], rows[0]["upperVerdict"])
        methods = ("not reported", "not reported")  # family rows carry no method
    decided = sum(v in DECIDED for v in verdicts)
    return Outcome(0.0, decided, tuple(problems), methods)


def run_check(item: Item, call=call_check) -> Outcome:
    """Time one call and recheck its output.  An exception from the program,
    or an output the recheck cannot read, is a failed check, not a crash of
    the benchmark."""
    start = perf_counter()
    try:
        out = call(item)
    except Exception as exc:  # noqa: BLE001 - any program error fails the check
        latency = perf_counter() - start
        return Outcome(latency, 0, (f"raised {type(exc).__name__}: {exc}",), (None, None))
    latency = perf_counter() - start
    try:
        outcome = inspect(item, out)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"output could not be rechecked: {type(exc).__name__}: {exc}"
        return Outcome(latency, 0, (problem,), (None, None))
    return replace(outcome, latency=latency)
