"""Benchmark of confrigid's rigidity checks, end to end and per module.

    python3 perfbench/run.py --workload symmetric --seed 0 --seconds 30 --trace 0

Workloads (see README.md): ``symmetric``, ``asymmetric``, ``family``, or
``all`` to run the three one after another.  Each run builds its inputs from
``--seed``, sets up, then checks the whole corpus in passes, one check at a
time (a closed loop with one caller), until ``--seconds`` would be exceeded,
rechecking every output independently.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
passes and reports the per-module metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("CRG_SEED", None)  # the program keeps its default seed

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("symmetric", "asymmetric", "family")
# Untraced passes a run makes at least, near what fits in 30 s; this also
# fixes the tail percentile.
MIN_PASSES = {"symmetric": 8, "asymmetric": 3, "family": 5}
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
SETUP_RUNS = 7  # fresh-process set-ups per run; setup_s is their median


def import_program():
    """Import confrigid from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import confrigid
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import confrigid from {SRC}: {exc}")
    if Path(confrigid.__file__).resolve().parent != SRC / "confrigid":
        sys.exit(f"perfbench: confrigid imported from {confrigid.__file__}, not {SRC}")
    return confrigid


def set_up(workload: str, seed: int):
    """Import, build the inputs and warm up; return the items and the
    warm-up outputs."""
    import_program()
    import checks
    import corpus

    items = corpus.WORKLOADS[workload](seed)
    warm = {item.id: checks.call_check(item) for item in corpus.warmup_items()}
    return items, warm


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only set up, raw and scaled to
    the reference speed by the reference start-up timed before and after
    each (see calibrate.py)."""
    from calibrate import STARTUP_NOMINAL_S, startup_seconds

    raw, ref = [], []
    before = startup_seconds()
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        after = startup_seconds()
        raw.append(wall)
        ref.append(wall * STARTUP_NOMINAL_S / ((before + after) / 2))
        before = after
    return raw, ref


@dataclass
class Pass:
    """One check of every item, in order.  `ref_latencies` are the check
    latencies scaled to the reference speed (see calibrate.py)."""

    traced: bool
    wall_s: float
    outcomes: list
    ref_latencies: list

    @property
    def ref_s(self) -> float:
        return sum(self.ref_latencies)

    @property
    def raw_s(self) -> float:
        return sum(o.latency for o in self.outcomes)


def run_pass(items, tracer) -> Pass:
    """Check each item once, timing the reference kernel between checks.
    Garbage is collected between checks, outside the timed calls."""
    from calibrate import NOMINAL_S, kernel_seconds
    from checks import run_check

    start = perf_counter()
    outcomes, ref = [], []
    before = kernel_seconds()
    for item in items:
        if tracer is not None:
            tracer.graph_id = item.id
        outcome = run_check(item)
        gc.collect()
        after = kernel_seconds()
        outcomes.append(outcome)
        ref.append(outcome.latency * NOMINAL_S / ((before + after) / 2))
        before = after
    return Pass(tracer is not None, perf_counter() - start, outcomes, ref)


def run_passes(items, workload: str, seed: int, seconds: float, tracer) -> list[Pass]:
    """Check the corpus in passes, each under a fresh numbering, until
    another pass would overrun `seconds`.  With a tracer, odd passes are
    traced."""
    from corpus import numbered

    passes: list[Pass] = []
    start = perf_counter()
    needed = 2 if tracer is not None else MIN_PASSES[workload]
    while True:
        pass_items = numbered(items, seed, len(passes))
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                passes.append(run_pass(pass_items, tracer))
        else:
            passes.append(run_pass(pass_items, None))
        if len(passes) >= needed and perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def end_to_end(items, workload: str, passes: list[Pass], setup_times) -> tuple[dict, dict]:
    setup_raw, setup_ref = setup_times
    times = [p.ref_s for p in passes]
    outcomes = [o for p in passes for o in p.outcomes]
    lat = sorted(t for p in passes for t in p.ref_latencies)
    # each item's latency is its median over the passes
    per_item = [statistics.median(p.ref_latencies[i] for p in passes) for i in range(len(items))]
    # The percentile is fixed by the smallest sample count a run can have,
    # so it picks the same rank of the latency distribution in every run.
    n_min = len(items) * MIN_PASSES[workload]
    k = -(-len(lat) * (n_min - TAIL_BEYOND) // n_min) - 1
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "decide_s": statistics.median(times),
        "check_p50_s": statistics.median(per_item),
        "check_tail_s": lat[k],
        "decided_frac": sum(o.decided_ends for o in outcomes) / (2 * len(outcomes)),
        "verified_frac": 1.0 - failed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s_samples": setup_ref,
        "setup_raw_s_samples": setup_raw,
        "decide_s": {**quartiles(times), "passes": len(times)},
        "decide_raw_s": quartiles([p.raw_s for p in passes]),
        "check_tail_s": {"percentile": round(100.0 * (n_min - TAIL_BEYOND) / n_min, 2),
                         "samples": len(lat), "beyond": len(lat) - k - 1},
        "error_frac": failed / len(outcomes),
    }
    return metrics, detail


def per_layer(passes: list[Pass], tracer) -> tuple[dict, dict]:
    traced = [p.ref_s for p in passes if p.traced]
    untraced = [p.ref_s for p in passes if not p.traced]
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    detail = {"traced_passes": len(traced), "untraced_passes": len(untraced),
              "module_self_share": tracer.module_shares(),
              "spans": len(tracer.spans)}
    return metrics, detail


def method_counts(items, passes: list[Pass]) -> dict:
    """Per item, how often each end got each method label over the passes;
    a label that depends on the vertex numbering shows as a split count."""
    counts: dict = {item.id: Counter() for item in items}
    for p in passes:
        for item, o in zip(items, p.outcomes):
            for end, method in zip(("lower", "upper"), o.methods):
                counts[item.id][f"{end}:{method or 'none'}"] += 1
    return {k: dict(v) for k, v in counts.items()}


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import selftest
    import spans

    setup_times = None if trace else setup_seconds(workload, seed)
    items, warm = set_up(workload, seed)
    gate = selftest.run(warm)
    tracer = spans.Tracer() if trace else None
    passes = run_passes(items, workload, seed, seconds, tracer)

    if trace:
        computed, detail = per_layer(passes, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        computed, detail = end_to_end(items, workload, passes, setup_times)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.failed for o in outcomes)
    detail.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "methods": method_counts(items, passes),
        "selftest_failures": gate,
        "failures": sorted({f"{item.id}: {problem}" for p in passes
                            for item, o in zip(items, p.outcomes) for problem in o.problems})[:20],
    })
    metrics = {}
    for spec in declared_metrics(trace):
        value = computed.get(spec["name"], 0.0)  # a count that never fired reads 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:<10} {spec['name']:<48} {value:.6g} {spec['unit']}")
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0 and not gate, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    import_program()  # fail before any result when the program is missing
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
