"""The benchmark's traced names resolve in the package.

`perfbench/spans.py` wraps each function named in its TARGETS, looked up by
name, so removing or renaming one of them breaks a traced benchmark run
(`perfbench/run.py --trace 1`); these tests fail first.  spans.py imports
only the standard library, so it is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for mod, names in _spans().TARGETS.items():
        module = importlib.import_module(f"confrigid.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"confrigid.{mod}.{name}"


def test_every_hook_is_on_a_traced_name():
    spans = _spans()
    traced = {f"{mod}.{name}" for mod, names in spans.TARGETS.items() for name in names}
    assert set(spans.HOOKS) <= traced
