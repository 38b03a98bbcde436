"""The benchmark's traced names resolve in the package.

`perfbench/spans.py` wraps each function named in its TARGETS, looked up by
name, so removing or renaming one of them breaks a traced benchmark run
(`perfbench/run.py --trace 1`); these tests fail first.  spans.py imports
only the standard library, so it is loaded by path and only read.  It finds
each traced module in sys.modules, so importing the package must load every
one of them, also one that no check imports."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import confrigid

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


def test_importing_the_package_loads_every_traced_module():
    # a fresh interpreter, since this one has imported every module already;
    # the benchmark's checks import the package and its cli
    program = (
        "import sys, confrigid, confrigid.cli; "
        f"print(sorted(m for m in {sorted(_spans().TARGETS)!r} if 'confrigid.' + m not in sys.modules))"
    )
    src = str(Path(confrigid.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
