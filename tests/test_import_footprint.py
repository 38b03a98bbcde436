"""What a check takes from numpy and the standard library.  It imports no
numpy submodule it does not need: numpy.ma, pulled in by the first
np.unique call on numpy 2.4, adds about 1 MB to a process's peak memory,
and the first guard catches such an import without measuring memory.  It
calls numpy's Python-level code only for the linalg solvers (the second
guard), and no Python-level code of functools or dataclasses but the
first read of a cached property (the third).  And a check given no
options builds none (the fourth)."""

import collections
import contextlib
import dataclasses
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_falsify import _gnm

import confrigid
from confrigid import cli
from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.graphs import Graph, cartesian_product, circulant

SRC = str(Path(confrigid.__file__).resolve().parent.parent)

# the family scan takes the character-table path: lambda ends and walk1
# from the table, no dense eigensolve
PROGRAM = """
import contextlib
import io
import json
import sys
from confrigid import cli
from confrigid.catalog import catalog
from confrigid.certify import CheckOptions, check_conformal_rigidity
from confrigid.graphs import circulant

for g in (circulant(18, {1, 5}), catalog("petersen")):
    rep = check_conformal_rigidity(g)
    assert rep.lower.verdict == rep.upper.verdict == "certified", g.name
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["family", "6", "8", "--json"]) == 0
assert len(json.loads(out.getvalue())) == 3
print("numpy.ma" in sys.modules)
"""


def test_check_does_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# numpy's Python-level functions a check may call directly: the linalg
# solvers
NUMPY_PYTHON_ALLOWED = frozenset({"eigh", "eigvalsh", "cholesky", "solve"})


def _profile_check_path(hook):
    """Run checks on the paths the benchmark's workloads take, with `hook`
    as the profile function: plain graphs through the search, the
    falsifier and the Eigenvector stage, Cayley specs through the
    character LP and the Eigenvector stage, and the family scan through
    cli.main."""

    def plain(g):
        return Graph(g.n, g.edges, name=g.name)

    graphs = [_gnm(20, 45, 0), _gnm(36, 81, 1)]
    graphs += [catalog(name) for name in ("path_20", "triangular_prism", "petersen", "hoffman",
                                          "complete_bipartite_4_5", "cycle_48")]
    graphs += [plain(circulant(18, {1, 5})),
               plain(cartesian_product(catalog("petersen"), catalog("complete_2")))]
    # a Cayley spec whose upper end, without the character LP, reaches the
    # Eigenvector stage and so the spec's translation generators
    eigenvector_end = (circulant(12, {1, 2}), CheckOptions(skip_stages=frozenset({"character_lp"})))

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        for g in graphs:
            check_conformal_rigidity(g)
        assert check_conformal_rigidity(*eigenvector_end).upper.method == "Eigenvector"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["family", "6", "8", "--json"]) == 0
    finally:
        sys.setprofile(old)


def _calls_from_package(library_files, allowed):
    """A profile hook and the Counter it fills: one entry per call site in
    the package whose callee's code lies in `library_files` (a path prefix
    or a tuple of them) and is not `allowed(code)`."""
    package_dir = os.path.dirname(confrigid.__file__) + os.sep
    sites = collections.Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        caller = frame.f_back
        if (not code.co_filename.startswith(library_files) or caller is None
                or not caller.f_code.co_filename.startswith(package_dir)
                or allowed(code)):
            return
        where = os.path.relpath(caller.f_code.co_filename, package_dir)
        lib = os.path.basename(code.co_filename)
        sites[f"{where}:{caller.f_lineno} {caller.f_code.co_name} -> {lib} {code.co_name}"] += 1

    return hook, sites


def _report(what, sites):
    return f"{what} Python-level calls on the check path:\n" + "\n".join(
        f"  {site} ({count}x)" for site, count in sorted(sites.items()))


def test_check_enters_numpy_only_through_solvers():
    """A check reaches numpy's Python layer only through the linalg
    solvers: every other reduction, sort or fill goes through a ufunc, an
    ndarray method or a C constructor (np.empty or np.zeros, then .fill or
    a diagonal slice).  The benchmark times every check cold, where a
    Python-level wrapper costs several times its hot time."""

    def allowed(code):
        return (code.co_name in NUMPY_PYTHON_ALLOWED or code.co_name.endswith("_dispatcher")
                or os.path.basename(code.co_filename) == "multiarray.py")

    hook, sites = _calls_from_package(os.path.dirname(np.__file__) + os.sep, allowed)
    _profile_check_path(hook)
    assert not sites, _report("numpy", sites)


def test_check_calls_no_functools_or_dataclasses_code():
    """functools.cache builds its wrapper in Python, several times the cost
    of a closure when cold, and dataclasses.replace walks the fields in
    Python: a check memoises with a plain closure and builds a relabelled
    certificate directly.  The one exception is cached_property.__get__,
    the first read of Graph.edge_array and Graph.unit_laplacian."""
    files = (functools.__file__, dataclasses.__file__)

    def allowed(code):
        return code.co_filename == functools.__file__ and code.co_name == "__get__"

    hook, sites = _calls_from_package(files, allowed)
    _profile_check_path(hook)
    assert not sites, _report("functools / dataclasses", sites)


def test_check_builds_options_only_when_given_some(monkeypatch):
    """CheckOptions validates itself in __post_init__: a check given no
    options shares one default instance, and a CLI run builds one set of
    options however many graphs it checks."""
    calls = []
    post_init = CheckOptions.__post_init__

    def spy(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(CheckOptions, "__post_init__", spy)
    check_conformal_rigidity(catalog("petersen"))
    check_conformal_rigidity(circulant(18, {1, 5}))
    assert calls == []
    for argv in (["check", "--catalog", "petersen", "--json"],
                 ["family", "6", "8", "--json"],
                 ["embed", "--catalog", "petersen", "--json"]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == 1, argv
