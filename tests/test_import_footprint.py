"""What a check takes from numpy.  It imports no numpy submodule it does
not need: numpy.ma, pulled in by the first np.unique call on numpy 2.4,
adds about 1 MB to a process's peak memory, and the first guard catches
such an import without measuring memory.  And it calls numpy's
Python-level code only for the linalg solvers and the array constructors
(the second guard)."""

import collections
import contextlib
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
# solvers and the array constructors
NUMPY_PYTHON_ALLOWED = frozenset({"eigh", "eigvalsh", "cholesky", "solve", "ones", "full", "eye"})


def test_check_enters_numpy_only_through_solvers_and_constructors():
    """A check reaches numpy's Python layer only through the solvers and
    the constructors: every other reduction, sort or fill goes through a
    ufunc or an ndarray method in C.  The benchmark times every check
    cold, where a Python-level wrapper costs several times its hot time."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    package_dir = os.path.dirname(confrigid.__file__) + os.sep

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

    sites = collections.Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        caller = frame.f_back
        if (not code.co_filename.startswith(numpy_dir) or caller is None
                or not caller.f_code.co_filename.startswith(package_dir)):
            return
        name = code.co_name
        if (name in NUMPY_PYTHON_ALLOWED or name.endswith("_dispatcher")
                or os.path.basename(code.co_filename) == "multiarray.py"):
            return
        where = os.path.relpath(caller.f_code.co_filename, package_dir)
        sites[f"{where}:{caller.f_lineno} {caller.f_code.co_name} -> np {name}"] += 1

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
    assert not sites, "numpy Python-level calls on the check path:\n" + "\n".join(
        f"  {site} ({count}x)" for site, count in sorted(sites.items()))
