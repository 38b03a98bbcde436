"""A check imports no numpy submodule it does not need.  numpy.ma, pulled
in by the first np.unique call on numpy 2.4, adds about 1 MB to a process's
peak memory; this guard catches such an import without measuring memory."""

import os
import subprocess
import sys
from pathlib import Path

import confrigid

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
from confrigid.certify import check_conformal_rigidity
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
