"""scipy is loaded by the commands that call it, at first use, and not by
`import daekit.cli`.  Each check runs in a fresh interpreter, because the
test process itself has long since imported scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daekit

_SRC = str(Path(daekit.__file__).resolve().parents[1])

# runs `cli.run(argv)` when argv is not empty; its last stdout line lists
# the loaded scipy modules
_LOADED_AFTER_RUN = """
import json, sys
from daekit import cli
argv = json.loads(sys.argv[1])
if argv:
    assert cli.run(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# numpy's gesdd made to fail, so `_linalg.svd` has to take its gesvd branch
_SVD_FALLBACK = """
import sys
import numpy as np
from daekit import _linalg

assert "scipy.linalg" not in sys.modules

def fail(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")

np.linalg.svd = fail
rng = np.random.default_rng(5)
real = rng.standard_normal((5, 3))
for m in (real, real.T, real + 1j * rng.standard_normal((5, 3))):
    for full in (True, False):
        u, s, vh = _linalg.svd(m, full_matrices=full)
        k = s.size
        assert np.max(np.abs((u[:, :k] * s) @ vh[:k] - m)) <= 1e-12
assert "scipy.linalg" in sys.modules
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command, expected", [
    ([], []),
    (["analyze", "index3_chain"], []),
    (["reduce", "index2_structured"], []),
    (["simulate", "index1_blowup", "--x0", "1"], ["scipy.linalg"]),
    (["sweep", "index1_blowup"], ["scipy.linalg"]),
], ids=["import", "analyze", "reduce", "simulate", "sweep"])
def test_scipy_loaded_only_at_first_use(tmp_path, command, expected):
    argv = command + ["--out", str(tmp_path)] if command else []
    stdout = _python(_LOADED_AFTER_RUN, json.dumps(argv), cwd=tmp_path)
    loaded = json.loads(stdout.splitlines()[-1])
    for package in ("scipy.linalg", "scipy.integrate"):
        assert (package in loaded) == (package in expected), loaded
    if not expected:
        assert loaded == []


def test_svd_falls_back_to_gesvd(tmp_path):
    _python(_SVD_FALLBACK, cwd=tmp_path)
