"""No command loads scipy or jsonschema, and only `certify` loads
numpy.polynomial, at its first integral probe, for the Gauss–Legendre
rules.  Each check runs in a fresh interpreter, because the test process
itself has long since imported both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daekit

_SRC = str(Path(daekit.__file__).resolve().parents[1])

# packages no command may load: scipy, and jsonschema with the packages
# it brings in
_NEVER_LOADED = ("scipy", "jsonschema", "referencing", "attrs", "rpds")

# runs `cli.run(argv)` when argv is not empty; its last stdout line lists
# the loaded modules of the packages in argv[2:] and of numpy.polynomial
_LOADED_AFTER_RUN = """
import json, sys
from daekit import cli
argv = json.loads(sys.argv[1])
if argv:
    assert cli.run(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in sys.argv[2:]
                        or m.startswith("numpy.polynomial"))))
"""

# the first numpy SVD of each `_linalg.svd` call made to fail, so that each
# takes the retry on the conjugate transpose
_SVD_RETRY = """
import sys
import numpy as np
from daekit import _linalg

svd = np.linalg.svd
calls = []

def fail_every_other_call(*args, **kwargs):
    calls.append(None)
    if len(calls) % 2:
        raise np.linalg.LinAlgError("SVD did not converge")
    return svd(*args, **kwargs)

np.linalg.svd = fail_every_other_call
rng = np.random.default_rng(5)
real = rng.standard_normal((5, 3))
for m in (real, real.T, real + 1j * rng.standard_normal((5, 3))):
    for full in (True, False):
        u, s, vh = _linalg.svd(m, full_matrices=full)
        k = s.size
        assert np.max(np.abs((u[:, :k] * s) @ vh[:k] - m)) <= 1e-12
        assert u.shape[0] == m.shape[0] and vh.shape[1] == m.shape[1]
assert len(calls) == 12
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    # a RuntimeWarning is an error in the fresh interpreters, as in the tests
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(
                   entry for entry in (_SRC, os.environ.get("PYTHONPATH"))
                   if entry))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command, probes", [
    ([], False),
    (["analyze", "index3_chain"], False),
    (["reduce", "index2_structured"], False),
    (["simulate", "index1_blowup", "--x0", "1"], False),
    (["simulate", "index3_chain", "--approach", "cascade"], False),
    (["sweep", "index1_blowup"], False),
    (["certify", "index1_stable"], True),
    (["certify", "index1_cubic_blowup", "--approach", "cascade"], True),
], ids=["import", "analyze", "reduce", "simulate", "simulate-cascade",
        "sweep", "certify", "certify-cascade"])
def test_scipy_loaded_only_at_first_use(tmp_path, command, probes):
    """Neither scipy nor jsonschema (nor what jsonschema brings in) after
    the import or any command; numpy.polynomial only after certify."""
    argv = command + ["--out", str(tmp_path)] if command else []
    stdout = _python(_LOADED_AFTER_RUN, json.dumps(argv), *_NEVER_LOADED,
                     cwd=tmp_path)
    loaded = json.loads(stdout.splitlines()[-1])
    assert not any(m.split(".")[0] in _NEVER_LOADED for m in loaded), loaded
    assert ("numpy.polynomial" in loaded) == probes, loaded


def test_svd_retries_on_transpose(tmp_path):
    _python(_SVD_RETRY, cwd=tmp_path)
