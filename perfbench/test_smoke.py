"""Smoke test of the benchmark harness at its smallest size (one round).

Kept out of tier-1 (pyproject's testpaths is `tests`); run it with

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(root: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=root)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_round_reports_every_end_to_end_metric():
    res = _result(_bench(ROOT, "--workload", "cascade_ladder", "--seed", "3",
                         "--seconds", "0", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_round_reports_every_per_layer_metric():
    proc = _bench(ROOT, "--workload", "certify_sampling", "--seed", "3",
                  "--seconds", "0", "--trace", "1")
    res = _result(proc)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["certificates.samples"]["value"] == 12 * 500
    assert "dominant layer by self CPU time" in proc.stdout


def test_known_defects_are_counted_not_fatal():
    res = _result(_bench(ROOT, "--workload", "cascade_defects", "--seed", "3",
                         "--seconds", "0", "--trace", "0"))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] == 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "direct_escape", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_restores_every_patched_attribute():
    import daekit.cli
    import daekit.reduction
    from layertrace import Tracer

    run, drift = daekit.cli.run, daekit.reduction.ReducedFirst.drift_w
    tracer = Tracer()
    tracer.install()
    try:
        assert daekit.cli.run is not run
    finally:
        tracer.uninstall()
    assert daekit.cli.run is run
    assert daekit.reduction.ReducedFirst.drift_w is drift
