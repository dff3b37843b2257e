import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

CSV_HEADER = "t,x_1,w_norm,residual\n"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_identical_trees_exit_zero(tmp_path, capsys):
    files = {"p/cmd/stdout": "p: index=2 -> files/p.json\n",
             "p/cmd/exit_code": "0\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", files)
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_numeric_differences_and_point_counts(tmp_path, capsys):
    a = _tree(tmp_path / "a", {
        "p/analyze/files/p_analysis.json": json.dumps(
            {"dual_residuals": {"worst": 2e-16}, "index": 2}),
        "p/simulate/files/p_trajectory.csv":
            CSV_HEADER + "0,1,1,0\n0.5,2,2,0\n1,4,4,1e-12\n",
        "p/simulate/stdout": "p: reached_tmax, 3 points -> files\n"})
    b = _tree(tmp_path / "b", {
        "p/analyze/files/p_analysis.json": json.dumps(
            {"dual_residuals": {"worst": 0.0}, "index": 2}),
        "p/simulate/files/p_trajectory.csv":
            CSV_HEADER + "0,1,1,0\n1,4.5,4.5,1e-12\n",
        "p/simulate/stdout": "p: reached_tmax, 2 points -> files\n"})
    assert compare_outputs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "p/analyze/files/p_analysis.json: max abs 2e-16 at "
        "/dual_residuals/worst, max rel 1",
        "p/simulate/files/p_trajectory.csv: max abs 0.5 at /row/-1/1, "
        "max rel 0.111, time grid moved, points 3 -> 2 (compared at the "
        "last point)",
        "p/simulate/stdout: max abs 1 at number 0, max rel 0.333"]


def test_non_numeric_differences_are_flagged(tmp_path, capsys):
    a = _tree(tmp_path / "a", {
        "p/simulate/files/p_termination.json": json.dumps(
            {"kind": "reached_tmax", "t": 1.0}),
        "p/certify/stdout": "verdict=pass\n",
        "p/only_a": "0\n"})
    b = _tree(tmp_path / "b", {
        "p/simulate/files/p_termination.json": json.dumps(
            {"kind": "blowup_suspected", "t": 0.5}),
        "p/certify/stdout": "verdict=violated\n"})
    assert compare_outputs.main([str(a), str(b)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "NON-NUMERIC p/only_a: only in A"
    assert lines[1].startswith("NON-NUMERIC p/certify/stdout:")
    assert lines[1].endswith("; text changed")
    assert lines[2] == (
        "NON-NUMERIC p/simulate/files/p_termination.json: max abs 0.5 at /t, "
        "max rel 0.5; /kind: 'reached_tmax' -> 'blowup_suspected'")
