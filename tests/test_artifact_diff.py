"""tools/artifact_diff.py compares CLI output directories outside wall-clock data."""
import importlib.util
import json
from pathlib import Path

from splatcone.cli import main as cli_main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def _write(d, summary, record, svg):
    d.mkdir()
    (d / "summary.json").write_text(json.dumps(summary))
    (d / "record.csv").write_text(record)
    (d / "trajectory.svg").write_text(svg)


def test_timing_and_solve_time_are_ignored(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, {"outcome": "timeout", "m": float("nan"), "timing": {"s": 1.0}},
           "t,px,solve_time\n0,1.5,0.001\n", "<svg/>")
    _write(b, {"outcome": "timeout", "m": float("nan"), "timing": {"s": 2.0}},
           "t,px,solve_time\n0,1.5,0.002\n", "<svg/>")
    assert artifact_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_each_differing_file_is_named(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, {"outcome": "timeout"}, "t,px,solve_time\n0,1.5,0.001\n", "<svg/>")
    _write(b, {"outcome": "collided"}, "t,px,solve_time\n0,1.6,0.001\n", "<svg />")
    (a / "extra.csv").write_text("x\n")
    assert artifact_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"extra.csv: only in {a}", "record.csv: differs", "summary.json: differs",
        "trajectory.svg: differs"]


def test_reruns_of_the_cli_match(tmp_path, capsys):
    args = ["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
            "--filter", "cone", "--pk", "8", "--start=-4,0.12,0", "--goal=4,0,0"]
    for name in ("a", "b"):
        assert cli_main(args + ["--out", str(tmp_path / name)]) == 0
    assert artifact_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
