"""tools/setup_ab.py times two source trees' scene set-ups in turn."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("setup_ab", ROOT / "tools" / "setup_ab.py")
setup_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_ab)


def test_identical_trees_read_a_ratio_near_one(tmp_path):
    out = tmp_path / "setup_ab.json"
    assert setup_ab.main([str(ROOT), str(ROOT), "--rounds", "8", "--clutter-count", "20000",
                          "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rounds"] == 8 and report["clutter_count"] == 20000
    assert list(report["setups"]) == ["ring_from_arrays", "clutter_load_ply"]
    for r in report["setups"].values():
        assert r["same_bits"] is True
        for side in ("parent", "change"):
            assert 0.0 < r[side]["q1_ms"] <= r[side]["median_ms"] <= r[side]["q3_ms"]
        # the same code on both sides: no tree is much faster, and a round
        # is won by one side or tied
        assert 0.5 < r["ratio"] < 2.0
        assert r["parent_wins"] + r["change_wins"] <= 8
