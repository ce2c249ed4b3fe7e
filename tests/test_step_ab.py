"""tools/step_ab.py steps recorded ring states through two source trees."""
import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("step_ab", ROOT / "tools" / "step_ab.py")
step_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_ab)

_NOISE = '''

_exact_cone_rows = cone_rows


def cone_rows(*args, **kwargs):
    """The cone rows with relative noise of about an ulp, as the rounding
    gauge draws it."""
    normals, offsets, *rest = _exact_cone_rows(*args, **kwargs)
    rng = np.random.default_rng(offsets.size)
    normals = normals * (1.0 + 2e-16 * rng.standard_normal(normals.shape))
    offsets = offsets * (1.0 + 2e-16 * rng.standard_normal(offsets.shape))
    return (normals, offsets, *rest)
'''

_NARROW = '''

_exact_within = _within


def _within(radius, d2):
    """The rule at 0.9 times the radius: answers without the farthest splats."""
    return _exact_within(0.9 * radius, d2)
'''

_SHIFTED = '''

_exact_min_margin = min_margin


def min_margin(*args, **kwargs):
    """The audit margins one ulp up: a change the filter step never sees."""
    return np.nextafter(_exact_min_margin(*args, **kwargs), np.inf)
'''

_DOUBLED = '''

_exact_stationarity = _stationarity


def _stationarity(*args, **kwargs):
    """The stationarity residual doubled: a diagnostic that moves alone."""
    return 2.0 * _exact_stationarity(*args, **kwargs)
'''


def test_identical_trees_read_no_change(tmp_path):
    # rows bind from the first steps of pairs 2 and 3 (not of pairs 0 and 1)
    out = tmp_path / "ab.json"
    assert step_ab.main([str(ROOT), str(ROOT), "--pairs", "2,3", "--steps", "40",
                         "--passes", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for name in ("cone", "distance_baseline"):
        assert report["filters"][name] == {"steps": 80, "changed": 0, "active_changed": 0,
                                           "diagnostics_changed": 0, "max_rel_change": 0.0}
        for side in ("parent", "change"):
            assert report["timing"][name][side]["sum_ms"] > 0.0
        # every step falls in one row-count band
        bands = report["bands"][name]
        assert list(bands) == [label for label, _, _ in step_ab.BANDS]
        assert sum(band["steps"] for band in bands.values()) == 80
        for band in bands.values():
            assert ("parent" in band) == (band["steps"] > 0)
        # the first step fills the list, later steps refill it now and then
        refills = report["refills"][name]
        assert 0 < refills["steps"] <= 80
        for side in ("parent", "change"):
            assert refills[side]["sum_ms"] > 0.0
    assert set(report["timing"]["baseline_over_cone"]) == {"parent", "change"}
    # both filters' trajectories, every recorded position audited alike
    audit = report["audit"]
    assert (audit["trajectories"], audit["points"], audit["audit_changed"]) == (4, 160, 0)
    for side in ("parent", "change"):
        assert audit[side]["sum_ms"] > 0.0


def test_a_tree_with_noisy_rows_reads_its_changes(tmp_path):
    shutil.copytree(ROOT / "src" / "splatcone", tmp_path / "src" / "splatcone")
    kernels = tmp_path / "src" / "splatcone" / "kernels.py"
    kernels.write_text(kernels.read_text() + _NOISE)
    report = step_ab.compare({"parent": ROOT, "change": tmp_path}, ["cone"], [2, 3],
                             passes=1, steps=40)
    cone = report["filters"]["cone"]
    assert cone["steps"] == 80 and cone["changed"] > 0
    assert 0.0 < cone["max_rel_change"] < 1e-6


def test_a_tree_with_other_answers_reads_its_active_changes(tmp_path):
    shutil.copytree(ROOT / "src" / "splatcone", tmp_path / "src" / "splatcone")
    scene = tmp_path / "src" / "splatcone" / "scene.py"
    scene.write_text(scene.read_text() + _NARROW)
    report = step_ab.compare({"parent": ROOT, "change": tmp_path}, ["cone"], [2, 3],
                             passes=1, steps=40)
    cone = report["filters"]["cone"]
    # the splats left out bind in none of these steps: only the active sets show
    assert cone["steps"] == 80 and cone["changed"] == 0 < cone["active_changed"]


def test_a_tree_with_other_diagnostics_reads_their_changes(tmp_path):
    shutil.copytree(ROOT / "src" / "splatcone", tmp_path / "src" / "splatcone")
    qp = tmp_path / "src" / "splatcone" / "qp.py"
    qp.write_text(qp.read_text() + _DOUBLED)
    report = step_ab.compare({"parent": ROOT, "change": tmp_path}, ["cone"], [2, 3],
                             passes=1, steps=40)
    cone = report["filters"]["cone"]
    # the residual is read outside the step, so neither u nor the answers move
    assert cone["steps"] == 80 and cone["changed"] == cone["active_changed"] == 0
    assert cone["diagnostics_changed"] > 0


def test_a_tree_with_other_audit_margins_reads_their_changes(tmp_path):
    shutil.copytree(ROOT / "src" / "splatcone", tmp_path / "src" / "splatcone")
    kernels = tmp_path / "src" / "splatcone" / "kernels.py"
    kernels.write_text(kernels.read_text() + _SHIFTED)
    # pair 2 comes within the audit's reach of a splat from step 63 on
    report = step_ab.compare({"parent": ROOT, "change": tmp_path}, ["cone"], [2],
                             passes=1, steps=80)
    cone = report["filters"]["cone"]
    # the filter step reads no margin: only the audit moves, at the
    # positions near a splat (the others' +inf stays)
    assert cone["steps"] == 80 and cone["changed"] == cone["active_changed"] == 0
    audit = report["audit"]
    assert audit["points"] == 80 and 0 < audit["audit_changed"] < 80


def test_clutter_probes_read_no_change_on_identical_trees(tmp_path):
    out = tmp_path / "ab.json"
    assert step_ab.main([str(ROOT), str(ROOT), "--clutter", "1951", "--probes", "4",
                         "--passes", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    clutter = report["clutter"]
    assert clutter["seed"] == 1951 and clutter["probes"] == 4
    assert clutter["drawn"] == 4 + clutter["rejected"]
    assert list(report["filters"]) == ["cone"]
    assert report["filters"]["cone"] == {"steps": 40, "changed": 0, "active_changed": 0,
                                         "diagnostics_changed": 0, "max_rel_change": 0.0}
    # each probe's first step refills its fresh list, as in the benchmark
    assert report["refills"]["cone"]["steps"] == 4 and report["filtered"]["cone"]["steps"] == 36
    audit = report["audit"]
    assert (audit["trajectories"], audit["points"], audit["audit_changed"]) == (4, 40, 0)
    for part in ("refills", "filtered"):
        for side in ("parent", "change"):
            assert report[part]["cone"][side]["sum_ms"] > 0.0


def test_clutter_probes_read_a_tree_with_other_answers(tmp_path):
    shutil.copytree(ROOT / "src" / "splatcone", tmp_path / "src" / "splatcone")
    scene = tmp_path / "src" / "splatcone" / "scene.py"
    scene.write_text(scene.read_text() + _NARROW)
    report = step_ab.compare({"parent": ROOT, "change": tmp_path}, ["cone"], [], passes=1,
                             steps=0, clutter=1951, probes=3)
    cone = report["filters"]["cone"]
    assert cone["steps"] == 30 and cone["active_changed"] == 30
