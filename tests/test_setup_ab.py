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


def test_same_bits_compares_the_scenes_grids():
    import collections
    import dataclasses
    import types

    import numpy as np

    from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

    spec = SyntheticSpec(pattern="clutter", count=500)
    a, b = (make_synthetic_scene(spec, seed=3) for _ in range(2))
    assert setup_ab.same_bits(a, b)
    grid = b._grid
    for field, value in (("order", grid.order[::-1]), ("starts", grid.starts + 1),
                         ("xyz", grid.xyz[:, ::-1]), ("edge", 2.0 * grid.edge),
                         ("hi", grid.lo)):
        assert not setup_ab.same_bits(a, dataclasses.replace(b, _grid=grid._replace(**{field: value})))
    # a grid from a tree that kept one sorted cell key per splat: its keys
    # are compared as the table of cell starts they give
    key = np.repeat(np.arange(len(grid.starts) - 1), np.diff(grid.starts))
    fields = {k: v for k, v in grid._asdict().items() if k not in ("starts", "hi")}
    keyed = types.SimpleNamespace(**{n: getattr(b, n) for n in setup_ab.ARRAYS},
                                  _grid=collections.namedtuple("_Grid", [*fields, "keys"])(
                                      *fields.values(), key))
    assert setup_ab.same_bits(a, keyed) and setup_ab.same_bits(keyed, a)
    keyed._grid = keyed._grid._replace(keys=key + 1)
    assert not setup_ab.same_bits(a, keyed)
    assert not setup_ab.same_bits(a, make_synthetic_scene(spec, seed=4))
    # a scene from a tree that indexed its means with a kd-tree: arrays only
    tree_scene = types.SimpleNamespace(**{name: getattr(b, name) for name in setup_ab.ARRAYS})
    assert setup_ab.same_bits(a, tree_scene) and setup_ab.same_bits(tree_scene, a)
