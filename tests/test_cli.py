"""CLI end-to-end: conversion, runs, batches, exit codes, artifact
determinism, and SVG output sanity."""
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splatcone
from splatcone import scene as scene_mod
from splatcone.cli import build_parser, main, parse_synth_spec
from splatcone.cli import ConfigError
from splatcone.filter import FilterConfig
from splatcone.scene import PreprocessOptions, SceneError
from splatcone.sceneio import load_scene_dump, save_scene_dump
from splatcone.simulator import SimConfig
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene


def _write_fixture_ply(path, rows):
    props = ["x", "y", "z", "scale_0", "scale_1", "scale_2",
             "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]
    header = (
        f"ply\nformat binary_little_endian 1.0\nelement vertex {len(rows)}\n"
        + "".join(f"property float {p}\n" for p in props)
        + "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for row in rows:
            fh.write(struct.pack("<11f", *row))


@pytest.fixture
def fixture_ply(tmp_path):
    rows = [
        [0, 0, 0, np.log(0.4), np.log(0.4), np.log(0.4), 1, 0, 0, 0, 3.0],
        [2, 0, 0, np.log(0.3), np.log(0.2), np.log(0.5), 0.9, 0.1, 0.2, -0.1, 2.0],
        [0, 3, 1, np.log(0.25), np.log(0.25), np.log(0.3), 0.7, 0.5, 0.3, 0.2, -4.0],
    ]
    path = tmp_path / "three.ply"
    _write_fixture_ply(path, rows)
    return path


def test_parse_synth_spec():
    spec = parse_synth_spec("synth:ring,count=500,pillar_count=6,scale_lo=0.1,scale_hi=0.3")
    assert spec.pattern == "ring"
    assert spec.count == 500
    assert spec.pillar_count == 6
    assert spec.scale_range == (0.1, 0.3)
    with pytest.raises(ConfigError):
        parse_synth_spec("synth:ring,bogus=1")
    # the twelve documented keys, read from SyntheticSpec's fields
    spec = parse_synth_spec(
        "synth:wall,count=7,pillar_count=3,extent=2.5,ring_radius=4.5,pillar_radius=0.3,"
        "height=1.5,scale_lo=0.1,scale_hi=0.2,anis_lo=1.5,anis_hi=2.5,opacity_lo=0.3,"
        "opacity_hi=0.9")
    assert spec == SyntheticSpec(pattern="wall", count=7, pillar_count=3, extent=2.5,
                                 ring_radius=4.5, pillar_radius=0.3, height=1.5,
                                 scale_range=(0.1, 0.2), anisotropy_range=(1.5, 2.5),
                                 opacity_range=(0.3, 0.9))
    assert type(spec.count) is int and type(spec.pillar_count) is int
    assert type(spec.extent) is float and type(spec.scale_range) is tuple
    # one end of a range keeps the other's default
    assert parse_synth_spec("synth:ring,anis_hi=5").anisotropy_range == (1.0, 5.0)
    with pytest.raises(ConfigError, match="unknown synthetic spec key 'pattern'"):
        parse_synth_spec("synth:ring,pattern=wall")
    with pytest.raises(ConfigError, match="opacity_range above 1"):
        parse_synth_spec("synth:clutter,count=50,opacity_lo=0.5,opacity_hi=3")


def test_convert_fixture(tmp_path, fixture_ply, capsys):
    out = tmp_path / "scene.npz"
    rc = main(["convert", "--in", str(fixture_ply), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    # sigmoid(-4) = 0.018 < 0.1 default: one splat filtered
    assert "splats: 2" in text
    scene = load_scene_dump(out)
    assert len(scene) == 2


def test_convert_opacity_flag(tmp_path, fixture_ply, capsys):
    out = tmp_path / "scene.npz"
    rc = main(["convert", "--in", str(fixture_ply), "--out", str(out), "--opacity-min", "0.0"])
    assert rc == 0
    assert "splats: 3" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.5"])
def test_convert_out_of_range_opacity_min_exit_1(tmp_path, fixture_ply, capsys, value):
    # `convert` is the command that takes --opacity-min; NaN used to filter
    # every splat and exit 2 as if the file were bad
    out = tmp_path / "scene.npz"
    rc = main(["convert", "--in", str(fixture_ply), "--out", str(out), "--opacity-min", value])
    assert rc == 1
    assert "opacity_min must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_convert_missing_file_exit_2(tmp_path, capsys):
    rc = main(["convert", "--in", str(tmp_path / "nope.ply"), "--out", str(tmp_path / "o.npz")])
    assert rc == 2


def test_convert_malformed_header_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex\nend_header\n")
    rc = main(["convert", "--in", str(bad), "--out", str(tmp_path / "o.npz")])
    assert rc == 2
    assert "element line" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (b"property float x\n", "vertex property 'x' named twice"),
    (b"element vertex 3\nproperty float x\n", "element 'vertex' given twice"),
])
def test_convert_repeated_vertex_header_exit_2(tmp_path, fixture_ply, capsys, extra, message):
    # numpy's record type refuses a field named twice with a bare ValueError
    bad = tmp_path / "bad.ply"
    bad.write_bytes(fixture_ply.read_bytes().replace(b"end_header\n", extra + b"end_header\n"))
    out = tmp_path / "o.npz"
    assert main(["convert", "--in", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_exit_1(capsys):
    rc = main(["run", "--filter", "warp-drive"])
    assert rc == 1


def test_missing_scene_exit_1(capsys):
    rc = main(["run", "--out", "/tmp/x"])
    assert rc == 1


def test_run_artifacts_and_determinism(tmp_path):
    args = ["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
            "--filter", "cone", "--pk", "8", "--activation-radius", "6",
            "--start=-8,0.12,0", "--goal=8,0,0", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for out in (out1, out2):
        assert (out / "record.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "trajectory.svg").exists()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["outcome"] == "reached_goal"
    assert s1["config"]["p_k"] == 8.0  # fully-resolved config echo
    s1.pop("timing")
    s2.pop("timing")
    assert s1 == s2
    assert (out1 / "trajectory.svg").read_bytes() == (out2 / "trajectory.svg").read_bytes()
    assert (out1 / "record.csv").read_text().splitlines()[0] == \
        "t,px,py,pz,vx,vy,vz,ux,uy,uz,min_h,solve_time"


def test_v_max_has_one_default(tmp_path):
    """SimConfig's speed bound is the one every caller flies at: a `run`
    without --v-max echoes it, and --v-max <= 0 still means no bound."""
    assert SimConfig().v_max == 2.5
    args = ["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
            "--filter", "off", "--start=-8,3,0", "--goal=-7,3,0", "--timeout", "1"]
    for k, (extra, want) in enumerate((([], 2.5), (["--v-max", "0"], None), (["--v-max=-1"], None))):
        out = tmp_path / str(k)
        assert main(args + extra + ["--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["v_max"] == want


def test_run_blocking_splat_filter_off_collides(tmp_path):
    out = tmp_path / "off"
    rc = main(["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
               "--filter", "off", "--start=-8,0.12,0", "--goal=8,0,0",
               "--out", str(out), "--seed", "0"])
    assert rc == 0  # collided is an outcome, not a tool failure
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == "collided"
    assert summary["audit_min_margin"] < 0


def test_run_svg_contains_scene_and_path(tmp_path):
    out = tmp_path / "svg"
    main(["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
          "--filter", "cone", "--pk", "8", "--activation-radius", "7",
          "--start=-6,0.2,0", "--goal=6,0,0", "--out", str(out), "--seed", "0"])
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<ellipse" in svg and "<polyline" in svg
    assert "outcome: reached_goal" in svg


def test_batch_artifacts_and_determinism(tmp_path):
    args = ["batch", "--scene", "synth:ring,count=300,pillar_count=8,ring_radius=5,scale_lo=0.08,scale_hi=0.2",
            "--n", "2", "--filters", "cone,distance_baseline", "--pk", "8",
            "--start-radius", "8", "--start-height", "2", "--seed", "2"]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("comparison.json", "metrics_cone.csv", "metrics_distance_baseline.csv",
                 "batch_metrics.svg"):
        assert (out1 / name).exists()
    c1 = json.loads((out1 / "comparison.json").read_text())
    c2 = json.loads((out2 / "comparison.json").read_text())
    assert set(c1["filters"].keys()) == {"cone", "distance_baseline"}
    assert "success_rate" in c1["filters"]["cone"]
    c1.pop("timing")
    c2.pop("timing")
    assert c1 == c2
    # metric CSVs are wall-clock-free, so byte-identical
    assert (out1 / "metrics_cone.csv").read_bytes() == (out2 / "metrics_cone.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[scene]\nscene = synth:single,count=1,scale_lo=0.5,scale_hi=0.5\n"
        "[run]\nfilter = off\npk = 2.0\nseed = 4\n"
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--filter", "cone", "--pk", "8",
               "--activation-radius", "6", "--start=-8,0.12,0", "--goal=8,0,0",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["filter"] == "cone"  # flag wins
    assert summary["config"]["p_k"] == 8.0
    assert summary["seed"] == 4  # file value used where no flag given


@pytest.mark.parametrize("line, option", [("inside_policy = hrad", "inside_policy"),
                                          ("inflation_mode = exakt", "inflation_mode")])
def test_config_file_rejects_unknown_enum(tmp_path, capsys, line, option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\n{line}\n")
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--scene", "synth:single,count=1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"unknown {option}" in err
    expected = {"inside_policy": ("hard", "slack"), "inflation_mode": ("conservative", "exact")}
    assert all(opt in err for opt in expected[option])
    assert not out.exists()


def test_config_file_reads_baseline_gains_and_rejects_unknown_keys(tmp_path, capsys):
    head = "[scene]\nscene = synth:single,count=1,scale_lo=0.5,scale_hi=0.5\n[run]\n"
    flags = ["--filter", "distance_baseline", "--start=-8,0.12,0", "--goal=8,0,0",
             "--timeout", "0.1"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(head + "baseline_alpha1 = 3.0\nbaseline-alpha2 = 5.0\n")
    out = tmp_path / "ok"
    assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (config["baseline_alpha1"], config["baseline_alpha2"]) == (3.0, 5.0)
    capsys.readouterr()
    # `p_k` is the name summary.json echoes, but the CLI reads `pk`
    for line, key in (("p_k = 8", "p_k"), ("a_mx = 2", "a_mx")):
        cfg.write_text(head + line + "\n")
        out = tmp_path / key
        for command in ("run", "batch"):
            assert main([command, "--config", str(cfg), "--out", str(out), *flags[:2]]) == 1
            err = capsys.readouterr().err
            assert f"unknown config key(s) {key}" in err
            assert "pk" in err and "a_max" in err and "baseline_alpha1" in err
            assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (b"scene = synth:single\n", "no section headers"),
    (b"[run]\npk = 2\npk = 3\n", "option 'pk' in section 'run' already exists"),
    (b"[run]\n\xff\n", "can't decode byte 0xff"),
])
def test_malformed_config_file_exit_1(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    for command in ("run", "batch"):
        assert main([command, "--config", str(cfg), "--scene", "synth:single",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"malformed config file {cfg}" in err and message in err
        assert not out.exists()


@pytest.mark.parametrize("text, places", [
    # one key in two sections, whichever command runs
    ("[run]\nseed = 2\n[batch]\nseed = 3\n", ("seed", "[run] seed", "[batch] seed")),
    # two spellings of one key, in two sections or in one
    ("[scene]\nv_max = 2\n[run]\nv-max = 3\n", ("v_max", "[scene] v_max", "[run] v-max")),
    ("[run]\nv_max = 2\nv-max = 3\n", ("v_max", "[run] v_max", "[run] v-max")),
    # [DEFAULT] is one more section, not a value every section inherits
    ("[DEFAULT]\npk = 2\n[run]\npk = 3\n", ("pk", "[DEFAULT] pk", "[run] pk")),
])
def test_config_key_given_twice_exit_1(tmp_path, capsys, text, places):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    for command in ("run", "batch"):
        assert main([command, "--config", str(cfg), "--scene", "synth:single",
                     "--out", str(out)]) == 1
        key, first, second = places
        assert (f"config key {key} given twice in {cfg}: {first} and {second}"
                in capsys.readouterr().err)
        assert not out.exists()


def test_default_section_keys_are_read_once(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[DEFAULT]\npk = 3\n[run]\nseed = 2\n[scene]\nscene = synth:single\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--timeout", "0.1", "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (config["p_k"], config["seed"]) == (3.0, 2)


def test_run_and_batch_share_one_config_file(tmp_path, capsys):
    """`run` skips [batch], whose keys are batch's own, so one file serves
    both commands; a key the command does not take is still an error in a
    section it reads."""
    head = ("[scene]\nscene = synth:single,count=1,scale_lo=0.5,scale_hi=0.5\n"
            "[run]\npk = 2\ntimeout = 0.1\n")
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(head + "[batch]\nn = 1\nfilters = cone\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["p_k"] == 2.0
    out = tmp_path / "batch"
    assert main(["batch", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "comparison.json").read_text())["config"]
    assert (config["p_k"], config["n"], config["filters"]) == (2.0, 1, ["cone"])
    capsys.readouterr()
    # an unknown key in [run] stops both commands, one in [batch] stops batch
    for where, commands in (("[run]", ("run", "batch")), ("[batch]", ("batch",))):
        text = head + "[batch]\nn = 1\n"
        cfg.write_text(text.replace(where + "\n", where + "\nbogus = 1\n"))
        for command in ("run", "batch"):
            out = tmp_path / f"{command}_bogus"
            rc = main([command, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            if command in commands:
                assert rc == 1 and "unknown config key(s) bogus" in err
                assert not out.exists()
            else:
                assert rc == 0


def test_synthetic_spec_key_given_twice_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scene", "synth:ring,count=10,count=20", "--out", str(out)]) == 1
    assert ("synthetic spec key count given twice: count=10 and count=20"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [("--rho=-3", "rho must be non-negative"),
                                           ("--slack-weight=-1", "slack_weight must be positive"),
                                           ("--slack-weight=0", "slack_weight must be positive"),
                                           ("--slack-weight=inf", "slack_weight must be finite")])
def test_out_of_range_setting_exit_1(tmp_path, capsys, flag, message):
    # a negative rho makes the audit's reach negative, and a path through
    # the splat would be audited as clear
    out = tmp_path / "out"
    rc = main(["run", "--scene", "synth:single,count=1,scale_lo=0.5,scale_hi=0.5",
               "--filter", "cone", "--pk", "8", "--activation-radius", "6",
               "--start=-8,0.12,0", "--goal=8,0,0", "--out", str(out), flag])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_out_of_range_confidence_exit_1(tmp_path, capsys, value):
    # c^2 is a setting like any other: rejected before the scene loads, and
    # NaN must not reach the audit's tree query
    out = tmp_path / "out"
    rc = main(["run", "--scene", "synth:single", "--confidence", value, "--out", str(out)])
    assert rc == 1
    assert "confidence must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_confidence_checked(tmp_path, capsys):
    cfg = tmp_path / "batch.cfg"
    cfg.write_text("[scene]\nscene = synth:single\nconfidence = nan\n")
    assert main(["batch", "--config", str(cfg), "--n", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert "confidence must be positive" in capsys.readouterr().err


_SINGLE = "--scene synth:single,count=1,scale_lo=0.5,scale_hi=0.5"


@pytest.mark.parametrize("argv, config", [
    (f"run {_SINGLE} --start=x,0,0 --goal=1,0,0 --out {{out}}", None),
    (f"run {_SINGLE} --start=-8,0,0 --goal=1,0 --out {{out}}", None),
    (f"run {_SINGLE} --start=nan,0,0 --goal=1,0,0 --out {{out}}", None),
    (f"run {_SINGLE} --start=-8,0,0 --out {{out}}", None),
    (f"run {_SINGLE} --goal=8,0,0 --out {{out}}", None),
    (f"run {_SINGLE} --axes 0 --out {{out}}", None),
    (f"run {_SINGLE} --axes 0,3 --out {{out}}", None),
    (f"run {_SINGLE} --axes 1,1 --out {{out}}", None),
    (f"run {_SINGLE} --seed -1 --out {{out}}", None),
    # non-finite settings: an overflowing step count, a non-finite
    # reference, or no step at all
    (f"run {_SINGLE} --timeout inf --out {{out}}", None),
    (f"run {_SINGLE} --kp inf --out {{out}}", None),
    (f"run {_SINGLE} --kd inf --out {{out}}", None),
    (f"run {_SINGLE} --dt inf --out {{out}}", None),
    # an infinite gain or radius: a traceback from the rows, or a NaN margin
    (f"run {_SINGLE} --pk inf --out {{out}}", None),
    (f"run {_SINGLE} --rho inf --out {{out}}", None),
    (f"run {_SINGLE} --filter distance_baseline --baseline-alpha1 inf --out {{out}}", None),
    (f"run {_SINGLE} --filter distance_baseline --baseline-alpha2 inf --out {{out}}", None),
    (f"run {_SINGLE} --dt 1e-300 --timeout 1e10 --out {{out}}", None),
    # a placement circle of radius 0 never left the splat at its centre
    ("run --scene synth:single --start-radius 0 --out {out}", None),
    ("run --scene synth:single --start-radius nan --out {out}", None),
    ("run --scene synth:single --start-height inf --out {out}", None),
    ("run --scene synth:single,count=x --out {out}", None),
    # out-of-range synthetic specs: exit 2 or a sampler traceback before
    ("run --scene synth:single,count=0 --out {out}", None),
    ("run --scene synth:single,scale_lo=nan --out {out}", None),
    ("run --scene synth:wall,height=-1 --out {out}", None),
    ("run --scene synth:ring,pillar_radius=-1 --out {out}", None),
    ("run --scene synth:clutter,extent=-1 --out {out}", None),
    ("run --scene synth:wall,height=nan --out {out}", None),
    ("run --scene synth:clutter,extent=inf --out {out}", None),
    ("run --scene synth:clutter,count=50,opacity_lo=0.5,opacity_hi=3 --out {out}", None),
    ("run --scene synth:ring,ring_radius=-2 --out {out}", None),
    (f"batch {_SINGLE} --n 1 --filters cone,cone --out {{out}}", None),
    ("run --config {cfg} --out {out}", "[run]\npk = abc\n"),
    ("run --config {cfg} --out {out}", "[run]\nseed = 1.5\n"),
    ("batch --config {cfg} --out {out}", "[batch]\nn = x\n"),
    (f"batch {_SINGLE} --n 0 --out {{out}}", None),
    (f"batch {_SINGLE} --n 1 --filters cone,bogus --out {{out}}", None),
    (f"batch {_SINGLE} --n 1 --filters , --out {{out}}", None),
    (f"batch {_SINGLE} --n 1 --rho -3 --out {{out}}", None),
    ("convert --in {ply} --out {out} --scale-clamp 0.01", None),
    ("convert --in {ply} --out {out} --scale-clamp 0.1,0.2,0.3", None),
    ("convert --in {ply} --out {out} --scale-clamp 0.5,0.1", None),
])
def test_bad_input_exits_1_and_writes_nothing(tmp_path, fixture_ply, argv, config):
    # every input is checked before the scene loads or a file is written
    out, cfg = tmp_path / "out", tmp_path / "c.cfg"
    if config is not None:
        cfg.write_text(f"[scene]\nscene = synth:single\n{config}")
    src = str(Path(splatcone.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-m", "splatcone.cli",
         *argv.format(out=out, cfg=cfg, ply=fixture_ply).split()],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_config_keys_are_simconfig_fields(tmp_path, capsys):
    # the keys a config file may set, read back from the unknown-key error
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[run]\nbogus = 1\n")
    sim_keys = {"pk" if f.name == "p_k" else f.name for f in dataclasses.fields(SimConfig)}
    run_keys = sim_keys | {"scene", "seed", "confidence", "out"}
    parser = build_parser()
    for command, expected in (("run", run_keys), ("batch", run_keys | {"n", "filters"})):
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip()
        assert "unknown config key(s) bogus" in err
        assert set(err.split("known keys: ")[1].split(", ")) == expected
        # and each is a flag: `--` + the key with dashes, setting that key
        for key in expected:
            args = parser.parse_args([command, "--" + key.replace("_", "-"), "1"])
            assert getattr(args, key) in (1, "1"), key


@pytest.mark.parametrize("settings, kw, message", [
    (PreprocessOptions, dict(opacity_min=1.5), "opacity_min must lie in [0, 1], got 1.5"),
    (PreprocessOptions, dict(confidence=0.0), "confidence must be positive and finite, got 0.0"),
    (PreprocessOptions, dict(scale_min=2.0, scale_max=1.0), "scale_min 2.0 exceeds scale_max 1.0"),
    (SyntheticSpec, dict(count=0), "count must be positive, got 0"),
    (SyntheticSpec, dict(pattern="spiral"), "unknown pattern 'spiral'"),
    (FilterConfig, dict(rho=-1.0), "rho must be non-negative"),
    (FilterConfig, dict(inside_policy="soft"),
     "unknown inside_policy 'soft'; options: ('hard', 'slack')"),
    (SimConfig, dict(filter="bogus"),
     "unknown filter 'bogus'; options: ('cone', 'distance_baseline', 'off')"),
    (SimConfig, dict(kd=float("inf")), "kd must be finite"),
], ids=str)
def test_one_error_for_a_bad_setting(settings, kw, message):
    # every settings class raises the CLI's own error, which exits 1
    assert ConfigError is scene_mod.ConfigError
    with pytest.raises(ConfigError) as exc:
        settings(**kw)
    assert type(exc.value) is ConfigError and str(exc.value) == message


@pytest.mark.parametrize("name", ["dt", "slack_weight", "p_k", "rho",
                                  "baseline_alpha1", "baseline_alpha2"])
def test_filter_config_requires_finite_settings(name):
    with pytest.raises(ConfigError) as exc:
        FilterConfig(**{name: float("inf")})
    assert str(exc.value) == f"{name} must be finite"


@pytest.mark.parametrize("flags", [
    ["--pk", "1e308"],
    ["--filter", "distance_baseline", "--baseline-alpha1", "1e308"],
    ["--filter", "distance_baseline", "--baseline-alpha2", "1e308"],
], ids=" ".join)
def test_finite_gain_whose_rows_overflow_exits_3(tmp_path, capsys, flags):
    # a finite gain passes FilterConfig, but its rows' offsets overflow to
    # inf: the step fails as a solver failure, not with a ValueError traceback
    argv = ["run", "--scene", "synth:ring,count=200,pillar_count=4", "--timeout", "0.2",
            *flags, "--out", str(tmp_path / "out")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "solver failure: rows not finite: offsets must be finite")


def test_out_of_range_option_in_dump_exits_2(tmp_path, capsys):
    # a bad option in a dump is a malformed file, not a bad setting
    path = tmp_path / "scene.npz"
    save_scene_dump(path, make_synthetic_scene(SyntheticSpec(pattern="single"), seed=0))
    with np.load(path) as z:
        arrays = dict(z)
    arrays["anisotropy_cap"] = np.array(0.5)
    np.savez(path, **arrays)
    with pytest.raises(SceneError) as exc:
        load_scene_dump(path)
    assert str(exc.value) == "anisotropy_cap must be at least 1, got 0.5"
    out = tmp_path / "out"
    assert main(["run", "--scene", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("I/O or parse error: anisotropy_cap")
    assert not out.exists()


def test_tampered_scene_dump_exits_2(tmp_path, capsys):
    # a two-element option used to end in a TypeError traceback
    path = tmp_path / "scene.npz"
    save_scene_dump(path, make_synthetic_scene(SyntheticSpec(pattern="single"), seed=0))
    with np.load(path) as z:
        arrays = dict(z)
    arrays["opacity_min"] = np.array([0.1, 0.2])
    np.savez(path, **arrays)
    out = tmp_path / "out"
    assert main(["run", "--scene", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O or parse error:") and "opacity_min" in err
    assert not out.exists()
