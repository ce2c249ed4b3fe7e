"""Command-line interface: scene conversion, single runs, batch experiments.

Subcommands:
    convert   PLY -> versioned scene dump, with preprocessing stats
    run       one trajectory: CSV record, JSON summary, SVG plot
    batch     n trajectories per filter: metrics CSVs, comparison JSON, SVG

Exit codes: 0 = ran to a defined outcome (infeasible/collided are outcomes,
not failures), 1 = config error, 2 = I/O or parse error, 3 = solver failure.

Config files are flat INI ([scene]/[run]/[batch] sections, key = value);
command-line flags, one per config key, override file values. Scene sources
are a .ply path, a .npz scene dump, or a synthetic spec like
    synth:ring,count=2400,pillar_count=10,scale_lo=0.08,scale_hi=0.2
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from .qp import SolverError
from .scene import PreprocessOptions, Scene, SceneError
from .sceneio import load_ply, load_scene_dump, save_scene_dump
from .simulator import (
    SimConfig,
    SimulationError,
    batch_start_goal,
    compute_metrics,
    run_batch,
    run_trajectory,
    summary_dict,
    write_json,
    write_record_csv,
)
from .svgplot import write_metric_boxes_svg, write_trajectory_svg
from .synthetic import SyntheticSpec, make_synthetic_scene


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


class ConfigError(ValueError):
    pass


def _synth_keys() -> dict:
    """key -> (SyntheticSpec field, end of its range or None, cast) for each
    field but the pattern, the spec's first item. A `<short>_range` field is
    read as `<short>_lo` and `<short>_hi` (`anis` for `anisotropy`)."""
    keys = {}
    for f in dataclasses.fields(SyntheticSpec):
        if f.name.endswith("_range"):
            short = f.name[:-len("_range")].replace("anisotropy", "anis")
            for i, end in enumerate(("lo", "hi")):
                keys[f"{short}_{end}"] = (f.name, i, type(f.default[i]))
        elif f.name != "pattern":
            keys[f.name] = (f.name, None, type(f.default))
    return keys


_SYNTH_KEYS = _synth_keys()


def parse_synth_spec(text: str) -> SyntheticSpec:
    body = text[len("synth:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ConfigError("synthetic spec needs a pattern, e.g. synth:ring")
    kwargs: dict = {"pattern": parts[0]}
    given: dict[str, str] = {}
    for item in parts[1:]:
        if "=" not in item:
            raise ConfigError(f"bad synthetic spec item {item!r} (expected key=value)")
        key, val = item.split("=", 1)
        if key not in _SYNTH_KEYS:
            raise ConfigError(f"unknown synthetic spec key {key!r}")
        if key in given:
            raise ConfigError(f"synthetic spec key {key} given twice: {given[key]} and {item}")
        given[key] = item
        name, end, cast = _SYNTH_KEYS[key]
        try:
            value = cast(val)
        except ValueError:
            raise ConfigError(f"bad value for synthetic spec key {key}: {val!r}") from None
        if end is not None:
            pair = list(kwargs.get(name, getattr(SyntheticSpec, name)))
            pair[end] = value
            value = tuple(pair)
        kwargs[name] = value
    try:
        return SyntheticSpec(**kwargs)
    except SceneError as e:  # out of range, like any other setting
        raise ConfigError(f"synthetic spec: {e}") from None


def _preprocess_options(**kwargs) -> PreprocessOptions:
    """PreprocessOptions from settings; an out-of-range one is a config error."""
    try:
        return PreprocessOptions(**kwargs)
    except SceneError as e:
        raise ConfigError(str(e)) from None


def load_scene_source(source: str, seed: int, opts: PreprocessOptions) -> Scene:
    if source.startswith("synth:"):
        return make_synthetic_scene(parse_synth_spec(source), seed, opts)
    path = Path(source)
    if not path.exists():
        raise SceneError(f"scene source not found: {source}")
    if path.suffix == ".npz":
        return load_scene_dump(path, confidence=opts.confidence)
    return load_ply(path, opts)


# The simulation settings a config file or flag may set: each SimConfig field
# under its own name, except p_k, read as `pk` (a dash in a config key reads
# as an underscore, and the flag is `--` + the key with dashes); text fields
# are read as text, all others as numbers. A key set neither way takes
# SimConfig's default. A config key the command does not read is an error.
_SIM_KEYS = {("pk" if f.name == "p_k" else f.name):
             (f.name, str if isinstance(f.default, str) else float)
             for f in dataclasses.fields(SimConfig)}
_RUN_KEYS = (*_SIM_KEYS, "scene", "seed", "confidence", "out")
_BATCH_KEYS = (*_RUN_KEYS, "n", "filters")


def _read_config_file(path: str | None, known: tuple[str, ...]) -> dict:
    if not path:
        return {}
    # No default section ("" names none a file can open): [DEFAULT] is read
    # as one more section, so each section yields only the keys it sets.
    cp = configparser.ConfigParser(default_section="")
    flat: dict[str, str] = {}
    where: dict[str, str] = {}
    try:
        read = cp.read(path, encoding="utf-8")
        for section in cp.sections():
            for key, val in cp.items(section):
                name, place = key.replace("-", "_"), f"[{section}] {key}"
                if name in where:
                    raise ConfigError(f"config key {name} given twice in {path}: "
                                      f"{where[name]} and {place}")
                flat[name], where[name] = val, place
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    unknown = sorted(set(flat) - set(known))
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)} in {path}; "
                          f"known keys: {', '.join(sorted(known))}")
    return flat


def _prepare(args, known_keys: tuple[str, ...], default_out: str):
    """Parse and check every input of `run` or `batch`; only then load the
    scene and make the output directory, so a bad input writes nothing.

    Returns the run's configs (one, or one per batch filter), the scene, the
    output directory and the resolved config that the artifacts echo.
    """
    file_cfg = _read_config_file(args.config, known_keys)

    def get(key, cast, default):
        """The flag's value, else the file's cast, else `default`."""
        if (value := getattr(args, key, None)) is not None:
            return value
        if key not in file_cfg:
            return default
        try:
            return cast(file_cfg[key])
        except ValueError:
            raise ConfigError(f"bad value for config key {key}: {file_cfg[key]!r}") from None

    values = {name: value for key, (name, cast) in _SIM_KEYS.items()
              if (value := get(key, cast, None)) is not None}
    if "v_max" in values and values["v_max"] <= 0:  # --v-max <= 0: no speed bound
        values["v_max"] = None
    cfg = SimConfig(**values)
    seed = get("seed", int, 0)
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    source = get("scene", str, None)
    if source is None:
        raise ConfigError("a scene source is required (--scene or config file)")
    confidence = get("confidence", float, None)
    opts = _preprocess_options(confidence=confidence)
    echo = {**dataclasses.asdict(cfg), "scene": source, "seed": seed, "confidence": confidence}
    cfgs = (cfg,)
    if args.command == "run":
        if (args.start is None) != (args.goal is None):
            raise ConfigError("--start and --goal must be given together")
    else:
        echo["n"] = get("n", int, 50)
        if echo["n"] < 1:
            raise ConfigError("n must be at least 1")
        filters = get("filters", str, "cone,distance_baseline")
        echo["filters"] = [f.strip() for f in filters.split(",") if f.strip()]
        if not echo["filters"]:
            raise ConfigError("filters names no filter")
        if len(set(echo["filters"])) != len(echo["filters"]):
            raise ConfigError(f"filters names a filter twice: {filters!r}")
        cfgs = tuple(dataclasses.replace(cfg, filter=name) for name in echo["filters"])

    scene = load_scene_source(source, seed, opts)
    out_dir = Path(get("out", str, default_out))
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfgs, scene, out_dir, echo


def cmd_convert(args) -> int:
    lo, hi = args.scale_clamp
    opts = _preprocess_options(opacity_min=args.opacity_min, scale_min=lo, scale_max=hi)
    scene = load_ply(args.in_path, opts)
    save_scene_dump(args.out, scene)
    max_eig = float((1.0 / scene.s_min**2).max())
    print(f"splats: {len(scene)}")
    print(f"scale min/median/max: {scene.scales.min():.6g} / "
          f"{np.median(scene.scales):.6g} / {scene.scales.max():.6g}")
    print(f"max inverse-covariance eigenvalue: {max_eig:.6g}")
    print(f"confidence c^2: {scene.confidence:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    (cfg,), scene, out_dir, config_echo = _prepare(args, _RUN_KEYS, "runs")
    if args.start is not None:
        start, goal = np.array(args.start), np.array(args.goal)
    else:
        start, goal = batch_start_goal(scene, 0, 1, cfg, cfg.rho)

    t0 = time.perf_counter()
    record = run_trajectory(scene, start, goal, cfg)
    wall = time.perf_counter() - t0
    try:
        metrics = compute_metrics(record)
    except SimulationError:
        metrics = None

    summary = summary_dict(record, metrics, config_echo, config_echo["seed"])
    summary["timing"]["wall_clock_s"] = wall
    write_record_csv(out_dir / "record.csv", record)
    write_json(out_dir / "summary.json", summary)
    write_trajectory_svg(out_dir / "trajectory.svg", scene, record, axes=args.axes)
    print(f"outcome: {record.outcome}  samples: {len(record)}  "
          f"audit margin: {record.audit_min_margin:.6g}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_batch(args) -> int:
    cfgs, scene, out_dir, config_echo = _prepare(args, _BATCH_KEYS, "batch_out")
    per_filter: dict[str, dict] = {}
    timing: dict[str, dict] = {}
    for cfg in cfgs:
        name = cfg.filter
        result = run_batch(scene, config_echo["n"], cfg, config_echo["seed"])
        agg = dict(result.aggregate)
        timing[name] = agg.pop("timing")
        per_filter[name] = agg
        _write_batch_csv(out_dir / f"metrics_{name}.csv", result)
        print(f"{name}: success {agg['success_rate']:.0%}  outcomes {agg['outcomes']}")

    comparison = {
        "config": config_echo,
        "filters": per_filter,
        "timing": timing,
    }
    if "cone" in timing and "distance_baseline" in timing:
        cone_med = timing["cone"]["step_time"]["median"]
        base_med = timing["distance_baseline"]["step_time"]["median"]
        if cone_med and base_med:
            comparison["timing"]["planning_time_ratio_baseline_over_cone"] = base_med / cone_med
    write_json(out_dir / "comparison.json", comparison)
    box_input = {name: {"metrics": per_filter[name]["metrics"]} for name in config_echo["filters"]}
    write_metric_boxes_svg(out_dir / "batch_metrics.svg", box_input)
    print(f"artifacts in {out_dir}")
    return 0


def _write_batch_csv(path, result) -> None:
    from .sceneio import _atomic_write_text

    lines = ["idx,outcome,nj,rms_j,isj,path_length,duration,interventions,audit_min_margin"]
    for i, (rec, met) in enumerate(result.runs):
        if met is None:
            vals = ["", "", "", "", ""]
        else:
            vals = [format(x, ".17g") for x in
                    (met.nj, met.rms_j, met.isj, met.path_length, met.duration)]
        lines.append(",".join([str(i), rec.outcome, *vals, str(rec.interventions),
                               format(rec.audit_min_margin, ".17g")]))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _numbers(cast, count: int):
    """An argparse type: exactly `count` comma-separated finite numbers, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(p) for p in text.split(","))
        except ValueError:
            values = ()
        if len(values) != count or not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated finite numbers, got {text!r}")
        return values
    return parse


def _scale_clamp(text: str) -> tuple[float, float]:
    lo, hi = _numbers(float, 2)(text)
    if not 0 < lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 < min <= max, got {text!r}")
    return lo, hi


def _axes(text: str) -> tuple[int, int]:
    axes = _numbers(int, 2)(text)
    if axes[0] == axes[1] or not set(axes) <= {0, 1, 2}:
        raise argparse.ArgumentTypeError(f"expected two distinct axes of 0, 1, 2, got {text!r}")
    return axes


def _add_common_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--scene", help="scene source: .ply, .npz, or synth:<pattern>,k=v,...")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--confidence", type=float, help="scene c^2, set when the scene loads")
    # one flag per config key; SimConfig checks the values and names the options
    helps = {"pk": "barrier decay gain p_k", "rho": "robot sphere radius",
             "v_max": "<= 0 disables the bound"}
    for key, (_, cast) in _SIM_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=cast, help=helps.get(key))


def build_parser() -> _Parser:
    parser = _Parser(prog="splatcone",
                     description="Collision-cone safety filter over splat scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("convert", help="PLY -> scene dump")
    pc.add_argument("--in", dest="in_path", required=True)
    pc.add_argument("--out", required=True)
    pc.add_argument("--opacity-min", type=float, default=PreprocessOptions.opacity_min)
    pc.add_argument("--scale-clamp", type=_scale_clamp, default=(None, None),
                    help="min,max scale clamp")
    pc.set_defaults(func=cmd_convert)

    pr = sub.add_parser("run", help="simulate one trajectory")
    _add_common_run_flags(pr)
    pr.add_argument("--start", type=_numbers(float, 3), help="x,y,z (defaults to auto placement)")
    pr.add_argument("--goal", type=_numbers(float, 3), help="x,y,z")
    pr.add_argument("--axes", type=_axes, default=(0, 1),
                    help="projection axis pair for the SVG (default 0,1)")
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser("batch", help="batch experiment over filters")
    _add_common_run_flags(pb)
    pb.add_argument("--n", type=int, help="number of trajectories (default 50)")
    pb.add_argument("--filters", help="comma list (default cone,distance_baseline)")
    pb.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, SimulationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (SceneError, OSError) as e:
        print(f"I/O or parse error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver failure: {e} residuals={e.residuals}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
