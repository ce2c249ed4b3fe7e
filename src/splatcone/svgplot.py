"""Deterministic SVG 1.1 renderings of trajectories and batch metrics.

No timestamps, no randomness: byte-identical output for identical inputs.
Trajectory plots show top-down (configurable axis pair) splat sigma-ellipse
projections, the robot path, and start/goal markers. Batch plots draw
min/median/mean/p90/max glyphs per filter and metric.
"""
from __future__ import annotations

import numpy as np

from .scene import Scene, rotation_from_quat
from .sceneio import _atomic_write_text

_N_SIGMA = 2.0                       # splat ellipses drawn at 2 sigma
_METRICS = ("nj", "rms_j", "isj")    # one panel each in the batch plot
_BOX_WIDTH = 860
_PANEL_H = 180


def _fmt(x: float) -> str:
    return format(float(x), ".3f")


def _ellipse_params(scene: Scene, i: int, axes: tuple[int, int]):
    """Projected (marginal) covariance ellipse of splat i on the axis pair."""
    R = rotation_from_quat(scene.quats[i])
    s = scene.scales[i]
    cov = R @ np.diag(s * s) @ R.T
    sub = cov[np.ix_(axes, axes)]
    vals, vecs = np.linalg.eigh(sub)
    vals = np.clip(vals, 0.0, None)
    angle = float(np.degrees(np.arctan2(vecs[1, 1], vecs[0, 1])))
    rx, ry = _N_SIGMA * np.sqrt(vals[1]), _N_SIGMA * np.sqrt(vals[0])
    cx, cy = scene.means[i][axes[0]], scene.means[i][axes[1]]
    return cx, cy, rx, ry, angle


def _document(width, height, parts) -> str:
    """An SVG document of the given size: a white background, then `parts`."""
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *parts,
        "</svg>\n",
    ])


class _Canvas:
    def __init__(self, xlim, ylim, size=720, pad=30):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        span = max(self.x1 - self.x0, self.y1 - self.y0, 1e-9)
        self.scale = (size - 2 * pad) / span
        self.size = size
        self.pad = pad
        self.parts: list[str] = []

    def tx(self, x):
        return self.pad + (x - self.x0) * self.scale

    def ty(self, y):
        # svg y grows downward
        return self.size - self.pad - (y - self.y0) * self.scale

    def add(self, s: str):
        self.parts.append(s)

    def render(self) -> str:
        return _document(self.size, self.size, self.parts)


def render_trajectory_svg(scene: Scene, record, axes: tuple[int, int] = (0, 1)) -> str:
    """Top-down plot: splat ellipse shadows, path polyline, start/goal marks."""
    ax, ay = axes
    pts = record.p[:, [ax, ay]] if len(record) else np.zeros((0, 2))
    lo = np.minimum(scene.bounds[0][[ax, ay]],
                    pts.min(axis=0) if len(pts) else scene.bounds[0][[ax, ay]])
    hi = np.maximum(scene.bounds[1][[ax, ay]],
                    pts.max(axis=0) if len(pts) else scene.bounds[1][[ax, ay]])
    margin = 0.05 * (hi - lo).max()
    cv = _Canvas((lo[0] - margin, hi[0] + margin), (lo[1] - margin, hi[1] + margin))

    for i in range(len(scene)):
        cx, cy, rx, ry, angle = _ellipse_params(scene, i, axes)
        cv.add(
            f'<ellipse cx="{_fmt(cv.tx(cx))}" cy="{_fmt(cv.ty(cy))}" '
            f'rx="{_fmt(rx * cv.scale)}" ry="{_fmt(ry * cv.scale)}" '
            f'transform="rotate({_fmt(-angle)} {_fmt(cv.tx(cx))} {_fmt(cv.ty(cy))})" '
            f'fill="#9db7d4" fill-opacity="0.45" stroke="#5a7ba6" stroke-width="0.5"/>'
        )
    if len(record):
        path = " ".join(f"{_fmt(cv.tx(x))},{_fmt(cv.ty(y))}" for x, y in pts)
        cv.add(f'<polyline points="{path}" fill="none" stroke="#c23b22" stroke-width="1.6"/>')
    sx, sy = record.start[[ax, ay]]
    gx, gy = record.goal[[ax, ay]]
    cv.add(f'<circle cx="{_fmt(cv.tx(sx))}" cy="{_fmt(cv.ty(sy))}" r="5" '
           f'fill="#2d8a3e" stroke="black" stroke-width="0.7"/>')
    cv.add(f'<rect x="{_fmt(cv.tx(gx) - 5)}" y="{_fmt(cv.ty(gy) - 5)}" width="10" height="10" '
           f'fill="#e0a93b" stroke="black" stroke-width="0.7"/>')
    cv.add(f'<text x="10" y="18" font-family="monospace" font-size="12">'
           f'outcome: {record.outcome}</text>')
    return cv.render()


def write_trajectory_svg(path, scene: Scene, record, axes=(0, 1)) -> None:
    _atomic_write_text(path, render_trajectory_svg(scene, record, axes))


def render_metric_boxes_svg(per_filter: dict[str, dict[str, dict]]) -> str:
    """One panel per metric; per filter a whisker glyph of min/median/mean/p90/max."""
    filters = sorted(per_filter.keys())
    width, height = _BOX_WIDTH, _PANEL_H * len(_METRICS) + 40
    parts = []
    colors = {"cone": "#c23b22", "distance_baseline": "#2b6cb0", "off": "#718096"}
    for mi, metric in enumerate(_METRICS):
        top = 20 + mi * _PANEL_H
        vals = []
        for f in filters:
            st = per_filter[f]["metrics"][metric]
            if st["max"] is not None:
                vals.extend([st["min"], st["max"]])
        if not vals:
            continue
        vlo, vhi = min(vals), max(vals)
        span = max(vhi - vlo, 1e-12)
        x_of = lambda v: 140 + (v - vlo) / span * (width - 180)  # noqa: E731
        parts.append(f'<text x="10" y="{top + 14}" font-family="monospace" '
                     f'font-size="13">{metric}</text>')
        for fi, f in enumerate(filters):
            st = per_filter[f]["metrics"][metric]
            if st["max"] is None:
                continue
            y = top + 40 + fi * 44
            color = colors.get(f, "#444444")
            parts.append(f'<text x="10" y="{y + 4}" font-family="monospace" '
                         f'font-size="11">{f[:20]}</text>')
            parts.append(f'<line x1="{_fmt(x_of(st["min"]))}" y1="{y}" '
                         f'x2="{_fmt(x_of(st["max"]))}" y2="{y}" '
                         f'stroke="{color}" stroke-width="1"/>')
            parts.append(f'<rect x="{_fmt(x_of(st["median"]) - 2)}" y="{y - 10}" width="4" '
                         f'height="20" fill="{color}"/>')
            parts.append(f'<circle cx="{_fmt(x_of(st["mean"]))}" cy="{y}" r="4" '
                         f'fill="none" stroke="{color}" stroke-width="1.4"/>')
            parts.append(f'<line x1="{_fmt(x_of(st["p90"]))}" y1="{y - 7}" '
                         f'x2="{_fmt(x_of(st["p90"]))}" y2="{y + 7}" '
                         f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - 170}" y="{top + 14}" font-family="monospace" '
                     f'font-size="10">| median  o mean  I p90</text>')
    return _document(width, height, parts)


def write_metric_boxes_svg(path, per_filter) -> None:
    _atomic_write_text(path, render_metric_boxes_svg(per_filter))
