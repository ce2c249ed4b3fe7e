"""Synthetic splat scene generators for tests, benchmarks and experiments.

Patterns:
    single   one splat at the origin (scale_range low bound, identity rotation)
    ring     clusters of splats stacked into pillars on a circle, leaving a
             navigable center
    clutter  uniform random splats in a box
    wall     a jittered planar slab of splats at x = 0

Generation is deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import ConfigError, PreprocessOptions, Scene


@dataclass(frozen=True)
class SyntheticSpec:
    pattern: str = "clutter"
    count: int = 1000
    scale_range: tuple[float, float] = (0.1, 0.4)
    anisotropy_range: tuple[float, float] = (1.0, 3.0)
    opacity_range: tuple[float, float] = (0.6, 0.99)
    extent: float = 10.0          # clutter box half-width / wall half-width
    ring_radius: float = 6.0
    pillar_count: int = 12
    pillar_radius: float = 0.45
    height: float = 4.0           # ring pillar / wall height

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be positive, got {self.count}")
        for name in ("scale_range", "anisotropy_range", "opacity_range"):
            lo, hi = rng = getattr(self, name)
            if not (0 < lo <= hi):
                raise ConfigError(f"inverted or non-positive {name}: {rng}")
        if self.opacity_range[1] > 1:
            raise ConfigError(f"opacity_range above 1: {self.opacity_range}")
        for name in ("extent", "ring_radius", "pillar_radius", "height"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ConfigError(f"{name} must be finite and non-negative")
        if self.pattern == "ring" and self.pillar_count < 1:
            raise ConfigError("pillar_count must be positive")
        if self.pattern not in ("single", "ring", "clutter", "wall"):
            raise ConfigError(f"unknown pattern {self.pattern!r}")


def _random_scales(rng: np.random.Generator, spec: SyntheticSpec, n: int) -> np.ndarray:
    base = rng.uniform(spec.scale_range[0], spec.scale_range[1], size=n)
    anis = rng.uniform(spec.anisotropy_range[0], spec.anisotropy_range[1], size=n)
    # per-axis factor anis^-t, t in [0,1]: ratio max/min <= anis by construction
    expo = rng.uniform(0.0, 1.0, size=(n, 3))
    return base[:, None] * anis[:, None] ** (-expo)


def _random_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def make_synthetic_scene(
    spec: SyntheticSpec,
    seed: int,
    opts: PreprocessOptions | None = None,
) -> Scene:
    """Generate a scene per `spec`, deterministic in `seed`."""
    rng = np.random.default_rng(seed)
    n = spec.count

    if spec.pattern == "single":
        return Scene.from_arrays(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]),
                                 np.full((1, 3), spec.scale_range[0]),
                                 np.array([sum(spec.opacity_range) / 2.0]), opts)
    if spec.pattern == "ring":
        pillar = np.arange(n) % spec.pillar_count
        theta = 2.0 * np.pi * pillar / spec.pillar_count
        centers = spec.ring_radius * np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
        means = centers + rng.normal(scale=spec.pillar_radius * 0.5, size=(n, 3))
        means[:, 2] = rng.uniform(0.0, spec.height, size=n)
    elif spec.pattern == "clutter":
        means = rng.uniform(-spec.extent, spec.extent, size=(n, 3))
    else:  # wall
        means = np.empty((n, 3))
        means[:, 0] = rng.normal(scale=0.1, size=n)
        means[:, 1] = rng.uniform(-spec.extent, spec.extent, size=n)
        means[:, 2] = rng.uniform(0.0, spec.height, size=n)
    # drawn after the means, in this order
    quats = _random_quats(rng, n)
    scales = _random_scales(rng, spec, n)
    opacities = rng.uniform(*spec.opacity_range, size=n)
    return Scene.from_arrays(means, quats, scales, opacities, opts)
