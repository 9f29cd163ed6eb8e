"""Walk-on-spheres estimation of the Brownian escape probability.

A walk starts inside the unit disc and repeatedly jumps to a uniform point
on the largest circle around its position that avoids both the unit circle
and the obstacle union.  It is absorbed once it comes within ``eps_shell``
of either: reaching the unit circle counts as an escape, reaching an
obstacle disc as a hit.  The escape frequency estimates the harmonic
measure of the unit circle seen from the start point, the quantity whose
vanishing defines an unavoidable obstacle union.

Randomness is counter-based: the uniform used by walk w at step t is a
pure function of (seed, w, t) through a splitmix-style mixer, so every
partition of the walks into chunks produces bit-identical trajectories and
the aggregate is independent of scheduling.  One batch kernel advances a
chunk of walks together and records each walk's outcome and step count.

Truncation bias is inherent and intentional: only materialized discs repel
the walk, so a walk below the deepest stored generation sees no obstacles;
escape probabilities are therefore reported per truncation depth and never
extrapolated to the infinite configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    Configuration,
    Point,
    SpatialIndex,
    TWO_PI,
    distance_to_obstacles,
    spatial_index,
)
from .generators import truncate


class WalkerError(ValueError):
    """Invalid walk parameters or a contract violation."""


# ---------------------------------------------------------------------------
# counter-based randomness

_GAMMA_WALK = np.uint64(0x9E3779B97F4A7C15)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SHIFT30)) * _MUL1
    z = (z ^ (z >> _SHIFT27)) * _MUL2
    return z ^ (z >> _SHIFT31)


def walk_uniforms(seed: int, walk_ids: np.ndarray, step: int) -> np.ndarray:
    """Uniforms in [0, 1) for the given walks at one step index.

    A pure function of (seed, walk id, step): neither execution order nor
    chunking can change any draw.
    """
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    key = _mix64(base + (walk_ids.astype(np.uint64) + np.uint64(1)) * _GAMMA_WALK)
    step_term = np.uint64(((step + 1) * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF)
    val = _mix64(key + step_term)
    return (val >> _SHIFT11).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# parameters and outcomes

ESCAPED = "escaped"
HIT = "hit"
CENSORED = "censored"
# a walk's outcome is recorded as its index in this tuple
OUTCOMES = (ESCAPED, HIT, CENSORED)


@dataclass(frozen=True)
class WalkParams:
    eps_shell: float = 1e-4
    max_steps: int = 1_000_000
    start: Point = field(default_factory=lambda: Point(0.0, 0.0))
    seed: int = 0
    n_walks: int = 100_000
    chunk_size: int = 32_768

    def __post_init__(self) -> None:
        if not (self.eps_shell > 0.0):
            raise WalkerError("eps_shell must be positive")
        if self.max_steps < 1:
            raise WalkerError("max_steps must be >= 1")
        if self.n_walks < 1:
            raise WalkerError("n_walks must be >= 1")
        if self.start.norm() >= 1.0:
            raise WalkerError("start point must lie inside the unit disc")
        if self.chunk_size < 1:
            raise WalkerError("chunk_size must be >= 1")


@dataclass(frozen=True)
class EscapeEstimate:
    p_escape: float
    ci95_halfwidth: float
    n_walks: int
    n_escaped: int
    n_hit: int
    n_censored: int
    mean_steps: float
    unreliable: bool
    # per-walk records in walk order: outcome (index into OUTCOMES) and steps
    walk_outcome: np.ndarray = field(repr=False, compare=False)
    walk_steps: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_records(cls, outcome: np.ndarray, steps: np.ndarray) -> "EscapeEstimate":
        n_escaped, n_hit, n_censored = (
            int(k) for k in np.bincount(outcome, minlength=len(OUTCOMES))
        )
        n = len(outcome)
        p = n_escaped / n
        return cls(
            p_escape=p,
            ci95_halfwidth=1.96 * math.sqrt(p * (1.0 - p) / n),
            n_walks=n,
            n_escaped=n_escaped,
            n_hit=n_hit,
            n_censored=n_censored,
            mean_steps=int(steps.sum()) / n,
            unreliable=n_censored / n > 0.01,
            walk_outcome=outcome,
            walk_steps=steps,
        )


# ---------------------------------------------------------------------------
# the batch kernel


def _run_chunk(
    params: WalkParams, idx: SpatialIndex, walk_lo: int, walk_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(outcome, steps) of each walk in [walk_lo, walk_hi), in walk order.

    A walk is classified before every jump: within eps_shell of the unit
    circle it escapes, else within eps_shell of a disc it is hit, else it
    jumps to a uniform point on the largest circle that avoids both.  A
    walk still running after max_steps jumps is censored.
    """
    m = walk_hi - walk_lo
    outcome = np.empty(m, dtype=np.int8)
    steps = np.empty(m, dtype=np.int64)
    ids = np.arange(walk_lo, walk_hi, dtype=np.uint64)
    px = np.full(m, params.start.x)
    py = np.full(m, params.start.y)
    eps = params.eps_shell
    step = 0
    while len(ids):
        s = 1.0 - np.hypot(px, py)
        escaped = s < eps
        d_obs = idx.distance_many(px, py)
        hit = ~escaped & (d_obs < eps)
        done = escaped | hit
        if step == params.max_steps:
            done[:] = True
        if done.any():
            fin = ids[done] - np.uint64(walk_lo)
            # indices into OUTCOMES: escaped 0, hit 1, censored 2
            outcome[fin] = 2 - 2 * escaped[done] - hit[done]
            steps[fin] = step
            keep = ~done
            ids, px, py, s, d_obs = ids[keep], px[keep], py[keep], s[keep], d_obs[keep]
            if not len(ids):
                break
        radius = np.minimum(s, d_obs)
        theta = TWO_PI * walk_uniforms(params.seed, ids, step)
        px = px + radius * np.cos(theta)
        py = py + radius * np.sin(theta)
        step += 1
    return outcome, steps


def estimate_escape(params: WalkParams, config: Configuration) -> EscapeEstimate:
    """Escape-probability estimate over independent per-walk substreams.

    The walks run in chunks of ``params.chunk_size``; every walk's record is
    a pure function of (seed, walk id), so the result is identical for any
    chunk size or execution order.
    """
    idx = spatial_index(config)
    d_start, _ = distance_to_obstacles(params.start, idx)
    if d_start <= 0.0:
        raise WalkerError("start point lies inside a closed obstacle disc")
    records = [
        _run_chunk(params, idx, lo, min(lo + params.chunk_size, params.n_walks))
        for lo in range(0, params.n_walks, params.chunk_size)
    ]
    return EscapeEstimate.from_records(
        np.concatenate([o for o, _ in records]), np.concatenate([t for _, t in records])
    )


# ---------------------------------------------------------------------------
# depth sweeps and the annulus oracle


@dataclass(frozen=True)
class DepthRow:
    n_max: int
    estimate: EscapeEstimate


def escape_vs_depth(
    config: Configuration, depths: Sequence[int], params: WalkParams
) -> list[DepthRow]:
    """One estimate per truncation depth, sharing the seed policy so that
    deeper rows see identical trajectories until the added discs act."""
    rows = []
    for n_max in depths:
        cut = truncate(config, n_max=n_max)
        if len(cut.blocks) == len(config.blocks) and all(
            a is b for a, b in zip(cut.blocks, config.blocks)
        ):
            # nothing cut: walk the configuration itself, whose spatial
            # index validation may already have built
            cut = config
        rows.append(DepthRow(n_max=n_max, estimate=estimate_escape(params, cut)))
    return rows


def concentric_obstacle_config(r0: float) -> Configuration:
    """Single obstacle disc centered at the origin (the annulus oracle).

    The exact escape probability from |x| = s is 1 - log(1/s)/log(1/r0).
    This configuration intentionally covers the origin, so walks must start
    elsewhere.
    """
    if not (0.0 < r0 < 1.0):
        raise WalkerError("annulus obstacle radius must lie in (0, 1)")
    from .geometry import DiscBlock

    block = DiscBlock(np.array([0.0]), np.array([0.0]), np.array([math.log(r0)]))
    return Configuration(
        blocks=(block,),
        n_max=0,
        provenance={"generator": "annulus", "r0": r0},
    )


def annulus_escape_probability(r0: float, s: float) -> float:
    """Closed-form escape probability for the concentric obstacle."""
    if not (0.0 < r0 < s < 1.0):
        raise WalkerError("need 0 < r0 < s < 1")
    return 1.0 - math.log(1.0 / s) / math.log(1.0 / r0)
