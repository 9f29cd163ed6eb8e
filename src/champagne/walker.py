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
the aggregate is independent of scheduling.  One batch kernel advances up
to a chunk of walks together, admits more as they finish, and records each
walk's outcome and step count.

The same purity lets the walks run in several processes.  With
``WalkParams.processes`` = k > 1 and more than one pool of walks, the walk
ids are cut into at most k contiguous ranges, one pool or more each; the
caller runs the first range and forks one worker per other range, each
writing its records into a shared anonymous map.  Threads would not help:
the kernel holds the GIL between its numpy calls.  The records are
bit-identical for every process count.

A depth sweep is one coupled pass of the same kernel.  Truncation at depth
D keeps the generation bands n <= D, so D's distance is the running
minimum over those bands and its jump radius min(s, d_<=D) cannot grow with
D.  Walk w uses the same uniform at step t for every depth, so a particle
(walk id, a contiguous range of depths, position) carries the walk for all
the depths whose trajectories still agree.  Before each jump the particle
is classified once: an escape ends every depth it carries, the hit depths
are a suffix of its range, and the rest split into runs of equal radius,
each a particle of its own.  ``SpatialIndex.distance_many`` returns the
distances at a particle's first and last depth in one query, and only
particles that split query the depths between.  The pass costs one query
per particle-step, not one per walk-step and depth: 2.69M query points
against 7.38M walk-steps for 50,000 walks over depths 6, 8, 10, 12 of the
beta = 0.1, c0 = 0.3 family at eps 1e-8.  Every depth's per-walk records
are bit-identical to a separate walk on the truncated configuration.

Truncation bias is inherent and intentional: only materialized discs repel
the walk, so a walk below the deepest stored generation sees no obstacles;
escape probabilities are therefore reported per truncation depth and never
extrapolated to the infinite configuration.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from typing import Sequence

import numpy as np

from . import ChampagneError
from ._record import field, record
from .geometry import (
    Configuration,
    Point,
    SpatialIndex,
    TWO_PI,
    spatial_index,
)


class WalkerError(ChampagneError):
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
_STEP_MUL = np.uint64(0xD1B54A32D192ED03)
_INV53 = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SHIFT30)) * _MUL1
    z = (z ^ (z >> _SHIFT27)) * _MUL2
    return z ^ (z >> _SHIFT31)


def walk_uniforms(seed: int, walk_ids: np.ndarray, step) -> np.ndarray:
    """Uniforms in [0, 1) for the given walks at one step index each.

    A pure function of (seed, walk id, step): neither execution order nor
    chunking can change any draw.  ``step`` is one index for every walk or
    an array of one per walk.
    """
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    key = _mix64(base + (walk_ids.astype(np.uint64) + np.uint64(1)) * _GAMMA_WALK)
    # a ufunc product wraps modulo 2^64 without the scalar overflow warning
    step_term = np.multiply(np.asarray(step, dtype=np.uint64) + np.uint64(1), _STEP_MUL)
    val = _mix64(key + step_term)
    return (val >> _SHIFT11).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# parameters and outcomes

ESCAPED = "escaped"
HIT = "hit"
CENSORED = "censored"
# a walk's outcome is recorded as its index in this tuple
OUTCOMES = (ESCAPED, HIT, CENSORED)


@record
class WalkParams:
    eps_shell: float = 1e-4
    max_steps: int = 1_000_000
    start: Point = field(default_factory=lambda: Point(0.0, 0.0))
    seed: int = 0
    n_walks: int = 100_000
    chunk_size: int = 32_768
    # the most processes the walks are split over (see _run_walks)
    processes: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_shell < 1.0):
            raise WalkerError(f"eps_shell must lie in (0, 1), got {self.eps_shell!r}")
        if self.max_steps < 1:
            raise WalkerError("max_steps must be >= 1")
        if self.n_walks < 1:
            raise WalkerError("n_walks must be >= 1")
        if self.start.norm() >= 1.0:
            raise WalkerError("start point must lie inside the unit disc")
        if self.chunk_size < 1:
            raise WalkerError("chunk_size must be >= 1")
        if self.processes < 1:
            raise WalkerError("processes must be >= 1")


@record
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
    params: WalkParams,
    idx: SpatialIndex,
    walk_lo: int,
    walk_hi: int,
    depths: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(outcome, steps) of each walk in [walk_lo, walk_hi), in walk order.

    A walk is classified before every jump: within eps_shell of the unit
    circle it escapes, else within eps_shell of a disc it is hit, else it
    jumps to a uniform point on the largest circle that avoids both.  A
    walk still running after max_steps jumps is censored.  At most
    ``params.chunk_size`` particles (half as many with ``depths``) are
    live at once, and walks are admitted whenever the pool has room, so
    every query carries a full pool until the last walk is admitted.

    Given ascending generation ``depths``, the records have shape
    (len(depths), walks), row j holding the walks on the configuration
    truncated at depths[j], and the depths are walked together: a particle
    is one walk for a contiguous range of depth columns whose trajectories
    still agree, and it splits only where their jump radii differ.  Their
    steps stay int32 where max_steps allows; one depth's are int64.
    """
    cols = 1 if depths is None else len(depths)
    cut = None if depths is None else np.asarray(depths, dtype=np.int64)
    outcome = np.empty((cols, walk_hi - walk_lo), dtype=np.int8)
    # steps are kept narrow while the walks run and widened per depth after
    steps = np.empty(
        (cols, walk_hi - walk_lo), dtype=np.int32 if params.max_steps < 2**31 else np.int64
    )
    eps = params.eps_shell
    room = _pool_size(params, depths)
    # the live particles: walk id, jumps taken, position and, with depths,
    # the first and last depth column the particle carries
    live = [np.empty(0, dtype=np.int64)] * 2 + [np.empty(0)] * 2
    if cut is not None:
        live += [np.empty(0, dtype=np.int64)] * 2
    admitted = walk_lo
    while True:
        n_live = len(live[0])
        if admitted < walk_hi and n_live < room:
            k = min(walk_hi - admitted, room - n_live)
            live = _admit(live, admitted, k, params.start, cols)
            admitted += k
        elif not n_live:
            break
        wid, t, px, py = live[:4]
        rho = np.hypot(px, py)
        s = 1.0 - rho
        escaped = s < eps
        if cut is None:
            d_lo = d_hi = idx.distance_many(px, py, rho=rho)
        else:
            d_lo, d_hi = idx.distance_many(
                px, py, depths=(cut[live[4]], cut[live[5]]), rho=rho
            )
        radius = np.minimum(s, d_hi)
        stop = escaped | (d_hi < eps) | (t == params.max_steps)
        if cut is not None:
            stop |= np.minimum(s, d_lo) != radius
        if stop.any():
            r, keep = np.flatnonzero(stop), ~stop
            query = (rho, s, escaped, d_lo, d_hi)
            run = _settle(params, idx, cut, walk_lo, outcome, steps, live, r, query)
            live, radius = [a[keep] for a in live], radius[keep]
            if run:
                live = [np.concatenate([a, b]) for a, b in zip(live, run)]
                radius = np.concatenate([radius, run[-1]])
            wid, t, px, py = live[:4]
        theta = TWO_PI * walk_uniforms(params.seed, wid, t)
        px += radius * np.cos(theta)
        py += radius * np.sin(theta)
        t += 1
    if depths is None:
        return outcome[0], steps[0].astype(np.int64)
    return outcome, steps


def _pool_size(params: WalkParams, depths: Sequence[int] | None) -> int:
    """The most particles :func:`_run_chunk` keeps live.  A coupled pass
    keeps more per particle through the query; half the chunk keeps its
    peak RSS below that of a one-depth chunk, since a pool refilled every
    step keeps one size and reuses its freed blocks."""
    return params.chunk_size if depths is None else max(1, params.chunk_size // 2)


def _run_walks(
    params: WalkParams, idx: SpatialIndex, depths: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The records of every walk, as ``_run_chunk(params, idx, 0,
    params.n_walks, depths)`` gives them (with int64 steps once forked),
    over up to ``params.processes`` processes.

    The walk ids are cut into k = min(processes, ceil(n_walks / pool))
    contiguous ranges, so a run of at most one pool stays in one process:
    its steps are bound by per-call overhead, not by its size, and splitting
    it saves nothing.
    The caller runs the first range and forks a worker for each other one;
    a worker writes its records into an anonymous shared map allocated
    before the fork and leaves through ``os._exit``, so it flushes no stdio
    and runs no exit handler.  Every worker is reaped, killed first if the
    caller's own range fails or is interrupted, and a worker that does not
    exit 0 raises :class:`WalkerError`.

    Fork, not spawn: a spawned worker would import numpy and rebuild the
    index before its first step.  A forked worker holds only the calling
    thread, so a caller whose other threads may hold locks the kernel takes
    keeps ``processes`` at 1.  numpy's BLAS threads are no such risk:
    OpenBLAS stops its pool before a fork, and the kernel makes no BLAS
    call.
    """
    n = params.n_walks
    k = min(params.processes, -(-n // _pool_size(params, depths)))
    if k == 1 or not hasattr(os, "fork"):
        return _run_chunk(params, idx, 0, n, depths)
    cols = 1 if depths is None else len(depths)
    shared = mmap.mmap(-1, 9 * cols * n)
    steps = np.frombuffer(shared, np.int64, cols * n).reshape(cols, n)
    outcome = np.frombuffer(shared, np.int8, cols * n, offset=8 * cols * n).reshape(cols, n)

    def run(lo: int, hi: int) -> None:
        o, s = _run_chunk(params, idx, lo, hi, depths)
        outcome[:, lo:hi] = o.reshape(cols, -1)
        steps[:, lo:hi] = s.reshape(cols, -1)

    bounds = [n * i // k for i in range(k + 1)]
    workers: dict[int, tuple[int, int]] = {}
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run(lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            workers[pid] = (lo, hi)
        run(bounds[0], bounds[1])
    except BaseException:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        exits = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in workers}
    for pid, code in exits.items():
        if code:
            lo, hi = workers[pid]
            raise WalkerError(f"the worker for walks [{lo}, {hi}) exited with status {code}")
    return (outcome[0], steps[0]) if depths is None else (outcome, steps)


def _admit(live: list, first: int, k: int, start: Point, cols: int) -> list:
    """The live arrays of :func:`_run_chunk` with walks first .. first+k-1
    appended, each at ``start`` and carrying every depth column."""
    new = [
        np.arange(first, first + k),
        np.zeros(k, dtype=np.int64),
        np.full(k, start.x),
        np.full(k, start.y),
        np.zeros(k, dtype=np.int64),
        np.full(k, cols - 1),
    ][: len(live)]
    if not len(live[0]):
        return new
    return [np.concatenate([a, b]) for a, b in zip(live, new)]


def _settle(params, idx, cut, walk_lo, outcome, steps, live, r, query) -> list:
    """Record the finished depth columns of the stopped particles ``r`` and
    return the columns that go on as new particles, one per run of columns
    with equal jump radius: their live arrays as in :func:`_run_chunk`,
    then the radius; an empty list when none goes on.

    ``query`` holds every live particle's |p|, boundary gap, escape flag
    and distances at its first and last column.  The hit columns of a
    particle are a suffix of its range, since distances cannot grow with
    depth; the columns between the ends are queried only for particles
    that split.
    """
    eps = params.eps_shell
    wid, t = live[0][r], live[1][r]
    rho, s, escaped, d_lo, d_hi = (a[r] for a in query)
    if cut is None:
        # one column: every stopped particle has escaped, been hit or run out
        # of steps; indices into OUTCOMES: escaped 0, hit 1, censored 2
        outcome[0, wid - walk_lo] = np.where(escaped, 0, np.where(d_hi < eps, 1, 2))
        steps[0, wid - walk_lo] = t
        return []
    px, py, lo, hi = (a[r] for a in live[2:])
    width = hi - lo + 1
    first = np.cumsum(width) - width
    # one entry per (particle, column) pair, in particle then column order
    pair = np.repeat(np.arange(len(wid)), width)
    col = np.arange(len(pair)) - np.repeat(first - lo, width)
    # d_hi stands in between the ends where both ends have one radius: the
    # columns between share it, and their hit status, since a partly hit
    # particle that has not escaped has radius d_hi < eps <= its first one
    d = d_hi[pair]
    at_lo = col == lo[pair]
    d[at_lo] = d_lo[pair[at_lo]]
    split = ~escaped & (width > 2) & (np.minimum(s, d_lo) != np.minimum(s, d_hi))
    inner = np.flatnonzero(split)
    a, b = lo[inner] + 1, hi[inner] - 1
    while len(inner):
        # two columns per query, from the outside in
        da, db = idx.distance_many(
            px[inner], py[inner], depths=(cut[a], cut[b]), rho=rho[inner]
        )
        d[first[inner] + a - lo[inner]] = da
        d[first[inner] + b - lo[inner]] = db
        more = a + 1 <= b - 1
        inner, a, b = inner[more], a[more] + 1, b[more] - 1
    esc, hit = escaped[pair], d < eps
    done = esc | hit | (t[pair] == params.max_steps)
    w = wid[pair[done]] - walk_lo
    # indices into OUTCOMES: escaped 0, hit 1, censored 2
    outcome[col[done], w] = np.where(esc[done], 0, np.where(hit[done], 1, 2))
    steps[col[done], w] = t[pair[done]]
    go = np.flatnonzero(~done)
    if not len(go):
        return []
    p, c = pair[go], col[go]
    radius = np.minimum(s[p], d[go])
    head = np.ones(len(go), dtype=bool)
    head[1:] = (p[1:] != p[:-1]) | (radius[1:] != radius[:-1])
    last = np.ones(len(go), dtype=bool)
    last[:-1] = head[1:]
    h = np.flatnonzero(head)
    return [wid[p[h]], t[p[h]], px[p[h]], py[p[h]], c[h], c[last], radius[h]]


def _check_start(params: WalkParams, idx: SpatialIndex, depth: int | None = None) -> None:
    """Reject a start point inside a closed disc, of the discs of generation
    <= ``depth`` when one is given."""
    px, py = np.array([params.start.x]), np.array([params.start.y])
    if depth is None:
        d = idx.distance_many(px, py)
    else:
        _, d = idx.distance_many(px, py, depths=(np.array([depth]), np.array([depth])))
    if d[0] <= 0.0:
        raise WalkerError("start point lies inside a closed obstacle disc")


def estimate_escape(params: WalkParams, config: Configuration) -> EscapeEstimate:
    """Escape-probability estimate over independent per-walk substreams.

    At most ``params.chunk_size`` walks are live at once, new ones
    admitted at every step that others finished; every walk's record is a
    pure function of (seed, walk id), so the result is identical for any
    chunk size or execution order.
    """
    idx = spatial_index(config)
    _check_start(params, idx)
    return EscapeEstimate.from_records(*_run_walks(params, idx))


# ---------------------------------------------------------------------------
# depth sweeps and the annulus oracle


@record
class DepthRow:
    n_max: int
    estimate: EscapeEstimate


def escape_vs_depth(
    config: Configuration, depths: Sequence[int], params: WalkParams
) -> list[DepthRow]:
    """One estimate per truncation depth, in the order of ``depths``, all
    from one coupled walk pass over the configuration.

    Truncation at depth D keeps the generation bands n <= D, so D's
    distance is the running minimum over those bands and its jump radius
    cannot grow with D.  Walk w draws the same uniforms at every depth, so
    one particle carries it for every depth until a deeper depth's discs
    shorten a jump or absorb it; there the particle splits into runs of
    depths with equal radius (see :func:`_run_chunk`).  The pass costs one
    distance query per particle-step instead of one per walk-step and
    depth, and each row is bit-identical to ``estimate_escape(params,
    truncate(config, D))``.  A start inside a disc deeper than every depth
    is allowed.
    """
    if not len(depths):
        return []
    idx = spatial_index(config)
    # truncation keeps or cuts whole generations; depths that keep the same
    # ones share one column of the pass
    bands = config.generations_present()
    keeps = [max((n for n in bands if n <= d), default=-1) for d in depths]
    columns = sorted(set(keeps))
    _check_start(params, idx, columns[-1])
    whole = columns == [max(bands, default=-1)]
    outcome, steps = _run_walks(params, idx, None if whole else columns)
    if whole:
        outcome, steps = outcome[None], steps[None]
    return [
        DepthRow(
            n_max=d,
            estimate=EscapeEstimate.from_records(outcome[j], steps[j].astype(np.int64)),
        )
        for d, j in zip(depths, (columns.index(k) for k in keeps))
    ]


def concentric_obstacle_config(r0: float) -> Configuration:
    """Single obstacle disc centered at the origin (the annulus oracle).

    The exact escape probability from |x| = s is 1 - log(1/s)/log(1/r0).
    This configuration intentionally covers the origin, so walks must start
    elsewhere.
    """
    if not (0.0 < r0 < 1.0):
        raise WalkerError("annulus obstacle radius must lie in (0, 1)")
    from .geometry import DiscBlock

    return Configuration(
        DiscBlock(np.array([0.0]), np.array([0.0]), np.array([math.log(r0)])),
        n_max=0,
        provenance={"generator": "annulus", "r0": r0},
    )


def annulus_escape_probability(r0: float, s: float) -> float:
    """Closed-form escape probability for the concentric obstacle."""
    if not (0.0 < r0 < s < 1.0):
        raise WalkerError("need 0 < r0 < s < 1")
    return 1.0 - math.log(1.0 / s) / math.log(1.0 / r0)
