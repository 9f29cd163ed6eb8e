"""Planar primitives, the dyadic polar grid on the unit disc, obstacle
configurations, and exact distance queries against the obstacle union.

Everything in this package lives inside the open unit disc B.  The region
outside |x| < 1/2 is covered by dyadic polar cells: generation n >= 1
occupies the annulus 2^{-n-1} <= 1 - r <= 2^{-n} and is split into 2^{n+4}
equal angular sectors.  Cells are closed sets, so boundary contact counts
as intersection.

Obstacle radii are carried in log space.  The configurations this package
studies routinely have radii far below the smallest positive double (for
instance exp(-1/(c0 * (1-t)^beta)) at t close to 1), so ``exp(log_radius)``
may round to 0.0 while ``log_radius`` itself stays exact and is what every
criterion actually consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import SCHEMA_VERSION, ChampagneError

TWO_PI = 2.0 * math.pi

# exp(x) underflows to 0.0 below roughly -745; radii smaller than that are
# exactly zero in distance arithmetic but keep their exact log value.
LOG_UNDERFLOW = -745.0


class GeometryError(ChampagneError):
    """Invalid geometric object or query."""


class ConfigurationTooLarge(GeometryError):
    """The configuration exceeds a size limit: a materialization limit, or
    the int64 range of canonical disc ids."""


# canonical disc ids are int64
MAX_DISC_COUNT = 2**63 - 1


def check_id_range(disc_count: int) -> None:
    """Refuse a configuration whose canonical disc ids leave int64."""
    if disc_count > MAX_DISC_COUNT:
        raise ConfigurationTooLarge(
            f"{disc_count} discs exceed the int64 range of canonical disc ids"
        )


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    return t + TWO_PI if t < 0.0 else t


def radius_from_log(log_r: float) -> float:
    """exp(log_r), flushing to 0.0 instead of raising on deep underflow."""
    if log_r < LOG_UNDERFLOW:
        return 0.0
    return math.exp(log_r)


# ---------------------------------------------------------------------------
# points and discs


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def angle(self) -> float:
        return wrap_angle(math.atan2(self.y, self.x))

    def rotated(self, angle: float) -> "Point":
        c, s = math.cos(angle), math.sin(angle)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)

    def __post_init__(self) -> None:
        # stored as floats, so that arrays filled from a point are float arrays
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Disc:
    """A closed obstacle disc strictly inside the unit disc: log r < log(1-|x|),
    the one bound test that :class:`RingRows` and :class:`DiscBlock` apply too.

    ``log_radius`` is the primary field; ``radius`` is its (possibly
    underflowed) exponential.
    """

    center: Point
    log_radius: float

    @classmethod
    def from_radius(cls, center: Point, radius: float) -> "Disc":
        if not (radius > 0.0) or not math.isfinite(radius):
            raise GeometryError(f"disc radius must be positive, got {radius}")
        return cls(center, math.log(radius))

    @property
    def radius(self) -> float:
        return radius_from_log(self.log_radius)

    @property
    def boundary_gap(self) -> float:
        """1 - |center|, the distance scale to the unit circle."""
        return 1.0 - self.center.norm()

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_radius):
            raise GeometryError("disc log_radius must be finite")
        s = self.boundary_gap
        if s <= 0.0:
            raise GeometryError("disc center must lie inside the unit disc")
        if self.log_radius >= math.log(s):
            raise GeometryError(
                "disc radius must be smaller than its distance to the unit circle"
            )


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending, as ``np.unique``
    gives them.  Sort and compare: the first ``np.unique`` call of a
    process imports ``numpy.ma``, which costs about 12 ms."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def generations_of(s: np.ndarray) -> np.ndarray:
    """Dyadic generations of boundary gaps s = 1 - |x|.

    Each is the n >= 1 with 2^{-n-1} < s <= 2^{-n}; the boundary value
    s = 2^{-n} belongs to generation n.  It is 0 for s > 1/2 (the central
    region carries no grid cells).
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0.0) or np.any(s > 1.0):
        raise GeometryError("boundary gaps must be in (0, 1]")
    with np.errstate(divide="ignore"):
        n = np.floor(-np.log2(s)).astype(np.int64)
    n = np.where(2.0 ** (-n.astype(np.float64)) < s, n - 1, n)
    n = np.where(s <= 2.0 ** (-(n + 1).astype(np.float64)), n + 1, n)
    return np.where(s > 0.5, 0, n)


# ---------------------------------------------------------------------------
# dyadic polar cells


def sector_count(n: int) -> int:
    """Number of angular sectors in generation n."""
    return 1 << (n + 4)


def center_cells(x: np.ndarray, y: np.ndarray):
    """(rho, n, m, rel) per center (x, y): its radius, the cell (n, m) that
    holds it, n = 0 in the central region (split into 16 sectors as
    generation 0 would be), and its angle past the cell's lower edge
    m * step, step = 2 pi / 2^(n+4)."""
    rho = np.hypot(x, y)
    n = generations_of(1.0 - rho)
    sectors = np.ldexp(1.0, n + 4)
    step = TWO_PI / sectors
    theta = np.mod(np.arctan2(y, x), TWO_PI)
    m = np.floor(theta / step)
    return rho, n, np.mod(m, sectors).astype(np.int64), theta - m * step


@dataclass(frozen=True)
class WhitneyIndex:
    """Index (n, m) of a dyadic polar cell; m is reduced mod 2^{n+4}."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise GeometryError("cell index must be a pair of integers")
        if self.n < 1:
            raise GeometryError(f"cell generation must be >= 1, got {self.n}")
        object.__setattr__(self, "m", self.m % sector_count(self.n))


@dataclass(frozen=True)
class WhitneyCell:
    """Closed polar rectangle: r in [r_inner, r_outer], theta in [lo, hi]."""

    index: WhitneyIndex
    r_inner: float
    r_outer: float
    theta_lo: float
    theta_hi: float

    @property
    def angular_width(self) -> float:
        return self.theta_hi - self.theta_lo

    def diameter(self) -> float:
        """Exact diameter of the closed cell."""
        dth = self.angular_width
        outer_chord = 2.0 * self.r_outer * math.sin(dth / 2.0)
        diagonal = math.sqrt(
            self.r_inner**2
            + self.r_outer**2
            - 2.0 * self.r_inner * self.r_outer * math.cos(dth)
        )
        return max(outer_chord, diagonal, self.r_outer - self.r_inner)

    def area(self) -> float:
        return 0.5 * self.angular_width * (self.r_outer**2 - self.r_inner**2)

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        r = p.norm()
        if r < self.r_inner - tol or r > self.r_outer + tol:
            return False
        # circular containment of the angle
        width = self.angular_width
        rel = wrap_angle(p.angle() - self.theta_lo)
        return rel <= width + tol or rel >= TWO_PI - tol

    def distance_to(self, p: Point) -> float:
        """Euclidean distance from p to the closed cell (0 if inside)."""
        rel = wrap_angle(p.angle() - self.theta_lo)
        r = p.norm()
        if rel <= self.angular_width:
            if r < self.r_inner:
                return self.r_inner - r
            if r > self.r_outer:
                return r - self.r_outer
            return 0.0
        # nearest point lies on one of the two radial edge segments
        return self.radial_edge_distance(p)

    def radial_edge_distance(self, p: Point) -> float:
        """Distance from p to the nearer of the cell's two radial edges."""
        best = math.inf
        for theta in (self.theta_lo, self.theta_hi):
            ex, ey = math.cos(theta), math.sin(theta)
            t = min(max(p.x * ex + p.y * ey, self.r_inner), self.r_outer)
            best = min(best, math.hypot(p.x - t * ex, p.y - t * ey))
        return best


def whitney_cell(idx: WhitneyIndex) -> WhitneyCell:
    """The closed cell with 2^{-n-1} <= 1-r <= 2^{-n} and its angular slot."""
    n, m = idx.n, idx.m
    step = TWO_PI / sector_count(n)
    return WhitneyCell(
        index=idx,
        r_inner=1.0 - 2.0 ** (-n),
        r_outer=1.0 - 2.0 ** (-n - 1),
        theta_lo=m * step,
        theta_hi=(m + 1) * step,
    )


def cell_center(idx: WhitneyIndex) -> Point:
    """Reference point (1 - 2^{-n}) * exp(2*pi*i*m / 2^{n+4}) of the cell."""
    rho = 1.0 - 2.0 ** (-idx.n)
    theta = TWO_PI * idx.m / sector_count(idx.n)
    return Point(rho * math.cos(theta), rho * math.sin(theta))


def index_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(k, v) over every k and every integer v in [lo[k], hi[k])."""
    size = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(len(size)), size)
    return k, np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)


def candidate_cells(x: np.ndarray, y: np.ndarray, r: np.ndarray, n_max: int | None = None) -> tuple:
    """(j, n, m): for each disc j (x, y, r), the cells (n, m) of generation
    at most ``n_max`` (default: every generation it reaches) that it may
    meet, a superset of those it does, each once.

    Generations come from the boundary gaps 1 - |c| -+ r, which may round
    onto a band edge 2^-n, so they are widened by one on each side; sectors
    from the angle the disc subtends, padded by one, or every sector of a
    generation when the padded range spans it or the disc covers the origin.
    """
    rho = np.hypot(x, y)
    gap = 1.0 - rho
    g_hi, g_lo = generations_of(np.stack([np.minimum(gap + r, 0.5), np.maximum(gap - r, 1e-300)]))
    j, n = index_ranges(np.maximum(g_hi - 1, 1), (g_lo + 1 if n_max is None else np.minimum(g_lo + 1, n_max)) + 1)
    sectors = np.left_shift(1, n + 4)
    step = TWO_PI / sectors
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.ceil(np.arcsin(np.minimum(1.0, r[j] / rho[j])) / step).astype(np.int64) + 1
    lo = np.floor(np.mod(np.arctan2(y, x), TWO_PI)[j] / step).astype(np.int64) - reach
    every = (rho[j] <= r[j]) | (2 * reach + 2 >= sectors)
    k, m = index_ranges(np.where(every, 0, lo), np.where(every, sectors, lo + 2 * reach + 2))
    return j[k], n[k], np.mod(m, sectors[k])


def cells_intersecting_disc(d: Disc, n_max: int | None = None) -> list[WhitneyIndex]:
    """All cells of generation at most ``n_max`` (default: every
    generation) whose closed cell meets the closed disc, in (n, m) order:
    the :func:`candidate_cells` within its radius of its centre.

    Discs wholly inside |x| < 1/2 meet no cells and yield an empty list.
    """
    r = d.radius
    _, n, m = candidate_cells(np.array([d.center.x]), np.array([d.center.y]), np.array([r]), n_max)
    cells = [WhitneyIndex(a, b) for a, b in sorted(zip(n.tolist(), m.tolist()))]
    return [idx for idx in cells if whitney_cell(idx).distance_to(d.center) <= r]


# ---------------------------------------------------------------------------
# disc storage blocks


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


# the explicit-disc columns of a block and of a configuration document
_DISC_COLUMNS = ("x", "y", "log_r")


@dataclass(frozen=True)
class DiscBlock:
    """Explicitly stored discs (coordinates plus log radii).  Like
    :class:`Disc` and :class:`RingRows`, the block refuses a disc with
    r >= 1-|x|, so every criterion may take log((1-|x_k|)/r_k) > 0."""

    x: np.ndarray
    y: np.ndarray
    log_r: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_readonly(self.x))
        object.__setattr__(self, "y", _as_readonly(self.y))
        object.__setattr__(self, "log_r", _as_readonly(self.log_r))
        if not (len(self.x) == len(self.y) == len(self.log_r)):
            raise GeometryError("disc block arrays must have equal length")
        for name in ("x", "y", "log_r"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise GeometryError(f"disc block has a non-finite {name}")
        # a center on or outside the unit circle fails too: log(1-|x|) is -inf or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = np.flatnonzero(~(self.log_r < np.log(self.boundary_gap)))
        if len(bad):
            raise GeometryError(f"disc {bad[0]} of the block does not satisfy r < 1-|x|")

    def __len__(self) -> int:
        return len(self.x)

    def take(self, keep) -> "DiscBlock":
        """The discs that the mask, indices or slice ``keep`` select."""
        return DiscBlock(self.x[keep], self.y[keep], self.log_r[keep])

    # the block is immutable, so its derived arrays are computed once and
    # handed out read-only

    @cached_property
    def boundary_gap(self) -> np.ndarray:
        return _as_readonly(1.0 - np.hypot(self.x, self.y))

    @cached_property
    def generations(self) -> np.ndarray:
        gens = generations_of(self.boundary_gap)
        gens.setflags(write=False)
        return gens

    @cached_property
    def generation_rows(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(n, indices of the discs of generation n), ascending in n."""
        return _groups(self.generations)

    @property
    def radius(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(self.log_r)

    def disc(self, i: int) -> Disc:
        return Disc(Point(float(self.x[i]), float(self.y[i])), float(self.log_r[i]))


def _groups(labels: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
    """(label, the ascending indices that hold it) per distinct label,
    ascending."""
    return tuple((int(n), np.flatnonzero(labels == n)) for n in unique_sorted(labels))


# the ring-row columns, in the order of RingBlock's fields
_RING_COLUMNS = ("n", "rho", "log_r", "count", "a_start")
_INT_COLUMNS = ("n", "count", "a_start")


@dataclass(frozen=True, eq=False)
class RingRows:
    """Ring rows as columns.  Row i holds ``count[i] - a_start[i]`` discs of
    log radius ``log_r[i]``, equally spaced on the circle of radius
    ``rho[i]`` and labelled with generation ``n[i]``: slot a, a_start <= a
    < count, sits at angle (a + 1/2) * 2*pi / count, a half-step phase that
    keeps every disc strictly inside its angular sector.  Canonical ids
    count through the rows in order, each row's active slots ascending.

    The columns are read-only and checked in one pass: n >= 1,
    0 < rho < 1, 0 <= a_start < count, finite log_r and the one log-space
    bound log r < log(1 - rho); the first bad row is named.  The per-row
    constants that reach a result (``log_gap``, ``radius``, ``slot_gap``)
    are evaluated with ``math`` row by row, as a scalar evaluation gives
    them: ``np.log`` and ``np.exp`` differ from ``math`` in the last bit on
    some arguments.
    """

    n: np.ndarray
    rho: np.ndarray
    log_r: np.ndarray
    count: np.ndarray
    a_start: np.ndarray
    # log(1 - rho); NaN on a row whose rho is out of range
    log_gap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in _RING_COLUMNS:
            a = np.array(getattr(self, name), dtype=np.int64 if name in _INT_COLUMNS else np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not len(self.n) == len(self.rho) == len(self.log_r) == len(self.count) == len(self.a_start):
            raise GeometryError("ring row columns must have equal length")
        gap = np.array([math.log(1.0 - r) if 0.0 < r < 1.0 else math.nan for r in self.rho.tolist()])
        gap.setflags(write=False)
        object.__setattr__(self, "log_gap", gap)
        checks = (
            (self.n >= 1, "ring generation must be >= 1"),
            ((self.rho > 0.0) & (self.rho < 1.0), "ring radius must lie in (0, 1)"),
            ((self.a_start >= 0) & (self.a_start < self.count), "ring slot range is empty or invalid"),
            (np.isfinite(self.log_r) & (self.log_r < gap), "ring disc radius invalid for its circle radius"),
        )
        bad = ~np.stack([ok for ok, _ in checks])
        rows = np.flatnonzero(bad.any(axis=0))
        if len(rows):
            row = int(rows[0])
            raise GeometryError(f"ring row {row}: {checks[int(np.argmax(bad[:, row]))][1]}")

    @classmethod
    def of(cls, rows: Sequence) -> "RingRows":
        """The rows of a sequence of ring rows and records, in order."""
        if len(rows) == 1 and isinstance(rows[0], RingRows):
            return rows[0]
        return cls(
            *(np.concatenate([np.atleast_1d(getattr(r, name)) for r in rows] or [np.empty(0)])
              for name in _RING_COLUMNS)
        )

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.n)

    def take(self, keep) -> "RingRows":
        """The rows that the mask, indices or slice ``keep`` select."""
        return RingRows(*(getattr(self, name)[keep] for name in _RING_COLUMNS))

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of discs of each row."""
        return self.count - self.a_start

    @cached_property
    def disc_count(self) -> int:
        # summed as Python ints: the total may leave int64 (see check_id_range)
        return sum(self.sizes.tolist())

    @cached_property
    def starts(self) -> np.ndarray:
        """The canonical id of each row's first active slot, counted from
        the first row's."""
        return np.cumsum(self.sizes) - self.sizes

    @cached_property
    def step(self) -> np.ndarray:
        return TWO_PI / self.count

    @cached_property
    def boundary_gap(self) -> np.ndarray:
        return 1.0 - self.rho

    @cached_property
    def radius(self) -> np.ndarray:
        return np.array([radius_from_log(v) for v in self.log_r.tolist()])

    @cached_property
    def slot_gap(self) -> np.ndarray:
        """The centre distance between neighbouring slots of each row."""
        return np.array([chord(r, r, s) for r, s in zip(self.rho.tolist(), self.step.tolist())])

    @cached_property
    def generation_rows(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(n, indices of the rows of generation n), ascending in n."""
        return _groups(self.n)

    def row(self, i: int) -> "RingBlock":
        """Row i as a one-row value."""
        return RingBlock(*(getattr(self, name)[i].item() for name in _RING_COLUMNS))


@dataclass(frozen=True)
class RingBlock:
    """One ring row as a value, checked as :class:`RingRows` checks its
    rows: ``count - a_start`` discs of one log-radius, equally spaced on a
    circle."""

    n: int
    rho: float
    log_r: float
    count: int
    a_start: int = 0

    def __post_init__(self) -> None:
        RingRows.of([self])

    def __len__(self) -> int:
        return self.count - self.a_start

    @property
    def step(self) -> float:
        return TWO_PI / self.count

    @property
    def boundary_gap(self) -> float:
        return 1.0 - self.rho

    @property
    def radius(self) -> float:
        return radius_from_log(self.log_r)

    def angle_of(self, a: int) -> float:
        return (a + 0.5) * self.step

    def angles(self) -> np.ndarray:
        return (np.arange(self.a_start, self.count, dtype=np.float64) + 0.5) * self.step

    def disc(self, a: int) -> Disc:
        th = self.angle_of(a)
        return Disc(Point(self.rho * math.cos(th), self.rho * math.sin(th)), self.log_r)


def chord(rho1: float, rho2: float, dtheta: float) -> float:
    """Distance between points at polar (rho1, 0) and (rho2, dtheta)."""
    return math.sqrt(
        (rho1 - rho2) ** 2 + 4.0 * rho1 * rho2 * math.sin(dtheta / 2.0) ** 2
    )


def ring_min_center_distance(r1: RingBlock, r2: RingBlock) -> float:
    """Exact minimal center distance between two distinct rings, symmetric
    in its arguments."""
    return ring_pair_distance(RingRows.of((r1, r2)), 0, 1)


def ring_pair_distance(rows: RingRows, i: int, j: int) -> float:
    """:func:`ring_min_center_distance` of rows i and j of ``rows``."""
    (rho1, j1, s1), (rho2, j2, s2) = (
        (float(rows.rho[k]), int(rows.count[k]), int(rows.a_start[k])) for k in (i, j)
    )
    g = math.gcd(j1, j2)
    if s1 == 0 and s2 == 0:
        # angle difference = pi * ((2a+1) j2 - (2b+1) j1) / (j1 j2); the
        # integer numerator ranges over g * (2k + (j2 - j1) / g) as (a, b)
        # range over full rings
        return chord(rho1, rho2, math.pi * g * ((j2 - j1) // g % 2) / (j1 * j2))
    # a slot pair's angle difference repeats when a advances by j1/g and b
    # by j2/g, so some nearest pair has a within one period of row i's
    # first active slot or b within one period of row j's: each such window
    # is queried against the other row through the slot kernel
    best = math.inf
    for (rho, count, start), other in (((rho1, j1, s1), j), ((rho2, j2, s2), i)):
        table = _RingTable(rows.take([other]), alone=True)
        end = min(count, start + count // g)
        for lo in range(start, end, _CHUNK):
            theta = (np.arange(lo, min(lo + _CHUNK, end), dtype=np.float64) + 0.5) * (TWO_PI / count)
            d, _ = table.distance(np.full(len(theta), rho), theta, 0, centers=True)
            best = min(best, float(d.min()))
    return best


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True, init=False, eq=False)
class Configuration:
    """A finite truncation of an obstacle configuration inside the unit disc.

    It is stored in two parts: ``discs``, the explicit discs, and
    ``rings``, the ring rows.  Canonical disc ids count through the
    explicit discs (0 .. D-1), then through the ring rows in row order
    (from D), by construction.  ``blocks`` takes explicit disc blocks
    followed by ring rows (:class:`RingBlock`) and records
    (:class:`RingRows`), each part kept in the order given; an explicit
    block after a ring is refused.  The generators emit ascending
    generation and rings by radial row.
    """

    discs: DiscBlock
    rings: RingRows
    n_max: int
    provenance: Mapping[str, object]

    def __init__(
        self, blocks: Sequence = (), n_max: int = 0, provenance: Mapping[str, object] | None = None
    ):
        blocks = tuple(blocks)
        ring = [isinstance(b, (RingBlock, RingRows)) for b in blocks]
        if ring != sorted(ring):
            raise GeometryError("an explicit disc block follows a ring block: explicit discs come first")
        k = ring.count(False)
        explicit = [b for b in blocks[:k] if len(b)]
        if len(explicit) != 1:
            explicit = [DiscBlock(*(np.concatenate([np.empty(0)] + [getattr(b, name) for b in explicit])
                                    for name in _DISC_COLUMNS))]
        object.__setattr__(self, "discs", explicit[0])
        object.__setattr__(self, "rings", RingRows.of(blocks[k:]))
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "provenance", {} if provenance is None else provenance)

    @property
    def blocks(self) -> tuple:
        """The non-empty storage parts, in id order."""
        return tuple(part for part in (self.discs, self.rings) if len(part))

    @classmethod
    def from_discs(
        cls,
        discs: Sequence[Disc],
        n_max: int | None = None,
        provenance: Mapping[str, object] | None = None,
    ) -> "Configuration":
        if not discs:
            return cls(blocks=(), n_max=int(n_max or 0), provenance=dict(provenance or {}))
        gens = generations_of([d.boundary_gap for d in discs]).tolist()
        order = sorted(
            range(len(discs)),
            key=lambda i: (
                gens[i],
                discs[i].center.angle(),
                discs[i].boundary_gap,
                discs[i].center.x,
                discs[i].center.y,
            ),
        )
        x = np.array([discs[i].center.x for i in order])
        y = np.array([discs[i].center.y for i in order])
        lr = np.array([discs[i].log_radius for i in order])
        return cls(
            blocks=(DiscBlock(x, y, lr),),
            n_max=int(n_max if n_max is not None else max(gens)),
            provenance=dict(provenance or {}),
        )

    @property
    def disc_count(self) -> int:
        return len(self.discs) + self.rings.disc_count

    # the configuration is immutable: validation and the capacity constants
    # share one pass over its columns
    @cached_property
    def log_ratio_sup(self) -> float:
        """log of sup r_k / (1 - |x_k|); -inf for an empty configuration."""
        best = [-math.inf]
        if len(self.discs):
            best.append(float(np.max(self.discs.log_r - np.log(self.discs.boundary_gap))))
        if len(self.rings):
            best.append(float(np.max(self.rings.log_r - self.rings.log_gap)))
        return max(best)

    @property
    def ratio_sup(self) -> float:
        lr = self.log_ratio_sup
        return 0.0 if lr == -math.inf else radius_from_log(lr)

    def iter_discs(self) -> Iterator[Disc]:
        x, y, log_r = self.disc_arrays()
        for args in zip(x.tolist(), y.tolist(), log_r.tolist()):
            yield Disc(Point(*args[:2]), args[2])

    def disc_arrays(self, limit: int = 2_000_000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (x, y, log_r) arrays, explicit discs then ring slots
        in canonical order; refuses above ``limit`` discs."""
        if self.disc_count > limit:
            raise ConfigurationTooLarge(
                f"{self.disc_count} discs exceed materialization limit {limit}"
            )
        rows = self.rings
        row, a = index_ranges(rows.a_start, rows.count)
        theta = (a.astype(np.float64) + 0.5) * rows.step[row]
        rho = rows.rho[row]
        return (
            np.concatenate([self.discs.x, rho * np.cos(theta)]),
            np.concatenate([self.discs.y, rho * np.sin(theta)]),
            np.concatenate([self.discs.log_r, rows.log_r[row]]),
        )

    def materialized(self, limit: int = 2_000_000) -> "Configuration":
        """Equivalent configuration with a single explicit block."""
        x, y, lr = self.disc_arrays(limit)
        return Configuration(
            blocks=(DiscBlock(x, y, lr),), n_max=self.n_max, provenance=dict(self.provenance)
        )

    def generations_present(self) -> list[int]:
        return unique_sorted(np.concatenate([self.discs.generations, self.rings.n])).tolist()

    def rotated(self, angle: float) -> "Configuration":
        """Rigid rotation; ring rows fall back to explicit storage."""
        x, y, lr = self.disc_arrays()
        c, s = math.cos(angle), math.sin(angle)
        return Configuration(
            blocks=(DiscBlock(c * x - s * y, s * x + c * y, lr),),
            n_max=self.n_max,
            provenance=dict(self.provenance),
        )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    ratio_sup: float

    def __bool__(self) -> bool:
        return self.ok


def validate_configuration(c: Configuration) -> ValidationReport:
    """Report-style check of the invariants that span a configuration: ring
    labels, overlap and the origin.  The per-disc invariants (finite values,
    r < 1-|x|) are checked where the storage parts are built."""
    check_id_range(c.disc_count)
    violations: list[Violation] = []
    # depth queries take the rows of generation <= D as a prefix of the rho
    # order, which needs every ring's label to match its circle
    rows = c.rings
    gens = generations_of(rows.boundary_gap)
    for i in np.flatnonzero(gens != rows.n).tolist():
        violations.append(
            Violation(
                "generation",
                f"ring row {i} is labelled n={rows.n[i]} but its circle lies in generation {gens[i]}",
                (len(c.discs) + int(rows.starts[i]),),
            )
        )

    index = spatial_index(c)
    overlap = _find_overlap(index)
    if overlap is not None:
        violations.append(
            Violation("overlap", "closed discs intersect", overlap)
        )

    d0, covering = distance_to_obstacles(Point(0.0, 0.0), index)
    if d0 <= 0.0:
        violations.append(Violation("origin", "origin lies in a closed disc", (covering,)))

    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        ratio_sup=c.ratio_sup,
    )


def _find_overlap(index: "SpatialIndex") -> tuple[int, int] | None:
    """A pair of canonical indices whose closed discs intersect, if any.

    Among explicit discs the pair is the lowest-id disc that meets another,
    with the lowest-id disc it meets; between an explicit disc and a ring
    row, the first row that one meets, with the lowest-id disc meeting it.
    """
    rows, base = index.config.rings, len(index.config.discs)
    xs, ys, radii = index.exp_x, index.exp_y, index.exp_rad
    if base:
        # disc i can meet disc j only if its center comes within r_i of disc
        # j's boundary (up to rounding); the few discs that do are checked
        # exactly against every explicit disc.  An explicit disc's id is its
        # index
        _, near = index.explicit_neighbors(cutoff=radii + _CERT_SLACK, centers=False)
        for i in np.flatnonzero(near >= 0).tolist():
            hit = np.hypot(xs - xs[i], ys - ys[i]) <= radii + radii[i]
            hit[i] = False
            if hit.any():
                j = int(np.argmax(hit))
                return (min(i, j), max(i, j))

    if base and len(rows):
        # explicit against rings: each center against the nearest slot of
        # every row within reach of it radially
        table = _RingTable(rows, base, alone=True)
        rho_pts, theta_pts = index.exp_polar
        k, t = _within(rho_pts, radii + table.rad.max(), table.rho)
        reach = radii[k] + table.rad[t]
        k, t, reach = (a[np.abs(rho_pts[k] - table.rho[t]) <= reach] for a in (k, t, reach))
        d, slot = table.distance(rho_pts[k], theta_pts[k], t, with_ids=True, centers=True)
        hit = np.flatnonzero(d <= reach)
        if len(hit):
            j = hit[np.lexsort((k[hit], table.row[t[hit]]))[0]]
            return (int(k[j]), int(slot[j]))

    # rings: adjacent slots within one ring, then cross pairs
    first = base + rows.starts
    rad = rows.radius
    within = np.flatnonzero((rows.sizes >= 2) & (rows.slot_gap <= 2.0 * rad))
    if len(within):
        off = int(first[within[0]])
        return (off, off + 1)
    for i, j in zip(*(a.tolist() for a in _ring_pair_candidates(rows.rho, rad))):
        if ring_pair_distance(rows, i, j) <= rad[i] + rad[j]:
            return (int(first[i]), int(first[j]))
    return None


def _within(rho: np.ndarray, reach: np.ndarray, rho_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j): every pair with |rho[i] - rho_b[j]| <= reach[i], and a few
    more within _CERT_SLACK of it, i ascending.  Each i searches a window
    of the sorted rho_b, so memory stays with the pairs found."""
    order = np.argsort(rho_b, kind="stable")
    lo = np.searchsorted(rho_b[order], rho - reach - _CERT_SLACK, side="left")
    hi = np.searchsorted(rho_b[order], rho + reach + _CERT_SLACK, side="right")
    i, j = index_ranges(lo, hi)
    return i, order[j]


def _ring_pair_candidates(rho: np.ndarray, rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j in row-major order, of rings whose radial gap
    |rho_i - rho_j| is at most rad_i + rad_j.

    Ring i's partners lie within rad_i + max(rad) of rho_i; with the tiny
    radii this package generates almost every such window holds the ring
    alone.
    """
    i, j = _within(rho, rad + rad.max(initial=0.0), rho)
    keep = (j > i) & (np.abs(rho[i] - rho[j]) <= rad[i] + rad[j])
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return i[order], j[order]


# ---------------------------------------------------------------------------
# distance queries


# Margin of the window certificate: far above the rounding of any distance
# inside the unit disc, far below the gaps it certifies.
_CERT_SLACK = 1e-12
_NO_ID = np.iinfo(np.int64).max
# Distances computed per numpy call: keeps temporaries cache-sized.
_CHUNK = 1 << 13


class _Layers:
    """Obstacle layers sorted by radius, ring rows or explicit bands, and
    the one radial search over them.  Layer k holds discs of generation
    gens[k] whose centres lie at radii in [rho_min[k], rho_max[k]] (one
    radius for a ring row) and whose radii are at most r_max[k].  A table
    supplies its layers and ``_pairs(q, layer, reach, with_ids, centers)``,
    which returns (d, ids) for each point of the batch q against its layer;
    d must be exact wherever it is <= reach, and everywhere when reach is
    None.

    :meth:`nearest` evaluates, for each point, the radially nearer of the
    two layers around its rho, and widens on a side while the next layer
    there could still come nearer: while the layer's radial gap, less the
    largest radius of the layers beyond it on that side, is <= best +
    _CERT_SLACK.  The (point, layer) pairs of one step are gathered in one
    batch and merged with the one tie rule, so minima and ids are those of
    every layer's pairs, bit for bit.
    """

    def __init__(self, rho_min: np.ndarray, rho_max: np.ndarray, r_max: np.ndarray, gens: np.ndarray):
        inf = np.array([np.inf])
        self.rho_min = rho_min
        # each layer's generation, and -1 for layer -1, no layer at all
        self.gen_of = np.append(gens, -1)
        self.rho_min_above = np.concatenate([rho_min, inf])
        self.rho_max_below = np.concatenate([-inf, rho_max])
        # the layers below k lie at least rho_p - inner[k] inward of a point,
        # the layers from k on at least outer[k] - rho_p outward, less their
        # radii unless the query is between centres; the missing layers -1
        # and count have NaN edges, which fail every comparison
        self.edges = {}
        nan = np.array([np.nan])
        for centers in (False, True):
            reach = 0.0 if centers else r_max
            inner = np.maximum.accumulate(rho_max + reach)
            outer = np.minimum.accumulate((rho_min - reach)[::-1])[::-1]
            self.edges[centers] = np.concatenate([nan, inner]), np.concatenate([outer, nan])
        # layers of generation <= D: a prefix of the table when rho order
        # agrees with generation order, as it does once labels validate;
        # a circle inside the unit disc has 1 - rho >= 2^-53, so a label
        # that validates is at most 53
        self.ordered = bool(np.all(gens[1:] >= gens[:-1])) and gens.max(initial=0) <= 53
        if self.ordered:
            self.ends = np.searchsorted(gens, np.arange(55), side="right")

    def depth_ends(self, depth: np.ndarray) -> np.ndarray:
        """For each depth D >= 0, the number of layers of generation <= D."""
        if not self.ordered:
            raise GeometryError("ring generations disagree with their radii")
        return self.ends.take(depth, mode="clip")

    def nearest(self, q: tuple, best: np.ndarray | None = None, best_id: np.ndarray | None = None,
                end: np.ndarray | None = None, centers: bool = False, with_ids: bool = False):
        """(best, best_id, layer): each point's running minimum, lowered in
        place to its distance to the discs of the layers below end[i] (of
        every layer when ``end`` is None) or, with ``centers``, to their
        centres; given ``best_id``, an equal distance takes the lower id.
        ``best`` None starts from nothing found, with ids if ``with_ids``.
        q holds the per-point arrays of :meth:`_pairs`, rho_p first.
        layer[i] is the layer that lowered point i's minimum last, the one
        attaining it, or -1 where none did."""
        rho_p = q[0]
        outer = np.searchsorted(self.rho_min, rho_p, side="right")
        gap_out = self.rho_min_above[outer] - rho_p
        if end is not None:
            np.minimum(outer, end, out=outer)
            gap_out[outer >= end] = np.inf
        # the radially nearer of the layers outer - 1 and outer, evaluated
        # whatever its distance; -1 where there is none
        home = outer - (rho_p - self.rho_max_below[outer] <= gap_out)
        i, o = np.maximum(home, 0), home + 1
        found = home >= 0
        whole = len(home) > 0 and found.all()
        if best is None and whole:
            # a fresh batch takes its home layers' distances as they are
            best, best_id = self._pairs(q, home, None, with_ids, centers)
            layer = home
        else:
            if best is None:
                best = np.full(len(rho_p), np.inf)
                best_id = np.full(len(rho_p), _NO_ID) if with_ids else None
            layer = np.full(len(rho_p), -1)
            pts = slice(None) if whole else np.flatnonzero(found)  # views of a whole batch
            self._merge(q, pts, home[pts], best, best_id, layer, centers)
        if len(self.rho_min) <= 1:
            # the one layer is every point's home, with nothing to widen to
            return best, best_id, layer
        # layers i .. o - 1 are done; the points whose next layer inward or
        # outward may still come nearer go on, the first step over the
        # whole batch.  A point with nothing found yet (every disc it met
        # was excluded) has best = inf, which only a NaN edge stops; a
        # point without a home has end 0
        inner, outer_edge = self.edges[centers]
        live = slice(None)
        while True:
            rp, b = rho_p[live], best[live] + _CERT_SLACK
            go_in = rp - inner[i] <= b
            go_out = outer_edge[o] - rp <= b
            if end is not None:
                go_out &= o < end[live]
            step = np.flatnonzero(go_in | go_out)
            if not len(step):
                return best, best_id, layer
            live = step if isinstance(live, slice) else live[step]
            go_in, go_out, i, o = go_in[step], go_out[step], i[step], o[step]
            pts = np.concatenate([live[go_in], live[go_out]])
            layers = np.concatenate([i[go_in] - 1, o[go_out]])
            self._merge(q, pts, layers, best, best_id, layer, centers, split=int(go_in.sum()))
            i, o = i - go_in, o + go_out

    def _merge(self, q, pts, layers, best, best_id, layer, centers, split=None) -> None:
        """Evaluate the pairs (pts[j], layers[j]) and merge them into the
        running minima, recording the layer that lowers each.  A point
        appears at most once in pts[:split] and once in pts[split:]; pts
        may be slice(None), every point once."""
        if not len(layers):
            return
        d, ids = self._pairs(tuple(a[pts] for a in q), layers, best[pts], best_id is not None, centers)
        for part in (slice(None),) if split is None else (slice(None, split), slice(split, None)):
            k = pts if split is None else pts[part]
            dk, idk = d[part], None if ids is None else ids[part]
            take = _nearer(dk, idk, best[k], None if best_id is None else best_id[k])
            k = np.flatnonzero(take) if isinstance(k, slice) else k[take]
            best[k], layer[k] = dk[take], layers[part][take]
            if best_id is not None:
                best_id[k] = idk[take]


class _RingTable(_Layers):
    """The ring rows of a :class:`RingRows` record, sorted by circle radius
    rho (then generation), each a layer of :class:`_Layers` whose centres
    lie at the one radius rho; ``row`` maps each back to its record row,
    and ids count from ``base``.

    :meth:`distance` is the slot kernel: a point's distance to the discs of
    one row is the least over a few candidate slots around its angle.  A row
    is *plain* when every row of its generation keeps all its slots and
    shares its slot count (with ``alone``, when it keeps all its slots, as
    if it were the table's one row); its candidates are the slots ``base``
    and ``base + 1`` on either side of the point's angle, at unwrapped
    angles (``base - 1`` is a whole slot step farther than ``base``).  Any
    other row takes those two slots reduced mod its count and clamped to
    its first active slot, plus its last slot.
    """

    def __init__(self, rows: RingRows, base: int = 0, alone: bool = False):
        self.row = np.lexsort((rows.n, rows.rho))
        self.rho, self.rad, self.step = (a[self.row] for a in (rows.rho, rows.radius, rows.step))
        self.count, self.a_start = (a[self.row].astype(np.float64) for a in (rows.count, rows.a_start))
        plain = rows.a_start == 0
        if not alone:
            for _, k in rows.generation_rows:
                plain[k] = plain[k].all() and (rows.count[k] == rows.count[k[0]]).all()
        self.plain = plain[self.row]
        self.any_prefix = not self.plain.all()
        # the canonical id that slot 0 of the row would have
        self.first = (base + rows.starts - rows.a_start)[self.row]
        super().__init__(self.rho, self.rho, self.rad, rows.n[self.row])

    def _pairs(self, q, row, reach, with_ids, centers):
        """The slot kernel on each point (rho_p, theta_p) of q and its row."""
        return self.distance(*q, row, with_ids, centers)

    def distance(
        self,
        rho_p: np.ndarray,
        theta_p: np.ndarray,
        j,
        with_ids: bool = False,
        centers: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(d, ids): each point's distance to the discs of row j[i] (of row
        j for a scalar) or, with ``centers``, to their centers.  With
        ``with_ids`` each d comes with the lowest slot id attaining it;
        otherwise ids is None.

        The arithmetic is that of sqrt((rho_p - rho)^2 + 4 rho_p rho
        sin^2((theta_p - (a + 1/2) step) / 2)) - r, done in place."""
        if np.ndim(j) == 0:
            j = np.full(len(rho_p), j)
        rho, step = self.rho[j], self.step[j]
        base = theta_p / step
        base -= 0.5
        np.floor(base, out=base)
        dr2 = rho_p - rho
        dr2 *= dr2
        cross = 4.0 * rho_p
        cross *= rho
        rad = None if centers else self.rad[j]
        count = self.count[j] if with_ids or self.any_prefix else None
        first = self.first[j] if with_ids else None

        def at(a, sel=slice(None)):
            # the distances to slot a of the points sel, and its ids
            d = a + 0.5
            d *= step[sel]
            np.subtract(theta_p[sel], d, out=d)
            d /= 2.0
            np.sin(d, out=d)
            d *= d
            d *= cross[sel]
            d += dr2[sel]
            np.sqrt(d, out=d)
            if rad is not None:
                d -= rad[sel]
            ids = None if first is None else first[sel] + np.mod(a, count[sel]).astype(np.int64)
            return d, ids

        pre = np.flatnonzero(~self.plain[j]) if self.any_prefix else ()
        if not len(pre):
            out, ids = at(base)
            _keep_nearest(out, ids, *at(base + 1.0))
            return out, ids
        # the nearest active slot of a row with a dropped prefix is the
        # floor or ceiling slot of the point's angle or, where that one is
        # dropped, an end of the active arc: a dropped candidate is clamped
        # to the arc's first slot, and its last slot is a candidate too
        low, high = base, base + 1.0
        for a in (low, high):
            a[pre] = np.maximum(np.mod(a[pre], count[pre]), self.a_start[j[pre]])
        out, ids = at(low)
        _keep_nearest(out, ids, *at(high))
        sub, sub_ids = out[pre], None if ids is None else ids[pre]
        _keep_nearest(sub, sub_ids, *at(count[pre] - 1.0, pre))
        out[pre] = sub
        if ids is not None:
            ids[pre] = sub_ids
        return out, ids


class SpatialIndex:
    """Immutable distance-query accelerator over a configuration.

    Every ring row, plain or with a dropped prefix, sits in one table sorted
    by rho (see :class:`_RingTable`), and every explicit disc in another,
    grouped by the dyadic generation of its center, each generation a grid
    of buckets in the cells that hold the centers (see
    :class:`champagne.bands.DiscTable`).  Both tables' rows and bands are
    layers of one radial search (:class:`_Layers`): a query evaluates the
    radially nearest layers, and further ones only while their radial gap,
    less the largest radius beyond, leaves them a chance to come nearer.
    The band search starts from the ring search's minima.  Results agree
    exactly with a scan of every row and every disc.
    """

    def __init__(self, config: Configuration):
        self.config = config
        check_id_range(config.disc_count)
        discs = config.discs
        # the tables a query searches in turn, each from the minima of the
        # one before, with the number of per-point arrays each reads: ring
        # rows, then explicit bands.  An empty configuration keeps its empty
        # ring table
        self._tables = [(_RingTable(config.rings, len(discs)), 2)] if len(config.rings) or not len(discs) else []
        # the explicit discs in canonical order, with their radii and ids,
        # and in the band table
        self._discs = None
        self.exp_x, self.exp_y, self.exp_log_r = discs.x, discs.y, discs.log_r
        self.exp_rad = discs.radius
        self.exp_ids = np.arange(len(discs), dtype=np.int64)
        if len(discs):
            from .bands import DiscTable

            self._discs = DiscTable(self.exp_x, self.exp_y, self.exp_rad, self.exp_ids)
            self._tables.append((self._discs, 4))

    @cached_property
    def exp_polar(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho, theta in [0, 2 pi)) of the explicit discs' centers."""
        theta = np.arctan2(self.exp_y, self.exp_x)
        return np.hypot(self.exp_x, self.exp_y), np.where(theta < 0.0, theta + TWO_PI, theta)

    # -- batched query (hot path for the walker) ----------------------------

    def distance_many(
        self, px: np.ndarray, py: np.ndarray, with_ids: bool = False, depths=None, rho=None
    ):
        """Unclamped signed distances (negative inside a disc) for a batch.

        With ``with_ids`` returns (d, ids): each distance with the lowest
        canonical id of a disc attaining it, -1 for an empty configuration.

        Given ``depths = (lo, hi)``, per-point generation depths with
        lo <= hi, point i sees only the discs of generation <= hi[i] and the
        result is (d_lo, d_hi): its distance to the discs of generation
        <= lo[i] and to those of generation <= hi[i], each bit-equal to a
        query of the configuration truncated at that depth.  Ids are not
        tracked then.  d_hi is one search; only the points whose nearest
        row or band is of generation > lo[i] are searched again for d_lo,
        and every other point has d_lo = d_hi.

        ``rho``, when given, is the caller's ``np.hypot(px, py)``, used
        instead of computing it again.
        """
        if with_ids and depths is not None:
            raise GeometryError("distance ids are not tracked per depth")
        rho_p = np.hypot(px, py) if rho is None else rho
        theta_p = np.arctan2(py, px)
        theta_p = np.where(theta_p < 0.0, theta_p + TWO_PI, theta_p)
        q = (rho_p, theta_p, px, py)
        if depths is None:
            best, best_id, _ = self._nearest(q, with_ids=with_ids)
            if not with_ids:
                return best
            best_id[best_id == _NO_ID] = -1
            return best, best_id
        lo, hi = depths
        d_hi, _, gen = self._nearest(q, hi)
        # d_lo == d_hi wherever a row or band of generation <= lo attains d_hi
        d_lo = d_hi.copy()
        again = np.flatnonzero(gen > lo)
        if len(again):
            d_lo[again] = self._nearest(tuple(a[again] for a in q), lo[again])[0]
        return d_lo, d_hi

    def _nearest(self, q, depth=None, with_ids=False):
        """(best, best_id, gen): for each point of q = (rho_p, theta_p, px,
        py) its distance to the discs of generation <= depth[i] (to every
        disc when ``depth`` is None), with ``with_ids`` the lowest id
        attaining it (best_id is None otherwise) and, given ``depth``, the
        generation of a ring row or band attaining it (-1 where none does).
        The ring search runs first, and the band search starts from its
        minima."""
        best = best_id = gen = None
        for table, width in self._tables:
            ends = None if depth is None else table.depth_ends(depth)
            best, best_id, layer = table.nearest(q[:width], best, best_id, ends, with_ids=with_ids)
            if depth is not None:
                gen = table.gen_of[layer] if gen is None else np.where(layer >= 0, table.gen_of[layer], gen)
        return best, best_id, gen

    def explicit_neighbors(
        self, cutoff: float | np.ndarray = math.inf, centers: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The nearest other explicit disc of every explicit disc.

        Returns (d, ids) in canonical order of the explicit discs: the
        distance between centers (with ``centers``) or from the center to
        the other disc's boundary, and that disc's id, lowest on ties.  An
        entry with no disc at most ``cutoff`` away (a scalar or one value
        per disc) is (cutoff, -1).
        """
        d = np.array(np.broadcast_to(cutoff, self.exp_ids.shape), dtype=np.float64)
        nn = np.full(len(d), _NO_ID)
        if self._discs is not None:
            rho, theta = self.exp_polar
            # _CHUNK discs at a time keep the query's temporaries small
            for lo in range(0, len(d), _CHUNK):
                s = slice(lo, lo + _CHUNK)
                q = (rho[s], theta[s], self.exp_x[s], self.exp_y[s], self.exp_ids[s])
                self._discs.nearest(q, d[s], nn[s], centers=centers)
        nn[nn == _NO_ID] = -1
        return d, nn


def _nearer(d, ids, best, best_id) -> np.ndarray:
    """Where (d, ids) beats the running (best, best_id): the one tie rule, a
    smaller distance or an equal one with a lower id; ids and best_id are
    None when ids are not tracked."""
    take = d < best
    if ids is not None:
        take |= (d == best) & (ids < best_id)
    return take


def _keep_nearest(best, best_id, d, ids) -> None:
    """Merge distances d with their ids into the running (best, best_id) in
    place, by :func:`_nearer`; best_id is None when ids are not tracked."""
    if best_id is None:
        np.minimum(best, d, out=best)
        return
    take = _nearer(d, ids, best, best_id)
    best[take], best_id[take] = d[take], np.broadcast_to(ids, d.shape)[take]


def spatial_index(c: Configuration) -> SpatialIndex:
    """The index of a configuration, built once and kept on it, which is
    immutable, so that validation, separation and the walker share it."""
    memo = vars(c)
    if "_spatial_index" not in memo:
        memo["_spatial_index"] = SpatialIndex(c)
    return memo["_spatial_index"]


def distance_to_obstacles(p: Point, idx: SpatialIndex) -> tuple[float, int | None]:
    """Distance from p to the obstacle union E, clamped at zero.

    Returns (distance, nearest disc id, lowest on ties) with the id in
    canonical order, or (inf, None) for an empty configuration.
    """
    if p.norm() >= 1.0:
        raise GeometryError("query point must lie inside the unit disc")
    d, ids = idx.distance_many(np.array([p.x]), np.array([p.y]), with_ids=True)
    if ids[0] < 0:
        return math.inf, None
    return max(float(d[0]), 0.0), int(ids[0])


# ---------------------------------------------------------------------------
# serialization


def config_to_document(c: Configuration) -> dict:
    """JSON-style document: explicit discs in canonical order, rings as rows.

    The explicit discs are written as three equal-length columns,
    ``"discs": {"x": [...], "y": [...], "log_r": [...]}``, with no object
    per disc: the file is about 0.57 times the size of one record per disc,
    and it parses in half the time.  ``log_r`` is the exact radius; ``r`` is
    not written, as it is exp(log_r) and underflows to 0 on the radii these
    configurations reach.  A configuration without explicit discs writes
    ``"discs": []``, so that its text is unchanged from the record layout,
    one ``{"x", "y", "log_r"}`` object per disc, which
    :func:`document_to_config` reads too.
    """
    discs: dict | list = []
    if len(c.discs):
        discs = {name: getattr(c.discs, name).tolist() for name in _DISC_COLUMNS}
    columns = [getattr(c.rings, name).tolist() for name in _RING_COLUMNS]
    return {
        "schema_version": SCHEMA_VERSION,
        "discs": discs,
        "rings": [dict(zip(_RING_COLUMNS, row)) for row in zip(*columns)],
        "n_max": c.n_max,
        "provenance": dict(c.provenance),
    }


def _column(what: str, values, integer: bool = False) -> np.ndarray:
    """A flat list of numbers as float64, or with ``integer`` of integers
    as int64; ValueError, a format error, for anything else.  A float
    without a fraction is an integer; a boolean, a fraction or a value
    outside int64 is refused, not rounded or wrapped."""
    a = np.array(values)
    if a.ndim == 1 and a.dtype.kind in "fi" and set(map(type, values)) <= {int, float}:
        if not integer:
            return a.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            if a.dtype.kind == "i" or ((a == np.floor(a)) & (a >= -(2.0**63)) & (a < 2.0**63)).all():
                return a.astype(np.int64)
    raise ValueError(f"{what} must hold {'integers within int64' if integer else 'numbers'}")


def document_to_config(doc: Mapping) -> Configuration:
    """The configuration of a document in either layout of its explicit
    discs (see :func:`config_to_document`).  In the record layout a disc
    without ``log_r`` takes the log of its ``r``.  Ring rows are read
    field by field into columns; ``n``, ``count``, ``a_start`` and
    ``n_max`` must be integers within int64."""
    blocks: list = []
    discs = doc.get("discs", [])
    if isinstance(discs, Mapping):
        columns = [discs[name] for name in _DISC_COLUMNS]
    elif discs:
        columns = [
            [d["x"] for d in discs],
            [d["y"] for d in discs],
            [d["log_r"] if "log_r" in d else math.log(d["r"]) for d in discs],
        ]
    if discs:
        x, y, lr = (_column(f"disc column {name!r}", col) for name, col in zip(_DISC_COLUMNS, columns))
        if not len(x) == len(y) == len(lr):
            raise ValueError(
                f"disc columns differ in length: x {len(x)}, y {len(y)}, log_r {len(lr)}"
            )
        blocks.append(DiscBlock(x, y, lr))
    rings = doc.get("rings", [])
    fields = {name: [r.get(name, 0) if name == "a_start" else r[name] for r in rings] for name in _RING_COLUMNS}
    blocks.append(RingRows(*(_column(f"ring field {k!r}", v, k in _INT_COLUMNS) for k, v in fields.items())))
    return Configuration(
        blocks=tuple(blocks),
        n_max=int(_column("n_max", [doc.get("n_max", 0)], integer=True)[0]),
        provenance=dict(doc.get("provenance", {})),
    )


def dumps_config(c: Configuration) -> str:
    """Canonical (byte-stable) JSON text for a configuration."""
    return json.dumps(config_to_document(c), sort_keys=True, separators=(",", ":"))


def loads_config(text: str) -> Configuration:
    return document_to_config(json.loads(text))
