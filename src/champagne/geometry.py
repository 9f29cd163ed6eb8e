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
    the one bound test that :class:`RingBlock` and :class:`DiscBlock` apply too.

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


@dataclass(frozen=True)
class DiscBlock:
    """Explicitly stored discs (coordinates plus log radii).  Like
    :class:`Disc` and :class:`RingBlock`, the block refuses a disc with
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
        gens = self.generations
        return tuple((int(n), np.flatnonzero(gens == n)) for n in unique_sorted(gens))

    @property
    def radius(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(self.log_r)

    def disc(self, i: int) -> Disc:
        return Disc(Point(float(self.x[i]), float(self.y[i])), float(self.log_r[i]))


@dataclass(frozen=True)
class RingBlock:
    """``count - a_start`` discs of one log-radius, equally spaced on a circle.

    Slot a (a_start <= a < count) sits at angle (a + 1/2) * 2*pi / count.
    The half-step phase keeps every disc strictly inside its angular sector.
    """

    n: int
    rho: float
    log_r: float
    count: int
    a_start: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GeometryError("ring generation must be >= 1")
        if not (0.0 < self.rho < 1.0):
            raise GeometryError("ring radius must lie in (0, 1)")
        if self.count < 1 or not (0 <= self.a_start < self.count):
            raise GeometryError("ring slot range is empty or invalid")
        if not math.isfinite(self.log_r) or self.log_r >= math.log(1.0 - self.rho):
            raise GeometryError("ring disc radius invalid for its circle radius")

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

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        th = self.angles()
        return self.rho * np.cos(th), self.rho * np.sin(th)

    def disc(self, a: int) -> Disc:
        th = self.angle_of(a)
        return Disc(Point(self.rho * math.cos(th), self.rho * math.sin(th)), self.log_r)


Block = DiscBlock | RingBlock


def chord(rho1: float, rho2: float, dtheta: float) -> float:
    """Distance between points at polar (rho1, 0) and (rho2, dtheta)."""
    return math.sqrt(
        (rho1 - rho2) ** 2 + 4.0 * rho1 * rho2 * math.sin(dtheta / 2.0) ** 2
    )


def ring_min_center_distance(r1: RingBlock, r2: RingBlock) -> float:
    """Exact minimal center distance between two distinct rings, symmetric
    in its arguments."""
    j1, j2 = r1.count, r2.count
    g = math.gcd(j1, j2)
    if r1.a_start == 0 and r2.a_start == 0:
        # angle difference = pi * ((2a+1) j2 - (2b+1) j1) / (j1 j2); the
        # integer numerator ranges over g * (2k + (j2 - j1) / g) as (a, b)
        # range over full rings
        return chord(r1.rho, r2.rho, math.pi * g * ((j2 - j1) // g % 2) / (j1 * j2))
    # a slot pair's angle difference repeats when a advances by j1/g and b
    # by j2/g, so some nearest pair has a within one period of r1's first
    # active slot or b within one period of r2's: each such window is
    # queried against the other ring through the slot kernel
    best = math.inf
    for ring, other in ((r1, r2), (r2, r1)):
        table = _RingTable([(0, other)])
        end = min(ring.count, ring.a_start + ring.count // g)
        for lo in range(ring.a_start, end, _CHUNK):
            theta = (np.arange(lo, min(lo + _CHUNK, end), dtype=np.float64) + 0.5) * ring.step
            d, _ = table.distance(np.full(len(theta), ring.rho), theta, 0, centers=True)
            best = min(best, float(d.min()))
    return best


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class Configuration:
    """A finite truncation of an obstacle configuration inside the unit disc.

    ``blocks`` are kept in the order given, and canonical disc ids count
    through them in that order.  Nothing sorts or checks that order: the
    generators emit ascending generation and rings by radial row, while a
    loaded file puts its explicit discs first, then its rings in file order.
    """

    blocks: tuple[Block, ...]
    n_max: int
    provenance: Mapping[str, object] = field(default_factory=dict)

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
        return sum(len(b) for b in self.blocks)

    # the configuration is immutable: validation and the capacity constants
    # share one pass over its blocks
    @cached_property
    def log_ratio_sup(self) -> float:
        """log of sup r_k / (1 - |x_k|); -inf for an empty configuration."""
        best = -math.inf
        for b in self.blocks:
            if isinstance(b, RingBlock):
                if len(b):
                    best = max(best, b.log_r - math.log(b.boundary_gap))
            elif len(b):
                s = b.boundary_gap
                best = max(best, float(np.max(b.log_r - np.log(s))))
        return best

    @property
    def ratio_sup(self) -> float:
        lr = self.log_ratio_sup
        return 0.0 if lr == -math.inf else radius_from_log(lr)

    def iter_discs(self) -> Iterator[Disc]:
        for b in self.blocks:
            if isinstance(b, RingBlock):
                for a in range(b.a_start, b.count):
                    yield b.disc(a)
            else:
                for i in range(len(b)):
                    yield b.disc(i)

    def disc_arrays(self, limit: int = 2_000_000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (x, y, log_r) arrays; refuses above ``limit`` discs."""
        if self.disc_count > limit:
            raise ConfigurationTooLarge(
                f"{self.disc_count} discs exceed materialization limit {limit}"
            )
        xs, ys, lrs = [], [], []
        for b in self.blocks:
            if isinstance(b, RingBlock):
                bx, by = b.positions()
                xs.append(bx)
                ys.append(by)
                lrs.append(np.full(len(b), b.log_r))
            else:
                xs.append(b.x)
                ys.append(b.y)
                lrs.append(b.log_r)
        if not xs:
            return (np.empty(0), np.empty(0), np.empty(0))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(lrs)

    def materialized(self, limit: int = 2_000_000) -> "Configuration":
        """Equivalent configuration with a single explicit block."""
        x, y, lr = self.disc_arrays(limit)
        return Configuration(
            blocks=(DiscBlock(x, y, lr),) if len(x) else (),
            n_max=self.n_max,
            provenance=dict(self.provenance),
        )

    def generations_present(self) -> list[int]:
        gens: set[int] = set()
        for b in self.blocks:
            if isinstance(b, RingBlock):
                gens.add(b.n)
            elif len(b):
                gens.update(int(g) for g in unique_sorted(b.generations))
        return sorted(gens)

    def rotated(self, angle: float) -> "Configuration":
        """Rigid rotation; ring blocks fall back to explicit storage."""
        x, y, lr = self.disc_arrays()
        c, s = math.cos(angle), math.sin(angle)
        return Configuration(
            blocks=(DiscBlock(c * x - s * y, s * x + c * y, lr),) if len(x) else (),
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


def _block_offsets(config: Configuration) -> list[int]:
    offsets, total = [], 0
    for b in config.blocks:
        offsets.append(total)
        total += len(b)
    check_id_range(total)
    return offsets


def validate_configuration(c: Configuration) -> ValidationReport:
    """Report-style check of the invariants that span a configuration: ring
    labels, overlap and the origin.  The per-disc invariants (finite values,
    r < 1-|x|) are checked where the blocks are built."""
    violations: list[Violation] = []
    offsets = _block_offsets(c)
    # depth queries take the rows of generation <= D as a prefix of the rho
    # order, which needs every ring's label to match its circle
    rings = [(bi, b) for bi, b in enumerate(c.blocks) if isinstance(b, RingBlock)]
    ring_gens = generations_of([b.boundary_gap for _, b in rings]).tolist()
    for (bi, b), g in zip(rings, ring_gens):
        if g != b.n:
            violations.append(
                Violation(
                    "generation",
                    f"ring block {bi} is labelled n={b.n} but its circle lies in generation {g}",
                    (offsets[bi],),
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
    with the lowest-id disc it meets.
    """
    rings = index.rings
    if len(index.exp_ids):
        xs, ys, radii, ids = index.exp_x, index.exp_y, index.exp_rad, index.exp_ids
        # disc i can meet disc j only if its center comes within r_i of disc
        # j's boundary (up to rounding); the few discs that do are checked
        # exactly against every explicit disc
        _, near = index.explicit_neighbors(cutoff=radii + _CERT_SLACK, centers=False)
        for i in np.flatnonzero(near >= 0):
            hit = np.hypot(xs - xs[i], ys - ys[i]) <= radii + radii[i]
            hit[i] = False
            if hit.any():
                a, bb = int(ids[i]), int(ids[np.argmax(hit)])
                return (min(a, bb), max(a, bb))

        # explicit against rings: center distance to the nearest ring slot
        rho_pts, theta_pts = index.exp_polar
        for off, rb in rings:
            rr = rb.radius
            k = np.flatnonzero(np.abs(rho_pts - rb.rho) <= radii + rr)
            if not len(k):
                continue
            d, slot = _RingTable([(off, rb)]).distance(
                rho_pts[k], theta_pts[k], 0, with_ids=True, centers=True
            )
            hit = np.flatnonzero(d <= radii[k] + rr)
            if len(hit):
                a, bb = int(ids[k[hit[0]]]), int(slot[hit[0]])
                return (min(a, bb), max(a, bb))

    # rings: adjacent slots within one ring, then cross pairs
    for off, rb in rings:
        if len(rb) >= 2:
            gap = chord(rb.rho, rb.rho, rb.step)
            if gap <= 2.0 * rb.radius:
                return (off, off + 1)
    for i, j in _ring_pair_candidates(
        np.array([rb.rho for _, rb in rings]), np.array([rb.radius for _, rb in rings])
    ):
        off, rb = rings[i]
        off2, rb2 = rings[j]
        if ring_min_center_distance(rb, rb2) <= rb.radius + rb2.radius:
            return (off, off2)
    return None


def _ring_pair_candidates(rho: np.ndarray, rad: np.ndarray):
    """Pairs (i, j), i < j in row-major order, of rings whose radial gap
    |rho_i - rho_j| is at most rad_i + rad_j.

    Ring i's partners lie within rad_i + max(rad) of rho_i, so each ring
    searches a window of the rho-sorted rings: memory stays O(rings), and
    with the tiny radii this package generates almost every window holds
    the ring alone.
    """
    if len(rho) < 2:
        return
    order = np.argsort(rho, kind="stable")
    sorted_rho = rho[order]
    reach = rad + rad.max() + _CERT_SLACK
    lo = np.searchsorted(sorted_rho, rho - reach, side="left")
    hi = np.searchsorted(sorted_rho, rho + reach, side="right")
    for i in np.flatnonzero(hi - lo > 1).tolist():
        js = order[lo[i] : hi[i]]
        js = np.sort(js[(js > i) & (np.abs(rho[i] - rho[js]) <= rad[i] + rad[js])])
        for j in js.tolist():
            yield i, j


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
    """Every ring row of a configuration, sorted by circle radius rho (then
    generation), one row per :class:`RingBlock`, each a layer of
    :class:`_Layers` whose centres lie at the one radius rho.

    :meth:`distance` is the slot kernel: a point's distance to the discs of
    one row is the least over a few candidate slots around its angle.  A row
    is *plain* when every row of its generation keeps all its slots and
    shares its slot count; its candidates are the slots ``base`` and
    ``base + 1`` on either side of the point's angle, at unwrapped angles
    (``base - 1`` is a whole slot step farther than ``base``).  A row of any
    other generation takes those two slots reduced mod its count and
    clamped to its first active slot, plus its last slot.
    """

    def __init__(self, rings: Sequence[tuple[int, RingBlock]]):
        counts: dict[int, set[int]] = {}
        for _, rb in rings:
            counts.setdefault(rb.n, set()).add(rb.count if rb.a_start == 0 else -1)
        rows = sorted(rings, key=lambda row: (row[1].rho, row[1].n))
        table = np.array(
            [(rb.rho, rb.radius, rb.step, rb.count, rb.a_start) for _, rb in rows], dtype=np.float64
        ).reshape(-1, 5)
        self.rho, self.rad, self.step, self.count, self.a_start = table.T.copy()
        self.plain = np.array([counts[rb.n] == {rb.count} for _, rb in rows], dtype=bool)
        self.any_prefix = not self.plain.all()
        # the canonical id that slot 0 of the row would have
        self.first = np.array([off - rb.a_start for off, rb in rows], dtype=np.int64)
        super().__init__(self.rho, self.rho, self.rad, np.array([rb.n for _, rb in rows], dtype=np.int64))

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
        offsets = _block_offsets(config)
        explicit = [
            (off, b) for off, b in zip(offsets, config.blocks) if isinstance(b, DiscBlock) and len(b)
        ]
        self.rings: list[tuple[int, RingBlock]] = [
            (off, b) for off, b in zip(offsets, config.blocks) if isinstance(b, RingBlock)
        ]
        # the tables a query searches in turn, each from the minima of the
        # one before, with the number of per-point arrays each reads: ring
        # rows, then explicit bands.  An empty configuration keeps its empty
        # ring table
        self._tables = [(_RingTable(self.rings), 2)] if self.rings or not explicit else []
        # the explicit discs in canonical order, with their radii and ids,
        # and in the band table
        self._discs = None
        self.exp_x = self.exp_y = self.exp_log_r = self.exp_rad = np.empty(0)
        self.exp_ids = np.empty(0, dtype=np.int64)
        if explicit:
            # a single block's read-only arrays serve as they are
            join = np.concatenate if len(explicit) > 1 else lambda parts: parts[0]
            self.exp_x = join([b.x for _, b in explicit])
            self.exp_y = join([b.y for _, b in explicit])
            self.exp_log_r = join([b.log_r for _, b in explicit])
            with np.errstate(under="ignore"):
                self.exp_rad = np.exp(self.exp_log_r)
            self.exp_ids = np.concatenate(
                [off + np.arange(len(b), dtype=np.int64) for off, b in explicit]
            )
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


# the explicit-disc columns of a configuration document
_DISC_COLUMNS = ("x", "y", "log_r")


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
    explicit = [b for b in c.blocks if isinstance(b, DiscBlock) and len(b)]
    discs: dict | list = []
    if explicit:
        discs = {
            name: np.concatenate([getattr(b, name) for b in explicit]).tolist()
            for name in _DISC_COLUMNS
        }
    rings = [
        {
            "n": b.n,
            "rho": float(b.rho),
            "log_r": float(b.log_r),
            "count": b.count,
            "a_start": b.a_start,
        }
        for b in c.blocks
        if isinstance(b, RingBlock)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "discs": discs,
        "rings": rings,
        "n_max": c.n_max,
        "provenance": dict(c.provenance),
    }


def _disc_column(name: str, values) -> np.ndarray:
    """One explicit-disc column as float64; ValueError, a format error, for
    anything but a flat list of numbers."""
    a = np.array(values)
    if a.ndim != 1 or a.dtype.kind not in "fi":
        raise ValueError(f"disc column {name!r} is not a list of numbers")
    return a.astype(np.float64, copy=False)


def document_to_config(doc: Mapping) -> Configuration:
    """The configuration of a document in either layout of its explicit
    discs (see :func:`config_to_document`).  In the record layout a disc
    without ``log_r`` takes the log of its ``r``."""
    blocks: list[Block] = []
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
        x, y, lr = (_disc_column(name, col) for name, col in zip(_DISC_COLUMNS, columns))
        if not len(x) == len(y) == len(lr):
            raise ValueError(
                f"disc columns differ in length: x {len(x)}, y {len(y)}, log_r {len(lr)}"
            )
        if len(x):
            blocks.append(DiscBlock(x, y, lr))
    for r in doc.get("rings", []):
        blocks.append(
            RingBlock(
                n=int(r["n"]),
                rho=float(r["rho"]),
                log_r=float(r["log_r"]),
                count=int(r["count"]),
                a_start=int(r.get("a_start", 0)),
            )
        )
    return Configuration(
        blocks=tuple(blocks),
        n_max=int(doc.get("n_max", 0)),
        provenance=dict(doc.get("provenance", {})),
    )


def dumps_config(c: Configuration) -> str:
    """Canonical (byte-stable) JSON text for a configuration."""
    return json.dumps(config_to_document(c), sort_keys=True, separators=(",", ":"))


def loads_config(text: str) -> Configuration:
    return document_to_config(json.loads(text))
