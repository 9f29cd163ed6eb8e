"""Logarithmic capacity, the truncated-kernel capacity C2, and the
cell-by-cell capacity series with its quasiadditivity diagnostics.

Logarithmic capacity of a compact set is exp(-V) where V is the minimal
logarithmic energy of a probability measure on the set (the Robin
constant).  Three evaluation paths share that definition:

* ``exact_disc``: a closed disc of radius r has capacity exactly r.
* ``energy_minimization``: discretize the boundary into weighted arc
  nodes and minimize the quadratic energy over the probability simplex by
  one bordered linear solve (see :func:`minimize_simplex_energy`).  The
  node self-energy is that of a uniform measure on its arc,
  log(1/len) + 3/2.
* ``disc_system``: for unions of disjoint discs, a measure that is uniform
  on each circle has exactly the energy of point charges at the centers
  with self-energies log(1/r_k); minimizing over the charge weights is the
  same simplex program with an analytic kernel.  Self-energies that dwarf
  the couplings (the radii here are routinely exp(-10^6) or smaller) need
  no special case: the same bordered solve covers them.  A disc cut to a
  cell (``clipped_disc``) enters with its piece's self-energy.

The C2 capacity uses the truncated kernel log+(2/|x-y|): the mass that
pushes the equilibrium potential to 1 on the set.  On a set of diameter
below 2, scaled by ``scale``, that kernel is the log kernel of the unscaled
set plus the constant s = log 2 - log scale.  Every energy of a probability
measure moves by exactly s and the equilibrium measure does not change, so
C2 = 1/(s - log cap) (T. Ransford, Potential Theory in the Complex Plane,
1995, ch. 5).  :meth:`CapacityConstants.cell_scale` maps every cell below
diameter 1, so each C2 of a scaled cell set is read off the set's log
capacity and none is solved.  :func:`c2_disc_system` minimizes the
truncated-kernel energy itself and is the reference for that identity.

The cell capacity series reads its rows as columns (:class:`CellRows`):
row k holds the cells (n, m), m_lo <= m < m_hi, of one obstacle set.  Cell
m of a ring generation of rows of sector_count(n) * p slots holds slots
[m p, (m + 1) p) of every row.  Each run of cells that keep all their slots
and that no explicit disc reaches is one row on the generation's cluster,
solved once.  Which other cells a disc meets, and in what piece, follows
one rule, in the disc's own frame u = (z - c)/r: the offsets of the cell's
edges from the centre, in units of r and formed from log r, so that a
centre on an edge is at offset 0 at any radius.  An edge may miss the
disc; inside every edge the piece is the whole disc; one cutting edge
leaves a circular digon in closed form (a half disc is 4r/(3 sqrt 3),
Ransford, Table 5.1); more are discretised in that frame.  A disc whole in
the cell of its centre meets no other; the rest are cut to the cells near
them in one call, each piece once.  A cell of one piece has its log
capacity; any other is one disc-system call on its pieces.

A cluster solve needs the mutual potential of -log d at every one of its
p^2 nodes, which a direct sum gets from p^3 kernel values.  The rows are
equally spaced in radius, h apart, so with k = i - i' and
S = sin^2(delta * dtheta / 2) the squared distance between node (i, j) and
node (i', j + delta) is h^2 k^2 (1 - S) + 4 rhobar^2 S, where rhobar is the
mean radius of the two rows.  Only rhobar ties the kernel to the rows
themselves, and it varies by a small fraction of the cell.
:func:`_cluster_mutual` therefore fits -log d by a polynomial of degree T in
nu = (rhobar - rho_c) / H, the mean row position mapped onto [-1, 1],
interpolating at T + 1 nodes; expands nu^m = ((nu_i + nu_i') / 2)^m
binomially; and is left with, for every column and power, a sum over rows
i' that is a symmetric Toeplitz product in k, done by FFT.  That costs
O(T p^2) logarithms, O(T p^2 log p) for the FFTs and O(T^2 p^2) for their
products, with memory O(p^2) for the result.

T is read off the Chebyshev tail.  In nu, every kernel row is
-log rhobar, or -log of the product of two conjugate linear factors, plus
a constant, so its Chebyshev coefficients are at most 2 / (j b^j) with
b = r + sqrt(r^2 - 1) and r = rho_c / H (for a generation-n grid r is
about 2^(n+2)).  T is the least degree whose doubled tail bound, which
covers interpolation, is below 2^-52, capped at 10; only generation-1
clusters of seven rows or more (beta of 5.6 or more) reach the cap, with
a bound below 5e-12.  rhobar takes only 2R - 1 values for R rows, and when
that is no more than T + 1 they are the nodes and the fit is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ChampagneError
from .criteria import (
    BoundaryPoint,
    SeriesReport,
    equally_spaced_inverse_square_sum,
    separation,
)
from .geometry import (
    Configuration,
    Point,
    RingRows,
    TWO_PI,
    WhitneyCell,
    WhitneyIndex,
    candidate_cells,
    center_cells,
    chord,
    index_ranges,
    radius_from_log,
    sector_count,
    spatial_index,
    unique_sorted,
)

LOG2 = math.log(2.0)


class CapacityError(ChampagneError):
    """Invalid capacity query or estimator precondition failure."""


# ---------------------------------------------------------------------------
# constants shared by the capacity estimates


@dataclass(frozen=True)
class CapacityConstants:
    """Comparability constants used by thresholds and scalings.

    ``cell_comparability`` bounds both (1-|x_k|)/2^{-n} and the ratio of
    boundary distances taken from a cell reference point versus a disc
    center in that cell; the conservative default is 4/(1 - ratio_sup).
    ``c2_bracket`` is the two-sided constant in the small-disc C2 estimate
    c2_bracket^{-1}/log(1/r) <= C2(B(x,r)) <= c2_bracket/log(1/r).
    """

    cell_comparability: float = 4.0
    c2_bracket: float = 4.0

    def __post_init__(self) -> None:
        if self.cell_comparability < 1.0 or self.c2_bracket < 1.0:
            raise CapacityError("comparability constants must be >= 1")

    @classmethod
    def for_configuration(cls, c: Configuration, c2_bracket: float = 4.0) -> "CapacityConstants":
        ratio = min(c.ratio_sup, 1.0 - 1e-12)
        return cls(cell_comparability=4.0 / (1.0 - ratio), c2_bracket=c2_bracket)

    @property
    def separation_floor(self) -> float:
        """Pair threshold 8*sqrt(pi)*c2_bracket*cell_comparability^2 above
        which the scaled per-cell clusters satisfy the quasiadditivity
        hypothesis."""
        return 8.0 * math.sqrt(math.pi) * self.c2_bracket * self.cell_comparability**2

    def cell_scale(self, n: int) -> float:
        """Scale factor 2^n / (4*pi*cell_comparability*c2_bracket) that maps
        a generation-n cell to diameter strictly below 1."""
        return 2.0**n / (4.0 * math.pi * self.cell_comparability * self.c2_bracket)


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class DiscShape:
    center: Point
    log_r: float


@dataclass(frozen=True)
class SegmentShape:
    a: Point
    b: Point

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)


@dataclass(frozen=True)
class ClippedDiscShape:
    disc: DiscShape
    cell: WhitneyCell


@dataclass(frozen=True)
class UnionShape:
    parts: tuple


Shape = DiscShape | SegmentShape | ClippedDiscShape | UnionShape


@dataclass(frozen=True)
class CapacityEstimate:
    """log_value is log of the capacity (always finite for nonpolar sets);
    value is its exponential and may underflow to 0.0."""

    log_value: float | None
    method: str
    polar: bool = False

    @property
    def value(self) -> float:
        if self.polar or self.log_value is None:
            raise CapacityError("polar set has no numeric capacity")
        return radius_from_log(self.log_value)


POLAR = CapacityEstimate(log_value=None, method="polar", polar=True)

# descriptors degenerate below this diameter count as polar (single points);
# discs with an analytic log-radius are never polar however small
POLAR_DIAMETER = 1e-30


@dataclass(frozen=True)
class C2Estimate:
    value: float
    lower: float
    upper: float


# ---------------------------------------------------------------------------
# simplex energy minimization


@dataclass(frozen=True)
class EnergySolution:
    weights: np.ndarray
    energy: float
    gap: float


def minimize_simplex_energy(kernel: np.ndarray) -> EnergySolution:
    """Minimize mu^T K mu over the probability simplex.

    On its support the minimizer solves K mu = lam, sum mu = 1, where lam
    is the minimal energy, so one solve of the bordered system
    [[K, -1], [1^T, 0]] finds it.  The system is nonsingular when K is
    positive definite on zero-sum directions: the log kernel is, and so is
    the truncated kernel on sets of diameter below 1, where it equals the
    log kernel plus log 2.  Nodes that come out with negative weight leave
    the support and the solve repeats; a dropped node whose potential falls
    below lam comes back.  The Frank-Wolfe gap mu^T g - min_i g_i of the
    gradient g = 2 K mu bounds the suboptimality and is recorded.
    """
    n = len(kernel)
    if n == 0:
        raise CapacityError("empty kernel")
    support = np.ones(n, dtype=bool)
    for _ in range(2 * n):
        idx = np.flatnonzero(support)
        k = len(idx)
        bordered = np.block(
            [[kernel[np.ix_(idx, idx)], -np.ones((k, 1))], [np.ones((1, k)), 0.0]]
        )
        try:
            sol = np.linalg.solve(bordered, np.r_[np.zeros(k), 1.0])
        except np.linalg.LinAlgError as exc:
            raise CapacityError(f"singular energy kernel: {exc}") from exc
        w, lam = sol[:k], sol[k]
        if np.any(w < 0.0):
            support[idx[w < 0.0]] = False
            continue
        mu = np.zeros(n)
        mu[idx] = w
        potential = kernel @ mu
        enter = ~support & (potential < lam)
        if not enter.any():
            break
        support |= enter
    else:
        raise CapacityError("simplex energy support did not settle")
    grad = 2.0 * potential
    return EnergySolution(mu, float(mu @ potential), float(mu @ grad - grad.min()))


# ---------------------------------------------------------------------------
# boundary discretization


def _segment_nodes(a: Point, b: Point, n: int) -> tuple[np.ndarray, np.ndarray]:
    t = (np.arange(n) + 0.5) / n
    pts = np.column_stack([a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t])
    ell = np.full(n, math.hypot(b.x - a.x, b.y - a.y) / n)
    return pts, ell


def _circle_nodes(center: Point, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    th = (np.arange(n) + 0.5) * TWO_PI / n
    pts = np.column_stack([center.x + r * np.cos(th), center.y + r * np.sin(th)])
    ell = np.full(n, TWO_PI * r / n)
    return pts, ell


# ---------------------------------------------------------------------------
# a disc cut to a cell, in the disc's own frame


def _over_r(d, log_r):
    """d / exp(log_r) formed from log_r: exactly 0 where d is 0, at any
    radius, and +-inf where it overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.copysign(np.exp(np.log(np.abs(d)) - log_r), d)


def _bounds(r_inner, r_outer, theta_lo, theta_hi) -> np.ndarray:
    """Cells as rows, one per (disc, cell) pair: the radii of the inner and
    outer arcs, then the unit vectors along the lower and upper radial
    edges, at their angles mod 2 pi, so that a centre on the positive axis
    lies on both, each by math.cos and math.sin once per distinct angle."""
    angles, at = np.unique(np.fmod(np.concatenate([theta_lo, theta_hi]), TWO_PI), return_inverse=True)
    unit = np.array([(math.cos(a), math.sin(a)) for a in angles.tolist()]).reshape(-1, 2)[at.reshape(-1)]
    return np.column_stack([r_inner, r_outer, unit[: len(theta_lo)], unit[len(theta_lo) :]])


def _cell_bounds(cells: Sequence[WhitneyCell]) -> np.ndarray:
    return _bounds(*np.array([(c.r_inner, c.r_outer, c.theta_lo, c.theta_hi) for c in cells]).reshape(-1, 4).T)


def _index_bounds(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The cells (n, m), as ``geometry.whitney_cell`` bounds them."""
    step = TWO_PI / np.ldexp(1.0, n + 4)
    return _bounds(1.0 - np.ldexp(1.0, -n), 1.0 - np.ldexp(1.0, -n - 1), m * step, (m + 1) * step)


def _cell_frame(x, y, log_r, cells: np.ndarray):
    """(t, lam), each (k, 4): the inner arc, outer arc and lower and upper
    radial edges of each cell (a row of :func:`_bounds`) seen from its disc
    (x, y, exp(log_r)) in its own frame u = (z - c)/r, where c + r u lies in
    the cell when n.u + lam (|u|^2 - 1)/2 <= t for every edge of outward
    normal n.  On the unit circle each edge is the line n.u = t, so t <= -1
    misses the disc and t >= 1 keeps all of it.  An arc |z| = R has
    n = -+c/rho, t = +-((rho^2 - R^2)/(2 rho r) + r/(2 rho)) and lam = -+r/rho,
    whose r terms vanish for an underflowed r: the straight edge."""
    rho = np.hypot(x, y)
    with np.errstate(under="ignore"):
        lam = np.exp(log_r - np.log(rho))
    r_inner, r_outer, c_lo, s_lo, c_hi, s_hi = cells.T
    gap = [(R - rho) * (R + rho) / (2.0 * rho) for R in (r_inner, r_outer)]
    t = [_over_r(-gap[0], log_r) + 0.5 * lam, _over_r(gap[1], log_r) - 0.5 * lam]
    t += [_over_r(c_lo * y - s_lo * x, log_r), _over_r(s_hi * x - c_hi * y, log_r)]
    zero = np.zeros_like(lam)
    return np.stack(t, axis=-1), np.stack([-lam, lam, zero, zero], axis=-1)


def _digon(t, lam):
    """log(cap/r) of the unit disc cut by one edge (t, lam) of
    :func:`_cell_frame`, |t| < 1: a circular digon with vertices
    v = t n +- h n', h = sqrt(1 - t^2), whose edge crosses the axis sag past
    t.  zeta = (z - v1)/(z - v2) maps it to a wedge of opening
    alpha pi = 2 (a2 - a1), a1 = atan2(h, 1 + t), a2 = atan2(h, -sag), and
    infinity to 1, at the angle beta = a1 + a2 - pi from the bisector of the
    exterior wedge: cap = (|v1 - v2|/2) / ((2 - alpha) cos(beta/(2 - alpha))).
    The half disc, t = lam = 0, is 4/(3 sqrt 3)."""
    h = np.sqrt((1.0 - t) * (1.0 + t))
    p = 1.0 + lam * t
    sag = lam * h * h / (p + np.sqrt(p * p + (lam * h) ** 2))
    a1, a2 = np.arctan2(h, 1.0 + t), np.arctan2(h, -sag)
    rest = 2.0 - 2.0 * (a2 - a1) / math.pi
    return np.log(h / (rest * np.cos((a1 + a2 - math.pi) / rest)))


def _piece_log_capacity(x, y, log_r, cells: np.ndarray, n_boundary: int = 512, index=None) -> np.ndarray:
    """Log capacity of each disc (x, y, exp(log_r)) cut to its cell of
    ``cells``: -inf where it misses the cell, log_r where it lies inside,
    and otherwise log_r plus the closed-form :func:`_digon` where one edge
    cuts it, or the log capacity of its own-frame nodes (:func:`_piece_nodes`)
    where more do.  A piece whose nodes fail is refused naming its cell
    (index[0][k], index[1][k]) when ``index`` is given."""
    t, lam = _cell_frame(x, y, log_r, cells)
    cut = np.abs(t) < 1.0
    log_c = np.where((t <= -1.0).any(axis=1), -np.inf, log_r)
    count = np.where(log_c > -np.inf, cut.sum(axis=1), 0)
    one = count == 1
    log_c[one] += _digon(t[one][cut[one]], lam[one][cut[one]])
    for k in np.flatnonzero(count > 1).tolist():
        try:
            u, ell = _piece_nodes(x[k], y[k], log_r[k], cells[k], n_boundary)
            log_c[k] = log_c[k] - minimize_simplex_energy(_log_kernel(u, ell)).energy if len(u) > 1 else -np.inf
        except CapacityError as exc:
            if index is None:
                raise
            raise CapacityError(f"capacity failed at cell (n={index[0][k]}, m={index[1][k]}): {exc}") from exc
    return log_c


def _piece_nodes(x: float, y: float, log_r: float, cell: np.ndarray, n: int):
    """About n boundary nodes (u, ell) of the disc (x, y, exp(log_r)) cut to
    the cell ``cell``, a row of :func:`_bounds`, in its own frame
    (:func:`_cell_frame`): on the arcs of the unit circle inside every edge,
    and on each cutting edge inside the unit circle, at one node density.
    An edge is u = a n + s n', n' = n turned by +90 degrees, with
    a = 2C/(1 + sqrt(1 + 2 lam C)) and C = t + lam (1 - s^2)/2.  Each arc or
    edge has a corner at both ends, where the equilibrium density is
    singular, so its nodes are graded towards them as 1 - cos.  A disc
    inside the cell has n circle nodes, one that misses it none."""
    rho = math.hypot(x, y)
    if log_r >= math.log(rho):
        raise CapacityError("a disc clipped to a cell must not cover the origin")
    t, lam = (a[0] for a in _cell_frame(np.array([x]), np.array([y]), np.array([log_r]), cell))
    cut = np.abs(t) < 1.0
    if (t <= -1.0).any():
        return np.empty((0, 2)), np.empty(0)
    if not cut.any():
        return _circle_nodes(Point(0.0, 0.0), 1.0, n)
    c_hat, e = np.array([x, y]) / rho, cell[2:].reshape(2, 2)
    normal = np.array([-c_hat, c_hat, [e[0][1], -e[0][0]], [-e[1][1], e[1][0]]])
    # the span of s in the cell: along a radial edge, its distance from the
    # centre's foot between the arcs; along an arc, (R/r) sin d at the angle
    # d from the centre, (R/rho) t at a radial edge (infinite past 90 degrees)
    s = [[float(_over_r(R - x * v[0] - y * v[1], log_r)) for R in cell[:2]] for v in e]
    far = [t[2 + j] if c_hat @ e[j] > 0.0 else math.copysign(math.inf, t[2 + j]) for j in (0, 1)]
    rin, rout = cell[:2] / rho
    span = [(-rin * far[1], rin * far[0]), (-rout * far[0], rout * far[1]), s[0], (-s[1][1], -s[1][0])]
    parts = []  # (start, end, points at parameter values)
    nu, half = np.arctan2(normal[cut, 1], normal[cut, 0]), np.arccos(t[cut])
    ends = np.sort(np.mod(np.concatenate([nu - half, nu + half]), TWO_PI)).tolist()
    for a, b in zip(ends, ends[1:] + [ends[0] + TWO_PI]):
        mid = np.array([math.cos(0.5 * (a + b)), math.sin(0.5 * (a + b))])
        if b > a and (normal[cut] @ mid <= t[cut]).all():
            parts.append((a, b, lambda p: np.column_stack([np.cos(p), np.sin(p)])))
    for k in np.flatnonzero(cut).tolist():
        h = math.sqrt((1.0 - t[k]) * (1.0 + t[k]))
        a, b = max(span[k][0], -h), min(span[k][1], h)
        if b > a:
            def place(p, k=k):
                c = t[k] + 0.5 * lam[k] * (1.0 - p * p)
                a = 2.0 * c / (1.0 + np.sqrt(1.0 + 2.0 * lam[k] * c))
                return np.outer(a, normal[k]) + np.outer(p, [-normal[k][1], normal[k][0]])
            parts.append((a, b, place))
    if not parts:
        return np.empty((0, 2)), np.empty(0)
    total = sum(b - a for a, b, _ in parts)
    nodes = []
    for a, b, place in parts:
        count = max(1, round(n * (b - a) / total))
        p = a + 0.5 * (b - a) * (1.0 - np.cos(np.pi * np.arange(count + 1) / count))
        nodes.append((place(0.5 * (p[1:] + p[:-1])), np.hypot(*np.diff(place(p), axis=0).T)))
    return np.vstack([u for u, _ in nodes]), np.concatenate([ell for _, ell in nodes])


# ---------------------------------------------------------------------------
# log capacity


def _flatten_parts(shape: Shape) -> list[Shape]:
    if isinstance(shape, UnionShape):
        out: list[Shape] = []
        for p in shape.parts:
            out.extend(_flatten_parts(p))
        return out
    return [shape]


def log_capacity(shape: Shape, n_boundary: int = 512) -> CapacityEstimate:
    """Logarithmic capacity estimate of a compact shape.

    A disc is exact, and a disc clipped to a cell is its piece there
    (:func:`_piece_log_capacity`).  Disjoint discs and pieces enter the
    disc-system kernel, each with its own log capacity; segments, and discs
    that meet, are discretized and minimized jointly.
    """
    parts = _flatten_parts(shape)
    clipped = [p for p in parts if isinstance(p, ClippedDiscShape)]
    x, y, log_r = np.array([(p.disc.center.x, p.disc.center.y, p.disc.log_r) for p in clipped]).reshape(-1, 3).T
    pieces = iter(_piece_log_capacity(x, y, log_r, _cell_bounds([p.cell for p in clipped]), n_boundary).tolist())
    log_c = [p.log_r if isinstance(p, DiscShape) else math.nan for p in parts]
    log_c = [next(pieces) if isinstance(p, ClippedDiscShape) else c for p, c in zip(parts, log_c)]
    parts, log_c = [p for p, c in zip(parts, log_c) if c != -math.inf], [c for c in log_c if c != -math.inf]
    if not parts:
        return POLAR
    if len(parts) == 1 and isinstance(parts[0], SegmentShape):
        if parts[0].length < POLAR_DIAMETER:
            return POLAR
    if not any(isinstance(p, SegmentShape) for p in parts):
        discs = [p if isinstance(p, DiscShape) else p.disc for p in parts]
        if len(discs) == 1:
            return CapacityEstimate(log_c[0], "exact_disc" if log_c[0] == discs[0].log_r else "clipped_disc")
        x, y, log_r = (np.array(a) for a in zip(*((d.center.x, d.center.y, d.log_r) for d in discs)))
        est = _disc_system_capacity(x, y, log_r, np.array(log_c))
        if est is not None:
            return est

    pts, ell = _boundary_nodes(parts, n_boundary)
    if len(pts) == 0:
        return POLAR
    if len(pts) == 1:
        return POLAR if ell[0] < POLAR_DIAMETER else CapacityEstimate(
            log_value=math.log(ell[0] / 4.0), method="energy_minimization"
        )
    sol = minimize_simplex_energy(_log_kernel(pts, ell))
    return CapacityEstimate(log_value=-sol.energy, method="energy_minimization")


def _boundary_nodes(parts: Sequence[Shape], n_boundary: int):
    """Weighted boundary nodes of a union whose parts meet: points interior
    to another part are dropped (they cannot carry equilibrium mass) and
    exact duplicates from shared edges collapse to one node.  A clipped
    disc's nodes are c + r u, its own-frame nodes (:func:`_piece_nodes`)."""
    per = max(24, n_boundary // max(len(parts), 1))
    pts_list, ell_list, owner_list = [], [], []
    disc_info: list[tuple[int, float, float, float]] = []
    for pi, p in enumerate(parts):
        if isinstance(p, SegmentShape):
            pts, ell = _segment_nodes(p.a, p.b, per)
        elif isinstance(p, (DiscShape, ClippedDiscShape)):
            d = p if isinstance(p, DiscShape) else p.disc
            r = radius_from_log(d.log_r)
            if r <= 0.0:
                raise CapacityError(
                    "disc too small to discretize; use a pure disc union"
                )
            if isinstance(p, DiscShape):
                pts, ell = _circle_nodes(d.center, r, per)
            else:
                u, ell = _piece_nodes(d.center.x, d.center.y, d.log_r, _cell_bounds([p.cell])[0], per)
                pts, ell = np.array([d.center.x, d.center.y]) + r * u, r * ell
            disc_info.append((pi, d.center.x, d.center.y, r))
        else:
            raise CapacityError(f"unsupported shape {type(p).__name__}")
        if len(pts):
            pts_list.append(pts)
            ell_list.append(ell)
            owner_list.append(np.full(len(pts), pi))
    if not pts_list:
        return np.empty((0, 2)), np.empty(0)
    pts = np.vstack(pts_list)
    ell = np.concatenate(ell_list)
    owner = np.concatenate(owner_list)
    keep = np.ones(len(pts), dtype=bool)
    for pi, cx, cy, r in disc_info:
        inside = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < r * (1.0 - 1e-12)
        keep &= ~(inside & (owner != pi))
    pts, ell = pts[keep], ell[keep]
    # the first of each run of equal points, in the stable (x, y) order;
    # a sort, not np.unique, whose first call imports numpy.ma
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    ranked = pts[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.sort(order[first])
    return pts[first], ell[first]


def _log_kernel(pts: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Log kernel between arc nodes.  Two nodes closer than a quarter of
    their summed arc lengths (where the boundaries of two parts cross)
    count as that far apart: the point value -log d would exceed their
    self-energies and leave the kernel indefinite on zero-sum directions.
    Neighbors along one arc are never that close."""
    d = np.hypot(pts[:, 0:1] - pts[None, :, 0], pts[:, 1:2] - pts[None, :, 1])
    d = np.maximum(d, 0.25 * (ell[:, None] + ell[None, :]))
    np.fill_diagonal(d, 1.0)
    kernel = -np.log(d)
    np.fill_diagonal(kernel, -np.log(ell) + 1.5)
    return kernel


def _disc_system_capacity(
    x: np.ndarray, y: np.ndarray, log_r: np.ndarray, log_c: np.ndarray | None = None
) -> CapacityEstimate | None:
    """Union of the discs (x, y, exp(log_r)), each cut to a piece of log
    capacity ``log_c`` (the whole disc by default), via center charges with
    self-energies -log_c, or None when two closed discs meet: only disjoint
    discs make those charges the energy of a measure on the union, exactly
    for whole discs and up to O(r/d) in the couplings for pieces.  One piece
    is exact."""
    log_c = log_r if log_c is None else log_c
    if len(log_c) == 1:
        return CapacityEstimate(log_value=float(log_c[0]), method="exact_disc")
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    with np.errstate(under="ignore"):
        r = np.exp(log_r)
    apart = d > r[:, None] + r[None, :]
    np.fill_diagonal(apart, True)
    if not apart.all():
        return None
    np.fill_diagonal(d, 1.0)
    kernel = -np.log(d)
    np.fill_diagonal(kernel, -log_c)
    sol = minimize_simplex_energy(kernel)
    return CapacityEstimate(log_value=-sol.energy, method="disc_system")


# ---------------------------------------------------------------------------
# truncated-kernel capacity C2


def c2_disc(r: float, constants: CapacityConstants = CapacityConstants()) -> C2Estimate:
    """Closed-form small-disc C2 value with its two-sided log bracket.

    value = {(1/r^2) * int_0^r t log(2/t) dt}^{-1} = 1/(log(2/r)/2 + 1/4).
    """
    if not (0.0 < r <= 0.5):
        raise CapacityError("c2_disc needs r in (0, 1/2]")
    value = 1.0 / (0.5 * math.log(2.0 / r) + 0.25)
    log_inv = math.log(1.0 / r)
    return C2Estimate(
        value=value,
        lower=1.0 / (constants.c2_bracket * log_inv),
        upper=constants.c2_bracket / log_inv,
    )


def _truncated_kernel(d: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.maximum(LOG2 - np.log(d), 0.0)


def c2_disc_system(
    x: np.ndarray, y: np.ndarray, log_r: np.ndarray
) -> tuple[float, float]:
    """(C2 estimate, potential minimum) for a union of disjoint small discs.

    Minimizes the truncated-kernel energy over per-disc charges and
    normalizes by the sampled minimum potential, so the returned mass
    pushes the potential to 1 everywhere on the union.
    """
    n = len(x)
    if n == 0:
        raise CapacityError("empty disc system")
    diag = LOG2 - log_r
    if n == 1:
        return 1.0 / float(diag[0]), float(diag[0])
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(d, 1.0)
    kernel = _truncated_kernel(d)
    np.fill_diagonal(kernel, diag)
    sol = minimize_simplex_energy(kernel)
    potential = kernel @ sol.weights
    u_min = float(potential.min())
    if u_min <= 0.0:
        raise CapacityError("degenerate truncated-kernel potential")
    return 1.0 / u_min, u_min


# ---------------------------------------------------------------------------
# per-generation clusters of grid configurations


@dataclass(frozen=True)
class GenerationCluster:
    """The congruent disc cluster that one generation places in each cell."""

    n: int
    rhos: np.ndarray        # radial row positions, one per row
    log_rs: np.ndarray      # per-row log radii
    columns: int            # columns per cell (= rows for square grids)
    delta_theta: float      # angular spacing between columns


def generation_clusters(c: Configuration) -> dict[int, GenerationCluster]:
    """The cluster that each ring generation of ``c`` places in its full
    cells, whatever prefix its rows drop; explicit discs are skipped.

    Generation n needs rows of sector_count(n) * p slots, at most p of them.
    p rows must be equally spaced; fewer, whose first rows were dropped
    whole, leave no full cell and no cluster.
    """
    out: dict[int, GenerationCluster] = {}
    rows = c.rings
    for n, k in rows.generation_rows:
        count = int(rows.count[k[0]])
        p = count // sector_count(n)
        if len(k) > p or np.any(rows.count[k] != sector_count(n) * p):
            raise CapacityError(
                f"generation clusters need at most p rows of p * {sector_count(n)}"
                f" slots at generation {n}"
            )
        if len(k) < p:
            continue
        k = k[np.argsort(rows.rho[k], kind="stable")]
        rhos = rows.rho[k]
        if np.abs(rhos - np.linspace(rhos[0], rhos[-1], p)).max() > _ROW_SPACING_TOL:
            raise CapacityError(
                f"generation clusters need equally spaced rows at generation {n}"
            )
        out[n] = GenerationCluster(
            n=n,
            rhos=rhos,
            log_rs=rows.log_r[k],
            columns=p,
            delta_theta=TWO_PI / count,
        )
    return out


# rows may sit off their equally spaced positions by rounding alone
_ROW_SPACING_TOL = 1e-14
# the largest degree of the radial fit in _cluster_mutual
_MAX_DEGREE = 10
# column offsets per FFT batch, which bounds the batch's memory
_COLUMN_CHUNK = 32


def _radial_nodes(rows: int, ratio: float) -> np.ndarray:
    """Interpolation nodes in nu for the radial fit of a cluster of ``rows``
    rows spanning rho_c +- H, with ratio = rho_c / H (see the module
    docstring): the 2 rows - 1 values nu takes when that many suffice,
    otherwise the Chebyshev points of the least degree T <= 10 whose doubled
    tail bound 4 b^-(T+1) / ((T+1)(1 - 1/b)) is below 2^-52."""
    degree = 0
    if rows > 1:
        b = ratio + math.sqrt(ratio * ratio - 1.0)
        while degree < _MAX_DEGREE and (
            4.0 * b ** -(degree + 1) / ((degree + 1) * (1.0 - 1.0 / b)) > 2.0**-52
        ):
            degree += 1
    if 2 * rows - 1 <= degree + 1:
        return np.linspace(-1.0, 1.0, 2 * rows - 1)
    return np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))


def _fft_length(n: int) -> int:
    """Least 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            m = f35
            while m < n:
                m *= 2
            best = min(best, m)
            f35 *= 3
        f5 *= 5
    return best


@functools.cache
def _cheb_to_mono(size: int) -> np.ndarray:
    """The size x size matrix whose column j holds the monomial coefficients
    of the Chebyshev polynomial T_j, built once per fit size, read-only."""
    to_mono = np.zeros((size, size))
    for j in range(size):
        to_mono[: j + 1, j] = np.polynomial.chebyshev.cheb2poly(np.eye(j + 1)[j])
    to_mono.setflags(write=False)
    return to_mono


def _cluster_mutual(cluster: GenerationCluster, w: np.ndarray) -> np.ndarray:
    """Per-node mutual potential mut[i, j0] = sum over the other nodes
    (i', j') of w[i'] * (-log distance), for row weights ``w``.

    With the radial fit of the module docstring,
    -log d = sum_m a_m(k, delta) nu^m, where nu = (nu_i + nu_i') / 2 and the
    node itself has a_m = 0.  Summing over the offsets up to delta gives
    cumulative coefficients A_m(k, delta), computed at the fit nodes and
    carried from one batch of offsets to the next.  Writing
    nu^m = 2^-m sum_s C(m, s) nu_i^s nu_i'^(m-s), the row sum for offset
    delta is part[i, delta] = sum_s nu_i^s sum_m 2^-m C(m, s)
    (T_m (w nu^(m-s)))[i], where T_m is the symmetric Toeplitz matrix of
    A_m(., delta) over k = i - i'.  The products run in Fourier space, one
    inverse FFT per power s.  The offsets j' - j0 of base column j0 sweep
    [-j0, p-1-j0] and the kernel is even in the offset, so
    mut[:, j0] = part[:, j0] + part[:, p-1-j0] - part[:, 0].  The node values
    become Chebyshev coefficients before monomial ones, so that rounding
    enters as a small change of the fitted function rather than through the
    ill-conditioned monomial Vandermonde matrix.  Memory is the output plus
    one batch: O(p^2 + T L batch) for FFT length L >= 2 rows - 1.
    """
    rhos, p = cluster.rhos, cluster.columns
    rows = len(rhos)
    centre, half = 0.5 * (rhos[-1] + rhos[0]), 0.5 * (rhos[-1] - rhos[0])
    x = _radial_nodes(rows, centre / half if rows > 1 else math.inf)
    size = len(x)
    sin2 = np.sin(np.arange(p) * (cluster.delta_theta / 2.0)) ** 2
    hk2 = (2.0 * half / max(rows - 1, 1) * np.arange(rows)) ** 2
    rho2 = 4.0 * (centre + half * x) ** 2
    to_cheb = np.linalg.inv(np.polynomial.chebyshev.chebvander(x, size - 1))
    to_mono = _cheb_to_mono(size)
    nu_pow = np.linspace(-1.0, 1.0, rows)[None, :] ** np.arange(size)[:, None]
    length = _fft_length(2 * rows - 1)
    w_spec = np.fft.rfft(w * nu_pow, n=length)
    # mix[s, m] = 2^-m C(m, s) times the spectrum of w nu^(m-s), then laid
    # out as real rows over imaginary rows for one real product per frequency
    mix = np.zeros((size, size, length // 2 + 1), dtype=complex)
    for m in range(size):
        for s in range(m + 1):
            mix[s, m] = math.comb(m, s) * 0.5**m * w_spec[m - s]
    mix = np.concatenate([mix.real, mix.imag]).transpose(2, 0, 1).copy()
    part = np.empty((rows, p))
    carry = np.zeros((size, rows))
    for start in range(0, p, _COLUMN_CHUNK):
        delta = slice(start, min(start + _COLUMN_CHUNK, p))
        sb = sin2[delta]
        csum = hk2 * (1.0 - sb)[None, :, None] + (rho2[:, None] * sb)[:, :, None]
        if start == 0:
            csum[:, 0, 0] = 1.0  # the node itself: log 1 = 0
        np.log(csum, out=csum)
        csum *= -0.5
        csum[:, 0] += carry
        np.cumsum(csum, axis=1, out=csum)
        carry = csum[:, -1]
        coef = np.tensordot(to_mono, np.tensordot(to_cheb, csum, 1), 1)
        kernel = np.zeros(coef.shape[:2] + (length,))
        kernel[..., :rows] = coef
        kernel[..., length - rows + 1 :] = coef[..., :0:-1]
        # an even sequence has a real spectrum
        spec = np.fft.rfft(kernel).real
        prod = mix @ spec.transpose(2, 0, 1)
        out = np.fft.irfft(prod[:, :size] + 1j * prod[:, size:], n=length, axis=0)
        part[:, delta] = np.einsum("si,isc->ic", nu_pow, out[:rows])
    mut = part + part[:, ::-1]
    mut -= part[:, :1]
    return mut


def cluster_log_capacity(cluster: GenerationCluster) -> float:
    """Log capacity of the per-cell cluster by the dominant-self-energy
    closed form: weights 1/L_i normalized, energy E0 + mutual correction."""
    p = cluster.columns
    self_energy = -cluster.log_rs
    if np.any(self_energy <= 0.0):
        raise CapacityError("cluster discs must have r < 1")
    inv = 1.0 / self_energy
    denom = p * inv.sum()
    w_row = inv / denom
    mut = _cluster_mutual(cluster, w_row)
    return -(1.0 / denom + float(np.sum(w_row[:, None] * mut)))


def cluster_c2(cluster: GenerationCluster, scale: float) -> tuple[float, float]:
    """(C2 of the cluster scaled by ``scale``, its equilibrium potential)
    from the cluster's log capacity, as the module docstring derives it.
    Every scaled pair distance must stay below 2, where the truncated
    kernel is log 2 - log scale - log d.
    """
    p = cluster.columns
    lo, hi = float(cluster.rhos[0]), float(cluster.rhos[-1])
    s_max = math.sin((p - 1) * cluster.delta_theta / 2.0) ** 2
    diameter = math.sqrt(max((hi - lo) ** 2 + 4.0 * hi * lo * s_max, 4.0 * hi * hi * s_max))
    if scale * diameter >= 2.0:
        raise CapacityError(
            f"scaled cluster diameter {scale * diameter:.6g} reaches 2,"
            " where the truncated kernel starts to bind"
        )
    potential = LOG2 - (cluster_log_capacity(cluster) + math.log(scale))
    return 1.0 / potential, potential


def _scaled_cell_c2(log_cap, log_scale):
    """C2 of a cell set of log capacity ``log_cap`` scaled by exp(log_scale),
    for floats or arrays: 1/(log 2 - (log_cap + log_scale))."""
    return 1.0 / (LOG2 - (log_cap + log_scale))


# ---------------------------------------------------------------------------
# the cell capacity series


def _cell_pieces(c: Configuration) -> tuple:
    """(n, m, x, y, log_r, log_c) in (n, m, disc) order: each cell (n, m),
    n <= c.n_max, and explicit disc (x, y, exp(log_r)) whose piece there is
    not empty, with its log capacity (:func:`_piece_log_capacity`).  A disc
    whole in the cell that holds its centre meets no other; the rest are cut
    to their :func:`geometry.candidate_cells` in one call."""
    ex = spatial_index(c)
    x, y, log_r = ex.exp_x, ex.exp_y, ex.exp_log_r
    _, n, m, _ = center_cells(x, y)
    t, _ = _cell_frame(x, y, log_r, _index_bounds(np.maximum(n, 1), m))
    whole = (n > 0) & (n <= c.n_max) & (t >= 1.0).all(axis=1)
    rest = np.flatnonzero(~whole)
    j, cn, cm = candidate_cells(x[rest], y[rest], ex.exp_rad[rest], c.n_max)
    j = rest[j]
    piece = _piece_log_capacity(x[j], y[j], log_r[j], _index_bounds(cn, cm), index=(cn, cm))
    met = piece > -np.inf
    i = np.concatenate([np.flatnonzero(whole), j[met]])
    n, m, log_c = (np.concatenate([a[whole], b[met]]) for a, b in ((n, cn), (m, cm), (log_r, piece)))
    order = np.lexsort((i, m, n))
    i = i[order]
    return n[order], m[order], x[i], y[i], log_r[i], log_c[order]


# The most discs a gathered cell may hold: each of its solves builds k x k
# kernels, 32 MB apiece at this bound.
_CELL_DISCS = 2048


class CellDiscs(NamedTuple):
    """Pieces as arrays: discs (x, y, exp(log_r)) and the log capacity
    ``log_c`` of each one's piece in its cell."""

    x: np.ndarray
    y: np.ndarray
    log_r: np.ndarray
    log_c: np.ndarray


def _ring_pieces(cells: list, rows: RingRows) -> tuple:
    """(n, m, x, y, log_r, log_c): the ring discs of each cell (n, m) of
    ``cells``, row by row in row order, each row's slots ascending, placed
    as :meth:`Configuration.disc_arrays` places them, and their pieces in
    the cell."""
    cn, cm = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    # every cell against every row of its generation
    by_gen = np.argsort(rows.n, kind="stable")
    cell, j = index_ranges(*(np.searchsorted(rows.n[by_gen], cn, side=side) for side in ("left", "right")))
    r = by_gen[j]
    # the row's slots in the cell: p per cell, less a dropped prefix
    p = rows.count[r] // np.left_shift(1, cn[cell] + 4)
    pair, a = index_ranges(np.maximum(rows.a_start[r], cm[cell] * p), (cm[cell] + 1) * p)
    cell, r = cell[pair], r[pair]
    th = (a.astype(np.float64) + 0.5) * rows.step[r]
    n, m, x, y, log_r = cn[cell], cm[cell], rows.rho[r] * np.cos(th), rows.rho[r] * np.sin(th), rows.log_r[r]
    return n, m, x, y, log_r, _piece_log_capacity(x, y, log_r, _index_bounds(n, m), index=(n, m))


class CellRows(NamedTuple):
    """Rows of cells as columns, in (n, m_lo) order.  Row k covers the cells
    (n[k], m), m_lo[k] <= m < m_hi[k], which share one log capacity
    log c(E cap cell) and one weight {log(2^{-n}/c(E cap cell))}^{-1}.
    ``solve`` names the row's obstacle set: s >= 0 is set s of
    :func:`_obstacle_rows`, a generation's cluster or one gathered cell;
    ~p < 0 is the piece p of :func:`_obstacle_rows`, alone in its cell."""

    n: np.ndarray
    m_lo: np.ndarray
    m_hi: np.ndarray
    log_capacity: np.ndarray
    weight: np.ndarray
    solve: np.ndarray

    def take(self, keep: np.ndarray) -> "CellRows":
        return CellRows(*(a[keep] for a in self))


def _obstacle_rows(c: Configuration) -> tuple:
    """(n, m_lo, m_hi, solve, pieces, sets): the :class:`CellRows` columns
    but the capacities, for the cells of generation at most c.n_max that
    discs meet; their pieces, cell by cell, as one :class:`CellDiscs`; and
    the obstacle sets that ``solve`` indexes: the clusters, then the cells
    of several pieces.  The pieces are explicit (:func:`_cell_pieces`), and
    ring (:func:`_ring_pieces`) in the partial cells of a dropped prefix,
    floor(min a_start / p) up to ceil(max a_start / p), and in the cells
    that explicit discs reach.

    Built once per configuration and kept on it, which is immutable, so
    that the weights, quasiadditivity and the log bound of one configuration
    share a single build.
    """
    memo = vars(c)
    if "_obstacle_rows" not in memo:
        explicit = _cell_pieces(c)
        n, m = explicit[:2]
        clusters, rings = generation_clusters(c), c.rings
        sets, rows, ring_cells = [], [], []
        for g, idx in rings.generation_rows:
            if g > c.n_max:
                break
            p, starts = int(rings.count[idx[0]]) // sector_count(g), rings.a_start[idx].tolist()
            full = -(-max(starts) // p) if g in clusters else sector_count(g)
            reached = unique_sorted(m[slice(*np.searchsorted(n, [g, g + 1]))])
            ring_cells += [(g, k) for k in range(min(starts) // p, full)] + [(g, k) for k in reached.tolist()]
            # the runs of full cells between those that explicit discs reach
            edges = np.concatenate([[full - 1], reached[reached >= full], [sector_count(g)]])
            run = np.flatnonzero(np.diff(edges) > 1)
            if len(run):
                rows.append(np.stack([np.full_like(run, g), edges[run] + 1, edges[run + 1], np.full_like(run, len(sets))]))
                sets.append(clusters[g])
        n, m, *columns = (np.concatenate(a) for a in zip(explicit, _ring_pieces(sorted(set(ring_cells)), rings)))
        # cell by cell, each cell's explicit pieces first: lexsort is stable
        order = np.flatnonzero(columns[3] > -np.inf)
        order = order[np.lexsort((m[order], n[order]))]
        n, m, pieces = n[order], m[order], CellDiscs(*(a[order] for a in columns))
        for a in pieces:
            a.setflags(write=False)
        first = np.flatnonzero(np.diff(n, prepend=-1) | np.diff(m, prepend=-1))
        size = np.diff(np.append(first, len(n)))
        if (size > _CELL_DISCS).any():
            k = int(np.argmax(size > _CELL_DISCS))
            raise CapacityError(f"cell (n={n[first[k]]}, m={m[first[k]]}) holds {size[k]} discs, more than {_CELL_DISCS}")
        # a cell of one piece is a row on that piece, any other its own set
        solve = np.where(size > 1, len(sets) + np.cumsum(size > 1) - 1, ~first)
        rows.append(np.stack([n[first], m[first], m[first] + 1, solve]))
        for lo, k in zip(first[size > 1].tolist(), size[size > 1].tolist()):
            sets.append(CellDiscs(*(a[lo : lo + k] for a in pieces)))
        n, m_lo, m_hi, solve = np.concatenate(rows, axis=1)
        order = np.lexsort((m_lo, n))
        memo["_obstacle_rows"] = (n[order], m_lo[order], m_hi[order], solve[order], pieces, sets)
    return memo["_obstacle_rows"]


def _cell_obstacles(c: Configuration, idx: WhitneyIndex):
    """Obstacle set of one cell, or None when no disc meets it: its
    generation's cluster or its pieces as arrays, which for a cell of one
    piece are cut from the pieces here."""
    n, m_lo, m_hi, solve, pieces, sets = _obstacle_rows(c)
    lo, hi = np.searchsorted(n, [idx.n, idx.n + 1]).tolist()
    k = lo + int(np.searchsorted(m_lo[lo:hi], idx.m, side="right")) - 1
    if k < lo or idx.m >= m_hi[k]:
        return None
    if solve[k] >= 0:
        return sets[solve[k]]
    return CellDiscs(*(a[~solve[k] : ~solve[k] + 1] for a in pieces))


def _set_log_capacity(obstacles, idx: WhitneyIndex) -> float:
    """Log capacity of the obstacle set of cell ``idx``: a generation's
    cluster by :func:`cluster_log_capacity`, and gathered pieces by one
    disc-system call on their columns."""
    if isinstance(obstacles, GenerationCluster):
        return cluster_log_capacity(obstacles)
    try:
        est = _disc_system_capacity(*obstacles)
        if est is None:
            raise CapacityError("two of its discs meet")
    except CapacityError as exc:
        raise CapacityError(f"capacity failed at cell (n={idx.n}, m={idx.m}): {exc}")
    return est.log_value


def _cell_log_capacity(c: Configuration, idx: WhitneyIndex) -> tuple:
    """(log capacity, obstacle set) of cell ``idx``; refuses a cell that no
    disc meets or that they meet in a polar set."""
    obstacles = _cell_obstacles(c, idx)
    if obstacles is None:
        raise CapacityError(f"no discs meet cell {idx} in a set of positive capacity")
    return _set_log_capacity(obstacles, idx), obstacles


def cell_capacity_weights(c: Configuration, n_max: int | None = None) -> CellRows:
    """The rows of the cells of generation at most ``n_max`` (at most
    ``c.n_max``, its default) that discs meet, with their log capacities
    and weights.

    One cluster solve gives the shared weight of every run of a ring
    generation's full cells.  The cells of one piece have its log capacity,
    all in one step.  Every other cell is solved on its own pieces.  Polar
    cells have no row: an empty piece, or one that only touches, is dropped.
    """
    if n_max is not None and n_max > c.n_max:
        raise CapacityError(f"n_max {n_max} exceeds the configuration's n_max {c.n_max}")
    n, m_lo, m_hi, solve, pieces, sets = _obstacle_rows(c)
    k = int(np.searchsorted(n, c.n_max if n_max is None else n_max, side="right"))
    n, m_lo, m_hi, solve = n[:k], m_lo[:k], m_hi[:k], solve[:k]
    log_cap, shared = np.empty(k), solve >= 0
    log_cap[~shared] = pieces.log_c[~solve[~shared]]
    solved: dict[int, float] = {}
    for s, g, m in zip(*(a[shared].tolist() for a in (solve, n, m_lo))):
        if s not in solved:
            solved[s] = _set_log_capacity(sets[s], WhitneyIndex(g, m))
    log_cap[shared] = [solved[s] for s in solve[shared].tolist()]
    denom = -n * LOG2 - log_cap
    bad = np.flatnonzero(denom <= 0.0)
    if len(bad):
        raise CapacityError(f"cell capacity exceeds the cell scale at (n={n[bad[0]]}, m={m_lo[bad[0]]})")
    return CellRows(n, m_lo, m_hi, log_cap, 1.0 / denom, solve)


def cell_series_term(n: int, m: int, weight: float, psi: float) -> float:
    """(2^{-n}/|z_{m,n}-y|)^2 times ``weight`` for the boundary point y at
    angle ``psi``, where z_{m,n} is the reference point of cell (n, m)."""
    z = 1.0 - 2.0 ** (-n)
    theta = TWO_PI * m / sector_count(n)
    return 2.0 ** (-2 * n) * weight / chord(1.0, z, psi - theta) ** 2


def cell_series_terms(rows: CellRows, psi: float) -> dict[int, np.ndarray]:
    """:func:`cell_series_term` of every cell of ``rows``, keyed by
    generation, each generation's cells in row order.  One numpy pass per
    generation repeats the scalar's arithmetic step for step
    (``np.float_power`` for ``**``), so each entry equals the scalar's."""
    terms = {}
    for n in unique_sorted(rows.n).tolist():
        gen = rows.take(rows.n == n)
        k, m = index_ranges(gen.m_lo, gen.m_hi)
        weight = gen.weight[k]
        z = 1.0 - 2.0 ** (-n)
        theta = TWO_PI * m.astype(np.float64) / sector_count(n)
        d = np.sqrt((1.0 - z) ** 2 + 4.0 * 1.0 * z * np.float_power(np.sin((psi - theta) / 2.0), 2))
        terms[n] = 2.0 ** (-2 * n) * weight / np.float_power(d, 2)
    return terms


def cell_capacity_series(
    c: Configuration, y: BoundaryPoint, weights: CellRows | None = None
) -> SeriesReport:
    """Sum over cells of (2^{-n}/|z_{m,n}-y|)^2 {log(2^{-n}/c(E cap cell))}^{-1}.

    Polar cells contribute zero.  Pass precomputed ``weights`` (from
    :func:`cell_capacity_weights`) when evaluating many boundary points.
    A row that covers a whole generation takes the closed-form ring sum.
    """
    if weights is None:
        weights = cell_capacity_weights(c)
    psi = y.theta
    whole = weights.m_hi - weights.m_lo == sector_count(weights.n)
    ns, ring_weights = weights.n[whole].tolist(), weights.weight[whole].tolist()
    totals = equally_spaced_inverse_square_sum(
        [1.0 - 2.0 ** (-n) for n in ns], [sector_count(n) for n in ns], 0.0, psi
    )
    per_gen = {n: terms.tolist() for n, terms in cell_series_terms(weights.take(~whole), psi).items()}
    for n, w, total in zip(ns, ring_weights, totals.tolist()):
        per_gen.setdefault(n, []).append(2.0 ** (-2 * n) * w * total)
    per = tuple((n, math.fsum(per_gen[n])) for n in sorted(per_gen))
    return SeriesReport.from_generations(y, "cell_capacity", per)


def cell_capacity_table(weights: CellRows, constants: CapacityConstants) -> np.ndarray:
    """The C2 capacity of the cell set of each row of ``weights`` (from
    :func:`cell_capacity_weights`, cut short or not), scaled by
    ``constants.cell_scale(n)``: the closed form of the row's log capacity,
    with no solve."""
    log_scale = np.array([math.log(constants.cell_scale(n)) for n in weights.n.tolist()])
    return _scaled_cell_c2(weights.log_capacity, log_scale)


# ---------------------------------------------------------------------------
# quasiadditivity and the log bound


@dataclass(frozen=True)
class QuasiadditivityReport:
    cell: WhitneyIndex
    ratio: float
    union_c2: float
    parts_c2_sum: float
    disc_count: int
    separation_value: float
    separation_floor: float


def quasiadditivity_ratio(
    c: Configuration,
    idx: WhitneyIndex,
    constants: CapacityConstants | None = None,
    sep=None,
) -> QuasiadditivityReport:
    """C2(scaled cell set) / sum of the scaled per-disc C2 values, the
    former read off the cell set's log capacity, its discs clipped to the
    cell, and each of the latter that of one whole disc.

    Requires the configuration to satisfy the pair separation floor
    8*sqrt(pi)*c2_bracket*cell_comparability^2 for the radius-log
    separation statistic; the offending pair is reported otherwise.  Pass a
    precomputed ``sep`` report when evaluating many cells of one
    configuration.
    """
    constants = constants or CapacityConstants.for_configuration(c)
    if sep is None:
        sep = separation(c, kind="radius_log")
    if sep.value < constants.separation_floor:
        raise CapacityError(
            f"separation {sep.value:.4g} below the quasiadditivity floor "
            f"{constants.separation_floor:.4g}; offending pair {sep.argmin_pair}"
        )
    log_cap, obstacles = _cell_log_capacity(c, idx)
    log_scale = math.log(constants.cell_scale(idx.n))
    if isinstance(obstacles, GenerationCluster):
        log_r, copies = obstacles.log_rs, obstacles.columns
    else:
        log_r, copies = obstacles.log_r, 1
    union_c2 = _scaled_cell_c2(log_cap, log_scale)
    parts_sum = float(copies * np.sum(_scaled_cell_c2(log_r, log_scale)))
    return QuasiadditivityReport(
        cell=idx,
        ratio=union_c2 / parts_sum,
        union_c2=union_c2,
        parts_c2_sum=parts_sum,
        disc_count=copies * len(log_r),
        separation_value=sep.value,
        separation_floor=constants.separation_floor,
    )


def c2_log_bound(
    c: Configuration,
    idx: WhitneyIndex,
    constants: CapacityConstants | None = None,
) -> tuple[float, float]:
    """(lhs, rhs) of the scaled-cell bound
    C2(scaled cell set) <= {log(2^{-n}/c(cell set))}^{-1}, both sides read
    off the one log capacity of the cell set, its discs clipped to the cell.
    With lhs = 1/(log 2 - log scale - log c) the bound reduces to
    scale <= 2^(n+1), which ``cell_scale(n)`` meets."""
    constants = constants or CapacityConstants.for_configuration(c)
    log_cap, _ = _cell_log_capacity(c, idx)
    denom = -idx.n * LOG2 - log_cap
    if denom <= 0.0:
        raise CapacityError("cell capacity exceeds cell scale")
    return _scaled_cell_c2(log_cap, math.log(constants.cell_scale(idx.n))), 1.0 / denom


# ---------------------------------------------------------------------------
# the Green capacity of a small disc


def green_capacity_disc_bound(
    r: float | None = None, log_r: float | None = None
) -> float:
    """Dominating bound 1/log(1/r) for the Green capacity of a small disc
    relative to the doubled disc."""
    if (r is None) == (log_r is None):
        raise CapacityError("pass exactly one of r, log_r")
    if log_r is None:
        if not (0.0 < r < 1.0):
            raise CapacityError("bound needs r in (0, 1)")
        log_r = math.log(r)
    if log_r >= 0.0:
        raise CapacityError("bound needs r < 1")
    return 1.0 / (-log_r)
