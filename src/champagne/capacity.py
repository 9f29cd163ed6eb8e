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
  no special case: the same bordered solve covers them.

The C2 capacity uses the truncated kernel log+(2/|x-y|) and is normalized
by the sampled minimum of the equilibrium potential, so that the reported
value is the mass required to push the potential to 1 on the set.

The cell capacity series reads one record per obstacle set,
(n, ms, obstacles): the cells (n, m), m in the range ms, share it.  Cell m
of a ring generation of rows of sector_count(n) * p slots holds slots
[m p, (m + 1) p) of every row.  Each run of cells that keep all their slots
and that no explicit disc reaches is one record of the generation's
cluster, solved once.  Every other cell is gathered as arrays: its explicit
discs, found from the cell that holds each centre (a disc inside that cell
meets no other), then its ring discs by slot index.

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

C2 of a scaled cluster uses the same sum: its scaled diameter is below 2
(checked from the closed-form largest pair distance), where the truncated
kernel max(log 2 - log(scale d), 0) is exactly (log 2 - log scale) - log d.
"""

from __future__ import annotations

import bisect
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
    Disc,
    DiscBlock,
    Point,
    RingBlock,
    TWO_PI,
    WhitneyCell,
    WhitneyIndex,
    cells_intersecting_disc,
    chord,
    generations_of,
    radius_from_log,
    sector_count,
    spatial_index,
    whitney_cell,
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


def _clipped_disc_nodes(
    shape: ClippedDiscShape, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary nodes of disc-intersect-cell: circle samples inside the cell
    plus cell-edge samples inside the disc, with arc-length weights."""
    d, cell = shape.disc, shape.cell
    r = radius_from_log(d.log_r)
    pts_list, ell_list = [], []
    cpts, cell_ = _circle_nodes(d.center, r, n)
    keep = np.array([cell.contains(Point(*p), tol=0.0) for p in cpts])
    if keep.any():
        pts_list.append(cpts[keep])
        ell_list.append(cell_[keep])
    per_edge = max(8, n // 4)
    for pts, ell in _cell_edge_nodes(cell, per_edge):
        inside = np.hypot(pts[:, 0] - d.center.x, pts[:, 1] - d.center.y) <= r
        if inside.any():
            pts_list.append(pts[inside])
            ell_list.append(ell[inside])
    if not pts_list:
        return np.empty((0, 2)), np.empty(0)
    return np.vstack(pts_list), np.concatenate(ell_list)


def _cell_edge_nodes(cell: WhitneyCell, n: int):
    lo, hi = cell.theta_lo, cell.theta_hi
    for radius in (cell.r_inner, cell.r_outer):
        th = lo + (hi - lo) * (np.arange(n) + 0.5) / n
        pts = radius * np.column_stack([np.cos(th), np.sin(th)])
        yield pts, np.full(n, radius * (hi - lo) / n)
    for theta in (lo, hi):
        t = cell.r_inner + (cell.r_outer - cell.r_inner) * (np.arange(n) + 0.5) / n
        pts = np.column_stack([t * math.cos(theta), t * math.sin(theta)])
        yield pts, np.full(n, (cell.r_outer - cell.r_inner) / n)


def _disc_inside_cell(d: DiscShape, cell: WhitneyCell) -> bool:
    r = radius_from_log(d.log_r)
    if not cell.contains(d.center):
        return False
    # the distance from the center to the cell's boundary
    rho = d.center.norm()
    return min(rho - cell.r_inner, cell.r_outer - rho, cell.radial_edge_distance(d.center)) >= r


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

    Discs are exact; disjoint unions of discs use the analytic disc-system
    kernel; everything else, overlapping discs included, is discretized and
    minimized.
    """
    parts = _flatten_parts(shape)
    parts = [p for p in parts if not _is_empty(p)]
    if not parts:
        return POLAR
    # clipped discs that do not actually straddle their cell are plain discs
    parts = [
        p.disc
        if isinstance(p, ClippedDiscShape) and _disc_inside_cell(p.disc, p.cell)
        else p
        for p in parts
    ]
    if len(parts) == 1 and isinstance(parts[0], DiscShape):
        return CapacityEstimate(log_value=parts[0].log_r, method="exact_disc")
    if len(parts) == 1 and isinstance(parts[0], SegmentShape):
        if parts[0].length < POLAR_DIAMETER:
            return POLAR
    if all(isinstance(p, DiscShape) for p in parts) and _discs_disjoint(parts):
        return _disc_system_capacity(parts)

    pts, ell = _boundary_nodes(parts, n_boundary)
    if len(pts) == 0:
        return POLAR
    if len(pts) == 1:
        return POLAR if ell[0] < POLAR_DIAMETER else CapacityEstimate(
            log_value=math.log(ell[0] / 4.0), method="energy_minimization"
        )
    sol = minimize_simplex_energy(_log_kernel(pts, ell))
    return CapacityEstimate(log_value=-sol.energy, method="energy_minimization")


def _is_empty(p: Shape) -> bool:
    if isinstance(p, ClippedDiscShape):
        r = radius_from_log(p.disc.log_r)
        return p.cell.distance_to(p.disc.center) > r
    return False


def _boundary_nodes(parts: Sequence[Shape], n_boundary: int):
    """Weighted boundary nodes of a union: points interior to another part
    are dropped (they cannot carry equilibrium mass) and exact duplicates
    from shared edges collapse to one node."""
    per = max(24, n_boundary // max(len(parts), 1))
    pts_list, ell_list, owner_list = [], [], []
    disc_info: list[tuple[int, float, float, float]] = []
    for pi, p in enumerate(parts):
        if isinstance(p, DiscShape):
            r = radius_from_log(p.log_r)
            if r <= 0.0:
                raise CapacityError(
                    "disc too small to discretize; use a pure disc union"
                )
            pts, ell = _circle_nodes(p.center, r, per)
            disc_info.append((pi, p.center.x, p.center.y, r))
        elif isinstance(p, SegmentShape):
            pts, ell = _segment_nodes(p.a, p.b, per)
        elif isinstance(p, ClippedDiscShape):
            pts, ell = _clipped_disc_nodes(p, per)
            disc_info.append(
                (pi, p.disc.center.x, p.disc.center.y, radius_from_log(p.disc.log_r))
            )
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


def _discs_disjoint(parts: Sequence[DiscShape]) -> bool:
    """No two closed discs meet; only then are center charges with
    self-energies log(1/r_k) the energy of a measure on the union."""
    x = np.array([p.center.x for p in parts])
    y = np.array([p.center.y for p in parts])
    r = np.array([radius_from_log(p.log_r) for p in parts])
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(d, np.inf)
    return bool(np.all(d > r[:, None] + r[None, :]))


def _disc_system_capacity(parts: Sequence[DiscShape]) -> CapacityEstimate:
    """Union of disjoint discs via center charges with exact self-energies."""
    x = np.array([p.center.x for p in parts])
    y = np.array([p.center.y for p in parts])
    log_r = np.array([p.log_r for p in parts])
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(d, 1.0)
    kernel = -np.log(d)
    np.fill_diagonal(kernel, -log_r)
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


def _generation_rows(c: Configuration) -> dict[int, list[RingBlock]]:
    """The ring blocks of each generation of ``c``, in block order."""
    rows: dict[int, list[RingBlock]] = {}
    for b in c.blocks:
        if isinstance(b, RingBlock):
            rows.setdefault(b.n, []).append(b)
    return rows


def generation_clusters(c: Configuration) -> dict[int, GenerationCluster]:
    """The cluster that each ring generation of ``c`` places in its full
    cells, whatever prefix its rows drop; explicit blocks are skipped.

    Generation n needs rows of sector_count(n) * p slots, at most p of them.
    p rows must be equally spaced; fewer, whose first rows were dropped
    whole, leave no full cell and no cluster.
    """
    out: dict[int, GenerationCluster] = {}
    for n, rows in _generation_rows(c).items():
        p = rows[0].count // sector_count(n)
        if len(rows) > p or {r.count for r in rows} != {sector_count(n) * p}:
            raise CapacityError(
                f"generation clusters need at most p rows of p * {sector_count(n)}"
                f" slots at generation {n}"
            )
        if len(rows) < p:
            continue
        rows = sorted(rows, key=lambda r: r.rho)
        rhos = np.array([r.rho for r in rows])
        if np.abs(rhos - np.linspace(rhos[0], rhos[-1], p)).max() > _ROW_SPACING_TOL:
            raise CapacityError(
                f"generation clusters need equally spaced rows at generation {n}"
            )
        out[n] = GenerationCluster(
            n=n,
            rhos=rhos,
            log_rs=np.array([r.log_r for r in rows]),
            columns=p,
            delta_theta=TWO_PI / rows[0].count,
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
    # column j: the monomial coefficients of T_j
    to_mono = np.zeros((size, size))
    for j in range(size):
        to_mono[: j + 1, j] = np.polynomial.chebyshev.cheb2poly(np.eye(j + 1)[j])
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
    """(C2 of the scaled cluster, potential minimum).

    The cluster is scaled by ``scale`` (so distances multiply);
    self-energies become log(2/(scale*r)).  Every scaled pair distance must
    stay below 2, where the truncated kernel is log 2 - log scale - log d.
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
    diag = LOG2 - (cluster.log_rs + math.log(scale))
    if np.any(diag <= 0.0):
        raise CapacityError("scaled cluster discs must have radius < 2")
    inv = 1.0 / diag
    denom = p * inv.sum()
    w_row = inv / denom
    others = p * w_row.sum() - w_row
    mut = (LOG2 - math.log(scale)) * others[:, None] + _cluster_mutual(cluster, w_row)
    potential = w_row[:, None] * diag[:, None] + mut
    u_min = float(potential.min())
    if u_min <= 0.0:
        raise CapacityError("degenerate scaled-cluster potential")
    return 1.0 / u_min, u_min


# ---------------------------------------------------------------------------
# the cell capacity series


# A disc whose distance to the boundary of the cell holding its centre
# exceeds its radius by more than this is decided in numpy: far above the
# rounding of any distance inside the unit disc.  Every other disc takes the
# exact scalar test.
_GATHER_SLACK = 1e-12


def _home_cells(x: np.ndarray, y: np.ndarray, log_r: np.ndarray):
    """(n, m, inside) per disc: the cell (n, m) that holds its centre, n = 0
    in the central region, and whether the disc lies inside that cell with
    _GATHER_SLACK to spare, when it meets that cell and no other.  The
    centre is at least rho sin(angle to the nearer edge) from the radial
    edges, its distance to their lines."""
    with np.errstate(under="ignore"):
        r = np.exp(log_r)
    rho = np.hypot(x, y)
    n = generations_of(1.0 - rho)
    sectors = np.ldexp(1.0, n + 4)
    step = TWO_PI / sectors
    theta = np.mod(np.arctan2(y, x), TWO_PI)
    m = np.floor(theta / step)
    rel = theta - m * step
    margin = np.minimum(
        np.minimum(rho - (1.0 - np.ldexp(1.0, -n)), 1.0 - np.ldexp(1.0, -n - 1) - rho),
        rho * np.sin(np.minimum(rel, step - rel)),
    )
    inside = (n > 0) & (margin - r > _GATHER_SLACK)
    return n, np.mod(m, sectors).astype(np.int64), inside


def _cell_discs(c: Configuration) -> dict[tuple[int, int], np.ndarray]:
    """Map (n, m) -> the indices into ``spatial_index(c).exp_*`` of the
    explicit discs whose closed disc meets the closed cell, ascending: the
    cells of :func:`cells_intersecting_disc`.  A disc inside its home cell
    (see :func:`_home_cells`) meets that cell alone; every other disc takes
    the scalar test."""
    ex = spatial_index(c)
    n, m, inside = _home_cells(ex.exp_x, ex.exp_y, ex.exp_log_r)
    pairs = [np.stack([n, m, np.arange(len(n))])[:, inside]]
    for e in np.flatnonzero(~inside).tolist():
        d = Disc(Point(float(ex.exp_x[e]), float(ex.exp_y[e])), float(ex.exp_log_r[e]))
        pairs += [np.array([[idx.n], [idx.m], [e]]) for idx in cells_intersecting_disc(d)]
    n, m, i = np.concatenate(pairs, axis=1)
    order = np.lexsort((i, m, n))
    n, m, i = n[order], m[order], i[order]
    starts = np.flatnonzero(np.diff(n, prepend=-1) | np.diff(m, prepend=-1)).tolist()
    cells = zip(n[starts].tolist(), m[starts].tolist())
    return {cell: i[lo:hi] for cell, lo, hi in zip(cells, starts, starts[1:] + [len(i)])}


# The most discs a gathered cell may hold: each of its solves builds k x k
# kernels, 32 MB apiece at this bound.
_CELL_DISCS = 2048


class CellDiscs(NamedTuple):
    """The discs that meet one gathered cell, as arrays, with ``inside``
    true where a disc lies inside this cell, its home cell, with
    _GATHER_SLACK to spare (see :func:`_home_cells`)."""

    x: np.ndarray
    y: np.ndarray
    log_r: np.ndarray
    inside: np.ndarray


class ObstacleSet(NamedTuple):
    """The cells (n, m), m in ``ms``, that share one obstacle set: a ring
    generation's cluster, congruent in each cell of a run of its full cells,
    or one cell's gathered discs as arrays."""

    n: int
    ms: range
    obstacles: GenerationCluster | CellDiscs


def _gather(cells: list, explicit: dict, rings: dict, stored: tuple) -> list[CellDiscs]:
    """The discs of each cell (n, m) of ``cells``: its explicit ones, the
    entries of ``explicit`` (see :func:`_cell_discs`) into the arrays
    ``stored`` = (x, y, log_r), then by slot index its ring discs, row by
    row in block order, placed as :meth:`RingBlock.positions` places them.
    One :func:`_home_cells` pass marks the discs inside their cell.  Refuses
    a cell of more than _CELL_DISCS discs."""
    parts, picks, none = [stored], [], np.empty(0, dtype=np.int64)
    size = len(stored[0])
    for n, m in cells:
        pick = [explicit.get((n, m), none)]
        for r in rings.get(n, ()):
            p = r.count // sector_count(n)
            lo, hi = max(r.a_start, m * p), (m + 1) * p
            if lo < hi:
                th = (np.arange(lo, hi, dtype=np.float64) + 0.5) * r.step
                parts.append((r.rho * np.cos(th), r.rho * np.sin(th), np.full(hi - lo, r.log_r)))
                pick.append(np.arange(size, size + hi - lo))
                size += hi - lo
        count = sum(map(len, pick))
        if count > _CELL_DISCS:
            raise CapacityError(f"cell (n={n}, m={m}) holds {count} discs, more than {_CELL_DISCS}")
        picks.append(pick[0] if len(pick) == 1 else np.concatenate(pick))
    order, sizes = np.concatenate([none, *picks]), [len(p) for p in picks]
    x, y, log_r = (np.concatenate(a)[order] for a in zip(*parts))
    n, m, inside = _home_cells(x, y, log_r)
    home = np.repeat(np.array(cells, dtype=np.int64).reshape(-1, 2), sizes, axis=0)
    inside &= (n == home[:, 0]) & (m == home[:, 1])
    for a in (x, y, log_r, inside):
        a.setflags(write=False)
    ends = np.cumsum(sizes).tolist()
    bounds = zip([0] + ends, ends)
    return [CellDiscs(x[lo:hi], y[lo:hi], log_r[lo:hi], inside[lo:hi]) for lo, hi in bounds]


def _obstacle_sets(c: Configuration) -> list[ObstacleSet]:
    """Obstacle set of every cell that holds discs, in (n, ms.start) order.

    Each maximal run of a ring generation's full cells that no explicit disc
    reaches shares the generation's cluster.  The cells between the runs
    are gathered by :func:`_gather` as arrays: the partial cells of a
    dropped prefix, from floor(min a_start / p) up to the first full cell
    ceil(max a_start / p), and the cells that an explicit disc reaches,
    found from the cell that holds each disc's centre.

    Built once per configuration and kept on it, which is immutable, so
    that the weights, the table, quasiadditivity and the log bound of one
    configuration share a single build.
    """
    memo = vars(c)
    if "_obstacle_sets" not in memo:
        explicit, stored = {}, (np.empty(0),) * 3
        if any(isinstance(b, DiscBlock) and len(b) for b in c.blocks):
            ex = spatial_index(c)
            explicit, stored = _cell_discs(c), (ex.exp_x, ex.exp_y, ex.exp_log_r)
        clusters = generation_clusters(c)
        rings = _generation_rows(c)
        # _cell_discs lists its cells in (n, m) order
        reached, gathered, sets = list(explicit), dict.fromkeys(explicit), []
        for n, rows in rings.items():
            p, starts = rows[0].count // sector_count(n), [r.a_start for r in rows]
            full = -(-max(starts) // p) if n in clusters else sector_count(n)
            gathered.update(dict.fromkeys((n, m) for m in range(min(starts) // p, full)))
            lo, i = full, bisect.bisect_left(reached, (n, full))
            for _, m in reached[i : bisect.bisect_left(reached, (n + 1,))] + [(n, sector_count(n))]:
                if lo < m:
                    sets.append(ObstacleSet(n, range(lo, m), clusters[n]))
                lo = m + 1
        gathered = sorted(gathered)
        sets += [
            ObstacleSet(n, range(m, m + 1), discs)
            for (n, m), discs in zip(gathered, _gather(gathered, explicit, rings, stored))
        ]
        sets.sort(key=lambda s: (s.n, s.ms.start))
        memo["_obstacle_sets"] = sets
    return memo["_obstacle_sets"]


def _cell_obstacles(c: Configuration, idx: WhitneyIndex):
    """Obstacle set of one cell, or None when no disc meets it."""
    sets = _obstacle_sets(c)
    i = bisect.bisect_right(sets, (idx.n, idx.m), key=lambda s: (s.n, s.ms.start)) - 1
    if i >= 0 and sets[i].n == idx.n and idx.m in sets[i].ms:
        return sets[i].obstacles
    return None


def _scaled_c2(obstacles, scale: float) -> tuple[float, float, int]:
    """(C2 of the obstacle set scaled by ``scale``, sum of the scaled
    per-disc C2 values, disc count) for a generation's cluster or one cell's
    gathered discs."""
    if isinstance(obstacles, GenerationCluster):
        union_c2, _ = cluster_c2(obstacles, scale)
        diag = LOG2 - (obstacles.log_rs + math.log(scale))
        parts_sum = float(obstacles.columns * np.sum(1.0 / diag))
        return union_c2, parts_sum, obstacles.columns * len(obstacles.rhos)
    lr = obstacles.log_r + math.log(scale)
    union_c2, _ = c2_disc_system(obstacles.x * scale, obstacles.y * scale, lr)
    return union_c2, float(np.sum(1.0 / (LOG2 - lr))), len(lr)


def _disc_shapes(discs: CellDiscs) -> list[DiscShape]:
    xs, ys, log_rs = discs.x.tolist(), discs.y.tolist(), discs.log_r.tolist()
    return [DiscShape(Point(x, y), log_r) for x, y, log_r in zip(xs, ys, log_rs)]


def _cell_shape(idx: WhitneyIndex, discs: CellDiscs) -> UnionShape:
    """The union of the pieces of ``discs`` inside cell ``idx``: whole the
    discs marked inside it, clipped to it the others, which
    :func:`log_capacity` decides exactly."""
    cell = whitney_cell(idx)
    pieces = zip(_disc_shapes(discs), discs.inside.tolist())
    return UnionShape(tuple(d if inside else ClippedDiscShape(d, cell) for d, inside in pieces))


class CellWeight(NamedTuple):
    """The cells (n, m), m in ``ms``, their log capacity log c(E cap cell)
    and their weight {log(2^{-n}/c(E cap cell))}^{-1}."""

    n: int
    ms: range
    log_capacity: float
    weight: float


def cell_capacity_weights(c: Configuration, n_max: int | None = None) -> list[CellWeight]:
    """One weight row per obstacle set of generation at most ``n_max``, in
    (n, ms.start) order.

    One cluster solve gives the shared weight of every run of a ring
    generation's full cells; every other cell is solved on its own discs,
    and a cell that one disc meets, lying inside it, has that disc's log
    radius (the ``exact_disc`` value).  Polar cells have no row.
    """
    keep_n = c.n_max if n_max is None else n_max
    rows, solved = [], {}
    for n, ms, obstacles in _obstacle_sets(c):
        if n > keep_n:
            break
        if isinstance(obstacles, GenerationCluster):
            if n not in solved:
                solved[n] = cluster_log_capacity(obstacles)
            log_cap = solved[n]
        elif len(obstacles.inside) == 1 and obstacles.inside[0]:
            log_cap = float(obstacles.log_r[0])
        else:
            try:
                est = log_capacity(_cell_shape(WhitneyIndex(n, ms.start), obstacles))
            except CapacityError as exc:
                raise CapacityError(f"capacity failed at cell (n={n}, m={ms.start}): {exc}")
            if est.polar:
                continue
            log_cap = est.log_value
        denom = -n * LOG2 - log_cap
        if denom <= 0.0:
            raise CapacityError(f"cell capacity exceeds the cell scale at (n={n}, m={ms.start})")
        rows.append(CellWeight(n, ms, log_cap, 1.0 / denom))
    return rows


def cell_series_term(n: int, m: int, weight: float, psi: float) -> float:
    """(2^{-n}/|z_{m,n}-y|)^2 times ``weight`` for the boundary point y at
    angle ``psi``, where z_{m,n} is the reference point of cell (n, m)."""
    z = 1.0 - 2.0 ** (-n)
    theta = TWO_PI * m / sector_count(n)
    return 2.0 ** (-2 * n) * weight / chord(1.0, z, psi - theta) ** 2


def cell_capacity_series(
    c: Configuration, y: BoundaryPoint, weights: list[CellWeight] | None = None
) -> SeriesReport:
    """Sum over cells of (2^{-n}/|z_{m,n}-y|)^2 {log(2^{-n}/c(E cap cell))}^{-1}.

    Polar cells contribute zero.  Pass precomputed ``weights`` (from
    :func:`cell_capacity_weights`) when evaluating many boundary points.
    A row that covers a whole generation takes the closed-form ring sum.
    """
    if weights is None:
        weights = cell_capacity_weights(c)
    psi = y.theta
    rings = [row.n for row in weights if len(row.ms) == sector_count(row.n)]
    totals = equally_spaced_inverse_square_sum(
        [1.0 - 2.0 ** (-n) for n in rings], [sector_count(n) for n in rings], 0.0, psi
    )
    ring_totals = dict(zip(rings, totals.tolist()))
    per_gen: dict[int, list[float]] = {}
    for n, ms, _, w in weights:
        if len(ms) == sector_count(n):
            terms = [2.0 ** (-2 * n) * w * ring_totals[n]]
        else:
            terms = [cell_series_term(n, m, w, psi) for m in ms]
        per_gen.setdefault(n, []).extend(terms)
    per = tuple((n, math.fsum(per_gen[n])) for n in sorted(per_gen))
    return SeriesReport.from_generations(y, "cell_capacity", per)


def cell_capacity_table(
    c: Configuration, weights: list[CellWeight], constants: CapacityConstants
) -> list[tuple[CellWeight, float]]:
    """Each row of ``weights`` (from :func:`cell_capacity_weights`, whose
    ``ms`` may be cut short) with the C2 capacity of its obstacle set scaled
    by ``constants.cell_scale(n)``, solved once for all runs of a cluster."""
    table, solved = [], {}
    for row in weights:
        obstacles = _cell_obstacles(c, WhitneyIndex(row.n, row.ms.start))
        key = row.n if isinstance(obstacles, GenerationCluster) else (row.n, row.ms.start)
        if key not in solved:
            solved[key] = _scaled_c2(obstacles, constants.cell_scale(row.n))[0]
        table.append((row, solved[key]))
    return table


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
    """C2(scaled union of the cell's discs) / sum of per-disc C2 values.

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
    obstacles = _cell_obstacles(c, idx)
    if obstacles is None:
        raise CapacityError(f"no discs meet cell {idx}")
    union_c2, parts_sum, count = _scaled_c2(obstacles, constants.cell_scale(idx.n))
    return QuasiadditivityReport(
        cell=idx,
        ratio=union_c2 / parts_sum,
        union_c2=union_c2,
        parts_c2_sum=parts_sum,
        disc_count=count,
        separation_value=sep.value,
        separation_floor=constants.separation_floor,
    )


def c2_log_bound(
    c: Configuration,
    idx: WhitneyIndex,
    constants: CapacityConstants | None = None,
) -> tuple[float, float]:
    """(lhs, rhs) of the scaled-cell bound
    C2(scaled open cell set) <= {log(2^{-n}/c(cell set))}^{-1}."""
    constants = constants or CapacityConstants.for_configuration(c)
    obstacles = _cell_obstacles(c, idx)
    if obstacles is None:
        raise CapacityError("polar cell")
    lhs, _, _ = _scaled_c2(obstacles, constants.cell_scale(idx.n))
    if isinstance(obstacles, GenerationCluster):
        log_cap = cluster_log_capacity(obstacles)
    else:
        log_cap = log_capacity(UnionShape(tuple(_disc_shapes(obstacles)))).log_value
    denom = -idx.n * LOG2 - log_cap
    if denom <= 0.0:
        raise CapacityError("cell capacity exceeds cell scale")
    return lhs, 1.0 / denom


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
