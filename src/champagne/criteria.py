"""Numerical unavoidability diagnostics on finite obstacle configurations.

The diagnostics evaluated here:

* Poisson-weighted series over obstacle centers, with and without the
  reciprocal-log radius weight {log((1-|x_k|)/r_k)}^{-1}, grouped by dyadic
  generation.  Divergence of the weighted series (for almost every boundary
  point) is the necessary condition for the obstacle union to be
  unavoidable, and together with a separation condition it is sufficient.
* Separation statistics: the infimum over pairs of scaled center distances,
  optionally carrying a square-root log weight.
* The integral test int_0^T M(t) / ((1-t) * log(1/phi(t))) dt for grid
  configurations with radius profile phi and center density M.
* Budget sums: sum r_k^alpha, sum {log(1/r_k)}^{-alpha}, and the
  reciprocal-log budget sum {log(1/r_k)}^{-1}, with the avoidability
  certificate it issues.

Ring blocks are summed in closed form: for J equally spaced points at
radius rho, sum_a 1/|y - rho*e^{i theta_a}|^2 collapses through the Poisson
kernel identity sum_a K_rho(psi - theta_a) = J * K_{rho^J}(J(psi - theta_0)),
so a generation with 10^10 discs costs O(rows), not O(discs).  The row
constants (q = rho^J and the reciprocal-log weight) are computed once per
configuration; a boundary grid then costs O(rows x points) in numpy passes
of SERIES_CHUNK points each, and O(discs) per point for explicit blocks,
whose per-generation sums are correctly rounded (:func:`exact_sum`).
Every log((1-|x_k|)/r_k) is positive, because each disc block refuses
r >= 1-|x| when it is built.  Every closed form is cross-checked against
brute-force summation in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import ChampagneError
from .geometry import (
    Configuration,
    Point,
    TWO_PI,
    _RingTable,
    _within,
    ring_pair_distance,
    spatial_index,
    unique_sorted,
)
from .generators import AVOIDABLE_BUDGET, MSpec, PhiSpec


class CriteriaError(ChampagneError):
    """Invalid input to a criterion evaluation."""


class SingularIntegrandError(CriteriaError):
    """The integral test hit a non-integrable singularity inside [0, T]."""


@dataclass(frozen=True)
class BoundaryPoint:
    """A point on the unit circle, stored by its angle."""

    theta: float

    @property
    def point(self) -> Point:
        return Point(math.cos(self.theta), math.sin(self.theta))

    @classmethod
    def grid(cls, count: int) -> list["BoundaryPoint"]:
        return [cls(TWO_PI * i / count) for i in range(count)]


@dataclass(frozen=True)
class SeriesReport:
    y: BoundaryPoint
    kind: str
    per_generation: tuple[tuple[int, float], ...]
    cumulative: tuple[tuple[int, float], ...]

    @classmethod
    def from_generations(
        cls, y: BoundaryPoint, kind: str, per: tuple[tuple[int, float], ...]
    ) -> "SeriesReport":
        cum, running = [], 0.0
        for n, v in per:
            running += v
            cum.append((n, running))
        return cls(y=y, kind=kind, per_generation=per, cumulative=tuple(cum))

    @property
    def total(self) -> float:
        return self.cumulative[-1][1] if self.cumulative else 0.0

    def cumulative_at(self, n: int) -> float:
        total = 0.0
        for gen, value in self.per_generation:
            if gen <= n:
                total += value
        return total


@dataclass(frozen=True)
class SeparationReport:
    kind: str
    value: float
    argmin_pair: tuple[int, int] | None


@dataclass(frozen=True)
class BudgetSums:
    sum_r_alpha: float
    sum_log_inv_alpha: float
    sum_log_inv_1: float
    alpha: float


# ---------------------------------------------------------------------------
# ring closed forms


@dataclass(frozen=True)
class _RingRows:
    """Equally spaced rows, slot a of a row at angle phase + a*2pi/count for
    a_start <= a < count, with the constants of their closed form.

    The constants are computed once per row with ``math``, as a scalar
    evaluation computes them: num = J(1 - q^2), den = 1 - rho^2 and
    q = rho^J, taken as 0 once J log(rho) <= -745, below the smallest
    subnormal.  Every value :meth:`sums` returns is therefore the scalar
    closed form bit for bit.
    """

    count: np.ndarray
    phase: np.ndarray
    num: np.ndarray
    den: np.ndarray
    q: np.ndarray
    # (row, rho, phase, count, a_start) of the rows with an excluded prefix
    prefixes: tuple[tuple[int, float, float, int, int], ...]

    @classmethod
    def build(cls, rho, count, phase, a_start) -> "_RingRows":
        rho, phase = (np.asarray(v, dtype=np.float64) for v in (rho, phase))
        count, a_start = (np.asarray(v, dtype=np.int64) for v in (count, a_start))
        rows = list(zip(rho.tolist(), phase.tolist(), count.tolist(), a_start.tolist()))
        log_q = [j * math.log(r) for r, _, j, _ in rows]
        q = np.array([math.exp(v) if v > -745.0 else 0.0 for v in log_q], dtype=np.float64)
        prefixes = tuple((i, *rows[i]) for i in np.flatnonzero(a_start).tolist())
        return cls(count.astype(np.float64), phase, count * (1.0 - q * q), 1.0 - rho * rho, q, prefixes)

    def sums(self, psi: np.ndarray) -> np.ndarray:
        """(rows, angles): sum over the active slots of each row of
        |e^{i psi} - x_a|^{-2}, one column per angle of ``psi``.

        A full row is J * K_{q}(J(psi - phase)) / (1 - rho^2) by the Poisson
        kernel aggregation identity; an excluded prefix is subtracted term by
        term, in increasing slot order.
        """
        q = self.q[:, None]
        t = self.count[:, None] * (psi[None, :] - self.phase[:, None])
        out = self.num[:, None] / (self.den[:, None] * (1.0 - 2.0 * q * np.cos(t) + q * q))
        for i, rho, phase, count, a_start in self.prefixes:
            out[i] -= _prefix_sum(rho, phase, count, a_start, psi)
        return out


def _prefix_sum(rho: float, phase: float, count: int, a_start: int, psi: np.ndarray) -> np.ndarray:
    """sum over a < a_start of chord(1, rho, psi - phase - a*step)^{-2} at
    every angle of ``psi``.  ``float_power`` calls the C library's pow, as
    ``**`` on a Python float does, so each term equals the scalar one."""
    step = TWO_PI / count
    gap2 = (1.0 - rho) ** 2
    removed = np.zeros(len(psi))
    for a in range(a_start):
        half = np.sin((psi - (phase + a * step)) / 2.0)
        d = np.sqrt(gap2 + 4.0 * rho * np.float_power(half, 2.0))
        removed += 1.0 / np.float_power(d, 2.0)
    return removed


def equally_spaced_inverse_square_sum(rho, count, phase, psi, a_start=0):
    """sum over a in [a_start, count) of |y - rho*e^{i(phase + a*step)}|^{-2}
    for y = e^{i psi}, via the Poisson kernel aggregation identity.

    ``rho``, ``count``, ``phase`` and ``a_start`` are scalars or equal-length
    sequences, one entry per row; ``psi`` is an angle or a sequence of them.
    The result is an array with a row axis and an angle axis, each dropped
    where a scalar was given.
    """
    row_args = (rho, count, phase, a_start)
    size = {len(v) for v in row_args if np.ndim(v)}
    if len(size) > 1:
        raise CriteriaError("row arguments must have equal lengths")
    rows = _RingRows.build(*(v if np.ndim(v) else [v] * max(size, default=1) for v in row_args))
    out = rows.sums(np.atleast_1d(np.asarray(psi, dtype=np.float64)))
    if np.ndim(psi) == 0:
        out = out[:, 0]
    if all(np.ndim(v) == 0 for v in row_args):
        out = out[0]
    return out


# ---------------------------------------------------------------------------
# series criteria

SERIES_KINDS = ("log_weighted", "poisson")
# Boundary points evaluated per numpy pass: temporaries stay at a few
# (ring rows x SERIES_CHUNK) arrays whatever the grid size.
SERIES_CHUNK = 64


@dataclass(frozen=True)
class _SeriesTerms:
    """A configuration's series terms with the boundary point left free.

    The summands of each per-generation compensated sum are its entries, in
    canonical order: one per generation of the explicit discs, itself a
    compensated sum over those discs, then one per ring row.  Entry e of a
    ring row is weight * s^2 * (closed-form row sum); entry e of an explicit
    generation sums weight * s^2 / |y - x_k|^2.
    """

    gens: tuple[int, ...]
    entries: tuple[np.ndarray, ...]  # per generation in ``gens``, its entries
    n_entries: int
    rings: _RingRows
    ring_entry: np.ndarray
    ring_s2: np.ndarray
    ring_weight: np.ndarray
    # (x, y, s, weight or None, ((entry, disc slice or indices), ...)) of
    # the explicit discs, or None without any
    explicit: tuple | None

    def values(self, psi: np.ndarray) -> np.ndarray:
        """(entries, points) at the boundary angles ``psi``."""
        out = np.empty((self.n_entries, len(psi)))
        if len(self.ring_entry):
            row_sums = self.rings.sums(psi)
            out[self.ring_entry] = self.ring_weight[:, None] * (self.ring_s2[:, None] * row_sums)
        if self.explicit is None:
            return out
        x, y, s, w, parts = self.explicit
        for j, theta in enumerate(psi.tolist()):
            yx, yy = math.cos(theta), math.sin(theta)
            terms = s * s / ((x - yx) ** 2 + (y - yy) ** 2)
            if w is not None:
                terms = terms * w
            for e, rows in parts:
                out[e, j] = exact_sum(terms[rows])
        return out


# exact_sum's extraction is exact for at most 2^27 - 2 summands
_EXACT_SUM_MAX_LEVEL = 27


def exact_sum(t: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array: ``math.fsum``, bit
    for bit, in a few numpy passes.

    Error-free extraction (S. M. Rump, T. Ogita and S. Oishi, "Accurate
    floating-point summation I", SIAM J. Sci. Comput. 31, 2008): with
    max |t| < 2^e and sigma = 2^(ceil(log2(n + 2)) + e), each
    q = (sigma + t) - sigma is a multiple of 2^-53 sigma and every partial
    sum of the q lies within sigma, so ``np.sum(q)`` is exact in any order,
    and so is t - q, which is at most 2^-53 sigma.  The extraction repeats
    on t - q until it is zero, and ``fsum`` rounds the few exact level sums
    once.  Where sigma would overflow, or for more than 2^27 - 2 summands,
    ``fsum`` sums the array itself.
    """
    top = float(np.abs(t).max()) if len(t) else 0.0
    level = (len(t) + 1).bit_length()  # ceil(log2(n + 2))
    if (
        not 0.0 < top < math.inf
        or level + math.frexp(top)[1] > 1023
        or level > _EXACT_SUM_MAX_LEVEL
    ):
        # nothing to extract (all zeros keep fsum's sign of zero), or no sigma
        return math.fsum(t.tolist())
    sums = []
    while top:
        # frexp's exponent e is the least with top < 2^e
        sigma = math.ldexp(1.0, level + math.frexp(top)[1])
        q = sigma + t
        q -= sigma
        sums.append(float(q.sum()))
        t = t - q
        top = float(np.abs(t).max())
    return math.fsum(sums)


def _series_terms(c: Configuration, kind: str) -> _SeriesTerms:
    """Built once per configuration and series kind and kept on the
    configuration, which is immutable."""
    memo = vars(c)
    key = f"_series_terms_{kind}"
    if key not in memo:
        memo[key] = _build_series_terms(c, kind)
    return memo[key]


def _build_series_terms(c: Configuration, kind: str) -> _SeriesTerms:
    if kind not in SERIES_KINDS:
        raise CriteriaError(f"unknown series kind {kind!r}")
    weighted = kind == "log_weighted"
    discs, rows = c.discs, c.rings
    explicit = None
    parts = []
    if len(discs):
        s = discs.boundary_gap
        for n, idx in discs.generation_rows:
            if idx[-1] - idx[0] == len(idx) - 1:
                # canonical discs keep each generation contiguous: a slice
                # takes its terms as a view
                idx = slice(int(idx[0]), int(idx[-1]) + 1)
            parts.append((len(parts), idx))
        explicit = (discs.x, discs.y, s, 1.0 / (np.log(s) - discs.log_r) if weighted else None, tuple(parts))
    # the generation of each entry: the explicit discs' generations, then the rows'
    gen_of = np.concatenate([np.array([n for n, _ in discs.generation_rows], dtype=np.int64), rows.n])
    gens = unique_sorted(gen_of).tolist()
    return _SeriesTerms(
        gens=tuple(gens),
        entries=tuple(np.flatnonzero(gen_of == n) for n in gens),
        n_entries=len(gen_of),
        rings=_RingRows.build(rows.rho, rows.count, rows.step / 2.0, rows.a_start),
        ring_entry=len(parts) + np.arange(len(rows)),
        ring_s2=rows.boundary_gap * rows.boundary_gap,
        ring_weight=1.0 / (rows.log_gap - rows.log_r) if weighted else np.ones(len(rows)),
        explicit=explicit,
    )


def _series_at(c: Configuration, kind: str, ys: Sequence[BoundaryPoint]) -> list[SeriesReport]:
    """One report per boundary point: SERIES_CHUNK points per numpy pass
    over the ring rows, then one compensated sum per generation and point."""
    terms = _series_terms(c, kind)
    reports = []
    for lo in range(0, len(ys), SERIES_CHUNK):
        chunk = ys[lo : lo + SERIES_CHUNK]
        values = terms.values(np.array([y.theta for y in chunk], dtype=np.float64))
        sums = [[math.fsum(col) for col in values[e].T.tolist()] for e in terms.entries]
        for j, y in enumerate(chunk):
            per = tuple((n, s[j]) for n, s in zip(terms.gens, sums))
            reports.append(SeriesReport.from_generations(y, kind, per))
    return reports


def series_over_grid(
    c: Configuration, kind: str = "log_weighted", y_count: int = 64
) -> list[SeriesReport]:
    """One report per point of the ``y_count``-point boundary grid.

    A grid costs O(ring rows x points) in numpy passes plus O(discs) per
    point for explicit blocks; the per-row constants and, for
    ``log_weighted``, the positive-log check are computed once per
    configuration.
    """
    return _series_at(c, kind, BoundaryPoint.grid(y_count))


def log_weighted_series(c: Configuration, y: BoundaryPoint) -> SeriesReport:
    """Terms (1-|x_k|)^2 / |y-x_k|^2 * {log((1-|x_k|)/r_k)}^{-1} by generation.

    Rejects any disc with r_k >= 1-|x_k| (the log weight must be positive).
    """
    return _series_at(c, "log_weighted", [y])[0]


def poisson_series(c: Configuration, y: BoundaryPoint) -> SeriesReport:
    """Plain Poisson-weighted terms (1-|x_k|)^2 / |y-x_k|^2 by generation."""
    return _series_at(c, "poisson", [y])[0]


def affine_growth(
    report: SeriesReport, n_lo: int, n_hi: int
) -> tuple[float, float]:
    """(slope, residual fraction) of a least-squares line through the
    cumulative sums over generations [n_lo, n_hi].

    The residual fraction is max |residual| over the fitted value range; a
    clearly positive slope with small residuals is the finite-depth
    signature of a divergent series (which no finite computation can
    certify outright).
    """
    pts = [(n, v) for n, v in report.cumulative if n_lo <= n <= n_hi]
    if len(pts) < 3:
        raise CriteriaError("growth fit needs at least three generations")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    vs = np.array([p[1] for p in pts], dtype=np.float64)
    slope, intercept = np.polyfit(ns, vs, 1)
    fitted = slope * ns + intercept
    spread = float(fitted.max() - fitted.min())
    if spread <= 0.0:
        return float(slope), math.inf
    resid = float(np.max(np.abs(vs - fitted)))
    return float(slope), resid / spread


# ---------------------------------------------------------------------------
# separation statistics


def _weights(kind: str, phi: PhiSpec | None, s, rho, log_gap, log_r) -> np.ndarray:
    """The separation weight W_k of discs with boundary gap s, center
    radius rho and log radius log_r, log_gap being log s."""
    if kind == "plain":
        return 1.0 / s
    if kind == "phi_log" and phi is not None:
        return np.sqrt(-np.asarray(phi.log_phi(rho))) / s
    return np.sqrt(log_gap - log_r) / s


@dataclass(frozen=True)
class _NeighborStructure:
    """Nearest-neighbor center distances, one entry per explicit disc and
    one shared entry per ring row (all slots of a row have the same nearest
    neighbor distance up to the excluded-prefix edge cases handled in the
    candidate sets), the rows in radial order."""

    exp_nn: np.ndarray  # per explicit disc, in id order
    exp_nn_id: np.ndarray
    ring_order: np.ndarray  # the rows by rho, ties in row order
    ring_nn: np.ndarray  # per row of ring_order
    ring_pair: list  # per row of ring_order: the pair attaining ring_nn, or None

    def parts(self, c: Configuration) -> tuple:
        """(s, rho, log s, log_r, nearest-neighbor distance) of the
        explicit discs in id order, then of the ring rows in radial order."""
        discs, rows, order = c.discs, c.rings, self.ring_order
        s = discs.boundary_gap
        return (
            (s, np.hypot(discs.x, discs.y), np.log(s), discs.log_r, self.exp_nn),
            (rows.boundary_gap[order], rows.rho[order], rows.log_gap[order], rows.log_r[order], self.ring_nn),
        )


def _neighbor_structure(c: Configuration) -> _NeighborStructure:
    """Built once per configuration and kept on it, which is immutable, so
    that every separation statistic and shrink of one configuration shares a
    single build."""
    memo = vars(c)
    if "_neighbor_structure" not in memo:
        memo["_neighbor_structure"] = _build_neighbor_structure(c)
    return memo["_neighbor_structure"]


def _build_neighbor_structure(c: Configuration) -> _NeighborStructure:
    index = spatial_index(c)
    rows, base = c.rings, len(c.discs)
    first, rho_l, size_l, gap_l = (a.tolist() for a in (base + rows.starts, rows.rho, rows.sizes, rows.slot_gap))

    # rows scanned in radial order, pruned by |rho - rho'| which lower
    # bounds every cross-ring distance
    order = np.argsort(rows.rho, kind="stable")
    radial = order.tolist()
    ring_nn, ring_pair = [], []
    for pos, t in enumerate(radial):
        d_nn, pair = math.inf, None
        if size_l[t] >= 2:
            d_nn, pair = gap_l[t], (first[t] + 1, first[t])
        for direction in (-1, 1):
            q = pos + direction
            while 0 <= q < len(radial):
                u = radial[q]
                if abs(rho_l[u] - rho_l[t]) >= d_nn:
                    break
                d = ring_pair_distance(rows, t, u)
                if d < d_nn:
                    d_nn, pair = d, (first[u], first[t])
                q += direction
        ring_nn.append(d_nn)
        ring_pair.append(pair)
    ring_nn = np.array(ring_nn, dtype=np.float64)

    nn, nn_j = index.explicit_neighbors()
    if not (len(nn) and len(rows)):
        return _NeighborStructure(nn, nn_j, order, ring_nn, ring_pair)
    rho, theta = index.exp_polar
    # every explicit disc's nearest ring slot, lowest id on ties, where it
    # beats the disc's nearest explicit neighbour
    table = _RingTable(rows, base, alone=True)
    table.nearest((rho, theta), nn, nn_j, centers=True)
    # each row's nearest explicit disc, lowest id on ties, where it beats
    # the row's nearest ring slot: only a disc radially that close can
    where = np.empty(len(rows), dtype=np.int64)
    where[table.row] = np.arange(len(rows))
    t, k = _within(rows.rho[order], ring_nn, rho)
    d, slot = table.distance(rho[k], theta[k], where[order[t]], with_ids=True, centers=True)
    pick = np.lexsort((k, d, t))
    pick = pick[np.flatnonzero(np.diff(t[pick], prepend=-1))]
    for i in np.flatnonzero(d[pick] < ring_nn[t[pick]]).tolist():
        j = pick[i]
        ring_nn[t[j]], ring_pair[t[j]] = d[j], (int(k[j]), int(slot[j]))
    return _NeighborStructure(nn, nn_j, order, ring_nn, ring_pair)


def separation(
    c: Configuration, kind: str = "radius_log", phi: PhiSpec | None = None
) -> SeparationReport:
    """Minimum over ordered pairs (j, k) of |x_j - x_k| * W_k.

    W_k is 1/(1-|x_k|) for ``plain``, sqrt(log((1-|x_k|)/r_k))/(1-|x_k|)
    for ``radius_log``, and sqrt(log(1/phi(|x_k|)))/(1-|x_k|) for
    ``phi_log`` (which falls back to ``radius_log`` when no profile is
    supplied, the two being identical under r = (1-|x|)*phi(|x|)).

    The minimum for fixed k is W_k times the nearest-neighbor distance of
    x_k, so the search runs over nearest neighbors only; the result equals
    the quadratic scan, which the test suite verifies.
    """
    if kind not in ("plain", "radius_log", "phi_log"):
        raise CriteriaError(f"unknown separation kind {kind!r}")
    if c.disc_count < 2:
        return SeparationReport(kind=kind, value=math.inf, argmin_pair=None)

    ns = _neighbor_structure(c)
    # the first least value, explicit discs first: an explicit disc's id is
    # its index
    vals = np.concatenate([_weights(kind, phi, *part[:4]) * part[4] for part in ns.parts(c)])
    i = int(np.argmin(vals))
    if vals[i] == math.inf:
        return SeparationReport(kind=kind, value=math.inf, argmin_pair=None)
    explicit = len(c.discs)
    pair = (int(ns.exp_nn_id[i]), i) if i < explicit else ns.ring_pair[i - explicit]
    return SeparationReport(kind=kind, value=float(vals[i]), argmin_pair=pair)


def shrink_for_separation(
    c: Configuration, threshold: float, margin: float = 1.0 + 1e-9
) -> tuple[Configuration, float]:
    """Shrink radii just enough that the radius-log separation statistic
    reaches ``threshold``; returns (shrunk configuration, log_delta).

    Shrinking multiplies radii by delta <= 1, which raises every factor
    log((1-|x_k|)/(delta*r_k)) without moving any center, so a sufficiently
    negative log_delta always clears the threshold.  The required amount is
    max over discs of (threshold*(1-|x_k|)/d_nn)^2 - log((1-|x_k|)/r_k).
    """
    from .generators import shrink as _shrink

    if threshold <= 0.0:
        return c, 0.0
    (s, _, log_gap, log_r, d_nn), rings = _neighbor_structure(c).parts(c)
    need = float(np.max((threshold * margin * s / d_nn) ** 2 - (log_gap - log_r), initial=0.0))
    # the rows in Python arithmetic: x ** 2 is the C library's pow, which
    # is not x * x in the last bit on some arguments
    for s, _, log_gap, log_r, d_nn in zip(*(a.tolist() for a in rings)):
        need = max(need, (threshold * margin * s / d_nn) ** 2 - (log_gap - log_r))
    if need <= 0.0:
        return c, 0.0
    return _shrink(c, log_delta=-need), -need


# ---------------------------------------------------------------------------
# integral test


def check_integral_upper(upper: float) -> None:
    """Refuse an integration endpoint outside (0, 1)."""
    if not (0.0 < upper < 1.0):
        raise CriteriaError(f"integration endpoint must lie in (0, 1), got {upper!r}")


def integral_test(m: MSpec, phi: PhiSpec, upper: float) -> float:
    """int_0^upper M(t) / ((1-t) * log(1/phi(t))) dt.

    In u = log(1/(1-t)) the integral is int_0^U M(t) / log(1/phi(t)) du
    with U = log(1/(1-upper)); for the exp_power pair with matching
    exponents the integrand is the constant c0.  It is evaluated by
    composite Gauss-Legendre on panels of unit width in u, split at the
    knots of a table profile, with 16 and with 32 nodes per panel.  Relative
    error <= 1e-6: raises SingularIntegrandError when the two rules disagree
    by more than that, or when log(1/phi) at a node is <= 0 or not finite.
    """
    check_integral_upper(upper)
    u_end = -math.log1p(-upper)
    knots = [-math.log1p(-t) for t in phi.knots_t if 0.0 < t < upper]
    edges = unique_sorted(np.concatenate([np.arange(math.ceil(u_end)), knots, [u_end]]))
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]

    def rule(nodes: int) -> float:
        x, w = leggauss(nodes)
        t = -np.expm1(-(lo + half * (x + 1.0)))
        denom = -phi.log_phi(t)
        if not np.all((denom > 0.0) & np.isfinite(denom)):
            raise SingularIntegrandError(f"integrand singular on [0, {upper}]")
        return float(np.sum(half * w * (m.value(t) / denom)))

    coarse, value = rule(16), rule(32)
    if not math.isfinite(value) or abs(value - coarse) > 1e-6 * abs(value):
        raise SingularIntegrandError(
            f"quadrature did not converge: {value!r} against {coarse!r} at half the nodes"
        )
    return value


# ---------------------------------------------------------------------------
# budget sums


def check_alpha(alpha: float) -> None:
    """Refuse a budget exponent outside (0, inf)."""
    if not (0.0 < alpha < math.inf):
        raise CriteriaError(f"alpha must be positive and finite, got {alpha!r}")


def budget_sums(c: Configuration, alpha: float) -> BudgetSums:
    """(sum r^alpha, sum {log 1/r}^{-alpha}, sum {log 1/r}^{-1}), each
    correctly rounded by :func:`exact_sum` over one array of terms: one term
    per ring row, its slot count times the per-disc value, and one per
    explicit disc.  The per-row values are evaluated with ``math``, as a
    scalar evaluation gives them.
    """
    check_alpha(alpha)
    log_r, rows = c.discs.log_r, c.rings
    k = rows.sizes.astype(np.float64)
    row_log_r = rows.log_r.tolist()
    with np.errstate(under="ignore"):
        terms = (
            (np.exp(alpha * log_r), k * np.array([math.exp(alpha * v) if alpha * v > -745 else 0.0 for v in row_log_r])),
            ((-log_r) ** (-alpha), k * np.array([(-v) ** (-alpha) for v in row_log_r])),
            (1.0 / (-log_r), k / (-rows.log_r)),
        )
    sums = [exact_sum(np.concatenate([ring, explicit])) for explicit, ring in terms]
    return BudgetSums(
        sum_r_alpha=sums[0], sum_log_inv_alpha=sums[1], sum_log_inv_1=sums[2], alpha=alpha
    )


@dataclass(frozen=True)
class AvoidabilityCertificate:
    issued: bool
    budget: float
    threshold: float
    outside_half_disc: bool
    reason: str


def avoidability_certificate(c: Configuration) -> AvoidabilityCertificate:
    """Certify avoidability from the reciprocal-log capacity budget.

    Issued when sum_k 1/log(1/r_k) <= 1/(2 log 4) and every closed disc
    avoids the closed central disc of radius 1/2; the capacitary potential
    of the union is then at most 1/2 at the origin, so Brownian motion
    escapes with probability at least 1/2.
    """
    if c.disc_count == 0:
        return AvoidabilityCertificate(
            issued=True,
            budget=0.0,
            threshold=AVOIDABLE_BUDGET,
            outside_half_disc=True,
            reason="empty configuration",
        )
    sums = budget_sums(c, alpha=1.0)
    discs, rows = c.discs, c.rings
    outside = not (
        np.any(np.hypot(discs.x, discs.y) - discs.radius <= 0.5) or np.any(rows.rho - rows.radius <= 0.5)
    )
    issued = outside and sums.sum_log_inv_1 <= AVOIDABLE_BUDGET + 1e-15
    if issued:
        reason = "reciprocal-log budget within threshold and discs outside |x|<=1/2"
    elif not outside:
        reason = "a disc reaches into the central disc |x| <= 1/2"
    else:
        reason = "reciprocal-log budget exceeds the threshold"
    return AvoidabilityCertificate(
        issued=issued,
        budget=sums.sum_log_inv_1,
        threshold=AVOIDABLE_BUDGET,
        outside_half_disc=outside,
        reason=reason,
    )


def power_log_bound_constant(alpha: float) -> float:
    """c(alpha) = (2/(e*alpha))^2, the sharp constant with
    r^alpha <= c(alpha) * {log(1/r)}^{-2} on (0, 1).

    Maximizing r^alpha * log^2(1/r) over r: with L = log(1/r) the objective
    e^{-alpha L} L^2 peaks at L = 2/alpha with value (2/(e*alpha))^2.
    """
    return (2.0 / (math.e * alpha)) ** 2


# ---------------------------------------------------------------------------
# center density


def count_centers_within(c: Configuration, center: Point, radius: float) -> int:
    """Number of obstacle centers in the open disc B(center, radius)."""
    if radius <= 0.0:
        return 0
    discs, rows = c.discs, c.rings
    total = int(np.count_nonzero((discs.x - center.x) ** 2 + (discs.y - center.y) ** 2 < radius * radius))
    # the rows that the disc reaches, and on each the slots a whose angle
    # (a + 1/2) * step lies strictly within the half-width w of the angle
    # subtended around the center's
    rho_p, theta_p = center.norm(), center.angle()
    dr2 = (rho_p - rows.rho) ** 2
    near = np.flatnonzero(dr2 < radius * radius)
    rho, step, count, a_start = rows.rho[near], rows.step[near], rows.count[near], rows.a_start[near]
    q = (radius * radius - dr2[near]) / (4.0 * rho_p * rho) if rho_p > 0 else np.full(len(near), 2.0)
    # math.asin row by row: np.arcsin may differ from it in the last bit
    w = 2.0 * np.array([math.asin(math.sqrt(v)) for v in np.minimum(q, 1.0).tolist()])
    a_lo = np.floor((theta_p - w) / step - 0.5).astype(np.int64) + 1
    a_hi = np.ceil((theta_p + w) / step - 0.5).astype(np.int64) - 1
    inside = np.maximum(a_hi - a_lo + 1, 0)
    # less the slots whose index mod count falls in the excluded prefix
    inside -= _count_below(a_hi + 1 - a_lo // count * count, count, a_start)
    inside += _count_below(a_lo % count, count, a_start)
    whole = (q >= 1.0) | (a_hi - a_lo + 1 >= count)
    return total + int(np.where(whole, rows.sizes[near], np.where(a_hi < a_lo, 0, inside)).sum())


def _count_below(n: np.ndarray, modulus: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """#{a in [0, n) : a mod modulus < prefix}, 0 where n <= 0."""
    full, rem = np.divmod(np.maximum(n, 0), modulus)
    return full * prefix + np.minimum(rem, prefix)


def density_profile(
    c: Configuration,
    a: float,
    t_samples: Sequence[float],
) -> np.ndarray:
    """N_a(x) = #centers in B(x, a(1-|x|)) sampled along the positive axis."""
    if not (0.0 < a < 1.0):
        raise CriteriaError("density parameter a must lie in (0, 1)")
    out = np.empty(len(t_samples))
    for i, t in enumerate(t_samples):
        if not (0.0 <= t < 1.0):
            raise CriteriaError("density samples must lie in [0, 1)")
        out[i] = count_centers_within(c, Point(t, 0.0), a * (1.0 - t))
    return out


def density_bounds(
    c: Configuration, m: MSpec, a: float, t_samples: Sequence[float]
) -> tuple[float, float]:
    """Empirical (min, max) of N_a(x)/M(|x|) over the sample grid."""
    n_vals = density_profile(c, a, t_samples)
    m_vals = np.array([float(m.value(t)) for t in t_samples])
    ratios = n_vals / m_vals
    return float(ratios.min()), float(ratios.max())
