"""Constructors for obstacle configurations.

Two grid families subdivide each dyadic polar cell into a p x p array of
"subsquares" in (1-r, theta) parameter space and place one disc at each
parameter-space midpoint, with radii r = (1-|x|) * phi(|x|) for a decreasing
radius profile phi:

* :func:`generate_subsquares` lets the subdivision count grow with depth,
  p_n = floor(2^{n*beta/2}), paired with phi(t) = exp(-1/(c0*(1-t)^beta));
  this is the construction whose log-radius budget sums converge
  geometrically.
* :func:`generate_phi_grid` uses a fixed per-cell subdivision and any
  radius profile.

:func:`generate_avoidable_ring` builds the complementary example: finitely
many discs in the annulus 1/2 < |x| < 1 whose reciprocal-log budget
sum_k 1/log(1/r_k) stays below 1/(2*log 4), which certifies that Brownian
motion from the origin avoids them with probability at least 1/2.

All generators are deterministic: identical parameters give byte-identical
serialized configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ChampagneError
from .geometry import (
    Configuration,
    Disc,
    DiscBlock,
    GeometryError,
    Point,
    RingBlock,
    TWO_PI,
    check_id_range,
    generations_of,
    sector_count,
    validate_configuration,
)

# budget threshold under which a finite union of discs in the outer annulus
# is certifiably avoidable: sum_k 1/log(1/r_k) <= 1/(2 log 4) makes the
# capacitary potential of the union at most 1/2 at the origin
AVOIDABLE_BUDGET = 1.0 / (2.0 * math.log(4.0))


class GeneratorError(ChampagneError):
    """Rejected generator parameters or an invalid generated configuration."""


# ---------------------------------------------------------------------------
# radius profiles and growth bounds


@dataclass(frozen=True)
class PhiSpec:
    """Decreasing radius profile phi: [0,1) -> (0,1), evaluated in log space.

    ``exp_power`` is phi(t) = exp(-1/(c0*(1-t)^beta)); ``table`` interpolates
    log(phi) piecewise-linearly between knots.
    """

    form: str = "exp_power"
    c0: float = 0.05
    beta: float = 1.5
    knots_t: tuple[float, ...] = ()
    knots_log_phi: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.form == "exp_power":
            if not (0.0 < self.c0 < 1.0):
                raise GeneratorError(f"c0 must lie in (0,1), got {self.c0}")
            if not (self.beta > 0.0):
                raise GeneratorError(f"beta must be positive, got {self.beta}")
        elif self.form == "table":
            t = np.asarray(self.knots_t)
            lp = np.asarray(self.knots_log_phi)
            if len(t) < 2 or len(t) != len(lp):
                raise GeneratorError("table profile needs matching knot arrays")
            if np.any(np.diff(t) <= 0):
                raise GeneratorError("table knots must have increasing t")
            if np.any(np.diff(lp) > 0) or np.any(lp >= 0):
                raise GeneratorError("table profile must be decreasing with values in (0,1)")
        else:
            raise GeneratorError(f"unknown radius profile form {self.form!r}")

    def log_phi(self, t):
        """log(phi(t)) for scalar or array t in [0, 1)."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t >= 1.0):
            raise GeneratorError("radius profile evaluated outside [0, 1)")
        if self.form == "exp_power":
            out = -1.0 / (self.c0 * (1.0 - t) ** self.beta)
        else:
            out = np.interp(
                t,
                np.asarray(self.knots_t),
                np.asarray(self.knots_log_phi),
            )
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        d: dict = {"form": self.form}
        if self.form == "exp_power":
            d.update(c0=self.c0, beta=self.beta)
        else:
            d.update(knots_t=list(self.knots_t), knots_log_phi=list(self.knots_log_phi))
        return d


@dataclass(frozen=True)
class MSpec:
    """Increasing center-density bound M(t) = (1-t)^{-beta}, M >= 1.

    Satisfies M(1 - t/2) = doubling_c * M(1 - t) with doubling_c exactly
    2^beta for the power form.
    """

    beta: float
    form: str = "power"

    def __post_init__(self) -> None:
        if self.form != "power":
            raise GeneratorError(f"unknown growth form {self.form!r}")
        if not (self.beta > 0.0):
            raise GeneratorError("growth exponent must be positive")

    @property
    def doubling_c(self) -> float:
        return 2.0**self.beta

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = (1.0 - t) ** (-self.beta)
        return out if out.ndim else float(out)

    def check_doubling(self, samples: int = 64) -> float:
        """Max |M(1-t/2)/M(1-t) - doubling_c| over a sample grid."""
        t = np.linspace(1e-6, 1.0, samples, endpoint=True)
        ratio = self.value(1.0 - t / 2.0) / self.value(1.0 - t)
        return float(np.max(np.abs(ratio - self.doubling_c)))


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters for the depth-growing subsquare construction."""

    phi: PhiSpec = field(default_factory=PhiSpec)
    alpha: float = 2.0
    beta: float = 1.5
    c0: float = 0.05
    n_min: int = 1
    n_max: int = 8
    drop_first: int = 0
    certify_budget: bool = False

    def __post_init__(self) -> None:
        if self.n_min < 1 or self.n_min > self.n_max:
            raise GeneratorError("need 1 <= n_min <= n_max")
        if self.drop_first < 0:
            raise GeneratorError("drop_first must be >= 0")
        if not math.isfinite(self.alpha):
            raise GeneratorError(f"alpha must be finite, got {self.alpha!r}")
        # subdivision reads beta and the radii read phi: they must agree
        if self.phi.form == "exp_power" and (self.phi.beta, self.phi.c0) != (self.beta, self.c0):
            raise GeneratorError(
                f"phi has (beta, c0) = ({self.phi.beta}, {self.phi.c0}) but the parameters "
                f"have ({self.beta}, {self.c0}); use GeneratorParams.exp_power"
            )
        if self.certify_budget:
            if not (self.alpha > 1.0):
                raise GeneratorError("budget certification needs alpha > 1")
            if not (self.beta > 1.0 / (self.alpha - 1.0)):
                raise GeneratorError(
                    "budget certification needs beta > 1/(alpha-1); got "
                    f"beta={self.beta}, alpha={self.alpha}"
                )

    @classmethod
    def exp_power(
        cls,
        beta: float = 1.5,
        c0: float = 0.05,
        alpha: float = 2.0,
        n_min: int = 1,
        n_max: int = 8,
        drop_first: int = 0,
        certify_budget: bool = False,
    ) -> "GeneratorParams":
        return cls(
            phi=PhiSpec(form="exp_power", c0=c0, beta=beta),
            alpha=alpha,
            beta=beta,
            c0=c0,
            n_min=n_min,
            n_max=n_max,
            drop_first=drop_first,
            certify_budget=certify_budget,
        )


def subdivision_count(n: int, beta: float) -> int:
    """Per-cell subdivision p_n = floor(2^{n*beta/2}), at least 1."""
    return max(1, int(math.floor(2.0 ** (n * beta / 2.0))))


# ---------------------------------------------------------------------------
# grid construction


def _row_gaps(n: int, p: int) -> np.ndarray:
    """Boundary gaps s_i of the p radial rows of generation n (ascending s)."""
    i = np.arange(p, dtype=np.float64)
    return 2.0 ** (-n - 1) * (1.0 + (i + 0.5) / p)


def _grid_rings(
    phi: PhiSpec, p_of_n: Callable[[int], int], n_min: int, n_max: int, drop_first: int = 0
) -> list[RingBlock]:
    """The p_n rows of each generation, less a canonical prefix of
    ``drop_first`` discs (see :func:`_apply_drop`)."""
    # generation n holds sector_count(n) * p_n^2 discs: refuse before a row
    # is built, so that a configuration too large for int64 ids fails fast
    total = -drop_first
    for n in range(n_min, n_max + 1):
        total += sector_count(n) * p_of_n(n) ** 2
        check_id_range(total)
    rings: list[RingBlock] = []
    for n in range(n_min, n_max + 1):
        p = p_of_n(n)
        count = sector_count(n) * p
        for s in _row_gaps(n, p):
            rho = 1.0 - s
            log_r = math.log(s) + float(phi.log_phi(rho))
            rings.append(RingBlock(n=n, rho=rho, log_r=log_r, count=count))
    return _apply_drop(rings, drop_first)


def _apply_drop(rings: list[RingBlock], drop_first: int) -> list[RingBlock]:
    """Drop the first ``drop_first`` discs in canonical (n, m, row, col) order.

    Within one generation with subdivision p, the disc at cell m, row i,
    col j occupies ring-(n, i) slot a = m*p + j; dropping a canonical prefix
    therefore excludes a per-ring slot prefix.
    """
    if drop_first == 0:
        return rings
    by_gen: dict[int, list[RingBlock]] = {}
    for r in rings:
        by_gen.setdefault(r.n, []).append(r)
    out: list[RingBlock] = []
    remaining = drop_first
    for n in sorted(by_gen):
        rows = by_gen[n]
        p = len(rows)
        cells = rows[0].count // p
        total = cells * p * p
        if remaining >= total:
            remaining -= total
            continue
        if remaining == 0:
            out.extend(rows)
            continue
        whole_cells, rem = divmod(remaining, p * p)
        full_rows, cols = divmod(rem, p)
        for i, r in enumerate(rows):
            if i < full_rows:
                start = whole_cells * p + p
            elif i == full_rows:
                start = whole_cells * p + cols
            else:
                start = whole_cells * p
            if start < r.count:
                out.append(RingBlock(r.n, r.rho, r.log_r, r.count, start))
        remaining = 0
    if remaining > 0:
        raise GeneratorError("drop_first exceeds the number of generated discs")
    return out


def _finish(blocks: Sequence[RingBlock], n_max: int, provenance: dict) -> Configuration:
    config = Configuration(blocks=tuple(blocks), n_max=n_max, provenance=provenance)
    report = validate_configuration(config)
    if not report.ok:
        first = report.violations[0]
        raise GeneratorError(
            f"generated configuration invalid: {first.kind} {first.detail} "
            f"at indices {first.indices}"
        )
    return config


def generate_subsquares(params: GeneratorParams) -> Configuration:
    """Depth-growing subsquare configuration.

    Each generation-n cell is divided into p_n^2 parameter-space subsquares,
    p_n = floor(2^{n*beta/2}); one disc sits at each midpoint with
    r = (1-|x|) * phi(|x|).  The first ``drop_first`` discs in canonical
    order are omitted.
    """
    rings = _grid_rings(
        params.phi,
        lambda n: subdivision_count(n, params.beta),
        params.n_min,
        params.n_max,
        params.drop_first,
    )
    provenance = {
        "generator": "subsquares",
        "phi": params.phi.to_dict(),
        "alpha": params.alpha,
        "beta": params.beta,
        "c0": params.c0,
        "n_min": params.n_min,
        "n_max": params.n_max,
        "drop_first": params.drop_first,
    }
    return _finish(rings, params.n_max, provenance)


def generate_phi_grid(
    phi: PhiSpec, per_cell: int = 1, n_min: int = 1, n_max: int = 8
) -> Configuration:
    """Fixed-subdivision grid: per_cell^2 discs in every cell, radii from phi."""
    if per_cell < 1:
        raise GeneratorError("per_cell must be >= 1")
    if n_min < 1 or n_min > n_max:
        raise GeneratorError("need 1 <= n_min <= n_max")
    rings = _grid_rings(phi, lambda n: per_cell, n_min, n_max)
    provenance = {
        "generator": "phi_grid",
        "phi": phi.to_dict(),
        "per_cell": per_cell,
        "n_min": n_min,
        "n_max": n_max,
    }
    return _finish(rings, n_max, provenance)


# ---------------------------------------------------------------------------
# the avoidable example


def geometric_log_radius_schedule(k_discs: int, scale: float = math.log(4.0)) -> list[float]:
    """log r_k = -2^{k+2} * scale for k = 1..k_discs.

    The reciprocal-log budget of this schedule is sum 2^{-k-2}/scale
    < 1/(4*scale), half the default avoidable budget.
    """
    return [-(2.0 ** (k + 2)) * scale for k in range(1, k_discs + 1)]


def generate_avoidable_ring(
    log_radius_schedule: Sequence[float] | None = None,
    target: float = AVOIDABLE_BUDGET,
    ring_radius: float = 0.75,
    k_discs: int = 6,
) -> Configuration:
    """Finitely many discs on one mid-annulus circle, equally spaced.

    The reciprocal-log budget sum_k 1/log(1/r_k) must not exceed ``target``,
    and ``target`` must not exceed 1/(2 log 4); every closed disc must avoid
    the closed central disc of radius 1/2.
    """
    if not math.isfinite(target):
        raise GeneratorError(f"avoidable budget target must be finite, got {target!r}")
    if target > AVOIDABLE_BUDGET + 1e-15:
        raise GeneratorError(
            f"avoidable budget target {target} exceeds threshold {AVOIDABLE_BUDGET}"
        )
    if log_radius_schedule is None:
        log_radius_schedule = geometric_log_radius_schedule(k_discs)
    log_r = np.asarray(log_radius_schedule, dtype=np.float64)
    if log_r.size and np.any(log_r >= 0.0):
        raise GeneratorError("schedule radii must be < 1")
    budget = float(np.sum(1.0 / (-log_r))) if log_r.size else 0.0
    if budget > target + 1e-15:
        raise GeneratorError(
            f"schedule budget {budget} exceeds the requested target {target}"
        )
    if not (0.5 < ring_radius < 1.0):
        raise GeneratorError("ring radius must lie in (1/2, 1)")
    k = len(log_r)
    blocks: tuple = ()
    if k:
        theta = TWO_PI * (np.arange(k, dtype=np.float64) + 0.5) / k
        x = ring_radius * np.cos(theta)
        y = ring_radius * np.sin(theta)
        with np.errstate(under="ignore"):
            radii = np.exp(log_r)
        if np.any(ring_radius - radii <= 0.5):
            raise GeometryError("a scheduled disc reaches into |x| <= 1/2")
        order = np.argsort(theta)
        blocks = (DiscBlock(x[order], y[order], log_r[order]),)
    n_max = int(generations_of(np.array([1.0 - ring_radius]))[0]) if k else 0
    provenance = {
        "generator": "avoidable_ring",
        "target": target,
        "ring_radius": ring_radius,
        "log_radius_schedule": [float(v) for v in log_r],
        "budget": budget,
    }
    config = Configuration(blocks=blocks, n_max=n_max, provenance=provenance)
    report = validate_configuration(config)
    if not report.ok:
        first = report.violations[0]
        raise GeneratorError(f"avoidable configuration invalid: {first.kind}")
    return config


# ---------------------------------------------------------------------------
# transforms


def truncate(c: Configuration, n_max: int | None = None, drop_first: int = 0) -> Configuration:
    """Keep discs of generation <= n_max, then drop a canonical-order prefix."""
    keep_n = c.n_max if n_max is None else int(n_max)
    blocks: list = []
    for b in c.blocks:
        if isinstance(b, RingBlock):
            if b.n <= keep_n:
                blocks.append(b)
        else:
            sel = b.generations <= keep_n
            if sel.all():
                blocks.append(b)
            elif sel.any():
                blocks.append(DiscBlock(b.x[sel], b.y[sel], b.log_r[sel]))
    remaining = drop_first
    out: list = []
    for b in blocks:
        if remaining == 0:
            out.append(b)
        elif remaining >= len(b):
            remaining -= len(b)
        elif isinstance(b, RingBlock):
            out.append(RingBlock(b.n, b.rho, b.log_r, b.count, b.a_start + remaining))
            remaining = 0
        else:
            out.append(DiscBlock(b.x[remaining:], b.y[remaining:], b.log_r[remaining:]))
            remaining = 0
    if remaining > 0:
        raise GeneratorError("drop_first exceeds the number of stored discs")
    provenance = dict(c.provenance)
    provenance["truncated"] = {"n_max": keep_n, "drop_first": drop_first}
    return Configuration(blocks=tuple(out), n_max=min(c.n_max, keep_n), provenance=provenance)


def shrink(
    c: Configuration, delta: float | None = None, log_delta: float | None = None
) -> Configuration:
    """Multiply every radius by delta in (0, 1] (given directly or as log)."""
    if (delta is None) == (log_delta is None):
        raise GeneratorError("pass exactly one of delta, log_delta")
    if log_delta is None:
        if not (0.0 < delta <= 1.0):
            raise GeneratorError(f"delta must lie in (0, 1], got {delta}")
        log_delta = math.log(delta)
    if log_delta > 0.0:
        raise GeneratorError("log_delta must be <= 0")
    blocks: list = []
    for b in c.blocks:
        if isinstance(b, RingBlock):
            blocks.append(RingBlock(b.n, b.rho, b.log_r + log_delta, b.count, b.a_start))
        else:
            blocks.append(DiscBlock(b.x, b.y, b.log_r + log_delta))
    provenance = dict(c.provenance)
    provenance["shrink_log_delta"] = provenance.get("shrink_log_delta", 0.0) + log_delta
    return Configuration(blocks=tuple(blocks), n_max=c.n_max, provenance=provenance)


def closed_form_budget_bound(alpha: float, beta: float, c0: float, n_min: int, n_max: int) -> float:
    """Geometric upper bound 16*c0^alpha * sum_n 2^{(1-beta*(alpha-1))*n}.

    Valid for the subsquare construction: each disc of generation n has
    log(1/r_k) >= (1/c0)*(1-|x_k|)^{-beta} and there are p_n^2 * 2^{n+4}
    of them with 1-|x_k| <= 2^{-n}.
    """
    rate = -beta * (alpha - 1.0) + 1.0
    terms = [2.0 ** (rate * n) for n in range(n_min, n_max + 1)]
    return 16.0 * c0**alpha * math.fsum(terms)
