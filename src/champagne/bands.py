"""The explicit discs of a configuration as one distance table.

:class:`DiscTable` holds the explicitly stored discs that
:class:`champagne.geometry.SpatialIndex` queries.  The index builds it only
for a configuration with explicit discs, so a file of rings alone never
loads this module.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _CERT_SLACK, _CHUNK, _NO_ID, TWO_PI, _keep_nearest, unique_sorted

# A band scans at most this many discs on either side of a query's angular
# slot.
_HALF_WINDOW = 16


def _nearest_rows(
    px: np.ndarray,
    py: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    rad: np.ndarray | None,
    gid: np.ndarray | None = None,
    skip: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """For each point p_i, the minimum over the discs k of row i (or of
    every disc, for 1-D arrays) of |p_i - x_k| - r_k, or of |p_i - x_k| when
    ``rad`` is None, leaving out the entries where ``skip`` is set.  Given
    the disc ids ``gid`` it also returns the lowest id attaining each
    minimum (_NO_ID where every disc is left out).

    Every entry is evaluated with the expression of a brute-force scan:
    hypot(dx, dy) - r_k for boundary distances, and sqrt(dx*dx + dy*dy), the
    expression every separation statistic has been reported with, for
    center distances.
    """
    dx, dy = x - px[:, None], y - py[:, None]
    if rad is None:
        d = dx * dx
        d += dy * dy
        np.sqrt(d, out=d)
    else:
        d = np.hypot(dx, dy)
        d -= rad
    if skip is not None:
        d[skip] = np.inf
    dmin = d.min(axis=1)
    if gid is None:
        return dmin, None
    ids = np.where(d == dmin[:, None], gid, _NO_ID).min(axis=1)
    ids[np.isinf(dmin)] = _NO_ID
    return dmin, ids


class DiscTable:
    """Every explicit disc of a configuration, grouped into bands by the
    dyadic generation n of its center (band 0 is the central region) and
    sorted by center angle within each band.  Bands ascend in n, so the
    radii of their centers ascend too.

    A point's distance to a band is the least over the 2 * ``half`` discs
    nearest in angle to its ``searchsorted`` slot, where ``half`` is twice
    the largest number of the band's discs in one sector of generation n,
    between 2 and _HALF_WINDOW: a band with one disc per sector scans 4
    discs.  Every other disc of the band lies at least dtheta away in
    angle, where dtheta is the angular distance to the nearest disc left
    out, so its distance is at least sqrt(gap^2 + 4 rho_p rho_min
    sin^2(dtheta/2)) - r_max, with ``gap`` the distance from rho_p to
    [rho_min, rho_max], the radii of the band's centers.  A point whose
    bound does not clear the window's minimum by _CERT_SLACK is scanned
    against the whole band, as is every point of a band of at most
    4 * ``half`` discs.  Distances use the expressions of a full scan, so
    minima and lowest ids are bit-equal to it.

    The discs are stored once, each windowed band cyclically padded by
    ``half + 1`` discs on either side, so that a window is a run of the
    padded columns.  :meth:`nearest` evaluates each point's home band, the
    radially nearer of the two bands around its rho, and widens on a side
    while the bands there could still come nearer, as
    :class:`champagne.geometry._RingTable` does for ring rows: the (point,
    band) pairs of one step are gathered in one batch, whatever their bands.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, rad: np.ndarray, gid: np.ndarray, gen: np.ndarray
    ):
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + TWO_PI, theta)
        order = np.lexsort((theta, gen))
        gen, theta = gen[order], theta[order]
        x, y, rad, gid = x[order], y[order], rad[order], gid[order]
        rho = np.hypot(x, y)
        first = np.flatnonzero(np.diff(gen, prepend=-1))
        self.n = gen[first]
        self.count = np.diff(first, append=len(gen))
        self.r_max = np.maximum.reduceat(rad, first)
        self.rho_min = np.minimum.reduceat(rho, first)
        self.rho_max = np.maximum.reduceat(rho, first)
        # theta is sorted within a band, so each sector's discs form one run;
        # counting runs needs no histogram over the 2^(n+4) sectors of a deep
        # generation
        sectors = (theta * (np.left_shift(1, gen + 4) / TWO_PI)).astype(np.int64)
        runs = np.flatnonzero((np.diff(sectors, prepend=-1) != 0) | (np.diff(gen, prepend=-1) != 0))
        crowd = np.maximum.reduceat(np.diff(runs, append=len(gen)), np.searchsorted(runs, first))
        self.half = np.clip(2 * crowd, 2, _HALF_WINDOW)
        self.windowed = self.count > 4 * self.half
        pad = np.where(self.windowed, self.half + 1, 0)
        # the discs of band b sit at padded positions core[b] ..
        # core[b] + count[b] - 1, the last pad[b] of them copied before and
        # the first pad[b] after, their angles shifted by a turn
        parts, shift = [], []
        for f, c, p in zip(first.tolist(), self.count.tolist(), pad.tolist()):
            band = np.arange(f, f + c)
            parts += [band[c - p :], band, band[:p]]
            shift += [np.full(p, -TWO_PI), np.zeros(c), np.full(p, TWO_PI)]
        src = np.concatenate(parts)
        self.x, self.y, self.rad, self.gid = x[src], y[src], rad[src], gid[src]
        self.theta = theta[src] + np.concatenate(shift)
        self.core = np.cumsum(self.count + 2 * pad) - self.count - pad
        self.first = first
        # (band, angle) keys in lexicographic order: one searchsorted finds
        # each pair's slot within its own band, with no rounding of the angle
        self.keys = np.repeat(np.arange(len(first)), self.count) + 1j * theta
        inf = np.array([np.inf])
        self.rho_min_above = np.concatenate([self.rho_min, inf])
        self.rho_max_below = np.concatenate([-inf, self.rho_max])
        # the bands below b lie at least rho_p - inner[b] inward of a point,
        # the bands from b on at least outer[b] - rho_p outward, less their
        # radii unless the query is between centers
        self.edges = {}
        for centers in (False, True):
            reach = 0.0 if centers else self.r_max
            inner = np.maximum.accumulate(self.rho_max + reach)
            outer = np.minimum.accumulate((self.rho_min - reach)[::-1])[::-1]
            self.edges[centers] = np.concatenate([-inf, inner]), np.concatenate([outer, inf])

    def depth_ends(self, depth: np.ndarray) -> np.ndarray:
        """For each depth D, the number of bands of generation <= D."""
        return np.searchsorted(self.n, depth, side="right")

    def nearest(
        self,
        px: np.ndarray,
        py: np.ndarray,
        rho_p: np.ndarray,
        theta_p: np.ndarray,
        best: np.ndarray,
        best_id: np.ndarray | None = None,
        end: np.ndarray | None = None,
        best_lo: np.ndarray | None = None,
        end_lo: np.ndarray | None = None,
        centers: bool = False,
        exclude: np.ndarray | None = None,
    ) -> None:
        """Lower, in place, each point's ``best`` to its distance to the
        discs of the bands below end[i] (every band when ``end`` is None):
        |p - x_k| - r_k or, with ``centers``, |p - x_k|, skipping the disc
        whose id is exclude[i] for point i.  Given ``best_id``, an equal
        distance takes the lower id.  Given ``best_lo``, it is lowered by
        the bands below end_lo[i] <= end[i] alone, and a band needs
        evaluating while it may come nearer than ``best_lo``."""
        if len(self.n) == 1:
            # the one band is every point's home, and there is nothing to
            # widen to
            home = np.zeros(len(px), dtype=np.int64) if end is None else end - 1
        else:
            outer = np.searchsorted(self.rho_min, rho_p, side="right")
            gap_out = self.rho_min_above[outer] - rho_p
            if end is not None:
                np.minimum(outer, end, out=outer)
                gap_out[outer >= end] = np.inf
            # the radially nearer of the bands outer - 1 and outer; -1 where
            # there is none
            home = outer - (rho_p - self.rho_max_below[outer] <= gap_out)
        found = home >= 0
        # the home band is evaluated whatever its distance, as the ring
        # table evaluates a point's nearest row
        pts = slice(None) if found.all() else np.flatnonzero(found)  # views of a whole batch
        self._merge(
            pts, home[pts], px, py, rho_p, theta_p, best, best_id, best_lo, end_lo, centers, exclude
        )
        if len(self.n) == 1:
            return
        # bands lo .. hi - 1 are done; the points whose next band inward or
        # outward may still come nearer go on
        inner, outer_edge = self.edges[centers]
        lo, hi = np.maximum(home, 0), home + 1
        live = np.flatnonzero(found)
        while len(live):
            i, o, rp = lo[live], hi[live], rho_p[live]
            reach_in = best[live]
            if best_lo is not None:
                # inward, the bands from end_lo on matter to best alone and
                # the bands below it to best_lo: where none of the first
                # can come within best, go on with the second
                e = end_lo[live]
                i = np.where((i > e) & ~(rp - inner[i] <= reach_in + _CERT_SLACK), e, i)
                reach_in = np.where(i > e, reach_in, best_lo[live])
            # a point with nothing found yet (every disc it met was excluded)
            # has best = inf, which even the missing band -1 or B would meet
            go_in = (i > 0) & (rp - inner[i] <= reach_in + _CERT_SLACK)
            go_out = (o < len(self.n) if end is None else o < end[live]) & (
                outer_edge[o] - rp <= self._reach(live, o, best, best_lo, end_lo) + _CERT_SLACK
            )
            pts = np.concatenate([live[go_in], live[go_out]])
            bands = np.concatenate([i[go_in] - 1, o[go_out]])
            self._merge(pts, bands, px, py, rho_p, theta_p, best, best_id, best_lo, end_lo,
                        centers, exclude, split=int(go_in.sum()))
            lo[live] = i - go_in
            hi[live] = o + go_out
            live = live[go_in | go_out]

    @staticmethod
    def _reach(pts, band, best, best_lo, end_lo) -> np.ndarray:
        """How near band[i] must come to matter to point pts[i]."""
        if best_lo is None:
            return best[pts]
        return np.where(band < end_lo[pts], best_lo[pts], best[pts])

    def _merge(self, pts, band, px, py, rho_p, theta_p, best, best_id, best_lo, end_lo,
               centers, exclude, split=None) -> None:
        """Evaluate the pairs (pts[i], band[i]) and merge them into the
        running minima.  A point appears at most once in pts[:split] and
        once in pts[split:]; pts may be slice(None), every point once."""
        if not len(band):
            return
        reach = self._reach(pts, band, best, best_lo, end_lo)
        d, ids = self._pairs(
            px[pts], py[pts], rho_p[pts], theta_p[pts], band, reach, centers,
            None if exclude is None else exclude[pts], best_id is not None,
        )
        halves = (slice(None, split), slice(split, None)) if split is not None else (slice(None),)
        for part in halves:
            k, dk = pts if split is None else pts[part], d[part]
            sub = best[k]
            sub_id = None if best_id is None else best_id[k]
            _keep_nearest(sub, sub_id, dk, None if ids is None else ids[part])
            best[k] = sub
            if best_id is not None:
                best_id[k] = sub_id
            if best_lo is not None:
                sub = best_lo[k]
                np.minimum(sub, dk, out=sub, where=band[part] < end_lo[k])
                best_lo[k] = sub

    def _pairs(self, px, py, rho_p, theta_p, band, reach, centers, exclude, with_ids):
        """(d, ids): for each point i the smallest distance to a disc of
        band[i], and with ``with_ids`` the lowest id attaining it (ids is
        None otherwise).  d is exact wherever it is <= reach[i]; elsewhere
        it only promises that the band holds nothing within reach[i]."""
        size = len(px)
        d = np.empty(size)
        ids = np.empty(size, dtype=np.int64) if with_ids else None
        if band.min() == band.max() and not self.windowed[band[0]]:
            self._scan_band(int(band[0]), None, px, py, centers, exclude, d, ids)
            return d, ids
        start = self.core[band]
        width = self.count[band]
        win = np.flatnonzero(self.windowed[band])
        if len(win):
            b = band[win]
            # the window of slot k holds the band's discs k - half .. k + half - 1
            slot = np.searchsorted(self.keys, b + 1j * theta_p[win]) - self.first[b]
            start[win] += slot - self.half[b]
            width[win] = 2 * self.half[b]
        cols = np.arange(width.max())
        ragged = width.min() < len(cols)
        step = max(1, _CHUNK // len(cols))
        for lo in range(0, size, step):
            s = slice(lo, lo + step)
            at = start[s, None] + cols
            skip = None
            if ragged:
                # columns past a pair's run are left out
                skip = cols >= width[s, None]
                np.minimum(at, len(self.x) - 1, out=at)
            if exclude is not None:
                own = self.gid[at] == exclude[s, None]
                skip = own if skip is None else skip | own
            d[s], sub = _nearest_rows(
                px[s], py[s], self.x[at], self.y[at], None if centers else self.rad[at],
                self.gid[at] if with_ids else None, skip,
            )
            if with_ids:
                ids[s] = sub
        if len(win):
            b, tp, rp = band[win], theta_p[win], rho_p[win]
            left = start[win] - 1
            dtheta = np.minimum(self.theta[left + width[win] + 1] - tp, tp - self.theta[left])
            sin2 = np.sin(np.minimum(dtheta, math.pi) / 2.0) ** 2
            rho_min = self.rho_min[b]
            gap = np.maximum(0.0, np.maximum(rho_min - rp, rp - self.rho_max[b]))
            bound = np.sqrt(gap * gap + 4.0 * rp * rho_min * sin2)
            if not centers:
                bound -= self.r_max[b]
            scan = win[bound <= np.minimum(reach[win], d[win]) + _CERT_SLACK]
            if len(scan):
                for b in unique_sorted(band[scan]).tolist():
                    self._scan_band(b, scan[band[scan] == b], px, py, centers, exclude, d, ids)
        return d, ids

    def _scan_band(self, b, sel, px, py, centers, exclude, d, ids) -> None:
        """Points sel (None: all) against every disc of band b, into d and
        ids, in chunks of about _CHUNK distances."""
        run = slice(self.core[b], self.core[b] + self.count[b])
        x, y, rad, gid = self.x[run], self.y[run], self.rad[run], self.gid[run]
        step = max(1, _CHUNK // len(x))
        for lo in range(0, len(px) if sel is None else len(sel), step):
            s = slice(lo, lo + step) if sel is None else sel[lo : lo + step]
            skip = None if exclude is None else gid == exclude[s][:, None]
            d[s], sub = _nearest_rows(
                px[s], py[s], x, y, None if centers else rad, gid if ids is not None else None, skip
            )
            if ids is not None:
                ids[s] = sub
