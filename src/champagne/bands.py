"""The explicit discs of a configuration as one distance table,
:class:`DiscTable`: its bands are the layers of the radial search in
:class:`champagne.geometry._Layers`, and this module adds only their
bucket windows.  :class:`champagne.geometry.SpatialIndex` builds it only
for a configuration with explicit discs: a file of rings alone never loads
this module."""

from __future__ import annotations

import math

import numpy as np

from .geometry import _CERT_SLACK, _CHUNK, _NO_ID, TWO_PI, _Layers, center_cells, unique_sorted

# The most buckets of one band (its 2^(n+4) sectors, if more): keys fit in int64.
_BAND_KEYS = 1 << 56


def _nearest_rows(px: np.ndarray, py: np.ndarray, x: np.ndarray, y: np.ndarray, rad: np.ndarray | None,
                  gid: np.ndarray | None = None, skip: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """For each point p_i, the minimum over the discs k of row i (or of
    every disc, for 1-D arrays) of |p_i - x_k| - r_k, or of |p_i - x_k| when
    ``rad`` is None, leaving out the entries where ``skip`` is set, and
    given the disc ids ``gid`` the lowest id attaining it (_NO_ID where
    every disc is left out).  Every entry is evaluated with the expression
    of a brute-force scan: hypot(dx, dy) - r_k, or sqrt(dx*dx + dy*dy), the
    expression of every separation statistic, for center distances."""
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


class DiscTable(_Layers):
    """Every explicit disc of a configuration, grouped into bands by the
    dyadic generation n of its center (band 0 is the central region), each
    band a cell list (Bentley, Stanat and Williams, 1977).  Bands ascend in
    n, so the radii of their centers ascend too.

    Each cell (n, m) that holds a center (see
    :func:`champagne.geometry.center_cells`) splits into k x k buckets in
    (rho, theta), k = ceil(sqrt(c)) for the most discs c in one cell of the
    band.  The discs are stored once, sorted by (band, bucket key), the key
    running round the turn row by row outward, so a window's row of
    buckets is one run of keys, or two where it wraps.

    A point's distance to a band is the least over a window of buckets
    round its own, from 3 x 3 (a band of at most 9 discs is one window).  A
    disc outside lies beyond the window's rows, or at least dtheta away in
    angle, so at least sqrt(g^2 + 4 rho_p rho_min sin^2(dtheta/2)) away, g
    the distance from rho_p to [rho_min, rho_max], the radii of the band's
    centers; less r_max for boundary distances.  A point whose bound does
    not clear the minimum found by _CERT_SLACK widens its window to the
    rows and columns that minimum calls for, or doubles it.  Distances use
    the expressions of a full scan, so minima and lowest ids are bit-equal
    to it.

    The bands are the layers of :class:`champagne.geometry._Layers`, whose
    one radial search (:meth:`nearest`) serves ring rows too; this table
    supplies their radial intervals and :meth:`_pairs`, the window query
    of a batch of (point, band) pairs, whatever their bands.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, rad: np.ndarray, gid: np.ndarray):
        rho, gen, m, rel = center_cells(x, y)
        self.n = unique_sorted(gen)
        band = np.searchsorted(self.n, gen)
        sectors = np.left_shift(1, self.n + 4)
        # the discs of each cell, counted by run length over the sorted cell
        # numbers: no table of the 2^(n+4) sectors of a deep generation
        end = np.cumsum(sectors)
        cells = np.sort(end[band] - sectors[band] + m)
        runs = np.flatnonzero(np.diff(cells, prepend=-1))
        crowd = np.zeros(len(self.n), dtype=np.int64)
        np.maximum.at(crowd, np.searchsorted(end, cells[runs], "right"), np.diff(runs, append=len(cells)))
        k = np.minimum(np.ceil(np.sqrt(crowd)), np.floor(np.sqrt(_BAND_KEYS / sectors)))
        self.k = np.maximum(k, 1.0).astype(np.int64)
        self.turn = sectors * self.k
        base = np.cumsum(self.turn * self.k) - self.turn * self.k
        rin = np.where(self.n == 0, 0.0, 1.0 - np.ldexp(1.0, -self.n))
        drho, dtheta = (1.0 - np.ldexp(1.0, -self.n - 1) - rin) / self.k, TWO_PI / self.turn
        kb = self.k[band]
        row = np.clip(np.floor((rho - rin[band]) / drho[band]), 0, kb - 1).astype(np.int64)
        col = np.clip(np.floor(rel / dtheta[band]), 0, kb - 1).astype(np.int64)
        key = base[band] + row * self.turn[band] + m * kb + col
        order = np.argsort(key, kind="stable")
        self.keys = key[order]
        self.x, self.y, self.rad, self.gid = x[order], y[order], rad[order], gid[order]
        rho = rho[order]
        first = np.searchsorted(self.keys, base)
        r_max = np.maximum.reduceat(self.rad, first)
        rho_min, rho_max = np.minimum.reduceat(rho, first), np.maximum.reduceat(rho, first)
        # per band, one table of integers and one of floats: a batch of
        # (point, band) pairs reads its columns with one gather apiece
        self.ints = np.stack([self.k, self.turn, base, np.diff(first, append=len(key)), first])
        self.floats = np.stack([rin, drho, dtheta, rho_min, rho_max, r_max])
        super().__init__(rho_min, rho_max, r_max, self.n)

    def _pairs(self, q, band, reach, with_ids, centers, wr=None, wc=None):
        """(d, ids): for each point i of q = (rho_p, theta_p, px, py[,
        exclude]) the smallest distance to a disc of band[i] other than the
        one whose id is exclude[i], and with ``with_ids`` the lowest id
        attaining it (ids is None otherwise).  d is exact wherever it is <=
        reach[i] (everywhere when ``reach`` is None); elsewhere it only
        promises that the band holds nothing within reach[i].  Point i's
        window spans wr[i] rows and wc[i] columns of buckets on either side
        of its own, at first 3 x 3, or a whole band of at most 9 discs."""
        rho_p, theta_p, px, py = q[:4]
        exclude = q[4] if len(q) > 4 else None
        k, turn, base, count, first = self.ints[:, band]
        if wr is None:
            small = count <= 9
            if small.all():
                return self._evaluate(first[:, None], count[:, None], px, py, centers, exclude, with_ids)
            wr, wc = np.where(small, k - 1, 1), np.where(small, turn // 2, 1)
        rin, drho, dtheta, rho_min, rho_max, r_max = self.floats[:, band]
        # each point's bucket, its row clipped to the band's
        row = np.maximum(np.minimum(((rho_p - rin) / drho).astype(np.int64), k - 1), 0)
        col = (theta_p / dtheta).astype(np.int64)
        lo_row, hi_row = np.maximum(row - wr, 0), np.minimum(row + wr + 1, k)
        lo_col, hi_col = col - wc, col + wc + 1
        # each row's buckets in the window are one run of keys, past the
        # row's first key, and a second run where they wrap round the turn;
        # keys are searched row by row, so that they mostly ascend
        rows = lo_row + np.arange(int((hi_row - lo_row).max()))[:, None]
        start, dead = base + rows * turn, rows >= hi_row
        def runs(a0, a1, sel=slice(None)):
            ends = start[:, sel] + np.stack([a0, a1])[:, None]
            ends[:, dead[:, sel]] = 0
            pos = np.searchsorted(self.keys, ends)
            return pos[0].T, (pos[1] - pos[0]).T
        full = hi_col - lo_col >= turn
        lo, run = runs(np.where(full, 0, lo_col.clip(0)), np.where(full, turn, np.minimum(hi_col, turn)))
        wrap = np.flatnonzero(~full & ((lo_col < 0) | (hi_col > turn)))
        if len(wrap):
            low, tw = lo_col[wrap] < 0, turn[wrap]
            l2, r2 = runs(np.where(low, lo_col[wrap] + tw, 0), np.where(low, tw, hi_col[wrap] - tw), wrap)
            lo, run = np.concatenate([lo, 0 * lo], axis=1), np.concatenate([run, 0 * run], axis=1)
            lo[wrap, l2.shape[1]:], run[wrap, l2.shape[1]:] = l2, r2
        d, ids = self._evaluate(lo, run, px, py, centers, exclude, with_ids)
        # a disc of the band outside the window lies beyond its rows, or at
        # least dth away in angle
        beyond = np.minimum(np.where(lo_row > 0, rho_p - (rin + lo_row * drho), np.inf),
                            np.where(hi_row < k, rin + hi_row * drho - rho_p, np.inf))
        dth = np.minimum(theta_p - lo_col * dtheta, hi_col * dtheta - theta_p)
        gap = np.maximum(np.maximum(rho_min - rho_p, rho_p - rho_max), 0.0)
        ang = np.sqrt(gap * gap + 4.0 * rho_p * rho_min * np.sin(np.minimum(dth, math.pi) / 2.0) ** 2)
        ang[full] = np.inf
        t = (d if reach is None else np.minimum(reach, d)) + _CERT_SLACK + (0.0 if centers else r_max)
        go = np.flatnonzero((np.minimum(beyond, ang) <= t) & ((wr < k - 1) | (wc < turn // 2)))
        if not len(go):
            return d, ids
        # the rows within t of rho_p, and the columns whose angle to the
        # point does not clear t, each with a bucket to spare; a point with
        # nothing in reach, or whose window already meets that need (up to
        # rounding), doubles its window, so each step widens it
        rp, t, rin, drho, row, k, turn, wr, wc = (a[go] for a in (rho_p, t, rin, drho, row, k, turn, wr, wc))
        with np.errstate(divide="ignore", invalid="ignore"):
            need_r = np.maximum(row - np.maximum(np.floor((rp - t - rin) / drho) - 1.0, 0.0),
                                np.minimum(np.floor((rp + t - rin) / drho) + 2.0, k) - row - 1.0)
            sin_half = np.sqrt(np.maximum(t * t - gap[go] ** 2, 0.0) / (4.0 * rp * rho_min[go]))
            need_c = np.where(sin_half < 1.0, 2.0 * np.arcsin(sin_half) / dtheta[go], np.inf) + 1.0
        to_r, to_c = np.minimum(np.maximum(need_r, wr), k - 1), np.minimum(np.maximum(need_c, wc), turn // 2)
        double = np.isinf(t) | ((to_r == wr) & (to_c == wc))
        wr = np.where(double, np.minimum(2 * wr + 1, k - 1), to_r).astype(np.int64)
        wc = np.where(double, np.minimum(2 * wc + 1, turn // 2), to_c).astype(np.int64)
        reach = None if reach is None else reach[go]
        d[go], sub = self._pairs(tuple(a[go] for a in q), band[go], reach, with_ids, centers, wr, wc)
        if with_ids:
            ids[go] = sub
        return d, ids

    def _evaluate(self, lo, count, px, py, centers, exclude, with_ids):
        """(d, ids) of each point i against the runs of discs lo[i, j] ..
        lo[i, j] + count[i, j] - 1, in chunks of about _CHUNK distances: a
        point's runs packed from the left into one row, the columns past
        them left out, or one row for all where every point has the same
        one run."""
        d = np.empty(len(px))
        ids = np.empty(len(px), dtype=np.int64) if with_ids else None
        width = count.sum(axis=1)
        shared = lo.shape[1] == 1 and lo.min() == lo.max() and width.min() == width.max() > 0
        step = max(1, _CHUNK // max(int(width.max()), 1))
        for s0 in range(0, len(px), step):
            s = slice(s0, s0 + step)
            wd = width[s]
            cols = np.arange(max(int(wd.max()), 1))
            skip = None if shared or wd.min() == len(cols) else cols >= wd[:, None]
            if lo.shape[1] == 1:
                at = np.minimum((lo[0, 0] if shared else lo[s]) + cols, len(self.keys) - 1)
            else:
                cnt, k = count[s].ravel(), np.arange(int(wd.sum()))
                at = np.zeros((len(wd), len(cols)), dtype=np.int64)
                at[np.repeat(np.arange(len(wd)), wd), k - np.repeat(np.cumsum(wd) - wd, wd)] = k + np.repeat(
                    lo[s].ravel() - (np.cumsum(cnt) - cnt), cnt
                )
            if exclude is not None:
                own = self.gid[at] == exclude[s][:, None]
                skip = own if skip is None else skip | own
            d[s], sub = _nearest_rows(px[s], py[s], self.x[at], self.y[at], None if centers else self.rad[at],
                                      self.gid[at] if with_ids else None, skip)
            if with_ids:
                ids[s] = sub
        return d, ids
