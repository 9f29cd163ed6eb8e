import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import champagne

from champagne.criteria import (
    BoundaryPoint,
    CriteriaError,
    SingularIntegrandError,
    budget_sums,
    count_centers_within,
    density_bounds,
    density_profile,
    equally_spaced_inverse_square_sum,
    exact_sum,
    integral_test,
    log_weighted_series,
    poisson_series,
    power_log_bound_constant,
    separation,
    series_over_grid,
)
from champagne.generators import (
    GeneratorParams,
    MSpec,
    PhiSpec,
    generate_avoidable_ring,
    generate_phi_grid,
    generate_subsquares,
    shrink,
    truncate,
)
from champagne.geometry import (
    TWO_PI,
    Configuration,
    Disc,
    DiscBlock,
    GeometryError,
    Point,
    RingRows,
    chord,
    dumps_config,
    loads_config,
)


def disc(x, y, r):
    return Disc.from_radius(Point(x, y), r)


SINGLE = Configuration.from_discs([disc(0.5, 0.0, 0.05)])
Y0 = BoundaryPoint(0.0)


def scalar_inverse_square_sum(rho, count, phase, psi, a_start=0):
    """The scalar closed form the grid engine replaced, kept as its
    bit-for-bit reference: one row, one boundary angle."""
    step = TWO_PI / count
    q = math.exp(count * math.log(rho)) if count * math.log(rho) > -745.0 else 0.0
    t = count * (psi - phase)
    denom = 1.0 - 2.0 * q * math.cos(t) + q * q
    full = count * (1.0 - q * q) / ((1.0 - rho * rho) * denom)
    removed = 0.0
    for a in range(a_start):
        removed += 1.0 / chord(1.0, rho, psi - (phase + a * step)) ** 2
    return full - removed


class TestRingClosedForm:
    @pytest.mark.parametrize("rho,count,a_start", [(0.6, 17, 0), (0.9, 64, 0), (0.8, 40, 7)])
    def test_matches_bruteforce(self, rho, count, a_start):
        for psi in (0.0, 0.3, 2.0, 4.9):
            got = equally_spaced_inverse_square_sum(
                rho, count, math.pi / count, psi, a_start
            )
            th = (np.arange(a_start, count) + 0.5) * TWO_PI / count
            y = np.array([math.cos(psi), math.sin(psi)])
            pts = rho * np.column_stack([np.cos(th), np.sin(th)])
            brute = float(np.sum(1.0 / np.sum((pts - y) ** 2, axis=1)))
            assert got == pytest.approx(brute, rel=1e-11)

    def test_deep_generation_underflow_safe(self):
        # rho^J underflows; the identity degenerates to J / (1 - rho^2)
        rho = 1.0 - 2.0**-13
        count = 2**16 * 512
        got = equally_spaced_inverse_square_sum(rho, count, 0.0, 0.3)
        assert got == pytest.approx(count / (1.0 - rho * rho), rel=1e-12)

    def test_array_shapes(self):
        rows = ([0.6, 0.9, 0.8], [17, 64, 40], [0.1, 0.0, 0.2], [0, 0, 7])
        psi = [0.0, 0.3, 2.0, 4.9]
        grid = equally_spaced_inverse_square_sum(*rows[:3], psi, rows[3])
        assert grid.shape == (3, 4)
        assert equally_spaced_inverse_square_sum(*rows[:3], 0.3, rows[3]).shape == (3,)
        assert equally_spaced_inverse_square_sum(0.8, 40, 0.2, psi, 7).shape == (4,)
        for i, (rho, count, phase, a_start) in enumerate(zip(*rows)):
            for j, angle in enumerate(psi):
                assert grid[i, j] == scalar_inverse_square_sum(rho, count, phase, angle, a_start)

    @pytest.mark.parametrize("rho,count,a_start", [(0.97, 4, 3), (0.9, 7, 6), (0.99, 64, 40), (0.8, 3, 2)])
    def test_prefix_bit_equal_on_dense_angles(self, rho, count, a_start):
        # rows whose prefix outweighs the active slots, where an ulp of a
        # removed term shows in the result: every term must round as the
        # scalar chord(...) ** 2 does
        psi = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        phase = math.pi / count
        got = equally_spaced_inverse_square_sum(rho, count, phase, psi, a_start)
        want = [scalar_inverse_square_sum(rho, count, phase, x, a_start) for x in psi.tolist()]
        assert got.tolist() == want


class TestSeriesExamples:
    def test_empty_configuration(self):
        rep = log_weighted_series(Configuration(), Y0)
        assert rep.total == 0.0
        assert rep.per_generation == ()

    def test_single_disc_log_weighted(self):
        # (0.5^2/0.5^2) / log(0.5/0.05) = 1/log(10)
        rep = log_weighted_series(SINGLE, Y0)
        assert rep.total == pytest.approx(1.0 / math.log(10.0), rel=1e-12)

    def test_single_disc_poisson(self):
        rep = poisson_series(SINGLE, Y0)
        assert rep.total == pytest.approx(1.0)

    def test_poisson_dominates_log_weighted_when_log_large(self):
        cfg = generate_phi_grid(PhiSpec(c0=0.3, beta=0.5), per_cell=1, n_min=1, n_max=4)
        for y in BoundaryPoint.grid(8):
            assert poisson_series(cfg, y).total >= log_weighted_series(cfg, y).total

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        discs = [
            disc(*(0.7 * np.array([math.cos(a), math.sin(a)])), 1e-4)
            for a in rng.uniform(0, TWO_PI, 40)
        ]
        cfg = Configuration.from_discs(discs)
        angle = 1.234
        rep0 = log_weighted_series(cfg, BoundaryPoint(0.2))
        rep1 = log_weighted_series(cfg.rotated(angle), BoundaryPoint(0.2 + angle))
        assert rep1.total == pytest.approx(rep0.total, rel=1e-12)

    def test_nonpositive_log_rejected(self):
        # r >= 1-|x| is refused where the block is built, so no series ever
        # meets a nonpositive log weight
        with pytest.raises(GeometryError, match="disc 0 of the block"):
            DiscBlock(np.array([0.6]), np.array([0.0]), np.array([math.log(0.5)]))

    def test_ring_blocks_match_materialized(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.0, c0=0.2, n_min=1, n_max=4))
        flat = cfg.materialized()
        for y in (Y0, BoundaryPoint(1.1)):
            r_ring = log_weighted_series(cfg, y)
            r_flat = log_weighted_series(flat, y)
            assert dict(r_ring.per_generation) == pytest.approx(
                dict(r_flat.per_generation), rel=1e-10
            )
            p_ring = poisson_series(cfg, y)
            p_flat = poisson_series(flat, y)
            assert p_ring.total == pytest.approx(p_flat.total, rel=1e-10)

    def test_cumulative_monotone(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=6))
        rep = log_weighted_series(cfg, BoundaryPoint(0.7))
        values = [v for _, v in rep.cumulative]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0 for _, v in rep.per_generation)

    def test_superset_dominates_subset(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=5))
        cut = truncate(cfg, n_max=3)
        assert log_weighted_series(cut, Y0).total <= log_weighted_series(cfg, Y0).total

    def test_per_generation_contributions_stable_deep(self):
        # the flagship configuration: contributions per generation stay
        # within a factor 4 of one another for n = 6..12
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=12)
        )
        rep = log_weighted_series(cfg, Y0)
        per = dict(rep.per_generation)
        vals = [per[n] for n in range(6, 13)]
        assert min(vals) > 0
        assert max(vals) / min(vals) < 4.0

    def test_series_over_grid_counts(self):
        cfg = generate_phi_grid(PhiSpec(c0=0.3, beta=0.5), per_cell=1, n_min=1, n_max=3)
        reports = series_over_grid(cfg, "log_weighted", y_count=16)
        assert len(reports) == 16

    def test_cell_and_disc_boundary_distances_comparable(self):
        # for a disc meeting a cell, the reference point z of the cell and
        # the disc center see every boundary point at comparable distances,
        # and 1-|x_k| is comparable with 2^{-n}, both within the
        # conservative constant 4/(1 - ratio_sup)
        from champagne.geometry import cell_center, cells_intersecting_disc

        rng = np.random.default_rng(21)
        ratio_sup = 0.2
        comparability = 4.0 / (1.0 - ratio_sup)
        for _ in range(80):
            rho = rng.uniform(0.5, 0.995)
            th = rng.uniform(0, TWO_PI)
            s = 1.0 - rho
            r = ratio_sup * s * rng.uniform(0.1, 1.0)
            d = disc(rho * math.cos(th), rho * math.sin(th), r)
            for idx in cells_intersecting_disc(d):
                assert 2.0 ** (-idx.n) / comparability <= s <= comparability * 2.0 ** (-idx.n)
                z = cell_center(idx)
                for psi in rng.uniform(0, TWO_PI, 4):
                    y = Point(math.cos(psi), math.sin(psi))
                    dz = math.hypot(z.x - y.x, z.y - y.y)
                    dx = math.hypot(d.center.x - y.x, d.center.y - y.y)
                    assert 1.0 / comparability <= dz / dx <= comparability


# ---------------------------------------------------------------------------
# the series grid engine against the scalar closed form and a disc scan

from hypothesis import given, settings, strategies as st  # noqa: E402

from champagne import criteria  # noqa: E402


def _flagship8(drop_first=0):
    params = GeneratorParams.exp_power(beta=1.5, c0=0.05, n_max=8, drop_first=drop_first)
    return loads_config(dumps_config(generate_subsquares(params)))


def _scan_series(cfg, kind, ys):
    """Per-generation sums over every materialised disc, one dict per point."""
    x, y, lr = cfg.disc_arrays()
    n = np.concatenate([cfg.discs.generations, np.repeat(cfg.rings.n, cfg.rings.sizes)])
    s = 1.0 - np.hypot(x, y)
    w = 1.0 / (np.log(s) - lr) if kind == "log_weighted" else np.ones(len(x))
    out = []
    for point in ys:
        terms = s * s / ((x - math.cos(point.theta)) ** 2 + (y - math.sin(point.theta)) ** 2) * w
        out.append({int(g): math.fsum(terms[n == g].tolist()) for g in np.unique(n)})
    return out


# one ring row: (generation n, position of its boundary gap s in the band
# [2^-n-1, 2^-n), slots per gap so that the spacing is at most s as in every
# generated row, excluded prefix as a fraction of the row, log10(r / s))
_series_row = st.tuples(
    st.integers(1, 7),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.0, 0.01, 0.3, 0.6]),
    st.floats(-8.0, -0.5),
)


def _series_config(rows, n_explicit, seed):
    columns = []
    for n, frac, per_gap, drop, log_ratio in rows:
        s = 2.0 ** (-n - 1) * (1.0 + frac)
        count = math.ceil(per_gap * TWO_PI / s)
        log_r = math.log(s) + log_ratio * math.log(10.0)
        columns.append((n, 1.0 - s, log_r, count, int(drop * count)))
    discs = DiscBlock()
    if n_explicit:
        rng = np.random.default_rng(seed)
        s = np.exp(rng.uniform(math.log(2.0**-8), math.log(0.5), n_explicit))
        theta = rng.uniform(0.0, TWO_PI, n_explicit)
        log_r = np.log(s) - rng.uniform(0.5, 18.0, n_explicit)
        discs = DiscBlock((1.0 - s) * np.cos(theta), (1.0 - s) * np.sin(theta), log_r)
    return Configuration(discs, RingRows(*zip(*columns)), n_max=8)


class TestSeriesGrid:
    @pytest.mark.parametrize("drop_first", [0, 5])
    @pytest.mark.parametrize("kind", criteria.SERIES_KINDS)
    def test_rows_bit_equal_to_scalar_closed_form(self, kind, drop_first):
        cfg = _flagship8(drop_first)
        assert not len(cfg.discs)
        ys = BoundaryPoint.grid(64)
        reports = series_over_grid(cfg, kind, y_count=64)
        # entries of a ring-only configuration are its rows, in row order
        per_row = criteria._series_terms(cfg, kind).values(np.array([y.theta for y in ys]))
        rows = cfg.rings
        names = ("n", "rho", "log_r", "count", "a_start", "step")
        columns = list(zip(*(getattr(rows, name).tolist() for name in names)))
        for j, (y, rep) in enumerate(zip(ys, reports)):
            per_gen = {}
            for i, (n, rho, log_r, count, a_start, step) in enumerate(columns):
                s = 1.0 - rho
                w = 1.0 / (math.log(s) - log_r) if kind == "log_weighted" else 1.0
                row = scalar_inverse_square_sum(rho, count, step / 2.0, y.theta, a_start)
                assert per_row[i, j] == w * (s * s * row)
                per_gen.setdefault(n, []).append(w * (s * s * row))
            assert rep.y == y and rep.kind == kind
            assert rep.per_generation == tuple((n, math.fsum(v)) for n, v in sorted(per_gen.items()))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_series_row, max_size=6),
        st.integers(0, 60),
        st.integers(0, 2**32 - 1),
        st.integers(1, 150),
        st.sampled_from(criteria.SERIES_KINDS),
    )
    def test_matches_disc_scan(self, rows, n_explicit, seed, y_count, kind):
        cfg = _series_config(rows, n_explicit, seed)
        reports = series_over_grid(cfg, kind, y_count=y_count)
        ys = BoundaryPoint.grid(y_count)
        assert [rep.y for rep in reports] == ys
        for rep, want in zip(reports, _scan_series(cfg, kind, ys)):
            got = dict(rep.per_generation)
            assert sorted(got) == sorted(want)
            for n in want:
                assert got[n] == pytest.approx(want[n], rel=1e-11)
        # one-point calls are the same engine on one column
        one = log_weighted_series if kind == "log_weighted" else poisson_series
        for k in {0, y_count // 2, y_count - 1}:
            assert one(cfg, ys[k]) == reports[k]

    def test_chunking_does_not_change_reports(self, monkeypatch):
        cfg = _series_config([(3, 0.2, 2, 0.3, -3.0), (3, 0.7, 1, 0.0, -5.0)], 20, 7)
        whole = series_over_grid(cfg, "log_weighted", y_count=50)
        monkeypatch.setattr(criteria, "SERIES_CHUNK", 7)
        assert series_over_grid(cfg, "log_weighted", y_count=50) == whole

    def test_unknown_kind_rejected(self):
        with pytest.raises(CriteriaError):
            series_over_grid(SINGLE, "plain")


class TestSeparation:
    def test_neighbor_structure_built_once_per_configuration(self, monkeypatch):
        from champagne import criteria

        calls = []
        build = criteria._build_neighbor_structure
        monkeypatch.setattr(
            criteria, "_build_neighbor_structure", lambda c: calls.append(c) or build(c)
        )
        rings = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=3, n_max=5))
        explicit = rings.materialized()
        for cfg in (rings, explicit):
            first = separation(cfg, kind="plain")
            separation(cfg, kind="radius_log")
            criteria.shrink_for_separation(cfg, threshold=1.0)
            assert separation(cfg, kind="plain") == first
        assert len(calls) == 2 and calls[0] is rings and calls[1] is explicit

    def test_two_discs_exact(self):
        c = Configuration.from_discs([disc(0.5, 0.0, 0.01), disc(0.7, 0.0, 0.001)])
        rep = separation(c, kind="plain")
        # both orderings of the single pair are taken, minimum kept
        w_a = 1.0 / 0.5
        w_b = 1.0 / 0.3
        assert rep.value == pytest.approx(0.2 * min(w_a, w_b))
        assert rep.argmin_pair is not None

    def test_matches_quadratic_scan_random(self):
        rng = np.random.default_rng(9)
        discs = []
        while len(discs) < 120:
            rho = rng.uniform(0.3, 0.99)
            th = rng.uniform(0, TWO_PI)
            r = 1e-6
            d = disc(rho * math.cos(th), rho * math.sin(th), r)
            if all(
                math.hypot(d.center.x - o.center.x, d.center.y - o.center.y) > 1e-4
                for o in discs
            ):
                discs.append(d)
        c = Configuration.from_discs(discs)
        for kind in ("plain", "radius_log"):
            rep = separation(c, kind=kind)
            x, y, lr = c.disc_arrays()
            s = 1.0 - np.hypot(x, y)
            if kind == "plain":
                w = 1.0 / s
            else:
                w = np.sqrt(np.log(s) - lr) / s
            dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
            np.fill_diagonal(dist, np.inf)
            brute = float(np.min(dist * w[None, :]))
            assert rep.value == pytest.approx(brute, rel=1e-12)

    def test_ring_config_matches_materialized(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.1, n_min=1, n_max=4))
        flat = cfg.materialized()
        for kind in ("plain", "radius_log"):
            v_ring = separation(cfg, kind=kind).value
            x, y, lr = flat.disc_arrays()
            s = 1.0 - np.hypot(x, y)
            w = (1.0 / s) if kind == "plain" else np.sqrt(np.log(s) - lr) / s
            dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
            np.fill_diagonal(dist, np.inf)
            brute = float(np.min(dist * w[None, :]))
            assert v_ring == pytest.approx(brute, rel=1e-11)

    @pytest.mark.parametrize("drop_first", [0, 300])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("kind", ["plain", "radius_log"])
    def test_mixed_explicit_and_rings_match_quadratic_scan(self, drop_first, side, kind):
        # rings of generations 5 and 6, with or without a dropped prefix, and
        # 30 explicit discs each a fraction of a slot spacing radially out
        # (side 1) or in (side -1) from a slot, dropped slots included
        rings = generate_subsquares(
            GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=5, n_max=6, drop_first=drop_first)
        )
        rng = np.random.default_rng(int(drop_first + 10 * side) % 97)
        row = rng.integers(0, 2, 30)
        rows = rings.rings
        a = np.array([rng.integers(0, count) for count in rows.count[row].tolist()])
        theta = (a + 0.5) * rows.step[row]
        spacing = rows.rho[row] * rows.step[row]
        rho = rows.rho[row] + side * rng.uniform(0.1, 0.4, 30) * spacing
        theta = theta + rng.uniform(-0.05, 0.05, 30) * spacing
        explicit = DiscBlock(rho * np.cos(theta), rho * np.sin(theta), np.full(30, -20.0))
        config = Configuration(explicit, rows, n_max=6)

        rep = separation(config, kind=kind)
        x, y, lr = config.disc_arrays()
        s = 1.0 - np.hypot(x, y)
        w = (1.0 / s) if kind == "plain" else np.sqrt(np.log(s) - lr) / s
        dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        np.fill_diagonal(dist, np.inf)
        scan = dist * w[None, :]
        j, k = np.unravel_index(np.argmin(scan), scan.shape)
        assert rep.value == pytest.approx(scan[j, k], rel=1e-12)
        assert rep.argmin_pair == (j, k)
        # the pair is mixed; under the plain weight 1/s the disc nearer the
        # unit circle is the neighbour j
        assert (j < 30) != (k < 30)
        if kind == "plain":
            assert (j < 30) == (side > 0)

    @pytest.mark.parametrize(
        "rings, radius",
        [
            # the only aligned pair of active slots lies nine of the first
            # ring's slot periods past its first slot
            (((1, 0.7, 190, 0), (1, 0.71, 130, 113)), 0.004),
            (((2, 0.8, 48, 7), (2, 0.84, 80, 3)), 1e-3),
            (((1, 0.6, 97, 40), (1, 0.605, 101, 90)), 1e-3),
            (((3, 0.88, 300, 250), (3, 0.8805, 7, 2)), 1e-5),
        ],
    )
    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("kind", ["plain", "radius_log"])
    def test_prefix_rings_match_materialized(self, rings, radius, order, kind):
        n, rho, count, a_start = zip(*rings[::order])
        rows = RingRows(n, rho, [math.log(radius)] * 2, count, a_start)
        config = Configuration(rings=rows, n_max=3)
        rep = separation(config, kind=kind)
        # a pair across the two rings sets the minimum
        assert sorted(rep.argmin_pair) == [0, rows.sizes[0]]
        assert rep.value == pytest.approx(separation(config.materialized(), kind=kind).value, rel=1e-12)

    def test_shrink_increases_radius_log_value(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.0, c0=0.2, n_min=1, n_max=4))
        v0 = separation(cfg, kind="radius_log").value
        v1 = separation(shrink(cfg, delta=0.5), kind="radius_log").value
        assert v1 >= v0

    def test_phi_log_equals_radius_log_for_profile_radii(self):
        phi = PhiSpec(c0=0.2, beta=1.0)
        cfg = generate_phi_grid(phi, per_cell=2, n_min=1, n_max=4)
        v_phi = separation(cfg, kind="phi_log", phi=phi).value
        v_rad = separation(cfg, kind="radius_log").value
        assert v_phi == pytest.approx(v_rad, rel=1e-9)

    def test_plain_positive_when_radius_log_positive(self):
        # term-by-term implication when every log factor is >= 1
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=4))
        v_log = separation(cfg, kind="radius_log").value
        v_plain = separation(cfg, kind="plain").value
        assert v_log > 0
        assert v_plain > 0

    def test_subsquare_separation_stable_across_depth(self):
        vals = []
        for n_max in range(6, 10):
            cfg = generate_subsquares(
                GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=n_max)
            )
            vals.append(separation(cfg, kind="radius_log").value)
        assert all(v > 0 for v in vals)
        assert (max(vals) - min(vals)) / max(vals) < 0.05
        # the infimum never increases as depth grows
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestIntegralTest:
    def test_power_pair_closed_form(self):
        # M = (1-t)^{-beta}, log(1/phi) = 1/(c0 (1-t)^beta) gives c0/(1-t)
        m = MSpec(beta=1.5)
        phi = PhiSpec(c0=0.05, beta=1.5)
        for upper in (0.9, 0.99, 0.999):
            got = integral_test(m, phi, upper)
            want = 0.05 * math.log(1.0 / (1.0 - upper))
            assert got == pytest.approx(want, rel=1e-6)

    def test_constant_profile(self):
        # M == 1, phi == e^{-1}: the antiderivative is log(1/(1-T))
        m = MSpec(beta=1e-12)
        phi = PhiSpec(form="table", knots_t=(0.0, 0.9999), knots_log_phi=(-1.0, -1.0))
        got = integral_test(m, phi, 0.99)
        assert got == pytest.approx(math.log(100.0), rel=1e-5)

    def test_dyadic_growth_increment(self):
        m = MSpec(beta=1.5)
        phi = PhiSpec(c0=0.05, beta=1.5)
        for j in (4, 7):
            t_lo = 1.0 - 2.0**-j
            t_hi = 1.0 - 2.0 ** -(j + 1)
            inc = integral_test(m, phi, t_hi) - integral_test(m, phi, t_lo)
            assert inc == pytest.approx(0.05 * math.log(2.0), rel=1e-6)

    def test_invalid_endpoint(self):
        with pytest.raises(CriteriaError):
            integral_test(MSpec(beta=1.0), PhiSpec(), 1.0)

    def test_mismatched_power_pair_closed_form(self):
        # M = (1-t)^{-2}, log(1/phi) = (1-t)^{-3/2}/c0: in u = log(1/(1-t))
        # the integrand is c0 e^{u/2}, so the integral is 2 c0 (e^{U/2} - 1)
        m = MSpec(beta=2.0)
        phi = PhiSpec(c0=0.05, beta=1.5)
        for upper in (0.5, 0.99, 0.999999):
            u_end = math.log(1.0 / (1.0 - upper))
            want = 2.0 * 0.05 * math.expm1(u_end / 2.0)
            assert integral_test(m, phi, upper) == pytest.approx(want, rel=1e-9)

    def test_table_profile_with_interior_knot(self):
        # log(1/phi) is 1 on [0, 1/2], then a + b t with a = -1/4, b = 5/2;
        # int dt/((1-t)(a+bt)) = log((a+bt)/(1-t))/(a+b)
        m = MSpec(beta=1e-12)
        phi = PhiSpec(form="table", knots_t=(0.0, 0.5, 0.9), knots_log_phi=(-1.0, -1.0, -2.0))
        want = math.log(2.0) + math.log((1.75 / 0.2) / (1.0 / 0.5)) / 2.25
        assert integral_test(m, phi, 0.8) == pytest.approx(want, rel=1e-9)

    def test_cli_import_skips_scipy_integrate(self):
        code = (
            "import sys, champagne.cli; "
            "print('scipy.integrate' in sys.modules or 'concurrent.futures' in sys.modules)"
        )
        env = dict(os.environ)
        src = str(Path(champagne.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestBudgets:
    def test_empty(self):
        b = budget_sums(Configuration(), alpha=2.0)
        assert (b.sum_r_alpha, b.sum_log_inv_alpha, b.sum_log_inv_1) == (0.0, 0.0, 0.0)

    def test_single_disc_substitution(self):
        c = Configuration.from_discs([Disc(Point(0.5, 0.0), -10.0)])
        b = budget_sums(c, alpha=2.0)
        assert b.sum_r_alpha == pytest.approx(math.exp(-20.0))
        assert b.sum_log_inv_alpha == pytest.approx(1e-2)
        assert b.sum_log_inv_1 == pytest.approx(1e-1)

    def test_ring_blocks_match_materialized(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.0, c0=0.2, n_min=1, n_max=4))
        flat = cfg.materialized()
        b0, b1 = budget_sums(cfg, 2.0), budget_sums(flat, 2.0)
        assert b0.sum_log_inv_alpha == pytest.approx(b1.sum_log_inv_alpha, rel=1e-12)
        assert b0.sum_log_inv_1 == pytest.approx(b1.sum_log_inv_1, rel=1e-12)

    def test_power_log_bound_on_grid(self):
        # r^alpha <= c(alpha) {log(1/r)}^{-2} for all r in (0,1)
        for alpha in (0.5, 1.0, 2.0, 4.0):
            c = power_log_bound_constant(alpha)
            r = np.logspace(-12, -1e-8, 200)
            lhs = r**alpha
            rhs = c / np.log(1.0 / r) ** 2
            assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_avoidable_budget_holds(self):
        cfg = generate_avoidable_ring()
        b = budget_sums(cfg, alpha=1.0)
        assert b.sum_log_inv_1 <= 1.0 / (2.0 * math.log(4.0))


class TestExactSum:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(0, 64), st.integers(0, 40_000)),
        st.integers(0, 2**32 - 1),
        st.integers(-1074, 1023),
        st.sampled_from([0, 1, 60, 2100]),
        st.sampled_from(["positive", "signed", "cancelling"]),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.sampled_from(["array", "slice", "rows"]),
    )
    def test_equals_fsum_bit_for_bit(self, size, seed, top, spread, signs, zeros, view):
        # magnitudes below 2^top, spread over `spread` binades and clipped
        # at the subnormals; near 2^1023 sigma overflows and fsum sums alone
        rng = np.random.default_rng(seed)
        exponents = np.maximum(rng.integers(top - spread, top + 1, size), -1074)
        t = np.ldexp(rng.random(size), exponents)
        if signs == "signed":
            t *= rng.choice([-1.0, 1.0], size)
        elif signs == "cancelling":
            t[size // 2 :] = -t[: size - size // 2][::-1]
            rng.shuffle(t)
        zero = rng.random(size) < zeros
        t[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
        # as the series takes a generation: a slice of the block's terms, or
        # its rows by index
        block = rng.random(size + 9)
        if view == "slice":
            block[4 : 4 + size] = t
            t = block[4 : 4 + size]
        elif view == "rows":
            rows = np.sort(rng.choice(size + 9, size, replace=False))
            block[rows] = t
            t = block[rows]
        try:
            want = math.fsum(t.tolist())
        except OverflowError:
            with pytest.raises(OverflowError):
                exact_sum(t)
            return
        assert exact_sum(t).hex() == want.hex()

    @pytest.mark.parametrize(
        "t, want",
        [
            ([], 0.0),
            ([-0.0, -0.0], math.fsum([-0.0, -0.0])),
            ([2.0**-1074, 2.0**-1074, -(2.0**-1073)], 0.0),
            ([1e16, 1.0, -1e16], 1.0),
            ([0.1] * 10, 1.0),
        ],
    )
    def test_edge_cases(self, t, want):
        assert exact_sum(np.array(t, dtype=np.float64)).hex() == want.hex()

    def test_overflowing_sigma_sums_with_fsum(self, monkeypatch):
        # 2^1020 among 100 summands needs sigma = 2^(7 + 1021), beyond the doubles
        t = np.concatenate([[2.0**1020, -(2.0**1020)], np.full(98, 0.5)])
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(len(values)) or fsum(values))
        assert exact_sum(t) == 49.0
        assert calls == [100]
        calls.clear()
        assert exact_sum(t[2:]) == 49.0
        assert calls and calls[0] < 100

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("kind", criteria.SERIES_KINDS)
    def test_explicit_entries_are_fsum_of_their_terms(self, kind, canonical):
        # canonical order keeps each generation a slice of the block; a
        # shuffled block takes it by index
        b = _series_config([], 400, seed=17).discs
        order = np.argsort(b.generations, kind="stable") if canonical else np.arange(len(b))
        cfg = Configuration(DiscBlock(b.x[order], b.y[order], b.log_r[order]), n_max=8)
        terms = criteria._series_terms(cfg, kind)
        x, y, s, w, parts = terms.explicit
        assert all(isinstance(rows, slice) == canonical for _, rows in parts)
        psi = np.array([point.theta for point in BoundaryPoint.grid(7)])
        values = terms.values(psi)
        for j, theta in enumerate(psi.tolist()):
            t = s * s / ((x - math.cos(theta)) ** 2 + (y - math.sin(theta)) ** 2)
            if w is not None:
                t = t * w
            for e, rows in parts:
                assert values[e, j].hex() == math.fsum(t[rows].tolist()).hex()


def _row_constant_families():
    walk = GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=12, drop_first=5)
    return {
        "flagship": generate_subsquares(GeneratorParams.exp_power(beta=1.5, c0=0.05, n_max=8)),
        "walk-drop": generate_subsquares(walk),
        "avoidable": generate_avoidable_ring(),
    }


class TestRowConstants:
    """The per-row constants read from the ring columns are the scalar
    ``math`` evaluations, bit for bit: np.exp and np.log differ from math
    in the last bit on some arguments, so a row constant that reaches an
    artifact is evaluated row by row."""

    @pytest.mark.parametrize("family", ["flagship", "walk-drop", "avoidable"])
    def test_row_constants_equal_scalar_math(self, family):
        cfg = _row_constant_families()[family]
        rows = cfg.rings
        assert len(rows) or family == "avoidable"
        weighted = criteria._series_terms(cfg, "log_weighted")
        plain = criteria._series_terms(cfg, "poisson")
        for i in range(len(rows)):
            rho, log_r, count = float(rows.rho[i]), float(rows.log_r[i]), int(rows.count[i])
            s, step = 1.0 - rho, TWO_PI / count
            log_q = count * math.log(rho)
            q = math.exp(log_q) if log_q > -745.0 else 0.0
            want = {
                "radius": (rows.radius[i], math.exp(log_r) if log_r >= -745.0 else 0.0),
                "step": (rows.step[i], step),
                "log_gap": (rows.log_gap[i], math.log(s)),
                "slot_gap": (rows.slot_gap[i], math.sqrt(4.0 * rho * rho * math.sin(step / 2.0) ** 2)),
                "q": (weighted.rings.q[i], q),
                "num": (weighted.rings.num[i], count * (1.0 - q * q)),
                "den": (weighted.rings.den[i], 1.0 - rho * rho),
                "phase": (weighted.rings.phase[i], step / 2.0),
                "s2": (weighted.ring_s2[i], s * s),
                "weight": (weighted.ring_weight[i], 1.0 / (math.log(s) - log_r)),
                "poisson_weight": (plain.ring_weight[i], 1.0),
            }
            for name, (got, scalar) in want.items():
                assert float(got).hex() == float(scalar).hex(), (name, i)


class TestDensity:
    def test_count_matches_bruteforce_on_rings(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.1, n_min=1, n_max=4))
        flat = cfg.materialized()
        x, y, _ = flat.disc_arrays()
        rng = np.random.default_rng(12)
        for _ in range(50):
            t = rng.uniform(0.0, 0.95)
            radius = rng.uniform(0.001, 0.3)
            got = count_centers_within(cfg, Point(t, 0.0), radius)
            brute = int(np.count_nonzero((x - t) ** 2 + y**2 < radius * radius))
            assert got == brute

    def test_single_center_per_cell_density(self):
        cfg = generate_phi_grid(PhiSpec(c0=0.3, beta=0.5), per_cell=1, n_min=1, n_max=6)
        profile = density_profile(cfg, 0.95, np.linspace(0.55, 0.97, 20))
        assert np.all(profile >= 1)

    @pytest.mark.parametrize("beta,c0", [(1.0, 0.1), (1.5, 0.05)])
    def test_subsquare_density_meets_growth(self, beta, c0):
        # with subdivision floor(2^{n*beta/2}) and a close to 1 the center
        # count dominates (1-t)^{-beta} on a radial grid
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=beta, c0=c0, n_min=1, n_max=8)
        )
        m = MSpec(beta=beta)
        lo, hi = density_bounds(cfg, m, a=0.95, t_samples=np.linspace(0.55, 0.99, 25))
        assert lo >= 1.0
