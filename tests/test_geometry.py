import json
import math

import numpy as np
import pytest

from champagne.geometry import (
    Configuration,
    Disc,
    DiscBlock,
    GeometryError,
    Point,
    RingBlock,
    SpatialIndex,
    TWO_PI,
    WhitneyIndex,
    cell_center,
    cells_intersecting_disc,
    chord,
    distance_to_obstacles,
    dumps_config,
    generation_of,
    generations_of,
    loads_config,
    ring_min_center_distance,
    sector_count,
    validate_configuration,
    whitney_cell,
)


def disc(x, y, r):
    return Disc.from_radius(Point(x, y), r)


class TestGeneration:
    def test_band_membership(self):
        assert generation_of(0.3) == 1
        assert generation_of(0.6) == 0
        # upper band edge belongs to that generation
        assert generation_of(0.25) == 2
        assert generation_of(0.5) == 1
        # lower edge rolls to the deeper generation whose upper edge it is
        assert generation_of(0.125) == 3

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(1e-6, 1.0, size=500)
        vec = generations_of(s)
        for si, ni in zip(s, vec):
            assert generation_of(float(si)) == ni


class TestWhitneyCells:
    def test_first_generation_cell(self):
        cell = whitney_cell(WhitneyIndex(1, 0))
        assert cell.r_inner == pytest.approx(0.5)
        assert cell.r_outer == pytest.approx(0.75)
        assert cell.angular_width == pytest.approx(TWO_PI / 32)

    def test_invalid_indices_rejected(self):
        with pytest.raises(GeometryError):
            WhitneyIndex(0, 0)
        with pytest.raises(GeometryError):
            WhitneyIndex(-1, 3)

    def test_angular_index_reduced_mod(self):
        assert WhitneyIndex(1, 32).m == 0
        assert WhitneyIndex(1, -1).m == 31

    def test_seam_shared(self):
        left = whitney_cell(WhitneyIndex(1, 0))
        right = whitney_cell(WhitneyIndex(1, 31))
        assert left.theta_lo == pytest.approx(0.0)
        assert right.theta_hi == pytest.approx(TWO_PI)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diameter_bounds(self, n):
        cell = whitney_cell(WhitneyIndex(n, 3))
        d = cell.diameter()
        assert 2.0 ** (-n) / 2.0 <= d <= 2.0 ** (-n) / math.sqrt(2.0) + 1e-15

    @pytest.mark.parametrize("n", range(1, 13))
    def test_tiling_area(self, n):
        total = sum(
            whitney_cell(WhitneyIndex(n, m)).area() for m in range(sector_count(n))
        )
        r_in, r_out = 1.0 - 2.0 ** (-n), 1.0 - 2.0 ** (-n - 1)
        annulus = math.pi * (r_out**2 - r_in**2)
        assert total == pytest.approx(annulus, rel=1e-12)

    def test_center_examples(self):
        p = cell_center(WhitneyIndex(1, 0))
        assert (p.x, p.y) == pytest.approx((0.5, 0.0))
        p = cell_center(WhitneyIndex(1, 8))
        assert (p.x, p.y) == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_center_inside_cell(self):
        for n in range(1, 13):
            for m in (0, 1, sector_count(n) // 3, sector_count(n) - 1):
                idx = WhitneyIndex(n, m)
                assert whitney_cell(idx).contains(cell_center(idx), tol=1e-12)


class TestCellsIntersectingDisc:
    def test_tiny_interior_disc_hits_one_cell(self):
        idx = WhitneyIndex(4, 7)
        cell = whitney_cell(idx)
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        theta = 0.5 * (cell.theta_lo + cell.theta_hi)
        d = disc(rho * math.cos(theta), rho * math.sin(theta), 1e-6)
        assert cells_intersecting_disc(d) == [idx]

    def test_central_disc_meets_nothing(self):
        assert cells_intersecting_disc(disc(0.1, 0.0, 0.05)) == []

    def test_small_disc_hits_at_most_four_cells(self):
        # under r <= (2^5 comparability)^{-1} (1-|x|) with the conservative comparability
        rng = np.random.default_rng(3)
        for _ in range(200):
            rho = rng.uniform(0.5, 0.999)
            theta = rng.uniform(0, TWO_PI)
            s = 1.0 - rho
            ratio = rng.uniform(0.0, 0.2)
            comparability = 4.0 / (1.0 - ratio)
            r = s / (32.0 * comparability) * rng.uniform(0.2, 1.0)
            d = disc(rho * math.cos(theta), rho * math.sin(theta), r)
            hits = cells_intersecting_disc(d)
            assert 1 <= len(hits) <= 4

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            rho = rng.uniform(0.5, 0.995)
            theta = rng.uniform(0, TWO_PI)
            s = 1.0 - rho
            r = s * rng.uniform(0.01, 0.8)
            d = disc(rho * math.cos(theta), rho * math.sin(theta), r)
            got = cells_intersecting_disc(d)
            n_mid = generation_of(s)
            expect = []
            for n in range(max(1, n_mid - 3), min(12, n_mid + 4)):
                for m in range(sector_count(n)):
                    cell = whitney_cell(WhitneyIndex(n, m))
                    if cell.distance_to(d.center) <= d.radius:
                        expect.append(WhitneyIndex(n, m))
            assert got == expect

    def test_band_edge_tangent_discs_match_predicate(self):
        # discs centred on a band edge 1 - 2^-n or tangent to it from either
        # side: s_center +- r rounds onto the edge, yet the closed disc still
        # meets the closed cell across it
        from champagne.generators import generate_avoidable_ring

        rng = np.random.default_rng(5)
        discs = list(generate_avoidable_ring().iter_discs())
        for n in range(1, 6):
            edge = 1.0 - 2.0 ** (-n)
            for r in (1e-20, 1e-9, 1e-4 * 2.0 ** (-n)):
                theta = rng.uniform(0, TWO_PI)
                for rho in (edge, edge + r, edge - r):
                    if rho - r > 0.0:
                        discs.append(disc(rho * math.cos(theta), rho * math.sin(theta), r))
        for d in discs:
            n_mid = generation_of(d.boundary_gap)
            expect = [
                WhitneyIndex(n, m)
                for n in range(max(1, n_mid - 2), n_mid + 3)
                for m in range(sector_count(n))
                if whitney_cell(WhitneyIndex(n, m)).distance_to(d.center) <= d.radius
            ]
            assert cells_intersecting_disc(d) == expect


def _random_explicit_config(rng, count, rmin=1e-5, rmax=1e-3):
    discs = []
    while len(discs) < count:
        rho = rng.uniform(0.3, 0.995)
        theta = rng.uniform(0, TWO_PI)
        s = 1.0 - rho
        r = min(rng.uniform(rmin, rmax), 0.2 * s)
        cand = disc(rho * math.cos(theta), rho * math.sin(theta), r)
        ok = all(
            math.hypot(cand.center.x - o.center.x, cand.center.y - o.center.y)
            > cand.radius + o.radius
            for o in discs[-60:]
        )
        if ok:
            discs.append(cand)
    return Configuration.from_discs(discs)


class TestValidation:
    def test_empty_configuration_valid(self):
        report = validate_configuration(Configuration(blocks=(), n_max=0))
        assert report.ok

    def test_overlap_names_pair(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.05), disc(0.62, 0.0, 0.05)])
        report = validate_configuration(c)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "overlap" in kinds
        pair = next(v for v in report.violations if v.kind == "overlap").indices
        assert len(pair) == 2 and pair[0] != pair[1]

    def test_origin_coverage_detected(self):
        c = Configuration.from_discs([disc(0.05, 0.0, 0.1)])
        report = validate_configuration(c)
        assert any(v.kind == "origin" for v in report.violations)

    def test_random_config_valid(self):
        rng = np.random.default_rng(5)
        c = _random_explicit_config(rng, 200)
        assert validate_configuration(c).ok

    def test_ring_blocks_validated(self):
        ring = RingBlock(n=2, rho=0.8, log_r=math.log(1e-4), count=sector_count(2))
        c = Configuration(blocks=(ring,), n_max=2)
        assert validate_configuration(c).ok


class TestDistance:
    def test_single_disc_from_origin(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.1)])
        idx = SpatialIndex(c)
        d, k = distance_to_obstacles(Point(0.0, 0.0), idx)
        assert d == pytest.approx(0.5)
        assert k == 0

    def test_inside_disc_clamped_to_zero(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.1)])
        idx = SpatialIndex(c)
        d, k = distance_to_obstacles(Point(0.55, 0.0), idx)
        assert d == 0.0
        assert k == 0

    def test_empty_configuration(self):
        idx = SpatialIndex(Configuration(blocks=(), n_max=0))
        d, k = distance_to_obstacles(Point(0.3, 0.2), idx)
        assert math.isinf(d) and k is None

    def test_matches_bruteforce_on_random_points(self):
        rng = np.random.default_rng(17)
        c = _random_explicit_config(rng, 1200)
        idx = SpatialIndex(c)
        x, y, lr = c.disc_arrays()
        r = np.exp(lr)
        pts = []
        while len(pts) < 10_000:
            p = rng.uniform(-1, 1, size=2)
            if np.hypot(*p) < 0.999:
                pts.append(p)
        pts = np.array(pts)
        brute = np.min(
            np.hypot(pts[:, 0:1] - x[None, :], pts[:, 1:2] - y[None, :]) - r[None, :],
            axis=1,
        )
        batched = idx.distance_many(pts[:, 0], pts[:, 1])
        np.testing.assert_array_equal(batched, brute)
        for i in range(0, 10_000, 97):
            d, _ = idx.distance(Point(*pts[i]))
            assert d == pytest.approx(max(brute[i], 0.0), abs=1e-14)

    def test_large_disc_reaching_out_of_its_band(self):
        # a disc can extend far outside the radial band of its center, so
        # band pruning must account for the radius
        c = Configuration.from_discs(
            [disc(0.49, 0.0, 0.2), disc(0.85, 0.0, 1e-6)]
        )
        idx = SpatialIndex(c)
        d, k = idx.distance(Point(0.75, 0.0))
        assert d == pytest.approx(0.06, abs=1e-12)
        # canonical order puts the central-region disc first
        assert k == 0
        batched = idx.distance_many(np.array([0.75]), np.array([0.0]))
        assert batched[0] == pytest.approx(0.06, abs=1e-12)

    def test_mixed_radii_bruteforce(self):
        rng = np.random.default_rng(29)
        discs = [disc(0.49, 0.0, 0.2), disc(-0.3, 0.4, 0.15)]
        while len(discs) < 150:
            rho = rng.uniform(0.55, 0.99)
            th = rng.uniform(0, TWO_PI)
            r = min(rng.uniform(1e-6, 0.3) * (1 - rho), 0.3 * (1 - rho))
            cand = disc(rho * math.cos(th), rho * math.sin(th), r)
            if all(
                math.hypot(cand.center.x - o.center.x, cand.center.y - o.center.y)
                > cand.radius + o.radius
                for o in discs
            ):
                discs.append(cand)
        c = Configuration.from_discs(discs)
        idx = SpatialIndex(c)
        x, y, lr = c.disc_arrays()
        r = np.exp(lr)
        px = rng.uniform(-0.9, 0.9, 3000)
        py = rng.uniform(-0.9, 0.9, 3000)
        keep = np.hypot(px, py) < 0.999
        px, py = px[keep], py[keep]
        brute = np.min(
            np.hypot(px[:, None] - x[None, :], py[:, None] - y[None, :]) - r[None, :],
            axis=1,
        )
        np.testing.assert_array_equal(idx.distance_many(px, py), brute)

    def test_ring_block_matches_materialized(self):
        ring = RingBlock(n=3, rho=0.9, log_r=math.log(2e-5), count=sector_count(3) * 3)
        cfg_ring = Configuration(blocks=(ring,), n_max=3)
        cfg_flat = cfg_ring.materialized()
        i_ring, i_flat = SpatialIndex(cfg_ring), SpatialIndex(cfg_flat)
        rng = np.random.default_rng(2)
        px = rng.uniform(-0.99, 0.99, 400)
        py = rng.uniform(-0.99, 0.99, 400)
        keep = np.hypot(px, py) < 0.999
        px, py = px[keep], py[keep]
        np.testing.assert_allclose(
            i_ring.distance_many(px, py), i_flat.distance_many(px, py), atol=1e-13
        )

    def test_ring_prefix_exclusion(self):
        ring = RingBlock(n=2, rho=0.8, log_r=math.log(1e-6), count=64, a_start=5)
        cfg = Configuration(blocks=(ring,), n_max=2)
        idx = SpatialIndex(cfg)
        # a point sitting on an excluded slot must see the nearest active one
        theta_excluded = ring.angle_of(2)
        p = Point(0.8 * math.cos(theta_excluded), 0.8 * math.sin(theta_excluded))
        d, _ = idx.distance(p)
        flat = SpatialIndex(cfg.materialized())
        d2, _ = flat.distance(p)
        assert d == pytest.approx(d2, abs=1e-14)
        assert d > 0.0

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(23)
        c = _random_explicit_config(rng, 300)
        angle = 0.7345
        c_rot = c.rotated(angle)
        idx, idx_rot = SpatialIndex(c), SpatialIndex(c_rot)
        for _ in range(200):
            p = Point(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            d1, _ = idx.distance(p)
            d2, _ = idx_rot.distance(p.rotated(angle))
            assert d2 == pytest.approx(d1, abs=1e-12)


class TestRingHelpers:
    def test_same_grid_rings_align_radially(self):
        r1 = RingBlock(n=2, rho=0.80, log_r=-50.0, count=64)
        r2 = RingBlock(n=2, rho=0.82, log_r=-50.0, count=64)
        assert ring_min_center_distance(r1, r2) == pytest.approx(0.02)

    def test_cross_generation_alignment_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            j1 = int(rng.integers(8, 200))
            j2 = int(rng.integers(8, 200))
            if j1 == j2:
                continue
            r1 = RingBlock(n=2, rho=0.80, log_r=-60.0, count=j1)
            r2 = RingBlock(n=3, rho=0.87, log_r=-60.0, count=j2)
            got = ring_min_center_distance(r1, r2)
            th1 = r1.angles()
            th2 = r2.angles()
            dth = np.abs(
                np.remainder(th1[:, None] - th2[None, :] + math.pi, TWO_PI) - math.pi
            )
            brute = np.min(
                np.sqrt(
                    (0.80 - 0.87) ** 2 + 4 * 0.80 * 0.87 * np.sin(dth / 2.0) ** 2
                )
            )
            assert got == pytest.approx(float(brute), rel=1e-12)

    def test_prefixed_ring_distance_matches_bruteforce(self):
        r1 = RingBlock(n=2, rho=0.80, log_r=-60.0, count=48, a_start=7)
        r2 = RingBlock(n=3, rho=0.84, log_r=-60.0, count=80, a_start=3)
        got = ring_min_center_distance(r1, r2)
        th1, th2 = r1.angles(), r2.angles()
        dth = np.abs(
            np.remainder(th1[:, None] - th2[None, :] + math.pi, TWO_PI) - math.pi
        )
        brute = float(
            np.min(np.sqrt((0.80 - 0.84) ** 2 + 4 * 0.80 * 0.84 * np.sin(dth / 2) ** 2))
        )
        assert got == pytest.approx(brute, rel=1e-9)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(41)
        c = _random_explicit_config(rng, 50)
        text = dumps_config(c)
        c2 = loads_config(text)
        x1, y1, l1 = c.disc_arrays()
        x2, y2, l2 = c2.disc_arrays()
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(l1, l2)
        assert dumps_config(c2) == text

    def test_ring_round_trip(self):
        ring = RingBlock(n=4, rho=0.94, log_r=-1.5e7, count=512, a_start=9)
        c = Configuration(blocks=(ring,), n_max=4, provenance={"generator": "test"})
        c2 = loads_config(dumps_config(c))
        assert c2.blocks == (ring,)
        assert c2.provenance == {"generator": "test"}

    def test_document_schema_fields(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.01)])
        doc = json.loads(dumps_config(c))
        assert doc["schema_version"] == 1
        assert set(doc["discs"][0]) == {"x", "y", "r", "log_r"}

    @pytest.mark.parametrize("field", ["x", "y", "log_r"])
    def test_non_finite_disc_rejected_at_load(self, field):
        entry = {"x": 0.6, "y": 0.1, "log_r": -5.0}
        entry[field] = math.nan
        with pytest.raises(GeometryError, match=field):
            loads_config(json.dumps({"discs": [entry], "n_max": 2}))

    def test_non_finite_disc_block_rejected(self):
        with pytest.raises(GeometryError):
            DiscBlock(np.array([0.6]), np.array([0.0]), np.array([-math.inf]))

    def test_underflowed_radius_survives(self):
        d = Disc(Point(0.9, 0.0), -1.0e6)
        assert d.radius == 0.0
        c = Configuration.from_discs([d])
        c2 = loads_config(dumps_config(c))
        assert c2.blocks[0].log_r[0] == -1.0e6


class TestConfiguration:
    def test_canonical_order_is_generation_major(self):
        d_deep = disc(0.9, 0.0, 1e-4)
        d_shallow = disc(0.6, 0.0, 1e-4)
        c = Configuration.from_discs([d_deep, d_shallow])
        gens = c.blocks[0].generations
        assert list(gens) == sorted(gens)

    def test_ratio_sup(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.2), disc(0.9, 0.0, 0.01)])
        assert c.ratio_sup == pytest.approx(0.5)

    def test_disc_count_with_rings(self):
        ring = RingBlock(n=2, rho=0.8, log_r=-50.0, count=64, a_start=10)
        c = Configuration(blocks=(ring,), n_max=2)
        assert c.disc_count == 54
        assert len(list(c.iter_discs())) == 54

    def test_chord_stability(self):
        assert chord(0.5, 0.5, 0.0) == 0.0
        assert chord(0.5, 0.5, math.pi) == pytest.approx(1.0)
        assert chord(1.0, 1.0, 1e-9) == pytest.approx(1e-9, rel=1e-6)
