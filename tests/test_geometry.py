import json
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from champagne.geometry import (
    MAX_DISC_COUNT,
    Configuration,
    ConfigurationTooLarge,
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
    check_id_range,
    chord,
    distance_to_obstacles,
    dumps_config,
    generations_of,
    loads_config,
    ring_min_center_distance,
    sector_count,
    unique_sorted,
    validate_configuration,
    whitney_cell,
)


def disc(x, y, r):
    return Disc.from_radius(Point(x, y), r)


def generation_of(s: float) -> int:
    return int(generations_of([s])[0])


def _assert_generation_rule(s: np.ndarray) -> None:
    """generations_of(s) is the n >= 1 with 2^-n-1 < s <= 2^-n, or 0 for
    s > 1/2."""
    n = generations_of(s)
    central = n == 0
    assert np.all(s[central] > 0.5)
    s, n = s[~central], n[~central].astype(np.float64)
    assert np.all(n >= 1)
    assert np.all((2.0 ** (-n - 1.0) < s) & (s <= 2.0**-n))


class TestGeneration:
    def test_band_membership(self):
        # an upper band edge 2^-n belongs to generation n, so a lower edge
        # rolls to the deeper generation whose upper edge it is
        got = generations_of([0.3, 0.6, 0.25, 0.5, 0.125, 1.0])
        assert got.tolist() == [1, 0, 2, 1, 3, 0]

    def test_every_band_edge_and_its_neighbours(self):
        edges = 2.0 ** -np.arange(1075.0)
        s = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        _assert_generation_rule(s[(s > 0.0) & (s <= 1.0)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_min=True),
                st.tuples(st.integers(0, 1074), st.sampled_from([0.0, 2.0])).map(
                    lambda e: float(np.nextafter(2.0 ** -e[0], e[1]))
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_the_defining_inequality(self, gaps):
        s = np.array(gaps)
        _assert_generation_rule(s[(s > 0.0) & (s <= 1.0)])

    @pytest.mark.parametrize("size", [0, 1, 2, 40])
    def test_unique_sorted_matches_np_unique(self, size):
        rng = np.random.default_rng(size)
        for a in (rng.integers(-3, 9, size), rng.integers(0, 4, size) * 0.25 - 0.5):
            got = unique_sorted(a)
            np.testing.assert_array_equal(got, np.unique(a))
            assert got.dtype == a.dtype


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

    def test_n_max_ends_the_search(self):
        # the cells of generation at most n_max, in the same order; a disc
        # tangent to the unit circle within 1e-9 is searched to n_max only
        rng = np.random.default_rng(12)
        for _ in range(40):
            rho, theta = rng.uniform(0.5, 0.995), rng.uniform(0, TWO_PI)
            d = disc(rho * math.cos(theta), rho * math.sin(theta), (1.0 - rho) * rng.uniform(0.01, 0.8))
            every = cells_intersecting_disc(d)
            for n_max in range(0, max(idx.n for idx in every) + 2):
                assert cells_intersecting_disc(d, n_max) == [idx for idx in every if idx.n <= n_max]
        near = Disc(Point(0.9, 0.0), math.log(1.0 - 0.9 - 1e-9))
        assert {idx.n for idx in cells_intersecting_disc(near, 5)} == {2, 3, 4, 5}


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

    def test_mislabelled_ring_generation_reported(self):
        # the second ring is labelled n=2, but 1 - rho = 0.7 lies in the
        # central region: generation 0
        rings = (
            RingBlock(n=1, rho=0.6, log_r=math.log(0.01), count=8),
            RingBlock(n=2, rho=0.3, log_r=math.log(0.01), count=8),
        )
        c = Configuration(blocks=rings, n_max=2)
        report = validate_configuration(c)
        assert [(v.kind, v.indices) for v in report.violations] == [("generation", (8,))]
        # a query without depths reads every row whatever its label: at the
        # centre of a slot of the rho = 0.3 ring it lies 0.01 inside a disc
        th = rings[1].angle_of(3)
        px, py = np.array([0.3 * math.cos(th)]), np.array([0.3 * math.sin(th)])
        assert SpatialIndex(c).distance_many(px, py)[0] == pytest.approx(-0.01, abs=1e-12)
        # generation prefixes need labels that agree with the radii
        with pytest.raises(GeometryError, match="generations"):
            SpatialIndex(c).distance_many(px, py, depths=(np.array([1]), np.array([2])))
        # a label that no circle can carry is reported the same way
        far = RingBlock(n=10**12, rho=0.6, log_r=math.log(0.01), count=8)
        report = validate_configuration(Configuration(blocks=(far,), n_max=2))
        assert [v.kind for v in report.violations] == ["generation"]

    def test_ids_beyond_int64_refused_before_the_index(self):
        # two rows of 2^62 slots: the last canonical id would be 2^63
        rings = tuple(
            RingBlock(n=2, rho=rho, log_r=-100.0, count=2**62) for rho in (0.8, 0.82)
        )
        c = Configuration(blocks=rings, n_max=2)
        with pytest.raises(ConfigurationTooLarge, match="int64"):
            validate_configuration(c)
        with pytest.raises(ConfigurationTooLarge, match="int64"):
            SpatialIndex(c)
        check_id_range(MAX_DISC_COUNT)
        with pytest.raises(ConfigurationTooLarge):
            check_id_range(MAX_DISC_COUNT + 1)


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
        # one-point batches: the same kernel, clamped at zero
        for i in range(0, 10_000, 97):
            d, _ = distance_to_obstacles(Point(*pts[i]), idx)
            assert d == max(brute[i], 0.0)

    def test_large_disc_reaching_out_of_its_band(self):
        # a disc can extend far outside the radial band of its center, so
        # band pruning must account for the radius
        c = Configuration.from_discs(
            [disc(0.49, 0.0, 0.2), disc(0.85, 0.0, 1e-6)]
        )
        idx = SpatialIndex(c)
        d, k = distance_to_obstacles(Point(0.75, 0.0), idx)
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
        d, _ = distance_to_obstacles(p, idx)
        flat = SpatialIndex(cfg.materialized())
        d2, _ = distance_to_obstacles(p, flat)
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
            d1, _ = distance_to_obstacles(p, idx)
            d2, _ = distance_to_obstacles(p.rotated(angle), idx_rot)
            assert d2 == pytest.approx(d1, abs=1e-12)


@st.composite
def _ring_pair(draw):
    """Two rings with slot counts 1..200, equal or not, on equal or unequal
    circles, each keeping all its slots or dropping a prefix."""
    j1 = draw(st.integers(1, 200))
    j2 = draw(st.one_of(st.just(j1), st.integers(1, 200)))
    rho1 = draw(st.floats(0.2, 0.95))
    rho2 = draw(st.one_of(st.just(rho1), st.floats(0.2, 0.95)))

    def ring(count, rho):
        a_start = draw(st.one_of(st.just(0), st.integers(0, count - 1)))
        return RingBlock(n=1, rho=rho, log_r=-60.0, count=count, a_start=a_start)

    return ring(j1, rho1), ring(j2, rho2)


class TestRingHelpers:
    @settings(max_examples=400, deadline=None)
    @given(_ring_pair())
    # the only radially aligned pair of active slots is slot 180 of the
    # first ring with slot 123 of the second: within one period (13 slots)
    # of the second ring's first active slot, but nine periods (19 slots
    # each) past the first ring's first slot
    @example(
        (
            RingBlock(n=1, rho=0.7, log_r=math.log(0.006), count=190),
            RingBlock(n=1, rho=0.71, log_r=math.log(0.006), count=130, a_start=113),
        )
    )
    def test_min_center_distance_is_the_slot_pair_minimum(self, rings):
        r1, r2 = rings
        got = ring_min_center_distance(r1, r2)
        assert got == ring_min_center_distance(r2, r1)
        dth = r1.angles()[:, None] - r2.angles()[None, :]
        brute = np.sqrt((r1.rho - r2.rho) ** 2 + 4.0 * r1.rho * r2.rho * np.sin(dth / 2.0) ** 2)
        # the absolute term covers slot pairs that coincide in exact
        # arithmetic, whose rounded angles differ by about 1e-15
        assert got == pytest.approx(float(brute.min()), rel=1e-12, abs=1e-12)

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
        assert set(doc["discs"]) == {"x", "y", "log_r"}
        assert doc["discs"] == {"x": [0.6], "y": [0.0], "log_r": [math.log(0.01)]}

    def test_record_and_column_layouts_load_alike(self):
        # explicit discs ahead of two rings, as a loaded file orders them;
        # the record file is what every earlier release wrote, ``r`` included
        c = _random_explicit_config(np.random.default_rng(43), 80)
        rings = (
            RingBlock(n=5, rho=1.0 - 0.75 * 2.0**-5, log_r=-40.0, count=512),
            RingBlock(n=6, rho=1.0 - 0.75 * 2.0**-6, log_r=-50.0, count=1024, a_start=9),
        )
        c = Configuration(blocks=(*c.blocks, *rings), n_max=6, provenance={"generator": "test"})
        columns = dumps_config(c)
        doc = json.loads(columns)
        cols = doc["discs"]
        doc["discs"] = [
            {"x": x, "y": y, "r": math.exp(lr), "log_r": lr}
            for x, y, lr in zip(cols["x"], cols["y"], cols["log_r"])
        ]
        records = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        from_columns, from_records = loads_config(columns), loads_config(records)
        b1, b2 = from_columns.blocks[0], from_records.blocks[0]
        for name in ("x", "y", "log_r"):
            assert getattr(b1, name).tobytes() == getattr(b2, name).tobytes()
        assert from_columns.blocks[1:] == from_records.blocks[1:] == rings
        i1, i2 = SpatialIndex(from_columns), SpatialIndex(from_records)
        np.testing.assert_array_equal(i1.exp_ids, i2.exp_ids)
        px, py = _query_points(43, c, count=200)
        got, want = i1.distance_many(px, py, with_ids=True), i2.distance_many(px, py, with_ids=True)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)
        # both read back as the column text
        assert dumps_config(from_columns) == dumps_config(from_records) == columns

    def test_no_explicit_disc_writes_an_empty_list(self):
        # a ring-only file is the same text in either layout
        ring = RingBlock(n=4, rho=0.94, log_r=-1.5e7, count=512)
        assert json.loads(dumps_config(Configuration(blocks=(ring,), n_max=4)))["discs"] == []

    @pytest.mark.parametrize("layout", ["records", "columns"])
    @pytest.mark.parametrize("field", ["x", "y", "log_r"])
    def test_non_finite_disc_rejected_at_load(self, field, layout):
        entry = {"x": 0.6, "y": 0.1, "log_r": -5.0}
        entry[field] = math.nan
        discs = [entry] if layout == "records" else {k: [v] for k, v in entry.items()}
        with pytest.raises(GeometryError, match=field):
            loads_config(json.dumps({"discs": discs, "n_max": 2}))

    @pytest.mark.parametrize(
        "discs",
        [
            {"x": [0.6, 0.7], "y": [0.0], "log_r": [-5.0, -5.0]},
            {"x": [0.6], "y": ["0.0"], "log_r": [-5.0]},
            {"x": [0.6], "y": [None], "log_r": [-5.0]},
            {"x": [0.6], "y": [[0.0]], "log_r": [-5.0]},
            {"x": 0.6, "y": 0.0, "log_r": -5.0},
            {"x": [0.6], "y": [0.0]},
            {"x": [0.6], "y": [0.0], "r": [0.01]},
            [{"x": 0.6, "y": "0.0", "log_r": -5.0}],
            7,
        ],
        ids=["ragged", "string", "null", "nested", "scalar-columns", "no-log_r", "r-for-log_r",
             "string-record", "scalar"],
    )
    def test_malformed_discs_are_format_errors(self, discs):
        # ValueError, KeyError and TypeError are what the CLI reports as a
        # document it cannot read
        with pytest.raises((ValueError, KeyError, TypeError)):
            loads_config(json.dumps({"discs": discs, "n_max": 2}))

    def test_non_finite_disc_block_rejected(self):
        with pytest.raises(GeometryError):
            DiscBlock(np.array([0.6]), np.array([0.0]), np.array([-math.inf]))

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 0.999),
                st.floats(0.0, 2 * math.pi),
                st.floats(-1e6, -1e-6),
            ),
            min_size=1,
            max_size=20,
        ),
        st.data(),
    )
    def test_disc_block_refuses_the_first_disc_at_its_bound(self, discs, data):
        rho, theta, log_ratio = (np.array(v) for v in zip(*discs))
        x, y = rho * np.cos(theta), rho * np.sin(theta)
        log_s = np.log(1.0 - np.hypot(x, y))
        DiscBlock(x, y, log_s + log_ratio)
        k = data.draw(st.integers(0, len(discs) - 1))
        lifted = log_s + log_ratio
        lifted[k] = log_s[k] + data.draw(st.sampled_from([0.0, 1e-3, 5.0]))
        with pytest.raises(GeometryError, match=f"disc {k} of the block"):
            DiscBlock(x, y, lifted)

    @pytest.mark.parametrize("x", [1.0, 1.5, -3.0])
    def test_disc_block_refuses_a_center_off_the_open_disc(self, x):
        with pytest.raises(GeometryError, match="disc 1 of the block"):
            DiscBlock(np.array([0.6, x]), np.array([0.0, 0.0]), np.array([-5.0, -5.0]))

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

    def test_disc_block_derived_arrays_kept_read_only(self):
        b = _random_explicit_config(np.random.default_rng(3), 60).blocks[0]
        assert b.boundary_gap is b.boundary_gap and b.generations is b.generations
        assert not b.boundary_gap.flags.writeable and not b.generations.flags.writeable
        rows = b.generation_rows
        assert [n for n, _ in rows] == sorted(set(b.generations.tolist()))
        for n, idx in rows:
            assert np.all(b.generations[idx] == n)
        assert sorted(np.concatenate([idx for _, idx in rows])) == list(range(len(b)))

    def test_ratio_sup(self):
        c = Configuration.from_discs([disc(0.6, 0.0, 0.2), disc(0.9, 0.0, 0.01)])
        assert c.ratio_sup == pytest.approx(0.5)

    def test_log_ratio_sup_computed_once(self, monkeypatch):
        # validation reads it through ratio_sup, and the capacity constants
        # read ratio_sup again
        calls = []
        compute = Configuration.log_ratio_sup.func
        counted = cached_property(lambda c: calls.append(c) or compute(c))
        counted.__set_name__(Configuration, "log_ratio_sup")
        monkeypatch.setattr(Configuration, "log_ratio_sup", counted)
        c = Configuration.from_discs([disc(0.6, 0.0, 0.2), disc(0.9, 0.0, 0.01)])
        assert validate_configuration(c).ok
        assert c.ratio_sup == pytest.approx(0.5)
        assert len(calls) == 1

    def test_disc_count_with_rings(self):
        ring = RingBlock(n=2, rho=0.8, log_r=-50.0, count=64, a_start=10)
        c = Configuration(blocks=(ring,), n_max=2)
        assert c.disc_count == 54
        assert len(list(c.iter_discs())) == 54

    def test_chord_stability(self):
        assert chord(0.5, 0.5, 0.0) == 0.0
        assert chord(0.5, 0.5, math.pi) == pytest.approx(1.0)
        assert chord(1.0, 1.0, 1e-9) == pytest.approx(1e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# locality-bounded queries against brute-force scans

from champagne.bands import DiscTable, _nearest_rows  # noqa: E402
from champagne.geometry import _NO_ID, _find_overlap  # noqa: E402

# drawn per band: (generation, disc count, angular centre, angular spread,
# log10 of r_max / r_min); a band crowded into a few sectors splits each cell
# into many buckets, a band spread round the turn takes one bucket a cell
_band = st.tuples(
    st.integers(0, 7),
    st.one_of(st.integers(1, 64), st.integers(65, 400)),
    st.one_of(st.just(0.0), st.floats(0.0, TWO_PI, exclude_max=True)),
    st.sampled_from([0.05, 0.5, TWO_PI]),
    st.sampled_from([0.0, 3.0, 12.0]),
)


def _explicit_bands(seed, bands, r_top=0.3):
    """One explicit block with the discs of each band; around a centre of
    angle 0 they sit on both sides of the seam theta = 0 = 2 pi.  Discs may
    overlap: a distance query does not need a valid configuration."""
    rng = np.random.default_rng(seed)
    xs, ys, lrs = [], [], []
    for n, count, centre, spread, decades in bands:
        lo, hi = (0.5, 0.95) if n == 0 else (2.0 ** (-n - 1), 2.0 ** (-n))
        s = rng.uniform(lo, hi, count)
        theta = np.mod(centre + spread * rng.uniform(-0.5, 0.5, count), TWO_PI)
        r = np.minimum(r_top * s, 0.9 * (hi - lo)) * 10.0 ** (-decades * rng.random(count))
        xs.append((1.0 - s) * np.cos(theta))
        ys.append((1.0 - s) * np.sin(theta))
        lrs.append(np.log(r))
    block = DiscBlock(np.concatenate(xs), np.concatenate(ys), np.concatenate(lrs))
    return Configuration(blocks=(block,), n_max=8)


# a lattice band as materialised rings lay one out: (generation, rows, slots
# per sector), every row with its slots at the same angles
_lattice = st.tuples(st.sampled_from([1, 2]), st.integers(2, 24), st.integers(1, 2))


def _lattice_discs(seed, n, rows, per_sector):
    """rows x slots discs in generation n, slots = per_sector * 2^(n+4):
    the rows evenly spaced across the generation's annulus and every row at
    the same slot angles, turned by a random offset, so that each angle
    holds ``rows`` discs; radii up to a third of the nearer spacing."""
    rng = np.random.default_rng(seed)
    slots = per_sector * sector_count(n)
    s = 2.0 ** (-n - 1) * (1.0 + (np.arange(rows) + 0.5) / rows)
    theta = rng.uniform(0.0, TWO_PI) + (np.arange(slots) + 0.5) * (TWO_PI / slots)
    rho, theta = np.meshgrid(1.0 - s, theta, indexing="ij")
    spacing = min(2.0 ** (-n - 1) / rows, 0.5 * TWO_PI / slots)
    log_r = np.log(spacing / 3.0) - rng.uniform(0.0, 5.0, rho.size)
    block = DiscBlock((rho * np.cos(theta)).ravel(), (rho * np.sin(theta)).ravel(), log_r)
    return Configuration(blocks=(block,), n_max=8)


def _band_k(index, n):
    """The buckets per cell side, k, of generation n's band in the index."""
    table = index._discs
    return table.k[list(table.n).index(n)]


def _query_points(seed, config, count=300):
    """Points spread over the disc, points next to disc centres and points
    on the seam at theta = 0."""
    rng = np.random.default_rng(seed + 1)
    x, y, _ = config.disc_arrays()
    gap = np.exp(rng.uniform(math.log(1e-4), math.log(0.99), count))
    theta = rng.uniform(0.0, TWO_PI, count)
    theta[: count // 6] = rng.normal(0.0, 1e-3, count // 6)
    px, py = (1.0 - gap) * np.cos(theta), (1.0 - gap) * np.sin(theta)
    near = rng.integers(0, len(x), count // 3)
    jitter = 10.0 ** rng.uniform(-9, -2, (2, len(near)))
    px = np.concatenate([px, x[near] + jitter[0], [0.0]])
    py = np.concatenate([py, y[near] - jitter[1], [0.0]])
    keep = np.hypot(px, py) < 0.9999
    return px[keep], py[keep]


def _explicit_scan(config, px, py):
    x, y, lr = config.disc_arrays()
    return np.min(np.hypot(px[:, None] - x[None, :], py[:, None] - y[None, :]) - np.exp(lr), axis=1)


def _ring_scan(rings, px, py):
    """Every active slot of every ring, in the ring's own polar arithmetic."""
    rho_p = np.hypot(px, py)
    theta_p = np.arctan2(py, px)
    theta_p = np.where(theta_p < 0.0, theta_p + TWO_PI, theta_p)[:, None]
    best = np.full(len(px), np.inf)
    for rb in rings:
        a = np.arange(rb.a_start, rb.count)
        sin2 = np.sin((theta_p - (a + 0.5) * rb.step) / 2.0) ** 2
        d = np.sqrt((rho_p[:, None] - rb.rho) ** 2 + 4.0 * rho_p[:, None] * rb.rho * sin2)
        best = np.minimum(best, (d - rb.radius).min(axis=1))
    return best


def _neighbor_scan(config, centers=True):
    """(distance, lowest id) of the nearest other disc, O(N^2): between
    centres, or from the centre to the other disc's boundary; (inf, -1) for
    a lone disc."""
    x, y, lr = config.disc_arrays()
    dx, dy = x[None, :] - x[:, None], y[None, :] - y[:, None]
    d = np.sqrt(dx * dx + dy * dy) if centers else np.hypot(dx, dy) - np.exp(lr)[None, :]
    np.fill_diagonal(d, np.inf)
    nn = d.min(axis=1)
    ids = np.argmax(d == nn[:, None], axis=1)
    return nn, np.where(np.isinf(nn), -1, ids)


def _rows_scan(px, py, x, y, rad, gid, skip):
    """Row by row and entry by entry: the least hypot(dx, dy) - r_k, or
    sqrt(dx*dx + dy*dy) for ``rad`` None, over the entries not skipped, and
    the lowest id attaining it."""
    d_out, id_out = [], []
    for i in range(len(px)):
        xs, ys, rs, gs = (a if a is None or a.ndim == 1 else a[i] for a in (x, y, rad, gid))
        best, best_id = math.inf, _NO_ID
        for k in range(len(xs)):
            if skip is not None and skip[i, k]:
                continue
            dx, dy = xs[k] - px[i], ys[k] - py[i]
            d = math.sqrt(dx * dx + dy * dy) if rs is None else float(np.hypot(dx, dy)) - rs[k]
            if d < best or (d == best and gs[k] < best_id):
                best, best_id = d, int(gs[k])
        d_out.append(best)
        id_out.append(best_id)
    return np.array(d_out), np.array(id_out)


# coordinates on a grid of eighths, where exact ties are common, or
# anywhere, where sqrt(dx*dx + dy*dy) and hypot(dx, dy) often differ
_coordinate = st.one_of(
    st.integers(-6, 6).map(lambda k: k / 8.0), st.floats(-0.75, 0.75, allow_subnormal=False)
)


class TestNearestRows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 9),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    def test_equals_entrywise_scan(self, points, width, per_row, centers, skipping, data):
        shape = (points, width) if per_row else (width,)
        cells = int(np.prod(shape))
        draw = lambda elements, n: np.array(data.draw(st.lists(elements, min_size=n, max_size=n)))
        px, py = draw(_coordinate, points), draw(_coordinate, points)
        x, y = draw(_coordinate, cells).reshape(shape), draw(_coordinate, cells).reshape(shape)
        rad = None if centers else draw(st.sampled_from([0.0, 0.125, 0.25]), cells).reshape(shape)
        # ids out of order, so that the lowest id is not the first entry
        gid = draw(st.integers(0, 50), cells).reshape(shape)
        skip = draw(st.booleans(), points * width).reshape(points, width) if skipping else None
        d, ids = _nearest_rows(px, py, x, y, rad, gid, skip)
        want_d, want_ids = _rows_scan(px, py, x, y, rad, gid, skip)
        np.testing.assert_array_equal(d, want_d)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(_nearest_rows(px, py, x, y, rad, None, skip)[0], want_d)


class TestLocalityQueries:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(_band, min_size=1, max_size=3))
    def test_explicit_distances_equal_scan(self, seed, bands):
        config = _explicit_bands(seed, bands)
        px, py = _query_points(seed, config)
        got = SpatialIndex(config).distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))

    def test_bucketed_band_with_huge_radius_spread(self):
        # one disc 10^12 times larger than the rest of its 2000-disc band
        config = _explicit_bands(3, [(4, 2000, 0.0, TWO_PI, 12.0), (4, 1, 1.0, 0.0, 0.0)])
        px, py = _query_points(3, config, count=3000)
        got = SpatialIndex(config).distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_nearest_disc_just_outside_the_window(self, side):
        # 32 discs 1e-3 rad apart crowd one sector of generation 2, so its
        # cells split into 6 x 6 buckets 0.016 rad wide; the query's first
        # window, 3 x 3 buckets, holds no disc, its rows lying 0.06 inward of
        # the crowd; the nearest disc, 0.05 rad away at the query's radius,
        # is the first one left out on one side, and the next ones out on
        # that side are 0.3 rad away
        window = np.concatenate([-1e-3 * np.arange(1, 17), 1e-3 * np.arange(16)])
        out = np.array([-0.05, -0.3, -0.31, -0.32])
        fillers = np.linspace(0.5, 5.0, 60)
        theta = 1.0 + side * np.concatenate([window, out, fillers])
        rho = np.concatenate([np.full(32, 0.86), [0.8], np.full(63, 0.86)])
        x, y = rho * np.cos(theta), rho * np.sin(theta)
        config = Configuration(blocks=(DiscBlock(x, y, np.full(96, -30.0)),), n_max=2)
        q = 1.0 - side * 5e-4
        px, py = np.array([0.8 * math.cos(q)]), np.array([0.8 * math.sin(q)])
        got = SpatialIndex(config).distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))
        assert got[0] < 0.045

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_nearest_disc_just_outside_a_narrow_window(self, side):
        # one disc in each of the 64 sectors of generation 2, so each cell
        # is one bucket and the query's first window holds 3 discs; those
        # sit 0.12 inward of it, and the first disc left out on one side, 2.5
        # sectors away at the query's own radius, is 0.094 away from its
        # boundary
        step = TWO_PI / sector_count(2)
        theta = 1.0 + side * step * (np.arange(-32, 32) + 0.5)
        rho = np.where(np.arange(-32, 32) == 2, 0.874, 0.751)
        log_r = np.where(np.arange(-32, 32) == 2, math.log(0.12), -30.0)
        config = Configuration(
            blocks=(DiscBlock(rho * np.cos(theta), rho * np.sin(theta), log_r),), n_max=2
        )
        index = SpatialIndex(config)
        assert _band_k(index, 2) == 1
        px, py = np.array([0.874 * math.cos(1.0)]), np.array([0.874 * math.sin(1.0)])
        got = index.distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))
        assert got[0] < 0.1

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_nearest_disc_just_beyond_the_window_rows(self, side):
        # 25 discs crowd one cell of generation 3, so its cells split into
        # 5 x 5 buckets, 0.0125 deep and 0.0098 rad wide; the query sits at
        # the top of row 1, so its first window (rows 0 to 2) ends 0.0126
        # above it, nearer than its angular bound of 0.0131; disc A in row
        # 2 is 0.0129 away, and disc B, just past the window in row 3, is
        # 0.0127 away, straight above the query
        step, dtheta = TWO_PI / sector_count(3), TWO_PI / (sector_count(3) * 5)
        crowd = np.linspace(0.1, 0.9, 5) * step + 64 * step
        rho_c, theta_c = np.meshgrid(np.linspace(0.88, 0.93, 5), crowd)
        theta_p, rho_p = 12.5 * dtheta, 0.8999
        rho = np.concatenate([rho_c.ravel(), [0.9122, 0.9126]])
        theta = np.concatenate([theta_c.ravel(), [theta_p + side * 0.004292, theta_p]])
        config = Configuration(
            blocks=(DiscBlock(rho * np.cos(theta), rho * np.sin(theta), np.full(27, -30.0)),), n_max=3
        )
        index = SpatialIndex(config)
        assert _band_k(index, 3) == 5
        px, py = np.array([rho_p * math.cos(theta_p)]), np.array([rho_p * math.sin(theta_p)])
        got, ids = index.distance_many(px, py, with_ids=True)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))
        assert ids[0] == 26 and got[0] < 0.0128

    @pytest.mark.parametrize("crowd, k", [(1, 1), (2, 2), (3, 2), (8, 3), (20, 5)])
    def test_buckets_follow_the_most_crowded_cell(self, crowd, k):
        # one disc in each of the 128 sectors of generation 3, and `crowd`
        # discs in sector 5: k = ceil(sqrt(crowd)) buckets a side, and every
        # disc stored once, in key order
        step = TWO_PI / sector_count(3)
        theta = np.concatenate(
            [(np.arange(128) + 0.5) * step, (5.0 + np.linspace(0.1, 0.9, crowd - 1)) * step]
        )
        x, y = 0.9 * np.cos(theta), 0.9 * np.sin(theta)
        table = DiscTable(x, y, np.full(len(x), 1e-9), np.arange(len(x)))
        assert table.k.tolist() == [k] and table.turn.tolist() == [128 * k]
        assert sorted(table.gid.tolist()) == list(range(len(x)))
        assert (np.diff(table.keys) >= 0).all()

    @pytest.mark.parametrize("s, count", [(1e-9, 1), (1e-6, 1), (1e-9, 40), (1e-6, 40)])
    def test_deep_generation_band(self, s, count):
        # generations 29 and 19 have 2^33 and 2^23 sectors: the buckets are
        # sized without a per-sector table, and the band validates and
        # answers queries like a full scan
        theta = 0.3 + np.arange(count) * (TWO_PI / count)
        discs = [Disc.from_radius(Point((1.0 - s) * math.cos(t), (1.0 - s) * math.sin(t)), s / 4)
                 for t in theta.tolist()]
        config = Configuration.from_discs(discs + [Disc.from_radius(Point(0.0, 0.5), 0.1)])
        assert generation_of(s) in (19, 29)
        assert validate_configuration(config).ok
        index = SpatialIndex(config)
        assert _band_k(index, generation_of(s)) == 1
        px, py = _query_points(5, config, count=200)
        got = index.distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))
        d, k = distance_to_obstacles(Point((1.0 - 2 * s) * math.cos(0.3), (1.0 - 2 * s) * math.sin(0.3)), index)
        assert k is not None and d == pytest.approx(0.75 * s, rel=1e-3)

    @pytest.mark.parametrize("fillers", [0, 100])
    def test_hypot_decides_near_ties(self, fillers):
        # the two discs are equally far from p up to one ulp, and
        # sqrt(dx^2 + dy^2) orders them the other way round from hypot
        p = (-0.12519809902498447, 0.0008109267883478211)
        near = ([0.08270449011782591, -0.14612757768289386], [0.058754668426739674, 0.21561995986295815])
        theta = np.linspace(math.pi + 0.1, TWO_PI - 0.01, fillers)
        x = np.concatenate([near[0], 0.45 * np.cos(theta)])
        y = np.concatenate([near[1], 0.45 * np.sin(theta)])
        config = Configuration(blocks=(DiscBlock(x, y, np.full(len(x), -20.0)),), n_max=0)
        px, py = np.array([p[0]]), np.array([p[1]])
        got = SpatialIndex(config).distance_many(px, py)
        np.testing.assert_array_equal(got, _explicit_scan(config, px, py))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(8, 600),
        st.lists(st.integers(0, 3), min_size=1, max_size=2),
        st.sampled_from([1, 2, 3, 10, 0]),
    )
    def test_prefix_ring_distances_equal_scan(self, seed, n, count, rows, keep):
        # keep = 0 drops a random prefix; otherwise only the last `keep`
        # slots stay active, so most queries land on the dropped arc
        rng = np.random.default_rng(seed)
        lo, hi = 2.0 ** (-n - 1), 2.0 ** (-n)
        rings = []
        for row in rows:
            a_start = int(rng.integers(0, count)) if keep == 0 else max(0, count - keep - row)
            rho = 1.0 - rng.uniform(lo, hi)
            log_r = math.log((1.0 - rho) * 10.0 ** rng.uniform(-12, -0.5))
            rings.append(RingBlock(n=n, rho=rho, log_r=log_r, count=count, a_start=a_start))
        config = Configuration(blocks=tuple(rings), n_max=n)
        # half the queries around the arc endpoints, some on the seam
        ends = np.concatenate([[rb.angle_of(rb.a_start), rb.angle_of(rb.count - 1)] for rb in rings])
        theta = np.concatenate(
            [
                ends[rng.integers(0, len(ends), 150)] + rng.normal(0.0, 3.0 * TWO_PI / count, 150),
                rng.uniform(0.0, TWO_PI, 100),
                rng.normal(0.0, 1e-3, 50),
            ]
        )
        rho_q = 1.0 - np.concatenate([rng.uniform(lo, hi, 200), rng.uniform(1e-3, 0.99, 100)])
        px, py = rho_q * np.cos(theta), rho_q * np.sin(theta)
        got = SpatialIndex(config).distance_many(px, py)
        np.testing.assert_array_equal(got, _ring_scan(rings, px, py))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.lists(_band, min_size=1, max_size=3), _lattice.map(lambda spec: ("lattice", spec))),
        st.booleans(),
    )
    def test_nearest_neighbours_equal_scan(self, seed, bands, centers):
        if bands[0] == "lattice":
            config = _lattice_discs(seed, *bands[1])
        else:
            config = _explicit_bands(seed, bands)
        d, ids = SpatialIndex(config).explicit_neighbors(centers=centers)
        want_d, want_ids = _neighbor_scan(config, centers)
        np.testing.assert_array_equal(d, want_d)
        np.testing.assert_array_equal(ids, want_ids)

    def test_nearest_centre_ties_take_lowest_id(self):
        # disc 0 at angle 0 has two neighbours at exactly the same distance:
        # disc 1 just above the seam and disc 2 just below it, which comes
        # first in angular order; 100 more discs fill the band's other cells
        h = 2.0**-10
        far = np.linspace(1.0, 5.0, 100)
        x = np.concatenate([[0.75, 0.75, 0.75], 0.75 * np.cos(far)])
        y = np.concatenate([[0.0, h, -h], 0.75 * np.sin(far)])
        config = Configuration(blocks=(DiscBlock(x, y, np.full(len(x), -30.0)),), n_max=2)
        d, ids = SpatialIndex(config).explicit_neighbors()
        assert (d[0], ids[0]) == (h, 1)
        want_d, want_ids = _neighbor_scan(config)
        np.testing.assert_array_equal(d, want_d)
        np.testing.assert_array_equal(ids, want_ids)

    def test_nearest_centre_tie_across_bands_takes_lowest_id(self):
        # disc 1 (generation 2) is 1/16 from disc 2 in its own band and from
        # disc 0 in generation 1, which is searched second
        x = np.array([0.6875, 0.75, 0.8125])
        config = Configuration(blocks=(DiscBlock(x, np.zeros(3), np.full(3, -30.0)),), n_max=2)
        d, ids = SpatialIndex(config).explicit_neighbors()
        assert (d[1], ids[1]) == (0.0625, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_band, min_size=1, max_size=3),
        st.sampled_from([1e-3, 0.05, 0.3]),
        st.booleans(),
    )
    def test_overlap_found_exactly_when_scan_finds_one(self, seed, bands, r_top, tangent):
        config = _explicit_bands(seed, bands, r_top=r_top)
        if tangent:
            # a disc placed to touch disc 0 exactly, as far as rounding allows
            b = config.blocks[0]
            r0, r1 = float(np.exp(b.log_r[0])), 1e-7
            x = np.append(b.x, b.x[0] + (r0 + r1) * 0.6)
            y = np.append(b.y, b.y[0] + (r0 + r1) * 0.8)
            config = Configuration(blocks=(DiscBlock(x, y, np.append(b.log_r, math.log(r1))),), n_max=8)
        x, y, lr = config.disc_arrays()
        r = np.exp(lr)
        meets = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :]) <= r[:, None] + r[None, :]
        np.fill_diagonal(meets, False)
        got = _find_overlap(SpatialIndex(config))
        if not meets.any():
            assert got is None
        else:
            i = int(np.argmax(meets.any(axis=1)))
            assert got == (i, int(np.argmax(meets[i])))


def _scan_with_ids(config, px, py):
    """(distance, lowest id) of the nearest disc by a scan of every disc in
    canonical order: explicit discs by hypot(dx, dy) - r, ring slots in the
    ring arithmetic of the index, each slot of a generation of plain rings
    at its angle unwrapped to within half a turn of the point; (inf, -1)
    for an empty configuration."""
    rho_p = np.hypot(px, py)
    theta_p = np.arctan2(py, px)
    theta_p = np.where(theta_p < 0.0, theta_p + TWO_PI, theta_p)[:, None]
    columns = [np.full((len(px), 1), np.inf)]
    rings = [b for b in config.blocks if isinstance(b, RingBlock)]
    for b in config.blocks:
        if isinstance(b, DiscBlock):
            columns.append(np.hypot(px[:, None] - b.x, py[:, None] - b.y) - np.exp(b.log_r))
            continue
        a = np.arange(b.a_start, b.count, dtype=np.float64)
        if all(r.a_start == 0 and r.count == b.count for r in rings if r.n == b.n):
            u = theta_p / b.step - 0.5
            a = a + b.count * np.round((u - a) / b.count)
        sin2 = np.sin((theta_p - (a + 0.5) * b.step) / 2.0) ** 2
        d = np.sqrt((rho_p[:, None] - b.rho) ** 2 + 4.0 * rho_p[:, None] * b.rho * sin2)
        columns.append(d - b.radius)
    d = np.concatenate(columns, axis=1)
    nearest = d.min(axis=1)
    # column 0 is the inf placeholder, so ids are shifted by one
    return nearest, np.argmax(d == nearest[:, None], axis=1) - 1


# (generation, slot count, rows, active slots): None keeps every slot, 0 drops
# a random prefix, k keeps only the last k + row slots
_ring_spec = st.tuples(
    st.integers(1, 6), st.integers(8, 300), st.integers(1, 2), st.sampled_from([None, 0, 1, 2, 10])
)


def _rings(rng, specs):
    rings = []
    for n, count, rows, keep in specs:
        lo, hi = 2.0 ** (-n - 1), 2.0 ** (-n)
        for row in range(rows):
            if keep is None:
                a_start = 0
            elif keep == 0:
                a_start = int(rng.integers(1, count))
            else:
                a_start = max(1, count - keep - row)
            rho = 1.0 - rng.uniform(lo, hi)
            log_r = math.log((1.0 - rho) * 10.0 ** rng.uniform(-12, -0.5))
            rings.append(RingBlock(n=n, rho=rho, log_r=log_r, count=count, a_start=a_start))
    return rings


def _grid_discs(seed, count):
    """Discs of one radius with centres on the 2^-6 grid: a query on the
    2^-7 grid often has several nearest discs, exactly tied."""
    rng = np.random.default_rng(seed)
    centres = np.unique(rng.integers(-62, 63, (4 * count, 2)), axis=0)
    centres = centres[rng.permutation(len(centres))] / 64.0
    rho = np.hypot(centres[:, 0], centres[:, 1])
    centres = centres[(rho > 0.05) & (rho < 0.97)][:count]
    block = DiscBlock(centres[:, 0], centres[:, 1], np.full(len(centres), math.log(2.0**-9)))
    return Configuration(blocks=(block,), n_max=8)


def _grid_points(seed, count=300):
    rng = np.random.default_rng(seed + 1)
    p = rng.integers(-126, 127, (count, 2)) / 128.0
    p = p[np.hypot(p[:, 0], p[:, 1]) < 0.99]
    return p[:, 0].copy(), p[:, 1].copy()


def _neighbor_scan_within(config, cutoff, centers):
    """_neighbor_scan with a cutoff: (cutoff, -1) where no other disc is
    at most cutoff away."""
    nn, ids = _neighbor_scan(config, centers)
    cutoff = np.broadcast_to(cutoff, nn.shape)
    far = ~(nn <= cutoff)
    return np.where(far, cutoff, nn), np.where(far, -1, ids)


def _assert_depth_rule(config, px, py, lo, hi):
    """distance_many(depths=(lo, hi)) equals the queries of the truncated
    configurations, and its second search takes exactly the points whose
    nearest ring row or band at depth hi is of generation > lo: with no
    exact ties across generations, the points where d_lo > d_hi."""
    index = SpatialIndex(config)
    searched = []
    search = SpatialIndex._nearest

    def counted(self, q, *args, **kwargs):
        searched.append(q[0])
        return search(self, q, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpatialIndex, "_nearest", counted)
        d_lo, d_hi = index.distance_many(px, py, depths=(lo, hi))
    for depth, got in ((lo, d_lo), (hi, d_hi)):
        for d in np.unique(depth):
            at = depth == d
            want = SpatialIndex(truncate(config, n_max=int(d))).distance_many(px[at], py[at])
            np.testing.assert_array_equal(got[at], want)
    deep = np.flatnonzero(d_lo > d_hi)
    assert len(searched) == (2 if len(deep) else 1)
    np.testing.assert_array_equal(searched[-1], searched[0][deep] if len(deep) else searched[0])


class TestDiscTable:
    """The explicit-disc table against a scan of every disc: distances and
    lowest ids, per-depth distances against the truncated configuration,
    and nearest neighbours with a cutoff.  Bands run from one disc to 400
    discs in a few sectors, and to lattices of up to 24 rows with every row
    at the same slot angles, up to 24 discs at one angle."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(
            st.lists(_band, min_size=1, max_size=4),
            st.integers(20, 400).map(lambda count: ("grid", count)),
            _lattice.map(lambda spec: ("lattice", spec)),
        ),
        st.sampled_from(["inf", "scalar", "per-disc"]),
        st.booleans(),
    )
    def test_queries_equal_scan(self, seed, bands, cutoff_kind, centers):
        if bands[0] == "grid":
            config = _grid_discs(seed, bands[1])
            px, py = _grid_points(seed)
        elif bands[0] == "lattice":
            config = _lattice_discs(seed, *bands[1])
            px, py = _query_points(seed, config)
        else:
            config = _explicit_bands(seed, bands)
            px, py = _query_points(seed, config)
        index = SpatialIndex(config)
        got = index.distance_many(px, py, with_ids=True)
        for g, w in zip(got, _scan_with_ids(config, px, py), strict=True):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(index.distance_many(px, py), got[0])

        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, 9, len(px))
        hi = lo + rng.integers(0, 4, len(px))
        d_lo, d_hi = index.distance_many(px, py, depths=(lo, hi))
        for depth, got_d in ((lo, d_lo), (hi, d_hi)):
            for d in np.unique(depth):
                at = depth == d
                want = SpatialIndex(truncate(config, n_max=int(d))).distance_many(px[at], py[at])
                np.testing.assert_array_equal(got_d[at], want)

        # a cutoff near the typical neighbour distance leaves some discs
        # without a neighbour within it
        typical = float(np.median(_neighbor_scan(config, centers)[0]))
        cutoff = {
            "inf": math.inf,
            "scalar": typical,
            "per-disc": typical * rng.uniform(0.0, 2.0, config.disc_count),
        }[cutoff_kind]
        got = index.explicit_neighbors(cutoff=cutoff, centers=centers)
        for g, w in zip(got, _neighbor_scan_within(config, cutoff, centers), strict=True):
            np.testing.assert_array_equal(g, w)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(_band, min_size=1, max_size=4))
    def test_second_search_takes_the_points_nearest_a_deeper_band(self, seed, bands):
        config = _explicit_bands(seed, bands)
        px, py = _query_points(seed, config)
        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, 9, len(px))
        _assert_depth_rule(config, px, py, lo, lo + rng.integers(0, 4, len(px)))

    def test_centre_queries_widen_by_centre_gaps(self, monkeypatch):
        # 100 discs of generation 2 on the circle rho = 0.78, about 0.049
        # apart, and one disc of radius 0.09 at rho = 0.9, of generation 3:
        # its boundary lies 0.03 outward of the circle and its centre 0.12,
        # so boundary queries from the circle go on to its band, and centre
        # queries do not
        theta = (np.arange(100) + 0.5) * (TWO_PI / 100)
        x = np.concatenate([0.78 * np.cos(theta), [0.9]])
        y = np.concatenate([0.78 * np.sin(theta), [0.0]])
        log_r = np.concatenate([np.full(100, math.log(1e-3)), [math.log(0.09)]])
        config = Configuration(blocks=(DiscBlock(x, y, log_r),), n_max=3)
        index = SpatialIndex(config)
        evaluated = []
        merge = DiscTable._merge

        def counted(self, q, pts, layers, *args, **kwargs):
            evaluated.append(np.asarray(layers).copy())
            return merge(self, q, pts, layers, *args, **kwargs)

        monkeypatch.setattr(DiscTable, "_merge", counted)
        outer = {}
        for centers in (True, False):
            evaluated.clear()
            got = index.explicit_neighbors(centers=centers)
            for g, w in zip(got, _neighbor_scan(config, centers), strict=True):
                np.testing.assert_array_equal(g, w)
            outer[centers] = int((np.concatenate(evaluated) == 1).sum())
        # the outer disc's own band is its home; with its own disc left out
        # it finds its neighbour inward
        assert outer[True] == 1
        assert outer[False] > 50

    def test_one_disc_band(self):
        # the annulus oracle's one disc at the origin, alone and beside rings
        from champagne.walker import concentric_obstacle_config

        alone = concentric_obstacle_config(0.25)
        ring = RingBlock(n=2, rho=0.8, log_r=math.log(0.01), count=64)
        for config in (alone, Configuration(blocks=(*alone.blocks, ring), n_max=2)):
            index = SpatialIndex(config)
            assert index._discs.k.tolist() == [1]
            px, py = _query_points(7, config, count=400)
            got, want = index.distance_many(px, py, with_ids=True), _scan_with_ids(config, px, py)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)
            depth = np.arange(len(px)) % 3
            d_lo, d_hi = index.distance_many(px, py, depths=(depth // 2, depth))
            for depths, got in ((depth // 2, d_lo), (depth, d_hi)):
                for d in (0, 1, 2):
                    at = depths == d
                    want = SpatialIndex(truncate(config, n_max=d)).distance_many(px[at], py[at])
                    np.testing.assert_array_equal(got[at], want)
            for centers in (True, False):
                d, ids = index.explicit_neighbors(cutoff=0.5, centers=centers)
                assert (d.tolist(), ids.tolist()) == ([0.5], [-1])


    def test_crowded_band_evaluates_a_few_discs_per_query(self, monkeypatch):
        # 12 rows x 768 slots of generation 2: 12 discs at every slot angle
        # and 144 in every cell, as materialised rings put them; each query
        # evaluates a few buckets around its own, never the whole band
        config = _lattice_discs(11, 2, 12, 12)
        index = SpatialIndex(config)
        entries = []

        def counted(px, py, x, *args):
            entries.append(x.size)
            return _nearest_rows(px, py, x, *args)

        monkeypatch.setattr("champagne.bands._nearest_rows", counted)
        px, py = _query_points(11, config, count=600)
        got = index.distance_many(px, py, with_ids=True)
        assert sum(entries) <= 40 * len(px)
        for g, w in zip(got, _scan_with_ids(config, px, py), strict=True):
            np.testing.assert_array_equal(g, w)
        for centers in (True, False):
            entries.clear()
            index.explicit_neighbors(centers=centers)
            assert sum(entries) <= 40 * config.disc_count
        assert index._discs.k.tolist() == [12]


class TestNearestIds:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_band, max_size=2),
        st.lists(_ring_spec, max_size=2, unique_by=lambda spec: spec[0]),
    )
    def test_ids_equal_scan_on_every_storage_kind(self, seed, bands, ring_specs):
        rng = np.random.default_rng(seed)
        blocks = _explicit_bands(seed, bands).blocks if bands else ()
        rings = _rings(rng, ring_specs)
        config = Configuration(blocks=(*blocks, *rings), n_max=8)
        if config.disc_count:
            px, py = _query_points(seed, config)
        else:
            px, py = np.array([0.0, 0.3]), np.array([0.0, -0.2])
        # half turns of queries around both ends of every active arc
        ends = [rb.angle_of(a) for rb in rings if rb.a_start for a in (rb.a_start, rb.count - 1)]
        if ends:
            theta = rng.choice(ends, 100) + rng.normal(0.0, 3.0 * TWO_PI / 300, 100)
            rho = np.array([rb.rho for rb in rings])[rng.integers(0, len(rings), 100)]
            rho = rho + rng.normal(0.0, 1e-3, 100)
            px, py = np.concatenate([px, rho * np.cos(theta)]), np.concatenate([py, rho * np.sin(theta)])
        got_d, got_ids = SpatialIndex(config).distance_many(px, py, with_ids=True)
        want_d, want_ids = _scan_with_ids(config, px, py)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_ids, want_ids)

    def test_exact_ties_take_lowest_id(self):
        # disc 0 sits just below the seam, disc 1 just above it: both are
        # exactly h - r from (0.75, 0); 100 more discs fill the band's other cells
        h = 2.0**-10
        far = np.linspace(1.0, 5.0, 100)
        x = np.concatenate([[0.75, 0.75], 0.75 * np.cos(far)])
        y = np.concatenate([[-h, h], 0.75 * np.sin(far)])
        explicit = DiscBlock(x, y, np.full(len(x), -30.0))
        # every slot of a ring is equally far from the origin: the lowest
        # active slot wins, with or without a dropped prefix
        plain = RingBlock(n=1, rho=0.6, log_r=-30.0, count=64)
        prefix = RingBlock(n=3, rho=0.9, log_r=-30.0, count=128, a_start=7)
        # disc 0 (generation 2) is 0.6875 from the origin, exactly as far as
        # disc 1 (generation 1, searched first) and as generation 2's bound
        # 0.75 - r_max, so its band must not be pruned
        inner_edge = DiscBlock(np.array([0.75]), np.array([0.0]), np.array([math.log(2.0**-4)]))
        farther = DiscBlock(np.array([0.0]), np.array([0.71875]), np.array([math.log(2.0**-5)]))
        for blocks, point, want in (
            ((explicit,), (0.75, 0.0), 0),
            ((explicit, plain), (0.0, 0.0), 102),
            ((prefix,), (0.0, 0.0), 0),
            ((inner_edge, farther), (0.0, 0.0), 0),
        ):
            config = Configuration(blocks=blocks, n_max=3)
            _, ids = SpatialIndex(config).distance_many(
                np.array([point[0]]), np.array([point[1]]), with_ids=True
            )
            assert ids[0] == want
            assert distance_to_obstacles(Point(*point), SpatialIndex(config))[1] == want

    def test_empty_configuration_has_no_ids(self):
        d, ids = SpatialIndex(Configuration(blocks=(), n_max=0)).distance_many(
            np.array([0.0, 0.5]), np.array([0.0, 0.1]), with_ids=True
        )
        assert np.all(np.isinf(d)) and list(ids) == [-1, -1]


# ---------------------------------------------------------------------------
# the rho-sorted ring-row table against a scan of every slot

from champagne.generators import truncate  # noqa: E402

# (generation, rows, storage, slots per row per sector): "plain" keeps every
# slot, "cut" drops a prefix of the first row only, as a canonical prefix
# cut does, "prefix" a random prefix of every row
_table_gen = st.tuples(
    st.integers(1, 5), st.integers(1, 24), st.sampled_from(["plain", "plain", "cut", "prefix"]), st.integers(1, 2)
)


def _table_config(seed, gens, big, explicit):
    """Rings of several generations, each with many rows as on the
    flagship, their rows random within the generation band and their radii
    over 13 decades; with ``big`` one more row of the shallowest generation
    whose radius is 0.45 of its boundary gap, so that it reaches across
    rows of tiny discs; with ``explicit`` discs beside random slots.  Discs
    may overlap: a distance query does not need a valid configuration."""
    rng = np.random.default_rng(seed)
    rings = []
    for n, rows, storage, per in gens:
        count = sector_count(n) * per
        lo, hi = 2.0 ** (-n - 1), 2.0 ** (-n)
        for row, s in enumerate(rng.uniform(lo, hi, rows)):
            a_start = 0
            if storage == "prefix" or (storage == "cut" and row == 0):
                a_start = int(rng.integers(1, count))
            log_r = math.log(s) + math.log(0.2) - rng.uniform(0.0, 30.0)
            rings.append(RingBlock(n=n, rho=1.0 - s, log_r=log_r, count=count, a_start=a_start))
    if big:
        n = min(g[0] for g in gens)
        s = 2.0 ** (-n) * 0.9
        rings.append(RingBlock(n=n, rho=1.0 - s, log_r=math.log(0.45 * s), count=sector_count(n)))
    blocks = tuple(rings)
    if explicit:
        near = [rings[k] for k in rng.integers(0, len(rings), 12)]
        slot = [rb.a_start + int(rng.integers(0, len(rb))) for rb in near]
        theta = np.array([rb.angle_of(a) for rb, a in zip(near, slot)])
        rho = np.array([rb.rho for rb in near]) + rng.normal(0.0, 1e-3, len(near))
        r = np.array([(1.0 - rb.rho) * 1e-3 for rb in near])
        phi = rng.uniform(0.0, TWO_PI, len(near))
        x = rho * np.cos(theta) + 3.0 * r * np.cos(phi)
        y = rho * np.sin(theta) + 3.0 * r * np.sin(phi)
        blocks = (DiscBlock(x, y, np.log(r)), *rings)
    return Configuration(blocks=blocks, n_max=6), rings


def _table_queries(seed, rings, count=160):
    """Points just inside and just outside random rows, most near one of
    their slots, some on or near the seam theta = 0 = 2 pi, and points
    anywhere."""
    rng = np.random.default_rng(seed + 1)
    rows = [rings[k] for k in rng.integers(0, len(rings), count)]
    s = np.array([1.0 - rb.rho for rb in rows])
    rho = 1.0 - s * (1.0 + rng.normal(0.0, 0.2, count))
    slot = np.array([rng.integers(0, rb.count) for rb in rows], dtype=np.float64)
    step = np.array([rb.step for rb in rows])
    theta = (slot + 0.5 + rng.normal(0.0, 1.0, count)) * step
    theta[: count // 4] = rng.uniform(0.0, TWO_PI, count // 4)
    theta[count // 4 : count // 2] = np.mod(rng.normal(0.0, 2.0, count // 4) * step[: count // 4], TWO_PI)
    theta[count // 2 : count // 2 + count // 8] = 0.0
    rho[: count // 8] = rng.uniform(0.0, 0.999, count // 8)
    keep = (rho > 0.0) & (rho < 0.9999)
    return rho[keep] * np.cos(theta[keep]), rho[keep] * np.sin(theta[keep])


def _chunked_scan(config, px, py):
    parts = [_scan_with_ids(config, px[i : i + 16], py[i : i + 16]) for i in range(0, len(px), 16)]
    return np.concatenate([d for d, _ in parts]), np.concatenate([ids for _, ids in parts])


class TestRingTable:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_table_gen, min_size=1, max_size=3, unique_by=lambda g: g[0]),
        st.booleans(),
        st.booleans(),
    )
    def test_distances_and_ids_equal_scan(self, seed, gens, big, explicit):
        config, rings = _table_config(seed, gens, big, explicit)
        px, py = _table_queries(seed, rings)
        got_d, got_ids = SpatialIndex(config).distance_many(px, py, with_ids=True)
        want_d, want_ids = _chunked_scan(config, px, py)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(SpatialIndex(config).distance_many(px, py), want_d)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_table_gen, min_size=1, max_size=3, unique_by=lambda g: g[0]),
        st.booleans(),
        st.booleans(),
    )
    def test_depth_columns_equal_truncated_queries(self, seed, gens, big, explicit):
        config, rings = _table_config(seed, gens, big, explicit)
        px, py = _table_queries(seed, rings)
        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, 7, len(px))
        hi = lo + rng.integers(0, 4, len(px))
        d_lo, d_hi = SpatialIndex(config).distance_many(px, py, depths=(lo, hi))
        for depth, got in ((lo, d_lo), (hi, d_hi)):
            for d in np.unique(depth):
                at = depth == d
                want = SpatialIndex(truncate(config, n_max=int(d))).distance_many(px[at], py[at])
                np.testing.assert_array_equal(got[at], want)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 8), st.sampled_from(["plain", "cut", "prefix"]),
                      st.integers(1, 2)),
            min_size=1, max_size=3, unique_by=lambda g: g[0],
        ),
        st.sampled_from(["rings", "mixed", "explicit"]),
    )
    def test_second_search_takes_the_points_nearest_a_deeper_row(self, seed, gens, storage):
        config, rings = _table_config(seed, gens, False, storage == "mixed")
        if storage == "explicit":
            config = config.materialized()
        px, py = _table_queries(seed, rings)
        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, 6, len(px))
        _assert_depth_rule(config, px, py, lo, lo + rng.integers(0, 4, len(px)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(_table_gen, min_size=1, max_size=3, unique_by=lambda g: g[0]),
        st.sampled_from(["rings", "mixed", "explicit"]),
    )
    def test_given_rho_is_bit_equal(self, seed, gens, storage):
        # "rings" draws plain and dropped-prefix rows
        config, rings = _table_config(seed, gens, False, storage == "mixed")
        if storage == "explicit":
            config = config.materialized()
        px, py = _table_queries(seed, rings)
        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, 7, len(px))
        depths = (lo, lo + rng.integers(0, 4, len(px)))
        rho = np.hypot(px, py)
        index = SpatialIndex(config)
        for kwargs in ({}, {"with_ids": True}, {"depths": depths}):
            want = index.distance_many(px, py, **kwargs)
            got = index.distance_many(px, py, rho=rho, **kwargs)
            if not kwargs:
                got, want = (got,), (want,)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)

    def test_rows_at_equal_distance_take_the_lowest_id(self):
        # the point lies midway between the rows, on a slot of both: the
        # inner row is evaluated first, the outer one holds the lower ids
        outer = RingBlock(3, 0.875, math.log(1e-3), 64)
        inner = RingBlock(2, 0.75, math.log(1e-3), 64)
        config = Configuration(blocks=(outer, inner), n_max=3)
        th = outer.angle_of(3)
        px, py = np.array([0.8125 * math.cos(th)]), np.array([0.8125 * math.sin(th)])
        d, ids = SpatialIndex(config).distance_many(px, py, with_ids=True)
        assert (d[0], ids[0]) == (0.0625 - outer.radius, 3)

    def test_far_row_reaches_across_rows_of_tiny_discs(self):
        # the point lies 0.005 from a disc of the generation-2 row at
        # 1 - rho = 0.2, of radius 0.09, and about 0.0057 from the nearest
        # disc of radius 1e-9 of the generation-3 row just outside it; the
        # next row inward, at 1 - rho = 0.124, lies 0.019 away radially, so
        # only the radius of the row beyond it sends the query on
        tiny = [RingBlock(3, 1.0 - s, math.log(1e-9), 1024) for s in (0.124, 0.1, 0.08)]
        far = RingBlock(2, 0.8, math.log(0.09), 64)
        config = Configuration(blocks=(far, *tiny), n_max=3)
        th = far.angle_of(5)
        px, py = np.array([0.895 * math.cos(th)]), np.array([0.895 * math.sin(th)])
        d, ids = SpatialIndex(config).distance_many(px, py, with_ids=True)
        assert ids[0] == 5 and d[0] == pytest.approx(0.005, abs=1e-12)
        want_d, want_ids = _scan_with_ids(config, px, py)
        np.testing.assert_array_equal(d, want_d)
        np.testing.assert_array_equal(ids, want_ids)


def _mixed_config(seed, drop_prefix, overlap):
    """Two rings of generation 3 and explicit discs next to their slots
    (dropped ones included), a random fraction of them meeting a slot's
    disc when ``overlap``; explicit discs never meet each other."""
    rng = np.random.default_rng(seed)
    a_start = 40 if drop_prefix else 0
    rings = [
        RingBlock(n=3, rho=0.9, log_r=math.log(1e-4), count=128, a_start=a_start),
        RingBlock(n=3, rho=0.91, log_r=math.log(2e-4), count=128, a_start=a_start),
    ]
    slots = rng.choice(128, 30, replace=False)
    row = rng.integers(0, 2, 30)
    r_e = 1e-4
    gap = rng.uniform(0.2, 1.0, 30) if overlap else rng.uniform(1.1, 3.0, 30)
    reach = np.array([rings[k].radius for k in row]) + r_e
    phi = rng.uniform(0.0, TWO_PI, 30)
    theta = (slots + 0.5) * TWO_PI / 128
    rho = np.array([rings[k].rho for k in row])
    x = rho * np.cos(theta) + gap * reach * np.cos(phi)
    y = rho * np.sin(theta) + gap * reach * np.sin(phi)
    explicit = DiscBlock(x, y, np.full(30, math.log(r_e)))
    return Configuration(blocks=(explicit, *rings), n_max=3)


class TestMixedOverlap:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drop_prefix", [False, True])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_explicit_against_rings_matches_pair_scan(self, seed, drop_prefix, overlap):
        config = _mixed_config(seed, drop_prefix, overlap)
        x, y, lr = config.disc_arrays()
        r = np.exp(lr)
        meets = np.hypot(x[:, None] - x, y[:, None] - y) <= r[:, None] + r
        np.fill_diagonal(meets, False)
        got = _find_overlap(SpatialIndex(config))
        # the first ring block met by an explicit disc, its lowest such disc
        # and the slot that disc meets
        want = None
        for lo, hi in ((30, 30 + len(config.blocks[1])), (30 + len(config.blocks[1]), len(x))):
            hits = meets[:30, lo:hi]
            if hits.any():
                i = int(np.argmax(hits.any(axis=1)))
                want = (i, lo + int(np.argmax(hits[i])))
                break
        assert not meets[:30, :30].any()
        assert got == want
        assert (want is not None) == (overlap and meets.any())


# ---------------------------------------------------------------------------
# the windowed ring cross-pair prefilter against the dense one it replaced

from champagne.geometry import _ring_pair_candidates  # noqa: E402


def _dense_ring_pairs(rho, rad):
    """Candidate pairs from dense rings x rings gap and radius-sum arrays,
    i < j in row-major order."""
    gaps = np.abs(rho[:, None] - rho[None, :])
    cand = np.argwhere(gaps <= rad[:, None] + rad[None, :])
    return [(int(i), int(j)) for i, j in cand if i < j]


def _dense_ring_overlap(rings):
    """The ring part of the overlap check with the dense prefilter."""
    for off, rb in rings:
        if len(rb) >= 2 and chord(rb.rho, rb.rho, rb.step) <= 2.0 * rb.radius:
            return (off, off + 1)
    rho = np.array([rb.rho for _, rb in rings])
    rad = np.array([rb.radius for _, rb in rings])
    for i, j in _dense_ring_pairs(rho, rad):
        (off, rb), (off2, rb2) = rings[i], rings[j]
        if ring_min_center_distance(rb, rb2) <= rb.radius + rb2.radius:
            return (off, off2)
    return None


# one ring: (placement against the previous ring, circle radius, disc
# radius, slot count, excluded prefix as a fraction of the row); "touch"
# puts its row at the sum of the two radii from the previous row, exactly
# for the dyadic draws (powers of two that survive exp(log(r)) unchanged),
# "nested" inside the previous ring's radial band, "same" on the previous
# ring's circle
_pair_ring = st.tuples(
    st.sampled_from(["free", "touch", "nested", "same"]),
    st.one_of(st.floats(0.3, 0.9), st.integers(307, 921).map(lambda k: k / 1024)),
    st.one_of(
        st.floats(-7.0, -2.5).map(lambda e: 10.0**e),
        st.sampled_from([-20, -19, -10, -9]).map(lambda k: 2.0**k),
    ),
    st.sampled_from([1, 2, 3, 7, 64, 96, 128, 500]),
    st.sampled_from([0.0, 0.0, 0.5]),
)


class TestRingPairPrefilter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_pair_ring, min_size=1, max_size=12))
    def test_window_returns_the_dense_pair(self, specs):
        blocks = []
        for place, rho, rad, count, drop in specs:
            if blocks and place != "free":
                prev = blocks[-1]
                rho = {
                    "touch": prev.rho + (prev.radius + math.exp(math.log(rad))),
                    "nested": prev.rho + 0.5 * prev.radius,
                    "same": prev.rho,
                }[place]
            blocks.append(
                RingBlock(n=1, rho=rho, log_r=math.log(rad), count=count, a_start=int(drop * count))
            )
        config = Configuration(blocks=tuple(blocks), n_max=1)
        offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])[:-1]])
        rings = [(int(off), b) for off, b in zip(offsets, blocks)]
        rho = np.array([b.rho for b in blocks])
        rad = np.array([b.radius for b in blocks])
        assert list(_ring_pair_candidates(rho, rad)) == _dense_ring_pairs(rho, rad)
        assert _find_overlap(SpatialIndex(config)) == _dense_ring_overlap(rings)
