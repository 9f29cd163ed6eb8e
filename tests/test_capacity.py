import itertools
import math

import numpy as np
import pytest

from champagne import capacity
from champagne.capacity import (
    CapacityConstants,
    CapacityError,
    ClippedDiscShape,
    DiscShape,
    SegmentShape,
    UnionShape,
    c2_disc,
    c2_disc_system,
    c2_log_bound,
    cell_capacity_series,
    cell_capacity_table,
    cell_capacity_weights,
    cell_series_term,
    cluster_c2,
    cluster_log_capacity,
    generation_clusters,
    green_capacity_disc_bound,
    log_capacity,
    minimize_simplex_energy,
    quasiadditivity_ratio,
    _boundary_nodes,
    _cell_discs,
    _cell_obstacles,
    _circle_nodes,
    GenerationCluster,
    _cluster_mutual,
    _disc_inside_cell,
    _disc_system_capacity,
    _home_cells,
    _radial_nodes,
    _log_kernel,
    _obstacle_sets,
)
from champagne.criteria import (
    BoundaryPoint,
    avoidability_certificate,
    log_weighted_series,
    separation,
)
from champagne.generators import (
    GeneratorParams,
    generate_avoidable_ring,
    generate_subsquares,
    shrink,
    subdivision_count,
    truncate,
)
from hypothesis import assume, example, given, settings, strategies as st
from champagne.geometry import (
    Configuration,
    Disc,
    DiscBlock,
    Point,
    RingBlock,
    WhitneyCell,
    WhitneyIndex,
    cells_intersecting_disc,
    sector_count,
    spatial_index,
    whitney_cell,
)


def _gathered(cfg) -> dict:
    """_cell_discs of ``cfg`` as (x, y, log_r) per disc, cell by cell."""
    ex = spatial_index(cfg)
    return {
        key: list(zip(ex.exp_x[i].tolist(), ex.exp_y[i].tolist(), ex.exp_log_r[i].tolist()))
        for key, i in _cell_discs(cfg).items()
    }


def _floats(discs) -> list:
    return [(d.center.x, d.center.y, d.log_radius) for d in discs]


def _sample_shapes() -> dict:
    cell = whitney_cell(WhitneyIndex(2, 3))
    th = 0.5 * (cell.theta_lo + cell.theta_hi)
    on_edge = Point(cell.r_outer * math.cos(th), cell.r_outer * math.sin(th))
    return {
        "segment": [SegmentShape(Point(0.0, 0.0), Point(1.0, 0.0))],
        "clipped-disc": [ClippedDiscShape(DiscShape(on_edge, math.log(0.05)), cell)],
        "segment+disc": [
            SegmentShape(Point(0.0, 0.0), Point(0.5, 0.0)),
            DiscShape(Point(0.2, 0.3), math.log(0.1)),
        ],
        "disc+touching-segment": [
            DiscShape(Point(0.0, 0.0), math.log(0.1)),
            SegmentShape(Point(0.1, 0.0), Point(0.4, 0.0)),
        ],
    }


def _support_enumeration_minimum(kernel: np.ndarray) -> float:
    """Least energy over every support whose bordered solve is nonnegative."""
    n = len(kernel)
    best = math.inf
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sub = kernel[np.ix_(support, support)]
            bordered = np.block([[sub, -np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            w = np.linalg.solve(bordered, np.r_[np.zeros(k), 1.0])[:k]
            if w.min() >= 0.0:
                best = min(best, float(w @ sub @ w))
    return best


class TestSimplexEnergy:
    @pytest.mark.parametrize("name", list(_sample_shapes()))
    def test_sample_shapes_reach_the_minimum(self, name):
        pts, ell = _boundary_nodes(_sample_shapes()[name], 512)
        sol = minimize_simplex_energy(_log_kernel(pts, ell))
        assert sol.weights.min() >= 0.0
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.gap <= 1e-12 * max(abs(sol.energy), 1.0)

    def test_matches_support_enumeration(self):
        # log kernels with random self-energies, kept when positive definite
        # on zero-sum directions; many minimizers drop nodes, some of which
        # must come back into the support
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(np.column_stack([np.ones(7), np.eye(7)[:, :6]]))[0][:, 1:]
        checked = dropped = 0
        while checked < 40:
            p = rng.uniform(-0.5, 0.5, (7, 2))
            d = np.hypot(p[:, None, 0] - p[None, :, 0], p[:, None, 1] - p[None, :, 1])
            np.fill_diagonal(d, 1.0)
            kernel = -np.log(d)
            np.fill_diagonal(kernel, rng.uniform(0.5, 6.0, 7))
            if np.linalg.eigvalsh(basis.T @ kernel @ basis).min() <= 0.0:
                continue
            sol = minimize_simplex_energy(kernel)
            want = _support_enumeration_minimum(kernel)
            assert sol.energy == pytest.approx(want, rel=1e-12)
            assert sol.weights.min() >= 0.0
            dropped += bool((sol.weights == 0.0).any())
            checked += 1
        assert dropped >= 10

    def test_crossing_boundaries_keep_the_kernel_positive_on_zero_sum(self):
        # where a circle crosses a cell edge or another circle, nodes of two
        # parts can sit far closer than their arc lengths
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            cell = whitney_cell(WhitneyIndex(n, int(rng.integers(0, 2 ** (n + 4)))))
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                rho = rng.uniform(cell.r_inner, cell.r_outer)
                th = rng.uniform(cell.theta_lo, cell.theta_hi)
                center = Point(rho * math.cos(th), rho * math.sin(th))
                r = rng.uniform(0.2, 1.2) * 2.0 ** (-n - 3)
                parts.append(ClippedDiscShape(DiscShape(center, math.log(r)), cell))
            pts, ell = _boundary_nodes(parts, 256)
            if len(pts) < 2:
                continue
            basis = np.linalg.qr(np.column_stack([np.ones(len(pts)), np.eye(len(pts))[:, 1:]]))[0]
            zero_sum = basis[:, 1:]
            kernel = _log_kernel(pts, ell)
            assert np.linalg.eigvalsh(zero_sum.T @ kernel @ zero_sum).min() > 0.0

    def test_negative_weight_leaves_the_support(self):
        # the unconstrained solve gives (3/2, -1/2); the minimum is at (1, 0)
        sol = minimize_simplex_energy(np.array([[1.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_array_equal(sol.weights, [1.0, 0.0])
        assert sol.energy == 1.0

    @pytest.mark.parametrize("log_r", [-1e6, -1e9, -1e300])
    def test_dominant_self_energy_matches_first_order_closed_form(self, log_r):
        # with self-energies >= 1e6 the minimizer is mu_i ~ 1/K_ii up to
        # O((coupling/self)^2)
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-0.5, 0.5, 20), rng.uniform(-0.5, 0.5, 20)
        d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        np.fill_diagonal(d, 1.0)
        kernel = -np.log(d)
        np.fill_diagonal(kernel, -log_r * rng.uniform(1.0, 3.0, 20))
        inv = 1.0 / np.diag(kernel)
        mu = inv / inv.sum()
        sol = minimize_simplex_energy(kernel)
        assert sol.energy == pytest.approx(float(mu @ kernel @ mu), rel=1e-9)
        np.testing.assert_allclose(sol.weights, mu, rtol=1e-5)


class TestLogCapacity:
    @pytest.mark.parametrize("r", [1e-6, 1e-3, 1e-1])
    def test_disc_exact(self, r):
        # radii live in log space; exp(log(r)) rounds within 2 ulp
        est = log_capacity(DiscShape(Point(0.3, 0.1), math.log(r)))
        assert est.method == "exact_disc"
        assert est.value == pytest.approx(r, rel=5e-16)

    def test_underflowed_disc_exact_in_log(self):
        est = log_capacity(DiscShape(Point(0.9, 0.0), -1e7))
        assert est.log_value == -1e7
        assert est.value == 0.0

    def test_segment_classical_value(self):
        est = log_capacity(SegmentShape(Point(0.0, 0.0), Point(1.0, 0.0)), 512)
        assert est.method == "energy_minimization"
        assert abs(est.value - 0.25) / 0.25 < 0.05

    def test_circle_sampling_refines_toward_disc(self):
        # via the sampled path the estimate decreases to the exact radius
        # with deltas shrinking by at least 1.5x per refinement
        values = []
        for n in (128, 256, 512, 1024):
            pts, ell = _circle_nodes(Point(0.2, 0.1), 0.05, n)
            sol = minimize_simplex_energy(_log_kernel(pts, ell))
            values.append(math.exp(-sol.energy))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.05 for v in values)
        deltas = [a - b for a, b in zip(values, values[1:])]
        assert all(d1 / d2 >= 1.5 for d1, d2 in zip(deltas, deltas[1:]))

    def test_two_tiny_discs_sqrt_law(self):
        # capacity of two far-apart equal tiny discs is sqrt(r * d)
        r, d = 1e-6, 0.1
        est = log_capacity(
            UnionShape(
                (
                    DiscShape(Point(0.0, 0.0), math.log(r)),
                    DiscShape(Point(d, 0.0), math.log(r)),
                )
            )
        )
        assert est.method == "disc_system"
        assert est.log_value == pytest.approx(0.5 * (math.log(r) + math.log(d)), rel=1e-6)

    @pytest.mark.parametrize("d", [0.02, 0.1, 0.19])
    def test_overlapping_discs_are_discretized(self, d):
        # the union lies between one disc and the disc of radius d/2 + r
        # around the midpoint; center charges would not be its energy
        r = 0.1
        est = log_capacity(
            UnionShape((DiscShape(Point(0.0, 0.0), math.log(r)), DiscShape(Point(d, 0.0), math.log(r))))
        )
        assert est.method == "energy_minimization"
        assert r < est.value < d / 2.0 + r

    def test_union_monotone_in_parts(self):
        one = log_capacity(DiscShape(Point(0.0, 0.0), math.log(1e-4)))
        two = log_capacity(
            UnionShape(
                (
                    DiscShape(Point(0.0, 0.0), math.log(1e-4)),
                    DiscShape(Point(0.2, 0.0), math.log(1e-4)),
                )
            )
        )
        assert two.log_value > one.log_value

    def test_empty_clip_is_polar(self):
        cell = whitney_cell(WhitneyIndex(2, 0))
        far = DiscShape(Point(-0.8, 0.0), math.log(1e-3))
        est = log_capacity(ClippedDiscShape(far, cell))
        assert est.polar
        with pytest.raises(CapacityError):
            est.value

    def test_zero_length_segment_polar(self):
        est = log_capacity(SegmentShape(Point(0.1, 0.1), Point(0.1, 0.1)))
        assert est.polar

    def test_clip_of_interior_disc_equals_disc(self):
        cell = whitney_cell(WhitneyIndex(2, 3))
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        th = 0.5 * (cell.theta_lo + cell.theta_hi)
        d = DiscShape(Point(rho * math.cos(th), rho * math.sin(th)), math.log(1e-5))
        est = log_capacity(ClippedDiscShape(d, cell))
        assert est.method == "exact_disc"
        assert est.value == pytest.approx(1e-5)

    def test_scaling_homogeneity_random_clipped_unions(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 6))
            m = int(rng.integers(0, 2 ** (n + 4)))
            cell = whitney_cell(WhitneyIndex(n, m))
            parts = []
            for _ in range(int(rng.integers(1, 4))):
                rho = rng.uniform(cell.r_inner, cell.r_outer)
                th = rng.uniform(cell.theta_lo, cell.theta_hi)
                r = rng.uniform(0.2, 1.2) * 2.0 ** (-n - 3)
                parts.append(
                    ClippedDiscShape(
                        DiscShape(Point(rho * math.cos(th), rho * math.sin(th)), math.log(r)),
                        cell,
                    )
                )
            base = log_capacity(UnionShape(tuple(parts)), 256)
            for alpha in (0.5, 2.0):
                scaled_parts = tuple(
                    ClippedDiscShape(
                        DiscShape(
                            Point(alpha * p.disc.center.x, alpha * p.disc.center.y),
                            p.disc.log_r + math.log(alpha),
                        ),
                        WhitneyCell(
                            index=None,
                            r_inner=alpha * cell.r_inner,
                            r_outer=alpha * cell.r_outer,
                            theta_lo=cell.theta_lo,
                            theta_hi=cell.theta_hi,
                        ),
                    )
                    for p in parts
                )
                scaled = log_capacity(UnionShape(scaled_parts), 256)
                ratio = math.exp(scaled.log_value - base.log_value)
                assert abs(ratio - alpha) / alpha < 0.01
            checked += 1


class TestC2:
    def test_closed_form_at_half(self):
        est = c2_disc(0.5)
        assert est.value == pytest.approx(1.0 / (0.5 * math.log(4.0) + 0.25), rel=1e-12)

    def test_bracket_containment_log_grid(self):
        for r in np.logspace(-8, math.log10(0.5), 60):
            est = c2_disc(float(r))
            assert est.lower <= est.value <= est.upper

    def test_closed_form_matches_quadrature(self):
        from scipy.integrate import quad

        for r in (0.5, 1e-3, 1e-6):
            integral, _ = quad(
                lambda t: t * math.log(2.0 / t), 0.0, r, epsabs=1e-18, epsrel=1e-12
            )
            oracle = 1.0 / (integral / r**2)
            assert c2_disc(r).value == pytest.approx(oracle, rel=1e-9)

    def test_asymptotic_ratio_frozen_values(self):
        # value * log(1/r) tends to 2; at r = 1e-6 the exact ratio is
        # log(1/r)/(log(2/r)/2 + 1/4) = 1.8410055, about 8 percent below
        # the limit
        ratio_1e6 = c2_disc(1e-6).value * math.log(1e6)
        assert ratio_1e6 == pytest.approx(1.8410054781, abs=1e-9)
        ratio_deep = c2_disc(1e-30).value * math.log(1e30)
        assert abs(ratio_deep - 2.0) / 2.0 < 0.02

    def test_out_of_range(self):
        with pytest.raises(CapacityError):
            c2_disc(0.6)
        with pytest.raises(CapacityError):
            c2_disc(0.0)

    def test_single_disc_system(self):
        value, u = c2_disc_system(
            np.array([0.0]), np.array([0.0]), np.array([math.log(1e-4)])
        )
        assert value == pytest.approx(1.0 / math.log(2.0 / 1e-4), rel=1e-12)

    def test_system_subadditive(self):
        x = np.array([0.0, 0.3])
        y = np.array([0.0, 0.0])
        lr = np.array([math.log(1e-5), math.log(1e-5)])
        union, _ = c2_disc_system(x, y, lr)
        parts = sum(1.0 / (math.log(2.0) - v) for v in lr)
        assert 0.0 < union <= parts * (1.0 + 1e-9)

    def test_system_monotone_in_parts(self):
        x = np.array([0.0, 0.3])
        y = np.array([0.0, 0.0])
        lr = np.array([math.log(1e-5), math.log(1e-5)])
        union, _ = c2_disc_system(x, y, lr)
        part, _ = c2_disc_system(x[:1], y[:1], lr[:1])
        assert part <= union * (1.0 + 1e-9)


class TestClusters:
    def _config(self, beta=1.2, c0=0.05, n=3):
        return generate_subsquares(GeneratorParams.exp_power(beta=beta, c0=c0, n_min=n, n_max=n))

    def test_cluster_matches_disc_system(self):
        cfg = self._config()
        cluster = generation_clusters(cfg)[3]
        log_cap = cluster_log_capacity(cluster)
        parts = []
        for rho, lr in zip(cluster.rhos, cluster.log_rs):
            for j in range(cluster.columns):
                th = (j + 0.5) * cluster.delta_theta
                parts.append(DiscShape(Point(rho * math.cos(th), rho * math.sin(th)), lr))
        est = _disc_system_capacity(parts)
        assert log_cap == pytest.approx(est.log_value, abs=2e-3)

    def test_cluster_exact_in_dominant_regime(self):
        cfg = shrink(self._config(), log_delta=-1e9)
        cluster = generation_clusters(cfg)[3]
        log_cap = cluster_log_capacity(cluster)
        parts = []
        for rho, lr in zip(cluster.rhos, cluster.log_rs):
            for j in range(cluster.columns):
                th = (j + 0.5) * cluster.delta_theta
                parts.append(DiscShape(Point(rho * math.cos(th), rho * math.sin(th)), lr))
        est = _disc_system_capacity(parts)
        assert est.method == "disc_system"
        assert log_cap == pytest.approx(est.log_value, rel=1e-9)

    def test_obstacle_sets_kept_per_configuration(self):
        cfg = self._config()
        assert _obstacle_sets(cfg) is _obstacle_sets(cfg)
        small = shrink(cfg, log_delta=-10.0)
        assert _obstacle_sets(small) is not _obstacle_sets(cfg)
        # generation 3 is the only obstacle set: one cluster row
        (row,), (small_row,) = _obstacle_sets(cfg), _obstacle_sets(small)
        assert row.n == small_row.n == 3
        np.testing.assert_allclose(small_row.obstacles.log_rs, row.obstacles.log_rs - 10.0)

    @pytest.mark.parametrize("drop_first", [3, 9 * 20 + 4, 9 * 127 + 3, 9 * 127 + 2])
    def test_prefixed_rows_keep_the_cluster(self, drop_first):
        # generation 3 of beta 1.2 has p = 3 rows of 384 slots; the last two
        # prefixes end inside its last cell, the first by dropping whole rows
        full = generation_clusters(self._config())[3]
        cut = generate_subsquares(
            GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=3, n_max=3, drop_first=drop_first)
        )
        clusters = generation_clusters(cut)
        if len(cut.blocks) < full.columns:
            assert clusters == {}
            return
        assert full.columns == clusters[3].columns == 3
        assert clusters[3].delta_theta == full.delta_theta
        np.testing.assert_array_equal(clusters[3].rhos, full.rhos)
        np.testing.assert_array_equal(clusters[3].log_rs, full.log_rs)

    def test_skips_explicit_blocks(self):
        cfg = self._config()
        explicit = DiscBlock(np.array([0.6]), np.zeros(1), np.array([-9.0]))
        clusters = generation_clusters(Configuration(blocks=(explicit,) + cfg.blocks, n_max=3))
        assert list(clusters) == [3]
        np.testing.assert_array_equal(clusters[3].rhos, generation_clusters(cfg)[3].rhos)

    def test_rejects_more_rows_than_p(self):
        rows = self._config().blocks
        extra = RingBlock(3, 0.5 * (rows[0].rho + rows[1].rho), -50.0, rows[0].count)
        with pytest.raises(CapacityError, match="at most p rows"):
            generation_clusters(Configuration(blocks=rows + (extra,), n_max=3))

    def test_rejects_unequally_spaced_rows(self):
        rows = generation_clusters(self._config())[3].rhos
        count = sector_count(3) * len(rows)
        moved = [RingBlock(3, rho + (1e-6 if i == 1 else 0.0), -50.0, count) for i, rho in enumerate(rows)]
        with pytest.raises(CapacityError, match="equally spaced"):
            generation_clusters(Configuration(blocks=tuple(moved), n_max=3))


def _cubic_mutual(cluster: GenerationCluster, w: np.ndarray, rows=None) -> np.ndarray:
    """Reference for the structured sum: for each row i asked for, every
    pair distance from the stored row radii, p^2 kernel values per row."""
    p = cluster.columns
    rows = range(len(cluster.rhos)) if rows is None else rows
    sin2 = np.sin(np.arange(p, dtype=np.float64) * cluster.delta_theta / 2.0) ** 2
    j0 = np.arange(p)
    mut = []
    for i in rows:
        dist = np.sqrt(
            (cluster.rhos[i] - cluster.rhos[:, None]) ** 2
            + 4.0 * cluster.rhos[i] * cluster.rhos[:, None] * sin2[None, :]
        )
        dist[i, 0] = 1.0  # the node itself; its term is zeroed below
        g = -np.log(dist)
        g[i, 0] = 0.0
        csum = np.cumsum(g, axis=1)
        mut.append(w @ (csum[:, j0] + csum[:, p - 1 - j0] - g[:, 0][:, None]))
    return np.array(mut)


def _cluster(beta: float, n: int) -> GenerationCluster:
    cfg = generate_subsquares(GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=n, n_max=n))
    return generation_clusters(cfg)[n]


def _assert_mutual_matches_cubic(cluster, w, rows=None):
    fast = _cluster_mutual(cluster, w)
    rows = range(len(cluster.rhos)) if rows is None else rows
    ref = _cubic_mutual(cluster, w, rows)
    assert np.abs(fast[list(rows)] - ref).max() <= 1e-12 * np.abs(ref).max()


class TestClusterMutual:
    @pytest.mark.parametrize(
        "beta,n",
        [(b, n) for b in (1.2, 1.5, 2.0) for n in range(1, 11)] + [(1.5, 11), (1.5, 12)],
    )
    def test_matches_cubic_sum(self, beta, n):
        cluster = _cluster(beta, n)
        size = len(cluster.rhos)
        rng = np.random.default_rng([int(10 * beta), n])
        w = rng.uniform(0.05, 1.0, size)
        # the reference costs p^2 per row: deep clusters check a sample of
        # rows that includes both edges and a neighbouring pair
        rows = None
        if size > 64:
            rows = sorted({0, 1, size // 2, size - 1, *rng.integers(0, size, 4).tolist()})
        _assert_mutual_matches_cubic(cluster, w, rows)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(1.0, 6.5),
        st.integers(1, 4),
        st.lists(st.floats(1e-3, 1.0), min_size=64, max_size=64),
    )
    def test_matches_cubic_sum_on_wide_clusters(self, beta, n, weights):
        # steep subdivisions put many rows across a shallow cell: exact nodes,
        # Chebyshev nodes and the degree cap all occur here
        assume(subdivision_count(n, beta) <= 64)
        cluster = _cluster(beta, n)
        _assert_mutual_matches_cubic(cluster, np.array(weights[: len(cluster.rhos)]))

    def test_single_row(self):
        # one row: mut is w times the column sum of -log(2 rho sin(delta dth / 2))
        rho, p, dth = 0.9, 7, 0.05
        cluster = GenerationCluster(n=3, rhos=np.array([rho]), log_rs=np.array([-50.0]), columns=p, delta_theta=dth)
        mut = _cluster_mutual(cluster, np.array([0.3]))
        expect = [
            0.3 * sum(-math.log(2.0 * rho * math.sin(abs(j - j0) * dth / 2.0)) for j in range(p) if j != j0)
            for j0 in range(p)
        ]
        np.testing.assert_allclose(mut[0], expect, rtol=1e-14)
        single = GenerationCluster(n=1, rhos=np.array([rho]), log_rs=np.array([-50.0]), columns=1, delta_theta=dth)
        assert _cluster_mutual(single, np.array([1.0])).tolist() == [[0.0]]

    def test_two_rows(self):
        # two rows: the three values of the mean radius are the fit's nodes
        np.testing.assert_array_equal(_radial_nodes(2, 10.0), [-1.0, 0.0, 1.0])
        assert len(_cluster(2.0, 1).rhos) == 2
        _assert_mutual_matches_cubic(_cluster(2.0, 1), np.array([0.2, 0.7]))
        wide = GenerationCluster(
            n=2, rhos=np.array([0.8, 0.85]), log_rs=np.array([-50.0, -60.0]), columns=9, delta_theta=0.01
        )
        _assert_mutual_matches_cubic(wide, np.array([0.6, 0.4]))

    def test_c2_matches_truncated_kernel_sum(self):
        # below scaled diameter 2 the truncated kernel is log 2 - log scale - log d
        cluster = _cluster(1.5, 6)
        scale = CapacityConstants().cell_scale(6)
        union, u_min = cluster_c2(cluster, scale)
        diag = math.log(2.0) - (cluster.log_rs + math.log(scale))
        w = (1.0 / diag) / (cluster.columns * np.sum(1.0 / diag))
        others = cluster.columns * w.sum() - w
        mut = (math.log(2.0) - math.log(scale)) * others[:, None] + _cubic_mutual(cluster, w)
        expect = float((w[:, None] * diag[:, None] + mut).min())
        assert u_min == pytest.approx(expect, rel=1e-13)
        assert union == pytest.approx(1.0 / expect, rel=1e-13)

    def test_c2_rejects_scaled_diameter_of_two(self):
        cluster = _cluster(1.5, 4)
        lo, hi = cluster.rhos[0], cluster.rhos[-1]
        s_max = math.sin((cluster.columns - 1) * cluster.delta_theta / 2.0) ** 2
        diameter = math.sqrt((hi - lo) ** 2 + 4.0 * hi * lo * s_max)
        cluster_c2(cluster, 1.99 / diameter)
        for scale in (2.0 / diameter, 3.0 / diameter):
            with pytest.raises(CapacityError, match="diameter"):
                cluster_c2(cluster, scale)


class TestCellSeries:
    def test_empty_configuration(self):
        rep = cell_capacity_series(Configuration(blocks=(), n_max=0), BoundaryPoint(0.0))
        assert rep.total == 0.0

    def test_single_interior_disc_single_term(self):
        idx = WhitneyIndex(3, 5)
        cell = whitney_cell(idx)
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        th = 0.5 * (cell.theta_lo + cell.theta_hi)
        r = 1e-6
        cfg = Configuration.from_discs(
            [Disc.from_radius(Point(rho * math.cos(th), rho * math.sin(th)), r)]
        )
        y = BoundaryPoint(math.pi)
        rep = cell_capacity_series(cfg, y)
        z = (1.0 - 2.0 ** -3) * np.array([math.cos(cell.theta_lo), math.sin(cell.theta_lo)])
        dist2 = (z[0] - y.point.x) ** 2 + (z[1] - y.point.y) ** 2
        expected = (2.0 ** -3) ** 2 / dist2 / math.log(2.0 ** -3 / r)
        assert rep.total == pytest.approx(expected, rel=1e-12)

    def test_ring_config_weights_shared_per_generation(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=2, n_max=4))
        weights = cell_capacity_weights(cfg)
        assert [(row.n, row.ms) for row in weights] == [
            (n, range(sector_count(n))) for n in (2, 3, 4)
        ]
        assert all(row.weight > 0 for row in weights)

    @pytest.mark.parametrize("beta, n_min, n_max", [(1.2, 1, 4), (1.5, 2, 3), (0.1, 1, 4)])
    def test_ring_series_matches_every_cell_term(self, beta, n_min, n_max):
        # the closed-form ring sum against the sum of every cell's own term
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=n_min, n_max=n_max)
        )
        weights = cell_capacity_weights(cfg)
        assert all(len(row.ms) == sector_count(row.n) for row in weights)
        for y in BoundaryPoint.grid(5):
            rep = cell_capacity_series(cfg, y, weights=weights)
            for (n, value), row in zip(rep.per_generation, weights):
                brute = math.fsum(cell_series_term(n, m, row.weight, y.theta) for m in row.ms)
                assert value == pytest.approx(brute, rel=1e-12, abs=0.0)
            brute = math.fsum(
                cell_series_term(row.n, m, row.weight, y.theta) for row in weights for m in row.ms
            )
            assert rep.total == pytest.approx(brute, rel=1e-12, abs=0.0)

    def test_cumulative_monotone_and_nonnegative(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=1, n_max=5))
        rep = cell_capacity_series(cfg, BoundaryPoint(0.3))
        assert all(v >= 0 for _, v in rep.per_generation)
        values = [v for _, v in rep.cumulative]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_comparable_to_log_weighted_series(self):
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=8)
        )
        weights = cell_capacity_weights(cfg)
        for y in BoundaryPoint.grid(8):
            essen = cell_capacity_series(cfg, y, weights=weights).total
            direct = log_weighted_series(cfg, y).total
            ratio = essen / direct
            assert 1.0 / 50.0 <= ratio <= 50.0


class TestObstacleRows:
    def _mixed(self):
        # rings of generations 6-8 with a dropped prefix in 6, plus explicit
        # discs in generation 1 and on a cell edge of generation 7
        rings = truncate(
            generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=8)),
            drop_first=5,
        )
        theta, rho = 2.0 * math.pi * 40 / sector_count(7), rings.blocks[1].rho
        explicit = DiscBlock(
            np.array([0.6, rho * math.cos(theta)]),
            np.array([0.0, rho * math.sin(theta)]),
            np.array([-7.0, -12.0]),
        )
        return Configuration(blocks=(explicit,) + rings.blocks, n_max=8)

    def test_rows_sorted_and_disjoint(self):
        cfg = self._mixed()
        sets = _obstacle_sets(cfg)
        weights = cell_capacity_weights(cfg)
        for rows in (sets, weights):
            keys = [(row.n, row.ms.start) for row in rows]
            assert keys == sorted(keys)
            for a, b in zip(rows, rows[1:]):
                assert a.n < b.n or a.ms.stop <= b.ms.start
        assert [(row.n, row.ms) for row in weights] == [(row.n, row.ms) for row in sets]
        # runs of full cells share their generation's cluster: 6 is cut
        # before cell 5, and the edge disc reaches cells 39 and 40 of 7
        runs = [(row.n, row.ms) for row in sets if isinstance(row.obstacles, GenerationCluster)]
        assert runs == [(6, range(5, 1024)), (7, range(39)), (7, range(41, 2048)), (8, range(4096))]
        gathered = [
            (row.n, row.ms.start, len(row.obstacles.x))
            for row in sets
            if row.n > 1 and not isinstance(row.obstacles, GenerationCluster)
        ]
        assert gathered == [(7, 39, 2), (7, 40, 2)]

    def test_cell_lookup(self):
        cfg = self._mixed()
        sets = _obstacle_sets(cfg)
        for row in sets:
            for m in (row.ms.start, row.ms.stop - 1):
                assert _cell_obstacles(cfg, WhitneyIndex(row.n, m)) is row.obstacles
        for idx in (WhitneyIndex(1, 5), WhitneyIndex(6, 0), WhitneyIndex(6, 4), WhitneyIndex(9, 0)):
            assert _cell_obstacles(cfg, idx) is None
        # the runs on either side of the edge disc share one cluster, and the
        # two cells it meets hold it, straddling, before their ring disc,
        # which lies inside its cell
        cluster = _cell_obstacles(cfg, WhitneyIndex(7, 38))
        assert _cell_obstacles(cfg, WhitneyIndex(7, 41)) is cluster
        for m in (39, 40):
            discs = _cell_obstacles(cfg, WhitneyIndex(7, m))
            assert discs.log_r.tolist() == [-12.0, cluster.log_rs[0]]
            assert discs.inside.tolist() == [False, True]

    def test_scalar_search_only_for_discs_not_inside(self, monkeypatch):
        # a materialised ring file gathers no disc by the scalar test; the
        # mixed file's two explicit discs, on a sector edge and a cell edge,
        # each take it once
        calls = []
        real = capacity.cells_intersecting_disc
        monkeypatch.setattr(capacity, "cells_intersecting_disc", lambda d: calls.append(d) or real(d))
        rings = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=7))
        sets = _obstacle_sets(rings.materialized())
        assert len(sets) == rings.disc_count and calls == []
        _obstacle_sets(self._mixed())
        assert [d.log_radius for d in calls] == [-7.0, -12.0]

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.sampled_from([1.2, 1.5]),
        n_max=st.integers(1, 4),
        drop=st.integers(0, 10**6),
        edge=st.none() | st.integers(0, 10**6),
    )
    # n <= 4 at beta 1.5 holds 18,720 discs: the first drop ends in the last
    # cell of generation 4 and omits its first row, the second drop ends
    # on the edge between cells 9 and 10 of generation 4, where the third
    # example puts an explicit disc
    @example(beta=1.5, n_max=4, drop=18664, edge=None)
    @example(beta=1.5, n_max=4, drop=2336 + 640, edge=None)
    @example(beta=1.5, n_max=4, drop=2336 + 640, edge=10)
    def test_sets_match_the_materialized_gather(self, beta, n_max, drop, edge):
        # a generated file, less any prefix, with or without one explicit
        # disc centred on a radial cell edge of one of its ring generations
        total = sum(sector_count(n) * subdivision_count(n, beta) ** 2 for n in range(1, n_max + 1))
        rings = generate_subsquares(
            GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=1, n_max=n_max, drop_first=drop % total)
        )
        cfg = rings
        if edge is not None:
            gens = sorted({b.n for b in rings.blocks})
            n = gens[edge % len(gens)]
            theta = 2.0 * math.pi * (edge // len(gens) % sector_count(n)) / sector_count(n)
            rho = 1.0 - 0.75 * 2.0**-n
            explicit = DiscBlock(
                np.array([rho * math.cos(theta)]), np.array([rho * math.sin(theta)]), np.array([-9.0 - n])
            )
            cfg = Configuration(blocks=(explicit,) + rings.blocks, n_max=n_max)
        want = _gathered(cfg.materialized())
        got = {}
        for n, ms, obstacles in _obstacle_sets(cfg):
            for m in ms:
                assert (n, m) not in got
                got[(n, m)] = obstacles
        assert got.keys() == want.keys()
        for key, obstacles in got.items():
            if isinstance(obstacles, GenerationCluster):
                assert len(want[key]) == obstacles.columns**2 == obstacles.columns * len(obstacles.rhos)
            else:
                assert list(zip(obstacles.x.tolist(), obstacles.y.tolist(), obstacles.log_r.tolist())) == want[key]


class TestCellGather:
    def test_matches_bruteforce_scan(self):
        # random small discs plus discs centred on the band edges 1 - 2^-n
        rng = np.random.default_rng(8)
        discs = []
        for _ in range(40):
            rho = rng.uniform(0.5, 0.97)
            theta = rng.uniform(0, 2.0 * math.pi)
            r = (1.0 - rho) * rng.uniform(0.001, 0.2)
            discs.append(Disc.from_radius(Point(rho * math.cos(theta), rho * math.sin(theta)), r))
        for n in range(1, 6):
            rho, theta = 1.0 - 2.0 ** (-n), rng.uniform(0, 2.0 * math.pi)
            discs.append(Disc(Point(rho * math.cos(theta), rho * math.sin(theta)), -40.0))
        cfg = Configuration.from_discs(discs)
        expect = {}
        for n in range(1, 8):
            for m in range(sector_count(n)):
                cell = whitney_cell(WhitneyIndex(n, m))
                hits = [d for d in cfg.iter_discs() if cell.distance_to(d.center) <= d.radius]
                if hits:
                    expect[(n, m)] = _floats(hits)
        assert _gathered(cfg) == expect

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_disc_gather(self, seed):
        # centers on band edges 1 - 2^-n and on sector edges, radii from
        # e^-2000 to nearly 1 - |x|: the numpy pass decides the discs inside
        # their home cell, and every disc must get the cells of the exact
        # scalar test
        rng = np.random.default_rng(seed)
        count = 300
        rho, theta = rng.uniform(0.3, 0.999, count), rng.uniform(0.0, 2.0 * math.pi, count)
        n = rng.integers(1, 8, count)
        on_band_edge, on_sector_edge = rng.random((2, count)) < 0.3
        rho = np.where(on_band_edge, 1.0 - 2.0 ** -n, rho)
        theta = np.where(on_sector_edge, 2.0 * math.pi * rng.integers(0, 2 ** (n + 4)) / 2.0 ** (n + 4), theta)
        log_r = np.log(1.0 - rho) - 10.0 ** rng.uniform(-2.0, 3.3, count)
        cfg = Configuration(
            blocks=(DiscBlock(rho * np.cos(theta), rho * np.sin(theta), log_r),), n_max=8
        )
        expect: dict = {}
        for d in cfg.iter_discs():
            for idx in cells_intersecting_disc(d):
                expect.setdefault((idx.n, idx.m), []).append(d)
        assert _gathered(cfg) == {k: _floats(v) for k, v in expect.items()}

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 30),
        k=st.integers(0, 2**34 - 1),
        radial=st.sampled_from(["inner edge", "outer edge", "band"]),
        angular=st.sampled_from(["sector edge", "sector"]),
        offsets=st.tuples(*[st.just(0.0) | st.floats(-15.0, -9.0).map(lambda e: 10.0**e)] * 2),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
        u=st.floats(0.0, 1.0),
        size=st.sampled_from(["e^-2000", "log-uniform", "tangent"]),
        t=st.floats(0.0, 1.0),
    )
    # a tiny disc centred 1e-10 inside |x| < 1/2, in no cell; a disc that
    # nearly touches the sector edge 1e-15 from its centre
    @example(
        n=1, k=0, radial="inner edge", angular="sector", offsets=(1e-10, 0.0),
        signs=(-1.0, 1.0), u=0.5, size="e^-2000", t=0.0,
    )
    @example(
        n=3, k=5, radial="band", angular="sector edge", offsets=(0.0, 1e-15),
        signs=(1.0, 1.0), u=0.5, size="tangent", t=0.5,
    )
    def test_home_cell_inside_meets_it_alone(self, n, k, radial, angular, offsets, signs, u, size, t):
        # centres on the band edges 1 - 2^-n and on sector edges, or within
        # 1e-15 to 1e-9 of them; radii from e^-2000 to 0.99 (1 - |x|), and
        # radii within rounding of the distance to the home cell's boundary
        step = 2.0 * math.pi / sector_count(n)
        rho = {
            "inner edge": 1.0 - 2.0**-n + signs[0] * offsets[0],
            "outer edge": 1.0 - 2.0 ** -(n + 1) + signs[0] * offsets[0],
            "band": 1.0 - 2.0**-n + u * 2.0 ** -(n + 1),
        }[radial]
        theta = (k % sector_count(n) + (u if angular == "sector" else 0.0)) * step
        theta += signs[1] * offsets[1] / rho
        x, y = rho * math.cos(theta), rho * math.sin(theta)
        s = 1.0 - math.hypot(x, y)
        assume(s > 0.0)
        top = math.log(0.99 * s)
        log_r = {"e^-2000": -2000.0, "log-uniform": -2000.0 + t * (top + 2000.0), "tangent": top}[size]
        (hn,), (hm,), _ = _home_cells(np.array([x]), np.array([y]), np.array([log_r]))
        if size == "tangent" and hn > 0:
            cell = whitney_cell(WhitneyIndex(int(hn), int(hm)))
            p = Point(x, y)
            gap = min(p.norm() - cell.r_inner, cell.r_outer - p.norm(), cell.radial_edge_distance(p))
            assume(0.0 < gap < 0.99 * s)
            log_r = math.log(gap * (1.0 + (t - 0.5) * 1e-15))
        _, _, (inside,) = _home_cells(np.array([x]), np.array([y]), np.array([log_r]))
        if inside:
            idx = WhitneyIndex(int(hn), int(hm))
            disc = Disc(Point(x, y), log_r)
            assert cells_intersecting_disc(disc) == [idx]
            assert _disc_inside_cell(DiscShape(disc.center, log_r), whitney_cell(idx))


class TestQuasiadditivity:
    def _shrunk_config(self, n_max=6):
        from champagne.criteria import shrink_for_separation

        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=n_max)
        )
        constants = CapacityConstants.for_configuration(cfg)
        shrunk, _ = shrink_for_separation(cfg, constants.separation_floor)
        return shrunk, constants

    def test_raw_config_fails_precondition(self):
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=6)
        )
        with pytest.raises(CapacityError, match="separation"):
            quasiadditivity_ratio(cfg, WhitneyIndex(6, 0))

    def test_shrunk_config_ratios(self):
        shrunk, constants = self._shrunk_config()
        rep = quasiadditivity_ratio(shrunk, WhitneyIndex(6, 0), constants)
        assert 0.0 < rep.ratio <= 1.0 + 1e-6
        assert rep.separation_value >= rep.separation_floor

    def test_ring_ratio_same_for_every_cell_of_a_generation(self):
        shrunk, constants = self._shrunk_config(n_max=4)
        sep = separation(shrunk, kind="radius_log")
        for n in range(1, 5):
            ratios = {
                quasiadditivity_ratio(shrunk, WhitneyIndex(n, m), constants, sep=sep).ratio
                for m in range(sector_count(n))
            }
            assert len(ratios) == 1

    def test_weights_table_quasi_and_bound_share_one_build(self, monkeypatch):
        built = []
        real = capacity.generation_clusters
        monkeypatch.setattr(
            capacity, "generation_clusters", lambda c: built.append(c) or real(c)
        )
        cfg, constants = self._shrunk_config(n_max=4)
        weights = cell_capacity_weights(cfg)
        cell_capacity_table(cfg, weights, constants)
        for m in range(3):
            quasiadditivity_ratio(cfg, WhitneyIndex(4, m), constants)
        c2_log_bound(cfg, WhitneyIndex(4, 0), constants)
        assert built == [cfg]

    def test_single_disc_cell_ratio_one(self):
        idx = WhitneyIndex(4, 2)
        cell = whitney_cell(idx)
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        th = 0.5 * (cell.theta_lo + cell.theta_hi)
        cfg = Configuration.from_discs(
            [Disc(Point(rho * math.cos(th), rho * math.sin(th)), -1e5)]
        )
        rep = quasiadditivity_ratio(cfg, idx)
        assert rep.ratio == pytest.approx(1.0, rel=1e-9)

    def test_two_separated_distant_discs(self):
        idx = WhitneyIndex(3, 0)
        cell = whitney_cell(idx)
        th1 = cell.theta_lo + 0.2 * cell.angular_width
        th2 = cell.theta_lo + 0.8 * cell.angular_width
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        cfg = Configuration.from_discs(
            [
                Disc(Point(rho * math.cos(th1), rho * math.sin(th1)), -1e8),
                Disc(Point(rho * math.cos(th2), rho * math.sin(th2)), -1e8),
            ]
        )
        rep = quasiadditivity_ratio(cfg, idx)
        assert 0.0 < rep.ratio <= 1.0 + 1e-9
        assert rep.disc_count == 2


class TestC2LogBound:
    def test_bound_holds_on_cluster(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=4, n_max=4))
        lhs, rhs = c2_log_bound(cfg, WhitneyIndex(4, 0))
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_both_sides_decrease_under_shrink(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=4, n_max=4))
        lhs0, rhs0 = c2_log_bound(cfg, WhitneyIndex(4, 0))
        small = shrink(cfg, log_delta=-1e4)
        lhs1, rhs1 = c2_log_bound(small, WhitneyIndex(4, 0))
        assert lhs1 < lhs0 and rhs1 < rhs0

    def test_tiny_single_disc_both_sides_match_log_rule(self):
        idx = WhitneyIndex(5, 1)
        cell = whitney_cell(idx)
        rho = 0.5 * (cell.r_inner + cell.r_outer)
        th = 0.5 * (cell.theta_lo + cell.theta_hi)
        cfg = Configuration.from_discs(
            [Disc(Point(rho * math.cos(th), rho * math.sin(th)), -1e6)]
        )
        lhs, rhs = c2_log_bound(cfg, idx)
        approx = 1.0 / 1e6
        assert lhs == pytest.approx(approx, rel=1e-3)
        assert rhs == pytest.approx(approx, rel=1e-3)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_polar_cell_rejected(self):
        cfg = generate_avoidable_ring(k_discs=2)
        with pytest.raises(CapacityError):
            c2_log_bound(cfg, WhitneyIndex(9, 0))


class TestSmallDiscLowerBound:
    def test_scaled_disc_c2_vs_radius_log_weight(self):
        # the scaled per-disc C2 dominates a run-wide constant times
        # {log((1-|x|)/r)}^{-1}
        constants = CapacityConstants()
        ratios = []
        for n in range(4, 9):
            cfg = generate_subsquares(
                GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=n, n_max=n)
            )
            cluster = generation_clusters(cfg)[n]
            scale = constants.cell_scale(n)
            for rho, lr in zip(cluster.rhos, cluster.log_rs):
                c2_part = 1.0 / (math.log(2.0) - (lr + math.log(scale)))
                weight = 1.0 / (math.log(1.0 - rho) - lr)
                ratios.append(c2_part / weight)
        c_run = min(ratios)
        assert c_run > 0.0


class TestGreenBoundAndCertificate:
    def test_bound_values(self):
        assert green_capacity_disc_bound(r=math.exp(-10.0)) == pytest.approx(0.1)
        assert green_capacity_disc_bound(log_r=-1e7) == pytest.approx(1e-7)

    def test_bound_rejects_r_near_one(self):
        with pytest.raises(CapacityError):
            green_capacity_disc_bound(r=1.0)

    def test_certificate_for_avoidable_ring(self):
        cert = avoidability_certificate(generate_avoidable_ring())
        assert cert.issued
        assert cert.budget <= cert.threshold

    def test_certificate_empty(self):
        cert = avoidability_certificate(Configuration(blocks=(), n_max=0))
        assert cert.issued

    def test_certificate_refused_large_budget(self):
        cfg = Configuration.from_discs(
            [Disc.from_radius(Point(0.75, 0.0), 0.1), Disc.from_radius(Point(-0.75, 0.0), 0.1)]
        )
        cert = avoidability_certificate(cfg)
        assert not cert.issued

    def test_certificate_refused_inside_half_disc(self):
        cfg = Configuration.from_discs([Disc.from_radius(Point(0.52, 0.0), 0.05)])
        cert = avoidability_certificate(cfg)
        assert not cert.issued
        assert not cert.outside_half_disc
