import functools
import itertools
import math

import numpy as np
import pytest

from champagne import capacity
from champagne.capacity import (
    CapacityConstants,
    CapacityError,
    CellDiscs,
    CellRows,
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
    cell_series_terms,
    cluster_c2,
    cluster_log_capacity,
    generation_clusters,
    green_capacity_disc_bound,
    log_capacity,
    minimize_simplex_energy,
    quasiadditivity_ratio,
    _boundary_nodes,
    _cell_bounds,
    _cell_pieces,
    _cell_obstacles,
    _circle_nodes,
    GenerationCluster,
    _cluster_mutual,
    _digon,
    _piece_log_capacity,
    _piece_nodes,
    _disc_system_capacity,
    _radial_nodes,
    _log_kernel,
    _obstacle_rows,
    _set_log_capacity,
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
    center_cells,
    sector_count,
    spatial_index,
    validate_configuration,
    whitney_cell,
)


def _gathered(cfg) -> dict:
    """_cell_pieces of ``cfg`` as (x, y, log_r) per disc, cell by cell."""
    out: dict = {}
    for n, m, *disc in zip(*(a.tolist() for a in _cell_pieces(cfg)[:5])):
        out.setdefault((n, m), []).append(tuple(disc))
    return out


def _rows(rows) -> list:
    """(n, range(m_lo, m_hi), log_capacity, weight) per row of a CellRows."""
    n, m_lo, m_hi, log_cap, weight = (a.tolist() for a in rows[:5])
    return [(g, range(lo, hi), lc, w) for g, lo, hi, lc, w in zip(n, m_lo, m_hi, log_cap, weight)]


def _set_rows(cfg) -> list:
    """(n, range(m_lo, m_hi), solve) per row of _obstacle_rows."""
    n, m_lo, m_hi, solve, *_ = _obstacle_rows(cfg)
    return [(g, range(lo, hi), s) for g, lo, hi, s in zip(*(a.tolist() for a in (n, m_lo, m_hi, solve)))]


def _piece(x, y, log_r, cell) -> np.ndarray:
    """_piece_log_capacity of each disc (x, y, exp(log_r)) cut to ``cell``."""
    x, y, log_r = (np.asarray(a, dtype=float) for a in (x, y, log_r))
    return _piece_log_capacity(x, y, log_r, _cell_bounds([cell] * len(x)))


def _whole(x, y, log_r, cell) -> np.ndarray:
    """Whether each disc lies inside ``cell``: its piece there is the disc."""
    return _piece(x, y, log_r, cell) == log_r


def _clipped(idx, discs) -> UnionShape:
    """The discs of a gathered cell clipped to the cell, as one shape."""
    cell = whitney_cell(idx)
    parts = zip(discs.x.tolist(), discs.y.tolist(), discs.log_r.tolist())
    return UnionShape(tuple(ClippedDiscShape(DiscShape(Point(x, y), log_r), cell) for x, y, log_r in parts))


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


HALF_DISC = math.log(4.0 / (3.0 * math.sqrt(3.0)))
# log(cap/r) of a quarter disc, from own-frame solves at 512-4,096 nodes
# extrapolated at O(1/n)
QUARTER_DISC = -0.63275


def _rows_by_cell(weights) -> dict:
    return dict(zip(zip(weights.n.tolist(), weights.m_lo.tolist()), weights.log_capacity.tolist()))


class TestPieces:
    def test_half_disc_oracle(self):
        # Ransford (1995), Table 5.1: a half disc has capacity 4r/(3 sqrt 3),
        # also for a centre on the radial edge of a cell at any radius
        assert abs(float(_digon(np.array([0.0]), np.array([0.0]))[0]) - HALF_DISC) <= 1e-14
        cell = whitney_cell(WhitneyIndex(3, 0))
        for log_r in (-7.0, -800.0):
            got = _piece([0.9], [0.0], [log_r], cell)[0]
            assert abs((got - log_r) - HALF_DISC) <= 1e-14 + math.ulp(log_r)

    @settings(max_examples=12, deadline=None)
    @given(
        edge=st.sampled_from(["radial", "inner arc", "outer arc"]),
        t=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
        log_q=st.floats(math.log(1e-6), math.log(0.6)),
    )
    @example(edge="radial", t=-0.99 + 1e-9, log_q=math.log(0.1))
    @example(edge="outer arc", t=0.0, log_q=math.log(0.6))
    def test_digon_matches_own_frame_nodes(self, edge, t, log_q):
        # one edge cuts the unit disc at offset t: a chord, or an arc of
        # radius R = 1 with r/R = exp(log_q), which bounds the piece from
        # outside or from inside; the closed form agrees with 2,048 nodes of
        # the disc's own frame to their O(1/n) discretisation error
        r = math.exp(log_q)
        if edge == "radial":
            x, y, r = 0.5, t * 0.1, 0.1
            cell = WhitneyCell(index=None, r_inner=0.05, r_outer=100.0, theta_lo=0.0, theta_hi=0.5 * math.pi)
        elif edge == "outer arc":
            x, y = -r * t + math.sqrt((r * t) ** 2 + 1.0 - r * r), 0.0
            cell = WhitneyCell(index=None, r_inner=1e-3, r_outer=1.0, theta_lo=-1.5, theta_hi=1.5)
        else:
            x, y = r * t + math.sqrt((r * t) ** 2 + 1.0 - r * r), 0.0
            cell = WhitneyCell(index=None, r_inner=1.0, r_outer=100.0, theta_lo=-1.5, theta_hi=1.5)
        columns = np.array([x]), np.array([y]), np.array([math.log(r)])
        offsets, lam = (a[0] for a in capacity._cell_frame(*columns, _cell_bounds([cell])))
        cut = np.abs(offsets) < 1.0
        assume(r < math.hypot(x, y) and cut.sum() == 1)
        closed = float(_digon(offsets[cut], lam[cut])[0])
        u, ell = _piece_nodes(x, y, math.log(r), _cell_bounds([cell])[0], 2048)
        nodes = -minimize_simplex_energy(_log_kernel(u, ell)).energy
        assert abs(nodes - closed) <= 3e-4

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        u=st.floats(0.25, 0.75),
        s=st.floats(0.0, 1.0),
        corner=st.booleans(),
    )
    # log r = -1e6 + (top + 1e6) rounds 2.3e-11 above top = log 2^-5: the
    # disc of centre 0.78125 crosses the inner arc 0.75 by that much, and
    # two edges cut it
    @example(n=2, u=0.25, s=1.0, corner=False)
    def test_straddles_scale_with_r(self, n, u, s, corner):
        # a centre on the positive axis sits exactly on the radial edge of
        # cells (n, 0) and (n, 2^(n+4) - 1), at any radius: each gets the
        # half disc log r + log(4/(3 sqrt 3)) bit for bit, for every
        # log r from -1e6 to log 2^-(n+3), where the disc meets no arc.  A
        # disc that reaches an arc is discretised, within the 1e-3 of the
        # own-frame nodes.  At the band edge 1 - 2^-n the centre is on a
        # corner, and each of the four cells gets the same piece,
        # log r - 0.63275 to its discretisation, while r/rho is below rounding
        rho = 1.0 - 2.0**-n + (0.0 if corner else u * 2.0 ** -(n + 1))
        top = -math.log(2.0) * (n + 3) if not corner else -40.0
        log_r = -1e6 + s * (top + 1e6)
        cells = [(n, 0), (n, sector_count(n) - 1)]
        if corner and n > 1:
            cells += [(n - 1, 0), (n - 1, sector_count(n - 1) - 1)]
        for key in cells:
            cell = whitney_cell(WhitneyIndex(*key))
            got = _piece([rho], [0.0], [log_r], cell)[0]
            if not corner:
                offsets, _ = capacity._cell_frame(np.array([rho]), np.array([0.0]), np.array([log_r]), _cell_bounds([cell]))
                if (offsets[0, :2] >= 1.0).all():
                    assert got == log_r + _digon(np.array([0.0]), np.array([0.0]))[0]
                else:
                    assert abs((got - log_r) - HALF_DISC) <= 1e-3
            else:
                deep = _piece([rho], [0.0], [-1e6], cell)[0]
                assert got < log_r
                assert abs((got - log_r) - (deep + 1e6)) <= 1e-12 + math.ulp(log_r) + math.ulp(1e6)
                assert abs((got - log_r) - QUARTER_DISC) < 1e-3

    def test_corner_disc_is_a_quarter_disc_at_every_radius(self):
        # (0.75, 0) is the corner of cells (1, 0), (1, 31), (2, 0) and
        # (2, 63): each holds a quarter of the disc, also where r underflows
        offsets = []
        for log_r in (-30.0, -700.0, -745.5, -800.0, -1e6):
            cfg = Configuration(blocks=(DiscBlock(np.array([0.75]), np.array([0.0]), np.array([log_r])),), n_max=2)
            rows = _rows_by_cell(cell_capacity_weights(cfg))
            assert sorted(rows) == [(1, 0), (1, 31), (2, 0), (2, 63)]
            assert all(v < log_r for v in rows.values())
            offsets += [(v - log_r, math.ulp(log_r)) for v in rows.values()]
        first = offsets[0][0]
        assert abs(first - QUARTER_DISC) < 1e-3
        for offset, ulp in offsets:
            assert abs(offset - first) <= 1e-12 + ulp

    def test_failed_piece_names_its_cell(self, monkeypatch):
        # the corner disc's four pieces are discretised as the rows are
        # built; a solve that fails there is refused with the piece's cell
        def fail(kernel):
            raise CapacityError("no equilibrium")

        monkeypatch.setattr(capacity, "minimize_simplex_energy", fail)
        cfg = Configuration(blocks=(DiscBlock(np.array([0.75]), np.array([0.0]), np.array([-30.0])),), n_max=2)
        with pytest.raises(CapacityError, match=r"capacity failed at cell \(n=(1, m=(0|31)|2, m=(0|63))\): no equilibrium"):
            cell_capacity_weights(cfg)

    def test_avoidable_ring_rows(self):
        # the default ring puts its six discs on the generation edge
        # |z| = 0.75: discs 1 and 4 also on radial edges, at the corners of
        # four cells, and the others across the arc between two cells
        cfg = generate_avoidable_ring()
        log_r = spatial_index(cfg).exp_log_r.tolist()
        rows = _rows_by_cell(cell_capacity_weights(cfg))
        halves = {(1, 13): 2, (2, 26): 2, (1, 18): 3, (2, 37): 3, (1, 29): 5, (2, 58): 5}
        corners = {(1, 7): 1, (1, 8): 1, (2, 15): 1, (2, 16): 1, (1, 23): 4, (1, 24): 4, (2, 47): 4, (2, 48): 4}
        assert sorted(rows) == sorted([(1, 2), (2, 5), *halves, *corners])
        for key, k in halves.items():
            # r is below 1e-19: the arc through the centre is its tangent
            assert abs(rows[key] - (log_r[k] + HALF_DISC)) <= 1e-12
        for key, k in corners.items():
            assert abs(rows[key] - (log_r[k] + QUARTER_DISC)) <= 1e-3
        # r = 1.5e-5: the arc |z| = 0.75 through the centre cuts a digon
        # slightly smaller than the half disc inside it and one slightly
        # larger outside it
        half = log_r[0] + HALF_DISC
        assert rows[(1, 2)] < half < rows[(2, 5)]
        assert abs(rows[(1, 2)] - -11.351979) <= 1e-5 and abs(rows[(2, 5)] - -11.351979) <= 1e-5

    def test_mixed_rows(self):
        # the disc at (0.6, 0), log r = -7, is a half disc in (1, 0) and
        # (1, 31); the disc on the edge of cells (7, 39) and (7, 40) is a
        # half disc next to one whole ring disc, whose joint own-frame solve
        # at 2,048 nodes gives -8.9272
        rows = _rows_by_cell(cell_capacity_weights(TestObstacleRows._mixed()))
        for key in ((1, 0), (1, 31)):
            assert abs(rows[key] - (-7.0 + HALF_DISC)) <= 1e-12
        for key in ((7, 39), (7, 40)):
            assert abs(rows[key] - -8.9272) <= 1e-3

    @pytest.mark.parametrize("k", range(1, 8))
    def test_disc_on_a_radial_edge_is_cut_by_one_rule(self, k):
        # at |x| = 0.6, a disc of log r = -800 centred on the radial edge
        # theta = k 2 pi / 32 and one of log r = -10 at theta + 0.05, inside
        # sector k.  Where the centre's cross product with the edge is
        # exactly 0 (k != 6), the first is a half disc alone in (1, k - 1)
        # and beside the second in (1, k); at k = 6 it rounds to about
        # 1e-17, and the first disc is whole in one cell.  Whichever it is,
        # no cell comes out polar, and each row is the capacity of both
        # discs clipped to its cell
        theta = k * (2.0 * math.pi / 32) + np.array([0.0, 0.05])
        x, y, log_r = 0.6 * np.cos(theta), 0.6 * np.sin(theta), np.array([-800.0, -10.0])
        cfg = Configuration(blocks=(DiscBlock(x, y, log_r),), n_max=1)
        weights = cell_capacity_weights(cfg)
        assert len(weights.n) == len(_obstacle_rows(cfg)[0])
        rows = _rows_by_cell(weights)
        assert set(rows) <= {(1, k - 1), (1, k)} and (1, k) in rows
        discs = [DiscShape(Point(a, b), c) for a, b, c in zip(x.tolist(), y.tolist(), log_r.tolist())]
        for (n, m), log_cap in rows.items():
            cell = whitney_cell(WhitneyIndex(n, m))
            assert repr(log_cap) == repr(log_capacity(UnionShape(tuple(ClippedDiscShape(d, cell) for d in discs))).log_value)
        # the first disc's piece, whole or a half disc, against the second
        # disc: two charges, whose simplex minimum is (a b - c^2)/(a + b - 2c)
        first = -800.0 if k == 6 else -800.0 + HALF_DISC
        a, b, c = -first, 10.0, -math.log(math.hypot(x[0] - x[1], y[0] - y[1]))
        assert abs(rows[(1, k)] - -(a * b - c * c) / (a + b - 2.0 * c)) <= 1e-12
        if k != 6:
            assert abs(rows[(1, k - 1)] - first) <= 1e-12


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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 7),
        m=st.integers(0, 2**11 - 1),
        spots=st.lists(
            st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(-80.0, -12.0)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_disc_system_c2_is_the_log_capacity_closed_form(self, n, m, spots):
        # a scaled cell is below diameter 2, where the truncated kernel is
        # the log kernel plus s = log 2 - log scale: C2 = 1/(s - log cap)
        cell = whitney_cell(WhitneyIndex(n, m))
        parts = []
        for u, v, log_r in spots:
            rho = cell.r_inner + u * (cell.r_outer - cell.r_inner)
            theta = cell.theta_lo + v * cell.angular_width
            parts.append(DiscShape(Point(rho * math.cos(theta), rho * math.sin(theta)), log_r))
        x, y, log_r = (np.array(a) for a in zip(*((d.center.x, d.center.y, d.log_r) for d in parts)))
        est = _disc_system_capacity(x, y, log_r)
        assume(_whole(x, y, log_r, cell).all() and est is not None)
        scale = CapacityConstants().cell_scale(n)
        c2, _ = c2_disc_system(x * scale, y * scale, log_r + math.log(scale))
        s = math.log(2.0) - math.log(scale)
        assert c2 == pytest.approx(1.0 / (s - est.log_value), rel=1e-13)


class TestClusters:
    def _config(self, beta=1.2, c0=0.05, n=3):
        return generate_subsquares(GeneratorParams.exp_power(beta=beta, c0=c0, n_min=n, n_max=n))

    @staticmethod
    def _cell_columns(cluster: GenerationCluster) -> tuple:
        """(x, y, log_r) of every disc of the cluster's first cell."""
        th = (np.arange(cluster.columns) + 0.5) * cluster.delta_theta
        x = np.outer(cluster.rhos, np.cos(th)).ravel()
        y = np.outer(cluster.rhos, np.sin(th)).ravel()
        return x, y, np.repeat(cluster.log_rs, cluster.columns)

    def test_cluster_matches_disc_system(self):
        cfg = self._config()
        cluster = generation_clusters(cfg)[3]
        log_cap = cluster_log_capacity(cluster)
        est = _disc_system_capacity(*self._cell_columns(cluster))
        assert log_cap == pytest.approx(est.log_value, abs=2e-3)

    def test_cluster_exact_in_dominant_regime(self):
        cfg = shrink(self._config(), log_delta=-1e9)
        cluster = generation_clusters(cfg)[3]
        log_cap = cluster_log_capacity(cluster)
        est = _disc_system_capacity(*self._cell_columns(cluster))
        assert est.method == "disc_system"
        assert log_cap == pytest.approx(est.log_value, rel=1e-9)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_flagship_c2_matches_the_materialized_cell(self, n):
        # the closed form of the cluster's log capacity against the
        # truncated-kernel solve over every disc of one cell
        cluster = _cluster(1.5, n)
        scale = CapacityConstants().cell_scale(n)
        x, y, log_r = self._cell_columns(cluster)
        want, _ = c2_disc_system(x * scale, y * scale, log_r + math.log(scale))
        c2, potential = cluster_c2(cluster, scale)
        assert c2 == pytest.approx(want, rel=5e-5)
        assert potential == math.log(2.0) - (cluster_log_capacity(cluster) + math.log(scale))
        assert c2 == 1.0 / potential

    def test_obstacle_sets_kept_per_configuration(self):
        cfg = self._config()
        assert _obstacle_rows(cfg) is _obstacle_rows(cfg)
        small = shrink(cfg, log_delta=-10.0)
        assert _obstacle_rows(small) is not _obstacle_rows(cfg)
        # generation 3 is the only obstacle set: one cluster row
        (row,), (small_row,) = _set_rows(cfg), _set_rows(small)
        assert row[0] == small_row[0] == 3
        (cluster,), (small_cluster,) = _obstacle_rows(cfg)[-1], _obstacle_rows(small)[-1]
        np.testing.assert_allclose(small_cluster.log_rs, cluster.log_rs - 10.0)

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
        assert [(n, ms) for n, ms, _, _ in _rows(weights)] == [
            (n, range(sector_count(n))) for n in (2, 3, 4)
        ]
        assert all(w > 0 for _, _, _, w in _rows(weights))

    def test_weights_beyond_the_configuration_refused(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.2, c0=0.05, n_min=2, n_max=4))
        assert [n for n, *_ in _rows(cell_capacity_weights(cfg, 3))] == [2, 3]
        with pytest.raises(CapacityError, match="n_max 5 exceeds the configuration's n_max 4"):
            cell_capacity_weights(cfg, 5)

    @pytest.mark.parametrize("beta, n_min, n_max", [(1.2, 1, 4), (1.5, 2, 3), (0.1, 1, 4)])
    def test_ring_series_matches_every_cell_term(self, beta, n_min, n_max):
        # the closed-form ring sum against the sum of every cell's own term
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=n_min, n_max=n_max)
        )
        weights = cell_capacity_weights(cfg)
        assert all(len(ms) == sector_count(n) for n, ms, _, _ in _rows(weights))
        for y in BoundaryPoint.grid(5):
            rep = cell_capacity_series(cfg, y, weights=weights)
            for (n, value), (_, ms, _, w) in zip(rep.per_generation, _rows(weights)):
                brute = math.fsum(cell_series_term(n, m, w, y.theta) for m in ms)
                assert value == pytest.approx(brute, rel=1e-12, abs=0.0)
            brute = math.fsum(
                cell_series_term(n, m, w, y.theta) for n, ms, _, w in _rows(weights) for m in ms
            )
            assert rep.total == pytest.approx(brute, rel=1e-12, abs=0.0)

    def test_array_terms_equal_the_scalar_term(self):
        rng = np.random.default_rng(11)
        rows = []
        for n in (1, 2, 5, 9, 17, 30):
            for start in rng.integers(0, sector_count(n), size=4).tolist():
                ms = range(start, min(start + int(rng.integers(1, 40)), sector_count(n)))
                rows.append((n, ms, 0.0, float(rng.uniform(1e-6, 2.0))))
        columns = [(n, ms.start, ms.stop, lc, w, -1) for n, ms, lc, w in rows]
        cells = CellRows(*(np.array(a) for a in zip(*columns)))
        for psi in rng.uniform(-7.0, 7.0, size=25).tolist():
            terms = cell_series_terms(cells, psi)
            want = {}
            for n, ms, _, w in rows:
                want.setdefault(n, []).extend(cell_series_term(n, m, w, psi) for m in ms)
            assert {n: t.tolist() for n, t in terms.items()} == want

    @pytest.mark.parametrize("drop_first", [0, 5])
    def test_explicit_series_is_the_sum_of_scalar_terms(self, drop_first):
        # every row of an explicit file holds one cell: no ring sum runs
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=4, n_max=6, drop_first=drop_first)
        ).materialized()
        weights = cell_capacity_weights(cfg)
        y = BoundaryPoint(0.7)
        per = {}
        for n, ms, _, w in _rows(weights):
            per.setdefault(n, []).extend(cell_series_term(n, m, w, y.theta) for m in ms)
        rep = cell_capacity_series(cfg, y, weights=weights)
        assert rep.per_generation == tuple((n, math.fsum(per[n])) for n in sorted(per))

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
    @staticmethod
    def _mixed():
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

    def test_table_is_the_closed_form_and_calls_no_solver(self, monkeypatch):
        # clusters, gathered cells, and cells that one piece meets alone:
        # a disc inside (3, 5), and the half discs of (1, 0) and (1, 31)
        cell = whitney_cell(WhitneyIndex(3, 5))
        rho, th = 0.5 * (cell.r_inner + cell.r_outer), 0.5 * (cell.theta_lo + cell.theta_hi)
        lone = DiscBlock(np.array([rho * math.cos(th)]), np.array([rho * math.sin(th)]), np.array([-20.0]))
        cfg = Configuration(blocks=(lone,) + self._mixed().blocks, n_max=8)
        weights = cell_capacity_weights(cfg)
        sets = _obstacle_rows(cfg)[-1]
        kinds = {type(sets[s]).__name__ if s >= 0 else "own" for s in weights.solve.tolist()}
        assert kinds == {"GenerationCluster", "CellDiscs", "own"}
        own = [(n, m) for n, ms, *_ in _rows(weights.take(weights.solve < 0)) for m in ms]
        assert own == [(1, 0), (1, 31), (3, 5)]

        def refuse(*args, **kwargs):
            raise AssertionError("the C2 table ran a solver")

        for name in ("log_capacity", "cluster_log_capacity", "minimize_simplex_energy"):
            monkeypatch.setattr(capacity, name, refuse)
        constants = CapacityConstants.for_configuration(cfg)
        c2 = cell_capacity_table(weights, constants)
        assert c2.tolist() == [
            1.0 / (math.log(2.0) - (log_cap + math.log(constants.cell_scale(n))))
            for n, log_cap in zip(weights.n.tolist(), weights.log_capacity.tolist())
        ]

    def test_log_bound_reads_the_row_of_its_cell(self):
        # both sides come from the row's log capacity, the discs clipped to
        # the cell: the right side is the row's weight, also in the cells
        # (1, 0), (1, 31), (7, 39) and (7, 40) that a disc straddles
        cfg = self._mixed()
        weights = cell_capacity_weights(cfg)
        constants = CapacityConstants.for_configuration(cfg)
        c2 = cell_capacity_table(weights, constants).tolist()
        rows = zip(weights.n.tolist(), weights.m_lo.tolist(), weights.weight.tolist(), c2)
        for n, m, weight, c2_row in rows:
            assert c2_log_bound(cfg, WhitneyIndex(n, m), constants) == (c2_row, weight)

    def test_rows_sorted_and_disjoint(self):
        cfg = self._mixed()
        sets = _set_rows(cfg)
        weights = _rows(cell_capacity_weights(cfg))
        for rows in (sets, weights):
            keys = [(n, ms.start) for n, ms, *_ in rows]
            assert keys == sorted(keys)
            for a, b in zip(rows, rows[1:]):
                assert a[0] < b[0] or a[1].stop <= b[1].start
        assert [row[:2] for row in weights] == [row[:2] for row in sets]
        # runs of full cells share their generation's cluster: 6 is cut
        # before cell 5, and the edge disc reaches cells 39 and 40 of 7
        obstacles = [_cell_obstacles(cfg, WhitneyIndex(n, ms.start)) for n, ms, _ in sets]
        runs = [row[:2] for row, o in zip(sets, obstacles) if isinstance(o, GenerationCluster)]
        assert runs == [(6, range(5, 1024)), (7, range(39)), (7, range(41, 2048)), (8, range(4096))]
        gathered = [
            (n, ms.start, len(o.x))
            for (n, ms, _), o in zip(sets, obstacles)
            if n > 1 and not isinstance(o, GenerationCluster)
        ]
        assert gathered == [(7, 39, 2), (7, 40, 2)]

    def test_cell_lookup(self):
        cfg = self._mixed()
        *_, pieces, sets = _obstacle_rows(cfg)
        for n, ms, s in _set_rows(cfg):
            for m in (ms.start, ms.stop - 1):
                obstacles = _cell_obstacles(cfg, WhitneyIndex(n, m))
                if s >= 0:
                    assert obstacles is sets[s]
                else:
                    # a cell that one piece meets alone, built on request:
                    # the half disc at (0.6, 0) in (1, 0) and (1, 31)
                    assert ms == range(m, m + 1)
                    assert [a.tolist() for a in obstacles] == [[a[~s].item()] for a in pieces]
                    assert obstacles.x.tolist() == [0.6]
                    piece = _piece(obstacles.x, obstacles.y, obstacles.log_r, whitney_cell(WhitneyIndex(n, m)))
                    assert obstacles.log_c.tolist() == piece.tolist() == [-7.0 + HALF_DISC]
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
            piece = _piece(discs.x, discs.y, discs.log_r, whitney_cell(WhitneyIndex(7, m)))
            assert discs.log_c.tolist() == piece.tolist()
            assert (piece == discs.log_r).tolist() == [False, True]

    @pytest.mark.parametrize("materialized", [False, True])
    def test_gather_only_cells_not_one_piece_alone(self, materialized):
        # the cells that one piece meets alone take their rows straight from
        # it, clipped or whole; of the mixed file, stored as rings or disc by
        # disc, only the two cells of its edge disc, each with one ring disc,
        # are gathered, and not the cells of the half disc at (0.6, 0)
        cfg = self._mixed().materialized() if materialized else self._mixed()
        weights = cell_capacity_weights(cfg)
        gathered = [(idx.n, idx.m) for idx, _ in self._gathered_cells(cfg)]
        met: dict = {}
        pairs = [(d, idx) for d in cfg.materialized().iter_discs() for idx in cells_intersecting_disc(d)]
        x, y, log_r = (np.array(a) for a in zip(*((d.center.x, d.center.y, d.log_radius) for d, _ in pairs)))
        piece = _piece_log_capacity(x, y, log_r, _cell_bounds([whitney_cell(idx) for _, idx in pairs]))
        for (d, idx), log_c in zip(pairs, piece.tolist()):
            if log_c > -math.inf:
                met.setdefault((idx.n, idx.m), []).append(d)
        alone = {key for key, discs in met.items() if len(discs) == 1}
        assert gathered == [(7, 39), (7, 40)] == sorted(met.keys() - alone)
        own, shared = (
            {(n, m) for n, ms, *_ in _rows(weights.take(keep)) for m in ms}
            for keep in (weights.solve < 0, weights.solve >= 0)
        )
        assert {(1, 0), (1, 31)} <= own == alone - shared

    @staticmethod
    def _gathered_cells(cfg) -> list:
        """(cell index, CellDiscs) of every gathered cell of ``cfg``."""
        n, m_lo, _, solve, _, sets = _obstacle_rows(cfg)
        return [
            (WhitneyIndex(g, m), sets[s])
            for g, m, s in zip(n.tolist(), m_lo.tolist(), solve.tolist())
            if s >= 0 and isinstance(sets[s], CellDiscs)
        ]

    @staticmethod
    def _shape_value(idx, discs) -> float:
        """The reference: the discs clipped to the cell, by log_capacity."""
        est = log_capacity(_clipped(idx, discs))
        return math.nan if est.polar else est.log_value

    @pytest.mark.parametrize("case", ["flagship-3", "mixed", "flagship-6-drop", "ring"])
    def test_gathered_cells_match_the_shape_path(self, case):
        # bit for bit on every gathered cell: whole cells of explicit
        # discs, straddled ones, and the partial cell of ring discs that
        # dropping 4013 discs of the flagship n <= 6 leaves in generation 4;
        # and on every cell that one piece meets alone, whole or clipped
        flagship = GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=3)
        cfg = {
            "flagship-3": lambda: generate_subsquares(flagship).materialized(),
            "mixed": lambda: self._mixed().materialized(),
            "flagship-6-drop": lambda: generate_subsquares(
                GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=6, drop_first=4013)
            ),
            "ring": generate_avoidable_ring,
        }[case]()
        cells = self._gathered_cells(cfg)
        for idx, discs in cells:
            assert repr(_set_log_capacity(discs, idx)) == repr(self._shape_value(idx, discs))
        if case == "flagship-6-drop":
            assert [(idx.n, len(discs.x)) for idx, discs in cells] == [(4, 51)]
        weights = cell_capacity_weights(cfg)
        alone = weights.take(weights.solve < 0)
        assert len(cells) + len(alone.n) > 0
        for n, m, log_cap in zip(alone.n.tolist(), alone.m_lo.tolist(), alone.log_capacity.tolist()):
            idx = WhitneyIndex(n, m)
            assert repr(log_cap) == repr(self._shape_value(idx, _cell_obstacles(cfg, idx)))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(0, 2**12 - 1),
        spots=st.lists(
            st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_discs_inside_one_cell_match_the_shape_path(self, n, m, spots):
        # 1-12 disjoint discs inside one cell, radii from 1e-300 up to
        # 2^-(n+3), each cut to 0.9 of its distance to the cell's boundary
        # and 0.45 of its distance to the nearest other centre
        idx = WhitneyIndex(n, m)
        cell = whitney_cell(idx)
        centres = []
        for u, v, _ in spots:
            rho = cell.r_inner + u * (cell.r_outer - cell.r_inner)
            theta = cell.theta_lo + v * cell.angular_width
            centres.append(Point(rho * math.cos(theta), rho * math.sin(theta)))
        log_r = []
        lo, hi = math.log(1e-300), -(n + 3) * math.log(2.0)
        for k, (p, (_, _, t)) in enumerate(zip(centres, spots)):
            rho = p.norm()
            reach = 0.9 * min(rho - cell.r_inner, cell.r_outer - rho, cell.radial_edge_distance(p))
            for q in centres[:k] + centres[k + 1 :]:
                reach = min(reach, 0.45 * math.hypot(p.x - q.x, p.y - q.y))
            assume(reach > 0.0)
            log_r.append(min(lo + t * (hi - lo), math.log(reach)))
        x, y, log_r = (np.array(a) for a in zip(*((p.x, p.y, lr) for p, lr in zip(centres, log_r))))
        discs = CellDiscs(x, y, log_r, _piece(x, y, log_r, cell))
        assert (discs.log_c == log_r).all()
        assert _set_log_capacity(discs, idx) == self._shape_value(idx, discs)

    def test_only_straddled_cells_clip(self, monkeypatch):
        # the materialised flagship n <= 4 gathers 448 cells whose discs all
        # lie inside them: none is clipped.  Each of the avoidable ring's 16
        # cells is met by one piece alone, and none is gathered; the mixed
        # file gathers the two cells of its edge disc, each with one ring
        # disc.  Only a disc on a corner, cut by two edges, is discretised,
        # once in each of its four cells, and every other piece is a
        # closed-form digon
        built = []
        real = capacity._piece_nodes
        monkeypatch.setattr(capacity, "_piece_nodes", lambda *args: built.append(args[3]) or real(*args))
        flagship = generate_subsquares(GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=4))
        corners = [(1, 7), (1, 8), (1, 23), (1, 24), (2, 15), (2, 16), (2, 47), (2, 48)]
        cases = ((flagship.materialized(), 448, 0, []), (generate_avoidable_ring(), 0, 0, corners), (self._mixed().materialized(), 2, 2, []))
        for cfg, count, clipped, nodes in cases:
            built.clear()
            cell_capacity_weights(cfg)
            want = _cell_bounds([whitney_cell(WhitneyIndex(*key)) for key in nodes])
            assert sorted(b.tolist() for b in built) == sorted(want.tolist())
            cells = self._gathered_cells(cfg)
            straddled = [idx for idx, discs in cells if not _whole(*discs[:3], whitney_cell(idx)).all()]
            assert (len(cells), len(straddled)) == (count, clipped)

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
        for n, ms, _ in _set_rows(cfg):
            for m in ms:
                assert (n, m) not in got
                got[(n, m)] = _cell_obstacles(cfg, WhitneyIndex(n, m))
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

    @staticmethod
    @functools.cache
    def _every_cell(n_max: int) -> tuple:
        cells = [(n, m) for n in range(1, n_max + 1) for m in range(sector_count(n))]
        return cells, _cell_bounds([whitney_cell(WhitneyIndex(*key)) for key in cells])

    def _every_piece(self, cfg) -> dict:
        """The reference: every disc of ``cfg`` cut to every cell of
        generation at most cfg.n_max, kept where its piece is not empty, as
        :func:`_gathered` lists them."""
        cells, bounds = self._every_cell(cfg.n_max)
        discs = _floats(cfg.iter_discs())
        x, y, log_r = (np.tile(a, len(cells)) for a in np.array(discs).reshape(-1, 3).T)
        piece = _piece_log_capacity(x, y, log_r, np.repeat(bounds, len(discs), axis=0))
        out: dict = {}
        for k in np.flatnonzero(piece > -np.inf).tolist():
            out.setdefault(cells[k // len(discs)], []).append(discs[k % len(discs)])
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_every_piece(self, seed, monkeypatch):
        # centers on band edges 1 - 2^-n and on sector edges, radii from
        # e^-2000 to nearly 1 - |x|, in a valid file: each disc drawn is kept
        # if it misses the origin and every disc kept before it.  Discs
        # whole in their home cell meet it alone, and the others are cut to
        # their candidate cells; the pairs must be those of every cell.  The
        # pairs do not depend on the pieces' values, so each discretised
        # piece solves a one-node kernel here instead of its 512 nodes
        monkeypatch.setattr(capacity, "_log_kernel", lambda pts, ell: np.zeros((1, 1)))
        rng = np.random.default_rng(seed)
        count = 300
        rho, theta = rng.uniform(0.3, 0.999, count), rng.uniform(0.0, 2.0 * math.pi, count)
        n = rng.integers(1, 8, count)
        on_band_edge, on_sector_edge = rng.random((2, count)) < 0.3
        rho = np.where(on_band_edge, 1.0 - 2.0 ** -n, rho)
        theta = np.where(on_sector_edge, 2.0 * math.pi * rng.integers(0, 2 ** (n + 4)) / 2.0 ** (n + 4), theta)
        log_r = np.log(1.0 - rho) - 10.0 ** rng.uniform(-2.0, 3.3, count)
        x, y, r = rho * np.cos(theta), rho * np.sin(theta), np.exp(log_r)
        keep: list = []
        for k in range(count):
            if r[k] < rho[k] and (np.hypot(x[k] - x[keep], y[k] - y[keep]) > r[k] + r[keep]).all():
                keep.append(k)
        cfg = Configuration(blocks=(DiscBlock(x[keep], y[keep], log_r[keep]),), n_max=8)
        assert validate_configuration(cfg).ok and len(keep) > 100
        assert _gathered(cfg) == self._every_piece(cfg)

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
    def test_home_cell_whole_meets_it_alone(self, n, k, radial, angular, offsets, signs, u, size, t):
        # centres on the band edges 1 - 2^-n and on sector edges, or within
        # 1e-15 to 1e-9 of them; radii from e^-2000 to 0.99 (1 - |x|), and
        # radii within rounding of the distance to the home cell's boundary.
        # A disc whole in the cell that holds its centre meets no other: of
        # the cells it reaches, only that one has a piece that is not empty
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
        _, (hn,), (hm,), _ = center_cells(np.array([x]), np.array([y]))
        if hn == 0:
            return
        home = whitney_cell(WhitneyIndex(int(hn), int(hm)))
        if size == "tangent":
            p = Point(x, y)
            gap = min(p.norm() - home.r_inner, home.r_outer - p.norm(), home.radial_edge_distance(p))
            assume(0.0 < gap < 0.99 * s)
            log_r = math.log(gap * (1.0 + (t - 0.5) * 1e-15))
        if _whole([x], [y], [log_r], home).all():
            reached = cells_intersecting_disc(Disc(Point(x, y), log_r))
            met = [idx for idx in reached if _piece([x], [y], [log_r], whitney_cell(idx))[0] > -np.inf]
            assert met == [home.index]
            cfg = Configuration(blocks=(DiscBlock(np.array([x]), np.array([y]), np.array([log_r])),), n_max=30)
            assert _gathered(cfg) == {(int(hn), int(hm)): [(x, y, log_r)]}


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
        cell_capacity_table(weights, constants)
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
