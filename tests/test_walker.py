import math
import os
import sys
import time

import numpy as np
import pytest

from champagne.generators import GeneratorParams, generate_subsquares, truncate
from champagne.geometry import (
    TWO_PI,
    Configuration,
    Disc,
    Point,
    SpatialIndex,
    distance_to_obstacles,
    dumps_config,
)
from champagne import cli, walker
from champagne.walker import (
    CENSORED,
    ESCAPED,
    HIT,
    OUTCOMES,
    EscapeEstimate,
    WalkParams,
    WalkerError,
    _run_chunk,
    annulus_escape_probability,
    concentric_obstacle_config,
    escape_vs_depth,
    estimate_escape,
    walk_uniforms,
)

EMPTY = Configuration()


def _first_jump(cfg, start, eps, n_walks=64, seed=0):
    """(kernel outcomes, expected outcomes) of walks stopped after one jump.

    The expected outcome classifies the point reached by a jump of radius
    min(1 - |p|, distance to the nearest disc) at the walk's first uniform,
    with that distance and the landing point's from a brute-force scan.
    """
    x, y, lr = cfg.disc_arrays()
    r = np.exp(lr)

    def nearest(qx, qy):
        if not len(x):
            return np.full(len(qx), np.inf)
        return np.min(np.hypot(qx[:, None] - x, qy[:, None] - y) - r, axis=1)

    params = WalkParams(eps_shell=eps, max_steps=1, start=start, seed=seed, n_walks=n_walks)
    outcome, steps = _run_chunk(params, SpatialIndex(cfg), 0, n_walks)
    assert np.all(steps == 1)
    radius = min(1.0 - start.norm(), float(nearest(np.array([start.x]), np.array([start.y]))[0]))
    theta = TWO_PI * walk_uniforms(seed, np.arange(n_walks), 0)
    qx, qy = start.x + radius * np.cos(theta), start.y + radius * np.sin(theta)
    gap, d = 1.0 - np.hypot(qx, qy), nearest(qx, qy)
    # the jump never leaves the domain: it stops on the nearer boundary
    assert np.all(gap >= -1e-12) and np.all(d >= -1e-12)
    assert not np.any((abs(gap - eps) < 1e-12) | (abs(d - eps) < 1e-12))
    return outcome, np.select([gap < eps, d < eps], [0, 1], 2)


class TestRandomness:
    def test_pure_function_of_seed_walk_step(self):
        ids = np.arange(100, dtype=np.uint64)
        a = walk_uniforms(7, ids, 3)
        b = walk_uniforms(7, ids, 3)
        np.testing.assert_array_equal(a, b)

    def test_range_and_rough_uniformity(self):
        ids = np.arange(50_000, dtype=np.uint64)
        u = walk_uniforms(1, ids, 0)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.var(u) - 1.0 / 12.0) < 0.01

    def test_chunk_invariance(self):
        ids = np.arange(1000, dtype=np.uint64)
        whole = walk_uniforms(9, ids, 5)
        parts = np.concatenate([walk_uniforms(9, ids[:300], 5), walk_uniforms(9, ids[300:], 5)])
        np.testing.assert_array_equal(whole, parts)

    def test_steps_decorrelated(self):
        ids = np.arange(20_000, dtype=np.uint64)
        u0 = walk_uniforms(2, ids, 0)
        u1 = walk_uniforms(2, ids, 1)
        corr = np.corrcoef(u0, u1)[0, 1]
        assert abs(corr) < 0.02


class TestWosStep:
    """One jump of the batch kernel: walks stopped after their first jump."""

    def test_empty_config_step_radius_is_boundary_gap(self):
        # from the origin the only boundary is the unit circle, one jump away
        outcome, _ = _first_jump(EMPTY, Point(0.0, 0.0), eps=1e-9)
        assert np.all(outcome == OUTCOMES.index(ESCAPED))

    def test_equidistant_point(self):
        cfg = Configuration.from_discs([Disc.from_radius(Point(0.5, 0.0), 0.1)])
        # point at (0.2, 0): distance to disc = 0.2, to boundary = 0.8
        d, k = distance_to_obstacles(Point(0.2, 0.0), SpatialIndex(cfg))
        assert (d, k) == (pytest.approx(0.2), 0)
        # a jump of 0.2 lands within 0.05 of the disc only near angle 0
        outcome, want = _first_jump(cfg, Point(0.2, 0.0), eps=0.05, n_walks=400)
        np.testing.assert_array_equal(outcome, want)
        assert 0 < np.count_nonzero(want == OUTCOMES.index(HIT)) < 400

    def test_step_radius_never_exceeds_either_distance(self):
        rng = np.random.default_rng(5)
        discs = [
            Disc.from_radius(
                Point(0.7 * math.cos(a), 0.7 * math.sin(a)), 0.01
            )
            for a in rng.uniform(0, 2 * math.pi, 25)
        ]
        cfg = Configuration.from_discs(discs)
        idx = SpatialIndex(cfg)
        checked = 0
        while checked < 150:
            p = Point(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if p.norm() >= 0.99:
                continue
            d, _ = distance_to_obstacles(p, idx)
            if d <= 1e-6:
                continue
            # a shell a fifth of the jump radius: where a jump lands decides its outcome
            eps = 0.2 * min(1.0 - p.norm(), d)
            outcome, want = _first_jump(cfg, p, eps=eps, seed=checked)
            np.testing.assert_array_equal(outcome, want)
            checked += 1


class TestRunWalk:
    """Per-walk records of the batch kernel."""

    def test_empty_config_escapes_fast(self):
        outcome, steps = _run_chunk(WalkParams(seed=0, n_walks=1), SpatialIndex(EMPTY), 0, 1)
        assert OUTCOMES[outcome[0]] == ESCAPED
        assert steps[0] <= 3

    def test_start_inside_shell_hits_at_step_zero(self):
        cfg = Configuration.from_discs([Disc.from_radius(Point(0.5, 0.0), 0.1)])
        idx = SpatialIndex(cfg)
        params = WalkParams(eps_shell=1e-3, start=Point(0.3995, 0.0), seed=0, n_walks=5)
        outcome, steps = _run_chunk(params, idx, 0, 5)
        assert [OUTCOMES[o] for o in outcome] == [HIT] * 5
        assert np.all(steps == 0)
        # the disc that absorbs them
        assert distance_to_obstacles(params.start, idx)[1] == 0

    def test_censoring(self):
        cfg = Configuration.from_discs([Disc.from_radius(Point(0.5, 0.0), 0.1)])
        idx = SpatialIndex(cfg)
        params = WalkParams(max_steps=1, seed=5, start=Point(-0.5, 0.0), n_walks=200)
        outcome, steps = _run_chunk(params, idx, 0, 200)
        assert np.all(steps == 1)
        # one jump of 0.5 from (-0.5, 0) stays far from the disc and comes
        # within eps of the unit circle only near (-1, 0)
        tags = [OUTCOMES[o] for o in outcome]
        assert HIT not in tags and tags.count(CENSORED) > tags.count(ESCAPED)

    def test_single_walk_matches_batch(self):
        cfg = concentric_obstacle_config(0.25)
        idx = SpatialIndex(cfg)
        params = WalkParams(eps_shell=1e-4, seed=21, n_walks=500, start=Point(0.5, 0.0))
        est = estimate_escape(params, cfg)
        singles = [_run_chunk(params, idx, w, w + 1) for w in range(500)]
        np.testing.assert_array_equal(est.walk_outcome, [o[0] for o, _ in singles])
        np.testing.assert_array_equal(est.walk_steps, [t[0] for _, t in singles])
        assert est.n_escaped == np.count_nonzero(est.walk_outcome == OUTCOMES.index(ESCAPED))
        assert est.n_hit == np.count_nonzero(est.walk_outcome == OUTCOMES.index(HIT))
        assert est.n_censored == np.count_nonzero(est.walk_outcome == OUTCOMES.index(CENSORED))
        assert est.mean_steps == est.walk_steps.sum() / 500


class TestEstimateEscape:
    def test_empty_config_certain_escape(self):
        est = estimate_escape(WalkParams(seed=1, n_walks=2000), EMPTY)
        assert est.p_escape == 1.0
        assert est.n_hit == 0 and est.n_censored == 0

    def test_conservation(self):
        cfg = concentric_obstacle_config(0.25)
        params = WalkParams(seed=2, n_walks=3000, start=Point(0.5, 0.0))
        est = estimate_escape(params, cfg)
        assert est.n_escaped + est.n_hit + est.n_censored == est.n_walks == 3000

    def test_integer_start_coordinate_is_a_float(self):
        cfg = concentric_obstacle_config(0.25)
        start = Point(0.5, 0)
        got = estimate_escape(WalkParams(seed=4, n_walks=500, start=start), cfg)
        want = estimate_escape(WalkParams(seed=4, n_walks=500, start=Point(0.5, 0.0)), cfg)
        np.testing.assert_array_equal(got.walk_outcome, want.walk_outcome)
        np.testing.assert_array_equal(got.walk_steps, want.walk_steps)
        assert (got.p_escape, got.mean_steps) == (want.p_escape, want.mean_steps)
        assert type(start.y) is float

    def test_annulus_oracle(self):
        cfg = concentric_obstacle_config(0.25)
        params = WalkParams(eps_shell=1e-4, seed=3, n_walks=40_000, start=Point(0.5, 0.0))
        est = estimate_escape(params, cfg)
        want = annulus_escape_probability(0.25, 0.5)
        assert abs(est.p_escape - want) < max(3 * est.ci95_halfwidth, 0.01)

    def test_deterministic_across_chunking_and_threads(self):
        cfg = concentric_obstacle_config(0.3)
        base = WalkParams(seed=13, n_walks=4000, start=Point(0.6, 0.0))
        ref = estimate_escape(base, cfg)
        for chunk in (500, 1000, 4000, 333):
            alt = estimate_escape(
                WalkParams(seed=13, n_walks=4000, start=Point(0.6, 0.0), chunk_size=chunk),
                cfg,
            )
            assert alt == ref
            np.testing.assert_array_equal(alt.walk_outcome, ref.walk_outcome)
            np.testing.assert_array_equal(alt.walk_steps, ref.walk_steps)

    def test_superset_never_increases_escape(self):
        # identical substreams: a walk in the superset follows the same
        # trajectory until an added disc absorbs it first
        base = generate_subsquares(
            GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=8)
        )
        subset = truncate(base, n_max=7)
        params = WalkParams(eps_shell=1e-6, seed=8, n_walks=5000)
        p_sub = estimate_escape(params, subset).p_escape
        p_sup = estimate_escape(params, base).p_escape
        assert p_sup <= p_sub

    def test_start_inside_disc_rejected(self):
        cfg = Configuration.from_discs([Disc.from_radius(Point(0.5, 0.0), 0.1)])
        with pytest.raises(WalkerError):
            estimate_escape(WalkParams(seed=0, start=Point(0.5, 0.0), n_walks=10), cfg)

    def test_censoring_flagged_unreliable(self):
        cfg = concentric_obstacle_config(0.25)
        params = WalkParams(seed=4, n_walks=400, max_steps=2, start=Point(0.5, 0.0))
        est = estimate_escape(params, cfg)
        assert est.n_censored > 0
        assert est.unreliable

    @pytest.mark.parametrize("r0", [0.1, 0.25, 0.5])
    def test_annulus_family_unbiasedness(self, r0):
        # tolerance: max(3 CI, bias bound C*eps*|log eps|) with C = 5
        s = (1.0 + r0) / 2.0
        eps = 1e-4
        cfg = concentric_obstacle_config(r0)
        params = WalkParams(eps_shell=eps, seed=31, n_walks=30_000, start=Point(s, 0.0))
        est = estimate_escape(params, cfg)
        want = annulus_escape_probability(r0, s)
        tol = max(3.0 * est.ci95_halfwidth, 5.0 * eps * abs(math.log(eps)))
        assert abs(est.p_escape - want) <= tol

    def test_shell_width_convergence_on_annulus(self):
        cfg = concentric_obstacle_config(0.25)
        values = []
        for eps in (0.04, 0.02, 0.01, 0.005):
            params = WalkParams(eps_shell=eps, seed=3, n_walks=50_000, start=Point(0.5, 0.0))
            values.append(estimate_escape(params, cfg).p_escape)
        deltas = [abs(a - b) for a, b in zip(values, values[1:])]
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]


class TestEscapeVsDepth:
    def test_single_depth_matches_estimate(self):
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=1, n_max=5)
        )
        params = WalkParams(eps_shell=1e-6, seed=6, n_walks=2000)
        rows = escape_vs_depth(cfg, [4], params)
        direct = estimate_escape(params, truncate(cfg, 4))
        assert rows[0].estimate == direct

    def test_depth_trend_decreasing(self):
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=10)
        )
        params = WalkParams(eps_shell=1e-8, seed=6, n_walks=20_000)
        rows = escape_vs_depth(cfg, [6, 8, 10], params)
        ps = [r.estimate.p_escape for r in rows]
        assert ps[0] > ps[1] > ps[2]


class TestAnnulusHelpers:
    def test_closed_form_values(self):
        assert annulus_escape_probability(0.25, 0.5) == pytest.approx(0.5)
        assert annulus_escape_probability(0.1, 0.55) == pytest.approx(
            1.0 - math.log(1 / 0.55) / math.log(10.0)
        )

    def test_invalid_parameters(self):
        with pytest.raises(WalkerError):
            annulus_escape_probability(0.5, 0.5)
        with pytest.raises(WalkerError):
            concentric_obstacle_config(1.5)

    def test_params_validation(self):
        with pytest.raises(WalkerError):
            WalkParams(n_walks=0)
        with pytest.raises(WalkerError):
            WalkParams(eps_shell=0.0)
        with pytest.raises(WalkerError):
            WalkParams(start=Point(1.5, 0.0))
        with pytest.raises(WalkerError):
            WalkParams(processes=0)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 1.0, 2.0, -1e-4])
    def test_eps_shell_outside_unit_interval_rejected(self, eps):
        # eps >= 1 absorbs every start point at the unit circle before its
        # first jump: p_escape = 1 would answer a different question
        with pytest.raises(WalkerError, match="eps_shell"):
            WalkParams(eps_shell=eps)


# ---------------------------------------------------------------------------
# the coupled depth pass against one walk per depth

from hypothesis import given, settings, strategies as st  # noqa: E402

from champagne.geometry import RingRows  # noqa: E402

_FAMILY = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=4, n_max=7))


def _interleaved() -> Configuration:
    """Sparse rings of generations 3..8, each at the outer edge of its band
    and 6 and 7 nearly on one circle: near them the nearest disc changes
    generation often, so particles of five or six depth columns split with
    distances between their ends that differ from both."""
    rows = [(3, 0.0626, 24), (4, 0.0313, 40), (5, 0.0157, 56), (6, 0.0079, 72), (7, 0.0078, 88), (8, 0.0039, 104)]
    n, s, count = zip(*rows)
    return Configuration(rings=RingRows(n, 1.0 - np.array(s), [math.log(2e-4)] * len(n), count), n_max=8)


def _storage(kind: str) -> Configuration:
    """The n = 4..7 family as plain rings, rings with a dropped prefix,
    explicit discs, or generations 5 and 7 explicit ahead of rings 4 and 6;
    or the interleaved rings."""
    if kind == "interleaved":
        return _interleaved()
    if kind == "plain":
        return _FAMILY
    if kind == "prefix":
        return truncate(_FAMILY, drop_first=100)
    if kind == "explicit":
        return _FAMILY.materialized()
    odd = _FAMILY.rings.n % 2 == 1
    explicit = Configuration(rings=_FAMILY.rings.take(odd)).materialized().discs
    return Configuration(explicit, _FAMILY.rings.take(~odd), n_max=_FAMILY.n_max)


STORAGE = ("plain", "prefix", "explicit", "mixed", "interleaved")


def _assert_rows_match_per_depth_walks(cfg, depths, params):
    rows = escape_vs_depth(cfg, depths, params)
    assert [r.n_max for r in rows] == list(depths)
    for row, d in zip(rows, depths):
        want = estimate_escape(params, truncate(cfg, n_max=d))
        np.testing.assert_array_equal(row.estimate.walk_outcome, want.walk_outcome)
        np.testing.assert_array_equal(row.estimate.walk_steps, want.walk_steps)
        assert row.estimate == want
    return rows


class TestCoupledDepths:
    """Every row of the one-pass sweep equals a separate walk on the
    configuration truncated at its depth, walk by walk."""

    @pytest.mark.parametrize("kind", STORAGE)
    @pytest.mark.parametrize(
        "depths",
        [(4, 5, 6, 7), (7, 5, 4, 6), (6, 4, 6, 9, 3), (8, 3, 4, 5, 6, 7), (5,), (3, 9), (2,)],
    )
    def test_rows_equal_walks_per_depth(self, kind, depths):
        params = WalkParams(eps_shell=1e-8, seed=11, n_walks=300, chunk_size=333)
        rows = _assert_rows_match_per_depth_walks(_storage(kind), depths, params)
        if {4, 7} <= set(depths):
            # the walks do split: the depths' records differ
            outcomes = {r.estimate.walk_outcome.tobytes() for r in rows}
            assert len(outcomes) > 1

    @pytest.mark.parametrize("kind", ["mixed", "interleaved"])
    @pytest.mark.parametrize("chunk, n_walks", [(1, 40), (333, 700), (4000, 700)])
    def test_chunk_sizes(self, kind, chunk, n_walks):
        params = WalkParams(eps_shell=1e-6, seed=5, n_walks=n_walks, chunk_size=chunk)
        _assert_rows_match_per_depth_walks(_storage(kind), (4, 5, 6, 7, 8), params)

    @pytest.mark.parametrize("kind", STORAGE)
    def test_censoring(self, kind):
        params = WalkParams(eps_shell=1e-8, seed=2, n_walks=400, max_steps=12, chunk_size=64)
        rows = _assert_rows_match_per_depth_walks(_storage(kind), (4, 5, 6, 7), params)
        assert all(0 < r.estimate.n_censored < 400 for r in rows)

    def test_off_origin_start(self):
        params = WalkParams(eps_shell=1e-8, seed=9, n_walks=300, start=Point(0.3, -0.6))
        _assert_rows_match_per_depth_walks(_storage("prefix"), (7, 4, 5), params)

    def test_start_in_a_disc_below_every_depth_is_allowed(self):
        rows = _FAMILY.rings
        i = int(np.flatnonzero(rows.n == 7)[0])
        th = 3.5 * rows.step[i]
        deep = Point(rows.rho[i] * math.cos(th), rows.rho[i] * math.sin(th))
        params = WalkParams(eps_shell=1e-8, seed=1, n_walks=50, start=deep)
        _assert_rows_match_per_depth_walks(_FAMILY, (4, 6), params)
        with pytest.raises(WalkerError):
            escape_vs_depth(_FAMILY, (4, 7), params)
        with pytest.raises(WalkerError):
            escape_vs_depth(_FAMILY, (9,), params)

    def test_no_depths(self):
        assert escape_vs_depth(_FAMILY, [], WalkParams(n_walks=10)) == []

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(STORAGE),
        depths=st.lists(st.integers(2, 9), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        n_walks=st.integers(1, 80),
        chunk=st.sampled_from([1, 2, 7, 64, 4000]),
        max_steps=st.sampled_from([4, 1000]),
        eps=st.sampled_from([1e-3, 1e-8]),
    )
    def test_matches_per_depth_walks(self, kind, depths, seed, n_walks, chunk, max_steps, eps):
        params = WalkParams(
            eps_shell=eps, seed=seed, n_walks=n_walks, chunk_size=chunk, max_steps=max_steps
        )
        _assert_rows_match_per_depth_walks(_storage(kind), depths, params)


class TestSteadyPool:
    """The kernel tops its pool up at every step: while walks remain to be
    admitted, each main query carries at least a full pool, and admission
    never takes the pool above it."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, WalkParams().chunk_size])
    @pytest.mark.parametrize("depths", [None, (4, 5, 6, 7)])
    def test_every_query_carries_a_full_pool(self, monkeypatch, chunk, depths):
        room = chunk if depths is None else max(1, chunk // 2)
        n_walks = 3 * room + 5 if chunk < 64 else room + 2000
        events = []
        query, admit = SpatialIndex.distance_many, walker._admit

        def recording_query(self, px, *args, **kwargs):
            # the kernel's main query, not a split query or the start check
            if sys._getframe(1).f_code.co_name == "_run_chunk":
                events.append(("query", len(px)))
            return query(self, px, *args, **kwargs)

        def recording_admit(live, first, k, start, cols):
            new = admit(live, first, k, start, cols)
            events.append(("admit", first + k, len(live[0]), len(new[0])))
            return new

        monkeypatch.setattr(SpatialIndex, "distance_many", recording_query)
        monkeypatch.setattr(walker, "_admit", recording_admit)
        params = WalkParams(eps_shell=1e-3, seed=3, n_walks=n_walks, chunk_size=chunk)
        if depths is None:
            estimate_escape(params, _FAMILY)
        else:
            escape_vs_depth(_FAMILY, depths, params)
        admitted, queries = 0, 0
        for event in events:
            if event[0] == "admit":
                _, admitted, before, after = event
                assert before < room and after <= room
            elif admitted < n_walks:
                assert event[1] >= room
                queries += 1
        assert admitted == n_walks and queries > 1


class TestProcesses:
    """Walk ranges split over forked workers give the records of one
    process bit for bit, and no worker outlives the call."""

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _fail_in_workers(monkeypatch):
        parent, run_chunk = os.getpid(), walker._run_chunk

        def failing(params, idx, lo, hi, depths=None):
            if os.getpid() != parent:
                raise ZeroDivisionError
            return run_chunk(params, idx, lo, hi, depths)

        monkeypatch.setattr(walker, "_run_chunk", failing)

    @staticmethod
    def _cli_pools_of_500(monkeypatch):
        walk_params = cli._walk_params
        monkeypatch.setattr(
            cli, "_walk_params", lambda args: WalkParams(**{**vars(walk_params(args)), "chunk_size": 500})
        )

    @pytest.mark.parametrize("depths", [None, (4, 5, 6, 7)])
    def test_records_equal_for_every_process_count(self, monkeypatch, depths):
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        runs = {}
        for k in (1, 2, 3):
            # 3,000 walks in pools of 500, or 250 in the coupled pass
            params = WalkParams(eps_shell=1e-8, seed=7, n_walks=3000, chunk_size=500, processes=k)
            forks.clear()
            if depths is None:
                runs[k] = [estimate_escape(params, _FAMILY)]
            else:
                runs[k] = [r.estimate for r in escape_vs_depth(_FAMILY, depths, params)]
            assert len(forks) == k - 1
        for k in (2, 3):
            for one, split in zip(runs[1], runs[k]):
                assert split == one
                for a, b in ((split.walk_outcome, one.walk_outcome), (split.walk_steps, one.walk_steps)):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        self._assert_no_child_left()

    def test_trace_rows_equal_for_every_process_count(self, monkeypatch, tmp_path):
        self._cli_pools_of_500(monkeypatch)
        files = {}
        for k in (1, 2, 3):
            monkeypatch.setenv("CHAMPAGNE_THREADS", str(k))
            out = tmp_path / str(k)
            argv = ["simulate", "--annulus", "0.25", "--start-x", "0.5", "--n-walks", "3000",
                    "--seed", "3", "--trace", "3000", "--out-dir", str(out)]
            assert cli.main(argv) == 0
            files[k] = [(out / f).read_bytes() for f in ("simulate.json", "simulate.csv", "trace.csv")]
        assert files[1] == files[2] == files[3]
        self._assert_no_child_left()

    def test_failing_worker_raises_and_is_reaped(self, monkeypatch):
        self._fail_in_workers(monkeypatch)
        params = WalkParams(eps_shell=1e-8, seed=1, n_walks=3000, chunk_size=500, processes=3)
        with pytest.raises(WalkerError, match=r"walks \[1000, 2000\) exited with status 1"):
            estimate_escape(params, _FAMILY)
        self._assert_no_child_left()

    def test_failing_worker_exits_one_without_traceback(self, monkeypatch, capfd, tmp_path):
        self._fail_in_workers(monkeypatch)
        self._cli_pools_of_500(monkeypatch)
        monkeypatch.setenv("CHAMPAGNE_THREADS", "2")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(dumps_config(_FAMILY))
        argv = ["sweep", str(cfg), "--depths", "4,6", "--n-walks", "3000", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capfd.readouterr().err
        assert err == "error: the worker for walks [1500, 3000) exited with status 1\n"
        assert not (tmp_path / "sweep.json").exists()
        self._assert_no_child_left()

    def test_failing_caller_kills_its_workers(self, monkeypatch):
        parent, run_chunk = os.getpid(), walker._run_chunk

        def stalled_workers(params, idx, lo, hi, depths=None):
            if os.getpid() != parent:
                time.sleep(60)
                return run_chunk(params, idx, lo, hi, depths)
            raise KeyboardInterrupt

        monkeypatch.setattr(walker, "_run_chunk", stalled_workers)
        params = WalkParams(seed=1, n_walks=3000, chunk_size=500, processes=3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            estimate_escape(params, _FAMILY)
        assert time.monotonic() - start < 30.0
        self._assert_no_child_left()

    def test_default_and_single_pool_runs_never_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert estimate_escape(WalkParams(), EMPTY).p_escape == 1.0
        escape_vs_depth(_FAMILY, [4, 6], WalkParams(eps_shell=1e-3))
        # a run of at most one pool stays in one process whatever the cap
        estimate_escape(WalkParams(eps_shell=1e-3, n_walks=500, chunk_size=500, processes=4), _FAMILY)
        escape_vs_depth(
            _FAMILY, [4, 6], WalkParams(eps_shell=1e-3, n_walks=250, chunk_size=500, processes=4)
        )
