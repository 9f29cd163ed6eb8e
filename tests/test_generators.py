import math

import numpy as np
import pytest

from champagne.generators import (
    AVOIDABLE_BUDGET,
    GeneratorError,
    GeneratorParams,
    MSpec,
    PhiSpec,
    closed_form_budget_bound,
    generate_avoidable_ring,
    generate_phi_grid,
    generate_subsquares,
    geometric_log_radius_schedule,
    shrink,
    subdivision_count,
    truncate,
)
from champagne.geometry import (
    Configuration,
    dumps_config,
    sector_count,
    validate_configuration,
)


def _rows(cfg):
    """The ring rows of ``cfg`` as one-row values."""
    return [cfg.rings.row(i) for i in range(len(cfg.rings))]


class TestPhiSpec:
    def test_exp_power_log_values(self):
        phi = PhiSpec(form="exp_power", c0=0.05, beta=1.5)
        t = 0.9
        assert phi.log_phi(t) == pytest.approx(-1.0 / (0.05 * 0.1**1.5))

    def test_exp_power_validation(self):
        with pytest.raises(GeneratorError):
            PhiSpec(form="exp_power", c0=1.5)
        with pytest.raises(GeneratorError):
            PhiSpec(form="exp_power", beta=0.0)

    def test_table_form_decreasing(self):
        phi = PhiSpec(
            form="table",
            knots_t=(0.0, 0.5, 0.9, 0.99),
            knots_log_phi=(-1.0, -2.0, -5.0, -20.0),
        )
        ts = np.linspace(0.0, 0.99, 50)
        vals = phi.log_phi(ts)
        assert np.all(np.diff(vals) <= 0)

    def test_table_rejects_increasing(self):
        with pytest.raises(GeneratorError):
            PhiSpec(form="table", knots_t=(0.0, 1.0), knots_log_phi=(-2.0, -1.0))


class TestMSpec:
    def test_power_doubling_exact(self):
        m = MSpec(beta=1.5)
        assert m.doubling_c == pytest.approx(2.0**1.5)
        assert m.check_doubling() < 1e-9

    def test_values_at_least_one(self):
        m = MSpec(beta=0.7)
        assert np.all(m.value(np.linspace(0, 0.999, 40)) >= 1.0)


class TestSubsquares:
    def test_generation_one_count_beta_15(self):
        assert subdivision_count(1, 1.5) == 1
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.5, n_min=1, n_max=1))
        assert cfg.disc_count == 32

    def test_counts_match_subdivision_rule(self):
        params = GeneratorParams.exp_power(beta=1.5, n_min=1, n_max=5)
        cfg = generate_subsquares(params)
        expected = sum(
            sector_count(n) * subdivision_count(n, 1.5) ** 2 for n in range(1, 6)
        )
        assert cfg.disc_count == expected

    def test_rows_stay_inside_their_band(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.5, n_min=1, n_max=6))
        assert not len(cfg.discs)
        for b in _rows(cfg):
            s = b.boundary_gap
            assert 2.0 ** (-b.n - 1) < s < 2.0 ** (-b.n)

    def test_deterministic_serialization(self):
        params = GeneratorParams.exp_power(beta=1.5, n_min=1, n_max=4)
        a = dumps_config(generate_subsquares(params))
        b = dumps_config(generate_subsquares(params))
        assert a == b

    def test_validates(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(beta=1.5, n_min=1, n_max=6))
        assert validate_configuration(cfg).ok

    def test_certification_requires_beta_range(self):
        with pytest.raises(GeneratorError):
            GeneratorParams.exp_power(beta=0.9, alpha=2.0, certify_budget=True)
        GeneratorParams.exp_power(beta=1.5, alpha=2.0, certify_budget=True)

    def test_phi_and_params_must_agree_on_beta_and_c0(self):
        # subdivision would read beta=1.5 and the radii phi's beta=0.1
        with pytest.raises(GeneratorError, match="beta, c0"):
            GeneratorParams(phi=PhiSpec(beta=0.1, c0=0.3), beta=1.5, c0=0.05)
        with pytest.raises(GeneratorError):
            GeneratorParams(phi=PhiSpec(beta=1.5, c0=0.3), beta=1.5, c0=0.05)
        GeneratorParams()
        GeneratorParams(phi=PhiSpec(beta=0.1, c0=0.3), beta=0.1, c0=0.3)
        table = PhiSpec(form="table", knots_t=(0.0, 0.9), knots_log_phi=(-1.0, -50.0))
        GeneratorParams(phi=table, beta=1.5, c0=0.05)

    def test_budget_bound_holds(self):
        # every disc has log(1/r) >= (1/c0)(1-|x|)^{-beta}, so the
        # generation-counted geometric bound dominates the true sum
        params = GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=6)
        cfg = generate_subsquares(params)
        total = 0.0
        for b in _rows(cfg):
            total += len(b) * (1.0 / (-b.log_r)) ** 2
        bound = closed_form_budget_bound(2.0, 1.5, 0.05, 1, 6)
        assert total <= bound

    def test_drop_first_matches_canonical_enumeration(self):
        beta, n = 3.0, 2
        p = subdivision_count(n, beta)
        assert p == 8
        drop = 137
        params = GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=n, n_max=n, drop_first=drop)
        cfg = generate_subsquares(params)
        cells = sector_count(n)
        assert cfg.disc_count == cells * p * p - drop

        # enumerate (m, row, col) canonical order by hand
        full = generate_subsquares(
            GeneratorParams.exp_power(beta=beta, c0=0.05, n_min=n, n_max=n)
        )
        rows = dict(enumerate(_rows(full)))
        kept = set()
        rank = 0
        for m in range(cells):
            for i in range(p):
                for j in range(p):
                    if rank >= drop:
                        theta = rows[i].angle_of(m * p + j)
                        kept.add((i, round(theta, 12)))
                    rank += 1
        got = set()
        for b in _rows(cfg):
            i = [k for k, rb in rows.items() if abs(rb.rho - b.rho) < 1e-15][0]
            for a in range(b.a_start, b.count):
                got.add((i, round(b.angle_of(a), 12)))
        assert got == kept


class TestPhiGrid:
    def test_single_center_per_cell(self):
        phi = PhiSpec(form="exp_power", c0=0.3, beta=0.5)
        cfg = generate_phi_grid(phi, per_cell=1, n_min=1, n_max=4)
        assert cfg.disc_count == sum(sector_count(n) for n in range(1, 5))

    def test_radii_nonincreasing_in_center_radius(self):
        phi = PhiSpec(
            form="table",
            knots_t=(0.0, 0.9, 0.999),
            knots_log_phi=(-3.0, -6.0, -12.0),
        )
        cfg = generate_phi_grid(phi, per_cell=2, n_min=1, n_max=5)
        rows = sorted(_rows(cfg), key=lambda b: b.rho)
        log_r = [b.log_r for b in rows]
        assert all(a >= b for a, b in zip(log_r, log_r[1:]))

    def test_rejects_bad_per_cell(self):
        with pytest.raises(GeneratorError):
            generate_phi_grid(PhiSpec(), per_cell=0)


class TestAvoidableRing:
    def test_default_schedule_budget(self):
        sched = geometric_log_radius_schedule(8)
        budget = sum(1.0 / (-v) for v in sched)
        assert budget < 1.0 / (4.0 * math.log(4.0)) <= AVOIDABLE_BUDGET

    def test_generated_configuration(self):
        cfg = generate_avoidable_ring()
        assert validate_configuration(cfg).ok
        x, y, log_r = cfg.disc_arrays()
        rho = np.hypot(x, y)
        with np.errstate(under="ignore"):
            assert np.all(rho - np.exp(log_r) > 0.5)
        assert float(np.sum(1.0 / (-log_r))) <= AVOIDABLE_BUDGET

    def test_empty_schedule_valid(self):
        cfg = generate_avoidable_ring(log_radius_schedule=[])
        assert cfg.disc_count == 0
        assert validate_configuration(cfg).ok

    def test_budget_violation_rejected(self):
        with pytest.raises(GeneratorError):
            generate_avoidable_ring(log_radius_schedule=[-2.0, -2.0], target=0.3)

    def test_target_above_threshold_rejected(self):
        with pytest.raises(GeneratorError):
            generate_avoidable_ring(target=0.5)

    def test_annulus_constraint_rejected(self):
        # e^-8 ~ 3.4e-4, so a ring at 0.5001 dips into the central disc
        with pytest.raises(Exception):
            generate_avoidable_ring(
                log_radius_schedule=[-8.0], ring_radius=0.5001, target=AVOIDABLE_BUDGET
            )


class TestTransforms:
    def test_truncate_identity(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=4))
        same = truncate(cfg, n_max=cfg.n_max, drop_first=0)
        assert same.disc_count == cfg.disc_count

    def test_truncate_strictly_smaller(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=5))
        cut = truncate(cfg, n_max=3)
        assert cut.disc_count < cfg.disc_count
        assert all(b.n <= 3 for b in _rows(cut))

    def test_truncate_budget_monotone(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=5))
        cut = truncate(cfg, n_max=3)
        full_sum = sum(len(b) / (-b.log_r) for b in _rows(cfg))
        cut_sum = sum(len(b) / (-b.log_r) for b in _rows(cut))
        assert cut_sum <= full_sum

    def test_truncate_drop_on_explicit(self):
        cfg = generate_avoidable_ring(k_discs=6)
        dropped = truncate(cfg, drop_first=2)
        assert dropped.disc_count == 4

    def test_shrink_identity(self):
        cfg = generate_avoidable_ring(k_discs=4)
        assert shrink(cfg, delta=1.0).blocks[0].log_r == pytest.approx(
            cfg.blocks[0].log_r
        )

    def test_shrink_scales_log_radius(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=3))
        small = shrink(cfg, delta=0.5)
        for b0, b1 in zip(_rows(cfg), _rows(small), strict=True):
            assert b1.log_r == pytest.approx(b0.log_r + math.log(0.5))

    def test_shrink_huge_log_delta(self):
        cfg = generate_subsquares(GeneratorParams.exp_power(n_min=1, n_max=3))
        tiny = shrink(cfg, log_delta=-1e12)
        assert validate_configuration(tiny).ok

    def test_shrink_rejects_bad_delta(self):
        cfg = generate_avoidable_ring(k_discs=2)
        with pytest.raises(GeneratorError):
            shrink(cfg, delta=1.5)
        with pytest.raises(GeneratorError):
            shrink(cfg)


class TestStructuredScale:
    def test_deep_configuration_is_cheap(self):
        # generation 12 alone holds ~1.7e10 discs; the ring representation
        # stores one row per radial row, all in one record
        params = GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=12)
        cfg = generate_subsquares(params)
        assert cfg.disc_count > 10**10
        assert cfg.blocks == (cfg.rings,)
        assert len(cfg.rings) == sum(subdivision_count(n, 1.5) for n in range(1, 13))

    def test_materialized_matches_rings_shallow(self):
        params = GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=3)
        cfg = generate_subsquares(params)
        flat = cfg.materialized()
        assert flat.disc_count == cfg.disc_count
        gens = flat.blocks[0].generations
        ring_gens = np.repeat(cfg.rings.n, cfg.rings.sizes)
        assert sorted(gens.tolist()) == sorted(ring_gens.tolist())
