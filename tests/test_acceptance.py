"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Heavy artifacts (the depth-12 grid configuration, its per-cell
capacity weights, the Monte Carlo sweeps) are built once per session.

Criterion 3's second clause (the small-disc capacity ratio within 5 percent
of its limit already at r = 1e-6) is numerically false for the stated
closed form: the exact ratio at 1e-6 is 1.8410, 7.95 percent below 2, and
enters the 5 percent band only near r = 4e-11.  The test asserts the
criterion as written and is marked as an expected failure rather than
weakened; the companion assertion checks the true asymptotics.

Criterion 12 starts real ``python -m champagne.cli`` processes, and they
import champagne from the same directory as the test process.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import champagne
from champagne.capacity import (
    CapacityConstants,
    CapacityError,
    ClippedDiscShape,
    DiscShape,
    SegmentShape,
    UnionShape,
    c2_disc,
    cell_capacity_series,
    cell_capacity_weights,
    log_capacity,
    quasiadditivity_ratio,
)
from champagne.criteria import (
    BoundaryPoint,
    affine_growth,
    avoidability_certificate,
    budget_sums,
    integral_test,
    log_weighted_series,
    power_log_bound_constant,
    separation,
    shrink_for_separation,
)
from champagne.generators import (
    AVOIDABLE_BUDGET,
    GeneratorParams,
    MSpec,
    PhiSpec,
    closed_form_budget_bound,
    generate_avoidable_ring,
    generate_subsquares,
    truncate,
)
from champagne.geometry import Point, WhitneyCell, WhitneyIndex, whitney_cell
from champagne.walker import (
    WalkParams,
    annulus_escape_probability,
    concentric_obstacle_config,
    escape_vs_depth,
    estimate_escape,
)

Y_GRID = 64
DEPTHS = (6, 8, 10, 12)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def flagship():
    """The depth-12 subsquare configuration (beta=1.5, c0=0.05)."""
    return generate_subsquares(
        GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=12)
    )


@pytest.fixture(scope="session")
def flagship_weights(flagship):
    return cell_capacity_weights(flagship)


@pytest.fixture(scope="session")
def walker_family():
    """Subsquare-family configuration tuned for direct simulation.

    beta=0.1 keeps one disc per cell and c0=0.3 keeps the radii around
    exp(-4)..exp(-9) times the cell size, large enough that a 1e-8 shell
    resolves the true first hit; the generations below 6 are omitted (the
    construction allows dropping finitely many discs) so that the depth
    sweep starts from a configuration the walks can actually traverse.
    """
    return generate_subsquares(
        GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=12)
    )


def test_criterion_01_annulus_oracle():
    cases = [(0.25, 0.5), (0.1, 0.55), (0.5, 0.75)]
    t0 = time.time()
    worst = 0.0
    for r0, s in cases:
        config = concentric_obstacle_config(r0)
        params = WalkParams(
            eps_shell=1e-4, seed=101, n_walks=100_000, start=Point(s, 0.0)
        )
        est = estimate_escape(params, config)
        want = annulus_escape_probability(r0, s)
        tol = max(3.0 * est.ci95_halfwidth, 0.01)
        worst = max(worst, abs(est.p_escape - want) - tol)
        assert abs(est.p_escape - want) <= tol, (r0, s, est.p_escape, want)
    elapsed = time.time() - t0
    report(
        1,
        worst <= 0.0 and elapsed < 30.0,
        f"annulus oracle matched on 3 cases in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_capacity_exactness_and_scaling():
    for r in (1e-6, 1e-3, 1e-1):
        est = log_capacity(DiscShape(Point(0.2, 0.3), math.log(r)))
        assert est.method == "exact_disc"
        assert abs(est.value - r) <= 4.0 * abs(r) * np.finfo(float).eps

    seg = log_capacity(SegmentShape(Point(0.0, 0.0), Point(1.0, 0.0)), 512)
    seg_err = abs(seg.value - 0.25) / 0.25
    assert seg_err < 0.05

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
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
            scaled_cell = WhitneyCell(
                index=None,
                r_inner=alpha * cell.r_inner,
                r_outer=alpha * cell.r_outer,
                theta_lo=cell.theta_lo,
                theta_hi=cell.theta_hi,
            )
            scaled = log_capacity(
                UnionShape(
                    tuple(
                        ClippedDiscShape(
                            DiscShape(
                                Point(alpha * p.disc.center.x, alpha * p.disc.center.y),
                                p.disc.log_r + math.log(alpha),
                            ),
                            scaled_cell,
                        )
                        for p in parts
                    )
                ),
                256,
            )
            ratio = math.exp(scaled.log_value - base.log_value)
            worst = max(worst, abs(ratio - alpha) / alpha)
    assert worst < 0.01
    report(
        2,
        True,
        f"disc exact, segment err {seg_err:.4f} (< 0.05), "
        f"scaling off by {worst:.2e} (< 0.01) on 20 unions",
    )


def test_criterion_03a_c2_bracket():
    grid = np.logspace(-8, math.log10(0.5), 120)
    for r in grid:
        est = c2_disc(float(r))
        assert est.lower <= est.value <= est.upper, r
    report(
        3, True, "closed-form small-disc value inside the bracket-constant-4 band on [1e-8, 1/2]"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated 5 percent band at r=1e-6 is arithmetically unreachable: "
        "value*log(1/r) = log(1/r)/(log(2/r)/2 + 1/4) = 1.8410 there "
        "(7.95 percent below the limit 2); the band is first entered near "
        "r = 4e-11"
    ),
)
def test_criterion_03b_c2_ratio_at_1e6():
    ratio = c2_disc(1e-6).value * math.log(1e6)
    ok = abs(ratio - 2.0) / 2.0 <= 0.05
    report(3, ok, f"value*log(1/r) at r=1e-6 is {ratio:.6f}, within 5% of 2")


def test_criterion_03c_c2_ratio_limit():
    # the asymptotics themselves hold: the ratio is monotone increasing in
    # log(1/r) and enters the 5 percent band at small enough r
    ratios = [c2_disc(float(r)).value * math.log(1.0 / r) for r in (1e-6, 1e-9, 1e-12, 1e-15)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert abs(c2_disc(1e-12).value * math.log(1e12) - 2.0) / 2.0 < 0.05
    report(3, True, f"ratio increases {ratios[0]:.4f} -> {ratios[-1]:.4f} toward 2")


def test_criterion_04_integral_identity():
    m = MSpec(beta=1.5)
    phi = PhiSpec(c0=0.05, beta=1.5)
    worst = 0.0
    for upper in (0.9, 0.99, 0.999):
        got = integral_test(m, phi, upper)
        want = 0.05 * math.log(1.0 / (1.0 - upper))
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-6
    report(4, True, f"integral equals c0*log(1/(1-T)) to {worst:.2e} (<= 1e-6 rel)")


def test_criterion_05_budget_bound(flagship):
    sums = budget_sums(flagship, alpha=2.0)
    bound = closed_form_budget_bound(2.0, 1.5, 0.05, 1, 12)
    assert sums.sum_log_inv_alpha <= bound
    c2 = power_log_bound_constant(2.0)
    grid = np.logspace(-12, -1e-9, 400)
    lhs = grid**2.0
    rhs = c2 / np.log(1.0 / grid) ** 2
    assert np.all(lhs <= rhs * (1.0 + 1e-12))
    report(
        5,
        True,
        f"sum (log 1/r)^-2 = {sums.sum_log_inv_alpha:.4e} <= "
        f"16 c0^2 sum 2^(-n/2) = {bound:.4e}; r^a <= c(a) log^-2 on the grid",
    )


def test_criterion_06_divergence_signature(flagship):
    slopes, resids = [], []
    for y in BoundaryPoint.grid(Y_GRID):
        rep = log_weighted_series(flagship, y)
        slope, resid = affine_growth(rep, 6, 12)
        slopes.append(slope)
        resids.append(resid)
    assert min(slopes) > 0.0
    assert max(resids) < 0.20
    report(
        6,
        True,
        f"cumulative growth affine over n=6..12 at all {Y_GRID} boundary points: "
        f"slopes in [{min(slopes):.4f}, {max(slopes):.4f}], "
        f"max residual fraction {max(resids):.3f} (< 0.20)",
    )


def test_criterion_07_separation_stability():
    values = []
    for n_max in range(6, 13):
        cfg = generate_subsquares(
            GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=n_max)
        )
        values.append(separation(cfg, kind="radius_log").value)
    spread = (max(values) - min(values)) / max(values)
    assert min(values) > 0.0
    assert spread < 0.05
    report(
        7,
        True,
        f"radius-log separation in [{min(values):.4f}, {max(values):.4f}] over "
        f"n_max=6..12, spread {100 * spread:.2f}% (< 5%)",
    )


def test_criterion_08_cell_capacity_comparability(flagship, flagship_weights):
    ratios = []
    for y in BoundaryPoint.grid(Y_GRID):
        essen = cell_capacity_series(flagship, y, weights=flagship_weights)
        direct = log_weighted_series(flagship, y)
        for depth in DEPTHS:
            e = essen.cumulative_at(depth)
            d = direct.cumulative_at(depth)
            ratios.append(e / d)
    c_run = max(max(ratios), 1.0 / min(ratios))
    assert c_run <= 50.0
    report(
        8,
        True,
        f"cell-capacity series vs log-weighted series within factor "
        f"{c_run:.2f} (<= 50) over {Y_GRID} boundary points x depths {DEPTHS}",
    )


def test_criterion_09_quasiadditivity():
    cfg = generate_subsquares(
        GeneratorParams.exp_power(beta=1.5, c0=0.05, n_min=1, n_max=10)
    )
    constants = CapacityConstants.for_configuration(cfg)
    with pytest.raises(CapacityError):
        quasiadditivity_ratio(cfg, WhitneyIndex(6, 0), constants)
    shrunk, log_delta = shrink_for_separation(cfg, constants.separation_floor)
    sep = separation(shrunk, kind="radius_log")
    assert sep.value >= constants.separation_floor
    cells = [
        WhitneyIndex(n, m)
        for n, count in ((6, 32), (7, 32), (8, 16), (9, 16), (10, 16))
        for m in range(count)
    ]
    assert len(cells) >= 100
    ratios = [
        quasiadditivity_ratio(shrunk, idx, constants, sep=sep).ratio for idx in cells
    ]
    assert min(ratios) > 0.0
    assert max(ratios) <= 1.0 + 1e-6
    report(
        9,
        True,
        f"{len(cells)} cells after shrink (log_delta={log_delta:.3e}): "
        f"ratios in [{min(ratios):.6f}, {max(ratios):.6f}], all in (0, 1]",
    )


def test_criterion_10_avoidable_certificate_and_escape():
    cfg = generate_avoidable_ring(target=AVOIDABLE_BUDGET)
    cert = avoidability_certificate(cfg)
    assert cert.issued
    params = WalkParams(eps_shell=1e-4, seed=707, n_walks=100_000)
    rows = escape_vs_depth(cfg, DEPTHS, params)
    ps = [row.estimate.p_escape for row in rows]
    assert all(p >= 0.45 for p in ps)
    report(
        10,
        True,
        f"budget certificate issued ({cert.budget:.4f} <= {cert.threshold:.4f}); "
        f"p_escape per depth {['%.3f' % p for p in ps]} all >= 0.45",
    )


def test_criterion_11_unavoidable_trend(walker_family):
    params = WalkParams(eps_shell=1e-8, seed=909, n_walks=100_000)
    rows = escape_vs_depth(walker_family, DEPTHS, params)
    ps = [row.estimate.p_escape for row in rows]
    cis = [row.estimate.ci95_halfwidth for row in rows]
    for i in range(len(ps) - 1):
        gap = ps[i] - ps[i + 1]
        noise = 2.0 * max(cis[i], cis[i + 1])
        assert gap > noise, (DEPTHS[i], DEPTHS[i + 1], gap, noise)
    report(
        11,
        True,
        f"p_escape strictly decreasing beyond 2xCI over depths {DEPTHS}: "
        f"{['%.4f' % p for p in ps]} (limit 0 not asserted)",
    )


def test_criterion_12_determinism(tmp_path):
    # The CLI runs with cwd=tmp_path, where a relative PYTHONPATH entry such
    # as "src" no longer resolves; put the absolute directory holding the
    # imported package first so the children run the code under test.
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(champagne.__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    env["CHAMPAGNE_OUT"] = str(tmp_path)

    def cli(*argv, threads=None):
        e = dict(env)
        if threads is not None:
            e["CHAMPAGNE_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "champagne.cli", *map(str, argv)],
            capture_output=True,
            env=e,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr.decode()

    cfg = tmp_path / "cfg.json"
    cli("generate", "subsquares", "--beta", 0.1, "--c0", 0.3,
        "--n-min", 6, "--n-max", 8, "-o", cfg)
    first = cfg.read_bytes()
    cli("generate", "subsquares", "--beta", 0.1, "--c0", 0.3,
        "--n-min", 6, "--n-max", 8, "-o", cfg)
    assert cfg.read_bytes() == first

    outputs = {}
    for tag, threads in (("a", 1), ("b", 4)):
        out = tmp_path / tag
        cli("check", cfg, "--y-grid", 8, "--out-dir", out, threads=threads)
        cli("sweep", cfg, "--depths", "6,7,8", "--eps", "1e-8",
            "--n-walks", 3000, "--seed", 5, "--out-dir", out, threads=threads)
        outputs[tag] = {
            name: (out / name).read_bytes()
            for name in ("check.json", "series.csv", "sweep.json", "sweep.csv")
        }
    assert outputs["a"] == outputs["b"]
    report(
        12,
        True,
        "byte-identical outputs across reruns and thread counts "
        "(generate, check, sweep)",
    )
