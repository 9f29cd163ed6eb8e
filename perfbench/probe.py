"""Layer probe: fixed calls into each module's public functions.

The traced run ends with this probe so that every module reports on every
workload, including modules the workload's own CLI steps never call.  The
probe's inputs depend only on the seed and the size, so its share of each
per-module metric is the same on every workload.  It also times
``SpatialIndex.distance_many`` per storage kind and checks it against a
brute-force scan.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from champagne import capacity, criteria, generators, geometry, walker

FLAGSHIP = {"beta": 1.5, "c0": 0.05}
WALK_FAMILY = {"beta": 0.1, "c0": 0.3, "n_min": 6}
DISTANCE_TOLERANCE = 1e-12  # ring closed forms and the scan round differently


def sample_points(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Points with log-uniform boundary gap, so every generation band is hit."""
    rng = np.random.default_rng(seed)
    gap = np.exp(rng.uniform(math.log(1e-4), 0.0, count))
    theta = rng.uniform(0.0, 2.0 * math.pi, count)
    rho = 1.0 - gap
    return rho * np.cos(theta), rho * np.sin(theta)


def _brute_force(config, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    x, y, log_r = config.disc_arrays()
    with np.errstate(under="ignore"):
        r = np.exp(log_r)
    best = np.full(len(px), np.inf)
    for lo in range(0, len(x), 4096):
        hi = lo + 4096
        d = np.hypot(px[:, None] - x[None, lo:hi], py[:, None] - y[None, lo:hi]) - r[None, lo:hi]
        best = np.minimum(best, d.min(axis=1))
    return best


def distance_check(configs: dict, seed: int, count: int, repeats: int = 5):
    """Time ``distance_many`` per storage kind and compare it with a scan.

    Returns (checks, metrics): one check per kind, and nanoseconds per
    query point (median over ``repeats`` calls) with the ratios to rings.
    """
    px, py = sample_points(seed, count)
    checks, metrics, ns = [], {}, {}
    for kind, config in configs.items():
        index = geometry.SpatialIndex(config)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            got = index.distance_many(px, py)
            times.append(time.perf_counter() - start)
        error = float(np.max(np.abs(got - _brute_force(config, px, py))))
        checks.append(
            (f"distance_many.{kind}", error <= DISTANCE_TOLERANCE, f"max |error| {error:.3g}")
        )
        ns[kind] = 1e9 * statistics.median(times) / count
        metrics[f"geometry.ns_per_point.{kind}"] = {"value": ns[kind], "unit": "ns"}
    for kind in ("prefix", "explicit"):
        if kind in ns and "rings" in ns:
            metrics[f"geometry.{kind}_over_rings"] = {
                "value": ns[kind] / ns["rings"],
                "unit": "ratio",
            }
    return checks, metrics


def storage_family(n_max: int) -> dict:
    """The walk-storage family stored three ways."""
    rings = generators.generate_subsquares(
        generators.GeneratorParams.exp_power(n_max=n_max, **WALK_FAMILY)
    )
    prefix = generators.generate_subsquares(
        generators.GeneratorParams.exp_power(n_max=n_max, drop_first=5, **WALK_FAMILY)
    )
    return {"rings": rings, "prefix": prefix, "explicit": rings.materialized()}


def run(seed: int, tiny: bool):
    """Call every module once; returns (checks, metrics)."""
    storage = storage_family(8 if tiny else 10)
    checks, metrics = distance_check(storage, seed, 200 if tiny else 1000)

    walker.estimate_escape(
        walker.WalkParams(eps_shell=1e-8, n_walks=500 if tiny else 2000, seed=seed),
        storage["rings"],
    )

    # one cluster solve per generation, up to p = 512 at n = 12
    deep = generators.generate_subsquares(
        generators.GeneratorParams.exp_power(n_max=8 if tiny else 12, **FLAGSHIP)
    )
    capacity.cell_capacity_weights(deep)

    shallow = generators.generate_subsquares(
        generators.GeneratorParams.exp_power(n_max=8, **FLAGSHIP)
    )
    capacity.cell_capacity_series(shallow, criteria.BoundaryPoint(0.0))
    constants = capacity.CapacityConstants.for_configuration(shallow)
    shrunk, _ = criteria.shrink_for_separation(shallow, constants.separation_floor)
    for m in range(16):
        capacity.quasiadditivity_ratio(shrunk, geometry.WhitneyIndex(8, m), constants)
    return checks, metrics
