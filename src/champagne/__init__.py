"""Champagne subregions of the unit disc.

Construction of obstacle configurations (the unit disc minus many small
closed discs accumulating at the boundary), numerical evaluation of
unavoidability criteria, logarithmic-capacity estimation, and direct
Monte Carlo estimation of Brownian escape probabilities via
walk-on-spheres.

The public names below load lazily (PEP 562): ``champagne.X`` and
``from champagne import X`` import only the module that defines X, so a
process pays for numpy and the submodules it uses and no others.
"""

from importlib import import_module

__version__ = "0.1.0"

# version of every JSON document the package writes
SCHEMA_VERSION = 1


class ChampagneError(ValueError):
    """Rejected input: an invalid configuration, parameter or query.  The
    CLI exits 1 on it."""


# defining module -> public names it exports through the package root
_EXPORTS = {
    "geometry": (
        "Configuration",
        "Disc",
        "DiscBlock",
        "GeometryError",
        "Point",
        "RingRows",
        "SpatialIndex",
        "ValidationReport",
        "WhitneyCell",
        "WhitneyIndex",
        "cell_center",
        "cells_intersecting_disc",
        "distance_to_obstacles",
        "dumps_config",
        "loads_config",
        "validate_configuration",
        "whitney_cell",
    ),
    "generators": (
        "AVOIDABLE_BUDGET",
        "GeneratorError",
        "GeneratorParams",
        "MSpec",
        "PhiSpec",
        "generate_avoidable_ring",
        "generate_phi_grid",
        "generate_subsquares",
        "shrink",
        "truncate",
    ),
    "criteria": (
        "AvoidabilityCertificate",
        "BoundaryPoint",
        "BudgetSums",
        "CriteriaError",
        "SeparationReport",
        "SeriesReport",
        "affine_growth",
        "avoidability_certificate",
        "budget_sums",
        "count_centers_within",
        "density_bounds",
        "integral_test",
        "log_weighted_series",
        "poisson_series",
        "separation",
        "series_over_grid",
        "shrink_for_separation",
    ),
    "capacity": (
        "C2Estimate",
        "CapacityConstants",
        "CapacityError",
        "CapacityEstimate",
        "ClippedDiscShape",
        "DiscShape",
        "SegmentShape",
        "UnionShape",
        "c2_disc",
        "c2_disc_system",
        "c2_log_bound",
        "cell_capacity_series",
        "cell_capacity_weights",
        "green_capacity_disc_bound",
        "log_capacity",
        "quasiadditivity_ratio",
    ),
    "walker": (
        "EscapeEstimate",
        "WalkParams",
        "WalkerError",
        "annulus_escape_probability",
        "concentric_obstacle_config",
        "escape_vs_depth",
        "estimate_escape",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "SCHEMA_VERSION", "ChampagneError", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
