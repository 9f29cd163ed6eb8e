"""Command-line entry point.

Subcommands wire the generators to the diagnostics:

* ``generate``: build a configuration file (subsquares, phi-grid, or the
  avoidable ring).
* ``check``: series criteria over a boundary grid, separation statistics,
  budget sums, the integral test, and the avoidability certificate.
* ``capacity``: per-cell capacity table, the cell capacity series, and
  quasiadditivity ratios.
* ``simulate`` / ``sweep``: walk-on-spheres escape estimates, single depth
  or per truncation depth.
* ``report``: join the artifacts into one verdict per configuration.

Every output embeds the tool version, the full parameter set, the seed,
and the SHA-256 of the input configuration; reruns with identical inputs
are byte-identical (no timestamps, sorted keys, shortest-round-trip float
formatting).  Exit codes: 0 success (including inconclusive diagnostics),
1 validation failure (a ``ChampagneError``: an invalid configuration,
parameter or start point), 2 usage or I/O failure, including a
configuration file or a ``report`` input that does not parse.

Each subcommand imports the champagne modules it runs inside its own
function, so ``report`` loads neither numpy nor a champagne submodule, and
``simulate`` and ``sweep`` load geometry and the walker only.

Environment overrides: ``CHAMPAGNE_OUT`` for the output directory;
``CHAMPAGNE_THREADS=k``, an integer k >= 1, caps the processes that
``simulate`` and ``sweep`` split their walks over (unset: the CPUs this
process may run on; one where the platform cannot fork).  A run gets one
process per pool of 32,768 live walks (16,384 for a sweep's coupled pass),
up to the cap, and forks the extra ones.  Each walk is a pure function of
the seed and its walk id, so every process count writes byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import SCHEMA_VERSION, ChampagneError, __version__

if TYPE_CHECKING:
    from .geometry import Configuration
    from .walker import WalkParams

CRITERIA = ("log_weighted", "poisson", "separation", "budgets", "integral")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


# ---------------------------------------------------------------------------
# deterministic output helpers


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_artifacts(
    args, params: dict, fields: dict, tables: dict[str, str], input_hash: str | None = None
) -> None:
    """Write ``<command>.json`` and ``tables`` (file name -> text) to the
    output directory: ``--out-dir``, else ``CHAMPAGNE_OUT``, else the
    working directory.  The document holds the run's metadata, ``params``,
    ``fields``, the input's SHA-256 when given and the seed of a command
    that takes one."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "params": params,
        **fields,
    }
    if input_hash is not None:
        doc["input_sha256"] = input_hash
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    out = Path(args.out_dir if args.out_dir is not None else os.environ.get("CHAMPAGNE_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {f"{args.command}.json": _canonical_json(doc), **tables}.items():
        (out / name).write_text(text)


def _median(values: list[float]) -> float:
    """The median as ``np.median`` gives it, by sorting: ``np.median``
    imports ``numpy.ma``, which costs about 12 ms."""
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


class UsageError(Exception):
    """Input the command cannot use as given: exit 2."""


class InputFormatError(UsageError):
    """An input file that exists but does not parse as the expected document."""


class InvalidConfiguration(Exception):
    """A configuration file that fails validation: exit 1 once its
    violations are printed."""


def _processes() -> int:
    """The cap on walk processes under CHAMPAGNE_THREADS (see the module
    docstring)."""
    value = os.environ.get("CHAMPAGNE_THREADS")
    if value is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    try:
        k = int(value)
    except ValueError:
        k = 0
    if k < 1:
        raise UsageError(f"CHAMPAGNE_THREADS must be an integer >= 1, got {value!r}")
    return k


def _load_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"{path} is not a JSON document: {exc!r}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path} does not hold a JSON object")
    return doc


def _load_config(path: Path) -> tuple[Configuration, str]:
    """The configuration in ``path`` and the SHA-256 of the bytes read, the
    file read once.  Prints one ``invalid:`` line per violation to stderr
    and raises InvalidConfiguration when it fails validation."""
    from .geometry import loads_config, validate_configuration

    data = path.read_bytes()
    input_hash = hashlib.sha256(data).hexdigest()
    try:
        # a non-UTF-8 file fails to decode (ValueError); a count or n_max of
        # Infinity or 1e999 parses as inf, which int() refuses (OverflowError);
        # json gives up on arrays nested too deep for the stack (RecursionError)
        text = data.decode()
        # the parse is the command's memory peak: kept, the bytes would add
        # the file's size to it (1.9 MB for the 31,744-disc explicit file)
        del data
        config = loads_config(text)
    except ChampagneError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise InputFormatError(f"{path} is not a configuration document: {exc!r}") from exc
    report = validate_configuration(config)
    for v in report.violations:
        print(f"invalid: {v.kind} {v.detail} indices={v.indices}", file=sys.stderr)
    if not report.ok:
        raise InvalidConfiguration
    return config, input_hash


def _csv(rows: list[list], header: list[str]) -> str:
    def fmt(v) -> str:
        if isinstance(v, float):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    from .generators import (
        GeneratorError,
        GeneratorParams,
        PhiSpec,
        generate_avoidable_ring,
        generate_phi_grid,
        generate_subsquares,
    )
    from .geometry import dumps_config

    if args.family == "subsquares":
        params = GeneratorParams.exp_power(
            beta=args.beta,
            c0=args.c0,
            alpha=args.alpha,
            n_min=args.n_min,
            n_max=args.n_max,
            drop_first=args.drop_first,
            certify_budget=args.certify_budget,
        )
        config = generate_subsquares(params)
    elif args.family == "phi-grid":
        config = generate_phi_grid(
            PhiSpec(form="exp_power", c0=args.c0, beta=args.beta),
            per_cell=args.per_cell,
            n_min=args.n_min,
            n_max=args.n_max,
        )
    elif args.family == "avoidable-ring":
        config = generate_avoidable_ring(
            target=args.target, ring_radius=args.ring_radius, k_discs=args.k_discs
        )
    else:
        raise GeneratorError(f"unknown family {args.family}")
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dumps_config(config) + "\n")
    counts: dict[int, int] = {}
    for b in config.blocks:
        if hasattr(b, "n"):
            counts[b.n] = counts.get(b.n, 0) + len(b)
        else:
            for g in b.generations:
                counts[int(g)] = counts.get(int(g), 0) + 1
    for n in sorted(counts):
        print(f"generation {n}: {counts[n]} discs")
    print(f"total {config.disc_count} discs -> {out}")
    if args.family == "avoidable-ring":
        from .criteria import avoidability_certificate

        cert = avoidability_certificate(config)
        if cert.issued:
            print(
                f"avoidable budget satisfied: {cert.budget!r} <= {cert.threshold!r}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    from .criteria import (
        BoundaryPoint,
        affine_growth,
        avoidability_certificate,
        budget_sums,
        check_alpha,
        check_integral_upper,
        integral_test,
        log_weighted_series,
        poisson_series,
        separation,
    )
    from .generators import MSpec, PhiSpec

    if args.y_grid < 1:
        raise UsageError(f"--y-grid must be >= 1, got {args.y_grid}")
    selected = set(args.criteria.split(","))
    if not selected <= set(CRITERIA):
        raise UsageError(f"--criteria takes {','.join(CRITERIA)}, got {args.criteria!r}")
    # both values are written to check.json whichever criteria run
    check_alpha(args.alpha)
    check_integral_upper(args.integral_upper)
    config, input_hash = _load_config(args.config)

    ys = BoundaryPoint.grid(args.y_grid)
    rows: list[list] = []
    summary: dict = {}
    growth = []
    kinds = {"log_weighted": log_weighted_series, "poisson": poisson_series}
    totals = {kind: [] for kind in kinds if kind in selected}
    for yi, y in enumerate(ys):
        for kind in totals:
            rep = kinds[kind](config, y)
            totals[kind].append(rep.total)
            for (n, v), (_, cum) in zip(rep.per_generation, rep.cumulative):
                rows.append([kind, yi, y.theta, n, v, cum])
            if kind == "log_weighted":
                gens = [n for n, _ in rep.per_generation]
                if gens and max(gens) - max(min(gens), args.growth_n_lo) >= 2:
                    slope, resid = affine_growth(rep, args.growth_n_lo, max(gens))
                    growth.append({"y_index": yi, "slope": slope, "residual_fraction": resid})
    for kind, values in totals.items():
        summary[f"{kind}_totals"] = {
            "min": min(values),
            "median": _median(values),
            "max": max(values),
        }
    if growth:
        summary["growth"] = growth
        summary["growth_all_positive"] = all(g["slope"] > 0 for g in growth)
        summary["growth_max_residual_fraction"] = max(g["residual_fraction"] for g in growth)

    if "separation" in selected and config.disc_count >= 2:
        sep_summary = {}
        for kind in ("plain", "radius_log"):
            rep = separation(config, kind=kind)
            sep_summary[kind] = {
                "value": rep.value,
                "argmin_pair": list(rep.argmin_pair) if rep.argmin_pair else None,
            }
        summary["separation"] = sep_summary

    if "budgets" in selected:
        sums = budget_sums(config, alpha=args.alpha) if config.disc_count else None
        if sums is not None:
            summary["budgets"] = {
                "alpha": sums.alpha,
                "sum_r_alpha": sums.sum_r_alpha,
                "sum_log_inv_alpha": sums.sum_log_inv_alpha,
                "sum_log_inv_1": sums.sum_log_inv_1,
            }

    if "integral" in selected:
        prov_phi = dict(config.provenance).get("phi")
        if isinstance(prov_phi, dict) and prov_phi.get("form") == "exp_power":
            phi = PhiSpec(form="exp_power", c0=prov_phi["c0"], beta=prov_phi["beta"])
            m = MSpec(beta=prov_phi["beta"])
            summary["integral_test"] = {
                "upper": args.integral_upper,
                "value": integral_test(m, phi, args.integral_upper),
                "closed_form": prov_phi["c0"] * math.log(1.0 / (1.0 - args.integral_upper)),
            }

    cert = avoidability_certificate(config)
    summary["avoidable_certificate"] = {
        "issued": cert.issued,
        "budget": cert.budget,
        "threshold": cert.threshold,
        "outside_half_disc": cert.outside_half_disc,
        "reason": cert.reason,
    }

    params = {
        "config": str(args.config),
        "y_grid": args.y_grid,
        "criteria": sorted(selected),
        "alpha": args.alpha,
        "integral_upper": args.integral_upper,
        "growth_n_lo": args.growth_n_lo,
    }
    header = ["kind", "y_index", "theta", "n", "per_generation", "cumulative"]
    tables = {"series.csv": _csv(rows, header)}
    _write_artifacts(args, params, {"summary": summary}, tables, input_hash)
    if cert.issued:
        print("certified avoidable (capacity budget)")
    else:
        print("diagnostics written; see check.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# capacity


def _first_cells(rows, per_generation: int, total: int):
    """The first ``per_generation`` cells of each generation of the capacity
    rows, and of those the first ``total``, in row order: the row that
    reaches a cap is cut short there and the rows past it are dropped."""
    import numpy as np

    size = rows.m_hi - rows.m_lo
    per_generation, total = (min(cap, int(size.sum())) for cap in (per_generation, total))
    # the cells of the rows before each row in its generation, which starts
    # at the row that searchsorted finds
    before = np.cumsum(size) - size
    before -= before[np.searchsorted(rows.n, rows.n)]
    take = np.clip(per_generation - before, 0, size)
    take = np.clip(total - (np.cumsum(take) - take), 0, take)
    return rows._replace(m_hi=rows.m_lo + take).take(take > 0)


def cmd_capacity(args) -> int:
    from .capacity import (
        CapacityConstants,
        CapacityError,
        cell_capacity_series,
        cell_capacity_table,
        cell_capacity_weights,
        cell_series_terms,
        quasiadditivity_ratio,
    )
    from .criteria import (
        BoundaryPoint,
        avoidability_certificate,
        separation,
        shrink_for_separation,
    )
    from .geometry import WhitneyIndex, radius_from_log

    for flag in ("n_max", "max_cells", "max_cells_per_generation"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    config, input_hash = _load_config(args.config)
    if args.n_max is not None and args.n_max > config.n_max:
        raise UsageError(f"--n-max {args.n_max} exceeds the configuration's n_max {config.n_max}")
    constants = CapacityConstants.for_configuration(config)
    weights = cell_capacity_weights(config, n_max=args.n_max)
    y0 = BoundaryPoint(0.0)

    quasi_cfg = config
    shrink_log_delta = 0.0
    if args.shrink_to_floor:
        quasi_cfg, shrink_log_delta = shrink_for_separation(
            config, constants.separation_floor
        )

    # the rows of one generation share its cap
    written = _first_cells(weights, args.max_cells_per_generation, args.max_cells)
    sep = None
    rows: list[list] = []
    terms = {n: iter(t.tolist()) for n, t in cell_series_terms(written, y0.theta).items()}
    c2_column = cell_capacity_table(written, constants)
    columns = (written.n, written.m_lo, written.m_hi, written.log_capacity, c2_column)
    for n, m_lo, m_hi, log_cap, c2 in zip(*(a.tolist() for a in columns)):
        quasi = ""
        if args.quasiadditivity:
            if sep is None:
                sep = separation(quasi_cfg, kind="radius_log")
            # one value per entry: the cells of a ring generation are congruent
            try:
                quasi = quasiadditivity_ratio(
                    quasi_cfg, WhitneyIndex(n, m_lo), constants, sep=sep
                ).ratio
            except CapacityError:
                quasi = ""
        cap_value = radius_from_log(log_cap)
        rows.extend([n, m, log_cap, cap_value, c2, next(terms[n]), quasi] for m in range(m_lo, m_hi))

    series = cell_capacity_series(config, y0, weights=weights)
    cert = avoidability_certificate(config)
    params = {
        "config": str(args.config),
        "n_max": args.n_max,
        "max_cells": args.max_cells,
        "max_cells_per_generation": args.max_cells_per_generation,
        "quasiadditivity": args.quasiadditivity,
        "shrink_to_floor": args.shrink_to_floor,
    }
    summary = {
        "constants": {
            "cell_comparability": constants.cell_comparability,
            "c2_bracket": constants.c2_bracket,
            "separation_floor": constants.separation_floor,
        },
        "shrink_log_delta": shrink_log_delta,
        "cell_capacity_series_total_at_theta0": series.total,
        "certificate": {
            "issued": cert.issued,
            "budget": cert.budget,
            "threshold": cert.threshold,
            "reason": cert.reason,
        },
    }
    header = ["n", "m", "log_capacity", "capacity", "c2_scaled", "cell_series_term",
              "quasiadditivity_ratio"]
    tables = {"capacity.csv": _csv(rows, header)}
    _write_artifacts(args, params, {"summary": summary}, tables, input_hash)
    print(f"capacity table for {len(rows)} cells -> capacity.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate and sweep


def _walk_params(args) -> WalkParams:
    """The walk parameters of ``simulate`` and ``sweep``."""
    from .geometry import Point
    from .walker import WalkParams

    if args.n_walks < 1:
        raise UsageError(f"--n-walks must be >= 1, got {args.n_walks}")
    return WalkParams(
        eps_shell=args.eps,
        max_steps=args.max_steps,
        start=Point(args.start_x, args.start_y),
        seed=args.seed,
        n_walks=args.n_walks,
        processes=_processes(),
    )


def _walk_doc(args, config_name: str) -> dict:
    """The params block of ``simulate`` and ``sweep``."""
    return {
        "config": config_name,
        "eps": args.eps,
        "n_walks": args.n_walks,
        "max_steps": args.max_steps,
        "start": [args.start_x, args.start_y],
    }


ESTIMATE_HEADER = ["n_max", "n_walks", "p_escape", "ci95", "n_censored", "mean_steps"]


def _estimate_row(n_max: int, est) -> list:
    return [n_max, est.n_walks, est.p_escape, est.ci95_halfwidth, est.n_censored, est.mean_steps]


def _estimate_doc(est) -> dict:
    return {
        "p_escape": est.p_escape,
        "ci95_halfwidth": est.ci95_halfwidth,
        "n_walks": est.n_walks,
        "n_escaped": est.n_escaped,
        "n_hit": est.n_hit,
        "n_censored": est.n_censored,
        "mean_steps": est.mean_steps,
        "unreliable": est.unreliable,
    }


def cmd_simulate(args) -> int:
    from .walker import OUTCOMES, concentric_obstacle_config, estimate_escape

    params = _walk_params(args)
    if args.trace < 0:
        raise UsageError(f"--trace must be >= 0, got {args.trace}")
    if (args.annulus is None) == (args.config is None):
        both = "" if args.config is None else f", not both {args.config} and --annulus {args.annulus!r}"
        raise UsageError(f"pass a configuration file or --annulus R0{both}")
    if args.annulus is not None:
        config, input_hash = concentric_obstacle_config(args.annulus), None
        config_name = f"annulus(r0={args.annulus!r})"
    else:
        config, input_hash = _load_config(args.config)
        config_name = str(args.config)
    est = estimate_escape(params, config)
    tables = {"simulate.csv": _csv([_estimate_row(config.n_max, est)], ESTIMATE_HEADER)}
    if args.trace:
        trace_rows = [
            [w, OUTCOMES[est.walk_outcome[w]], int(est.walk_steps[w])]
            for w in range(min(args.n_walks, args.trace))
        ]
        tables["trace.csv"] = _csv(trace_rows, ["walk", "outcome", "steps"])
    fields = {"estimate": _estimate_doc(est)}
    _write_artifacts(args, _walk_doc(args, config_name), fields, tables, input_hash)
    print(f"seed {args.seed}: p_escape = {est.p_escape!r} +- {est.ci95_halfwidth!r}")
    if est.unreliable:
        print(
            f"warning: {est.n_censored} of {est.n_walks} walks censored (> 1%)",
            file=sys.stderr,
        )
    return EXIT_OK


def _parse_depths(text: str) -> list[int]:
    """``--depths``: comma-separated generation depths, each >= 0."""
    try:
        depths = [int(d) for d in text.split(",")]
    except ValueError:
        raise UsageError(f"--depths takes comma-separated integers, got {text!r}") from None
    if min(depths) < 0:
        raise UsageError(f"--depths must be >= 0, got {text!r}")
    return depths


def cmd_sweep(args) -> int:
    from .walker import escape_vs_depth

    depths = _parse_depths(args.depths)
    params = _walk_params(args)
    config, input_hash = _load_config(args.config)
    table = escape_vs_depth(config, depths, params)
    params = {**_walk_doc(args, str(args.config)), "depths": depths}
    fields = {"rows": [{"n_max": r.n_max, "estimate": _estimate_doc(r.estimate)} for r in table]}
    rows = [_estimate_row(r.n_max, r.estimate) for r in table]
    tables = {"sweep.csv": _csv(rows, ESTIMATE_HEADER)}
    _write_artifacts(args, params, fields, tables, input_hash)
    for row in table:
        print(
            f"n_max={row.n_max}: p_escape={row.estimate.p_escape!r} "
            f"+- {row.estimate.ci95_halfwidth!r}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _escape_trend(rows: list[dict]) -> dict:
    """The escape estimates in ascending depth, and whether each falls below
    the one before by more than twice the larger 95% half-width: a trend,
    so it needs two depths at least."""
    rows = sorted(rows, key=lambda r: r["n_max"])
    ps = [r["estimate"]["p_escape"] for r in rows]
    cis = [r["estimate"]["ci95_halfwidth"] for r in rows]
    decreasing = len(ps) >= 2 and all(
        ps[i] - ps[i + 1] > 2.0 * max(cis[i], cis[i + 1]) for i in range(len(ps) - 1)
    )
    return {"p_escape": ps, "strictly_decreasing_beyond_2ci": decreasing}


def _report_verdicts(
    check_doc: dict | None, sweep_doc: dict | None, threshold: float
) -> tuple[dict, list[dict]]:
    """(summary, verdicts) of ``report``; raises KeyError, TypeError or
    AttributeError on a document that lacks a field it reads or holds one of
    the wrong type."""
    verdicts: list[dict] = []
    summary: dict = {}

    cert = (check_doc or {}).get("summary", {}).get("avoidable_certificate")
    if cert is not None:
        summary["avoidable_certificate"] = cert

    empty = (
        check_doc is not None
        and check_doc.get("summary", {}).get("budgets") is None
        and cert is not None
        and cert["budget"] == 0.0
    )
    if empty:
        verdicts.append(
            {
                "verdict": "certified avoidable (trivial)",
                "test": "empty configuration",
                "threshold": None,
            }
        )
    elif cert is not None and cert["issued"]:
        verdicts.append(
            {
                "verdict": "certified avoidable (capacity budget)",
                "test": "reciprocal-log budget vs 1/(2 log 4)",
                "threshold": cert["threshold"],
            }
        )
    else:
        growth_ok = bool((check_doc or {}).get("summary", {}).get("growth_all_positive"))
        sep = (check_doc or {}).get("summary", {}).get("separation", {})
        sep_value = sep.get("radius_log", {}).get("value")
        sep_ok = sep_value is not None and sep_value > threshold
        trend = None
        if sweep_doc is not None:
            trend = _escape_trend(sweep_doc["rows"])
            summary["escape_trend"] = trend
        if growth_ok and sep_ok and trend is not None and trend["strictly_decreasing_beyond_2ci"]:
            verdicts.append(
                {
                    "verdict": "consistent with unavoidable",
                    "test": "series growth + separation + escape trend",
                    "threshold": threshold,
                }
            )
        else:
            verdicts.append(
                {
                    "verdict": "inconclusive",
                    "test": "series growth + separation + escape trend",
                    "threshold": threshold,
                }
            )
    return summary, verdicts


def cmd_report(args) -> int:
    if not math.isfinite(args.separation_threshold):
        raise UsageError(
            f"--separation-threshold must be finite, got {args.separation_threshold!r}"
        )
    missing = [p for p in (args.check, args.sweep) if p and not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"missing input: {p}", file=sys.stderr)
        return EXIT_IO
    check_doc = _load_json(args.check) if args.check else None
    sweep_doc = _load_json(args.sweep) if args.sweep else None
    try:
        summary, verdicts = _report_verdicts(check_doc, sweep_doc, args.separation_threshold)
    except (KeyError, TypeError, AttributeError) as exc:
        inputs = " and ".join(p for p in (args.check, args.sweep) if p)
        raise InputFormatError(f"{inputs}: missing or mistyped field {exc!r}") from exc

    lines = ["cross-check report", "=================="]
    for v in verdicts:
        lines.append(f"{v['verdict']}  [{v['test']}; threshold={v['threshold']!r}]")
    if "escape_trend" in summary:
        lines.append(f"escape trend: {summary['escape_trend']['p_escape']!r}")
    text = "\n".join(lines) + "\n"
    params = {
        "check": args.check,
        "sweep": args.sweep,
        "separation_threshold": args.separation_threshold,
    }
    _write_artifacts(args, params, {"summary": summary, "verdicts": verdicts}, {"report.txt": text})
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="champagne",
        description="Champagne subregion toolkit: generators, criteria, capacity, walks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a configuration file")
    g.add_argument("family", choices=["subsquares", "phi-grid", "avoidable-ring"])
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--beta", type=float, default=1.5)
    g.add_argument("--c0", type=float, default=0.05)
    g.add_argument("--alpha", type=float, default=2.0)
    g.add_argument("--n-min", type=int, default=1)
    g.add_argument("--n-max", type=int, default=8)
    g.add_argument("--drop-first", type=int, default=0)
    g.add_argument("--per-cell", type=int, default=1)
    g.add_argument("--certify-budget", action="store_true")
    g.add_argument("--target", type=float, default=1.0 / (2.0 * math.log(4.0)))
    g.add_argument("--ring-radius", type=float, default=0.75)
    g.add_argument("--k-discs", type=int, default=6)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="evaluate analytic criteria")
    c.add_argument("config", type=Path)
    c.add_argument("--y-grid", type=int, default=64)
    c.add_argument("--criteria", default=",".join(CRITERIA))
    c.add_argument("--alpha", type=float, default=2.0)
    c.add_argument("--integral-upper", type=float, default=0.999)
    c.add_argument("--growth-n-lo", type=int, default=6)
    c.set_defaults(func=cmd_check)

    k = sub.add_parser("capacity", help="per-cell capacity diagnostics")
    k.add_argument("config", type=Path)
    k.add_argument("--n-max", type=int, default=None)
    k.add_argument("--max-cells", type=int, default=4096)
    k.add_argument("--max-cells-per-generation", type=int, default=64)
    k.add_argument("--quasiadditivity", action="store_true")
    k.add_argument("--shrink-to-floor", action="store_true")
    k.set_defaults(func=cmd_capacity)

    s = sub.add_parser("simulate", help="walk-on-spheres escape estimate")
    s.add_argument("config", type=Path, nargs="?", default=None)
    s.add_argument("--annulus", type=float, default=None, metavar="R0")
    s.add_argument("--trace", type=int, default=0)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="escape estimates per truncation depth")
    w.add_argument("config", type=Path)
    w.add_argument("--depths", default="6,8,10,12")
    w.set_defaults(func=cmd_sweep)

    for walks in (s, w):
        walks.add_argument("--eps", type=float, default=1e-4)
        walks.add_argument("--n-walks", type=int, default=100_000)
        walks.add_argument("--max-steps", type=int, default=1_000_000)
        walks.add_argument("--seed", type=int, default=0)
        walks.add_argument("--start-x", type=float, default=0.0)
        walks.add_argument("--start-y", type=float, default=0.0)

    r = sub.add_parser("report", help="join artifacts into verdicts")
    r.add_argument("--check", default=None)
    r.add_argument("--sweep", default=None)
    r.add_argument("--separation-threshold", type=float, default=0.0)
    r.set_defaults(func=cmd_report)

    for command in (c, k, s, w, r):
        command.add_argument("--out-dir", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidConfiguration:
        return EXIT_INVALID
    except ChampagneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
