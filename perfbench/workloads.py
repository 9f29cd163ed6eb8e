"""Workloads of the champagne benchmark and the checks on their outputs.

A workload is a list of set-up steps (``generate`` and input
materialisation) and a list of diagnostic CLI steps.  Every path is relative
to the directory the steps run in: the CLI embeds the configuration path it
was given in its artifacts, so relative paths keep artifacts byte-identical
across directories and runs.  The seed reaches the program only as
``--seed`` of ``simulate`` and ``sweep``.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

FLAGSHIP = ("--beta", "1.5", "--c0", "0.05")
WALK_FAMILY = ("--beta", "0.1", "--c0", "0.3", "--n-min", "6")
WALK_COMMANDS = ("simulate", "sweep")


@dataclass(frozen=True)
class Step:
    kind: str  # "cli": python -m champagne.cli ARGV; "materialize": ARGV = SOURCE DEST
    argv: tuple[str, ...]
    output: str  # the file or directory the step writes

    @property
    def command(self) -> str:
        return self.argv[0] if self.kind == "cli" else self.kind


# A check is (name, passed, detail).
Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    setup: tuple[Step, ...]
    steps: tuple[Step, ...]
    checks: Callable[[Path], list[Check]]
    # storage kind -> configuration file, checked against a brute-force scan
    storage: dict[str, str] = field(default_factory=dict)


def _generate(out: str, family: tuple[str, ...], n_max: int, *extra: str) -> Step:
    argv = ("generate", "subsquares", *family, "--n-max", str(n_max), *extra, "-o", out)
    return Step("cli", argv, out)


def _diagnostic(command: str, out_dir: str, *args: str) -> Step:
    return Step("cli", (command, *args, "--out-dir", out_dir), out_dir)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def expected_capacity_rows(n_max: int, per_generation: int = 64) -> int:
    """Rows of ``capacity.csv``: each generation n has 2^(n+4) cells, capped."""
    return sum(min(2 ** (n + 4), per_generation) for n in range(1, n_max + 1))


def walk_steps(step: Step, workdir: Path) -> int:
    """Walk-steps recorded in a simulate or sweep artifact (n_walks x mean_steps)."""
    doc = _json(workdir / step.output / f"{step.command}.json")
    estimates = [doc["estimate"]] if step.command == "simulate" else [r["estimate"] for r in doc["rows"]]
    return sum(round(e["n_walks"] * e["mean_steps"]) for e in estimates)


def analytic_flagship(seed: int, tiny: bool) -> Workload:
    # capacity stops one generation short of the configuration: the p = 512
    # solve at n = 12 takes 3 s alone and is timed by the layer probe instead
    n_cfg, n_cap, n_quasi = (8, 7, 6) if tiny else (12, 11, 8)
    cfg, quasi_cfg = f"flagship{n_cfg}.json", f"flagship{n_quasi}.json"

    def checks(d: Path) -> list[Check]:
        summary = _json(d / "check" / "check.json")["summary"]
        out = [
            ("check.growth_all_positive", summary.get("growth_all_positive") is True, ""),
            (
                "check.certificate_not_issued",
                summary["avoidable_certificate"]["issued"] is False,
                summary["avoidable_certificate"]["reason"],
            ),
        ]
        for out_dir, n in (("capacity", n_cap), ("quasi", n_quasi)):
            with open(d / out_dir / "capacity.csv", newline="") as fh:
                rows = sum(1 for _ in csv.DictReader(fh))
            want = expected_capacity_rows(n)
            out.append((f"{out_dir}.rows", rows == want, f"{rows} rows, want {want}"))
        return out

    return Workload(
        setup=(_generate(cfg, FLAGSHIP, n_cfg), _generate(quasi_cfg, FLAGSHIP, n_quasi)),
        steps=(
            _diagnostic("check", "check", cfg),
            _diagnostic("capacity", "capacity", cfg, "--n-max", str(n_cap)),
            _diagnostic("capacity", "quasi", quasi_cfg, "--quasiadditivity", "--shrink-to-floor"),
        ),
        checks=checks,
    )


def walk_rings(seed: int, tiny: bool) -> Workload:
    n_max, depths, walks = (8, "6,8", 4000) if tiny else (12, "6,8,10,12", 50_000)
    cfg = "rings.json"
    r0, start = 0.25, 0.5
    walk_args = ("--n-walks", str(walks), "--seed", str(seed))

    def checks(d: Path) -> list[Check]:
        est = _json(d / "annulus" / "simulate.json")["estimate"]
        exact = 1.0 - math.log(1.0 / start) / math.log(1.0 / r0)
        gap = abs(est["p_escape"] - exact)
        out = [
            (
                "annulus.within_3ci",
                gap <= 3.0 * est["ci95_halfwidth"],
                f"|p - {exact}| = {gap:.3g}, ci95 {est['ci95_halfwidth']:.3g}",
            )
        ]
        rows = [r["estimate"] for r in _json(d / "sweep" / "sweep.json")["rows"]]
        for a, b in zip(rows, rows[1:]):
            drop = a["p_escape"] - b["p_escape"]
            ci = max(a["ci95_halfwidth"], b["ci95_halfwidth"])
            out.append(("sweep.decreasing_beyond_2ci", drop > 2.0 * ci, f"drop {drop:.3g}, ci95 {ci:.3g}"))
        verdicts = [v["verdict"] for v in _json(d / "report" / "report.json")["verdicts"]]
        out.append(("report.verdict", verdicts == ["consistent with unavoidable"], ", ".join(verdicts)))
        return out

    return Workload(
        setup=(_generate(cfg, WALK_FAMILY, n_max),),
        steps=(
            _diagnostic("sweep", "sweep", cfg, "--depths", depths, "--eps", "1e-8", *walk_args),
            _diagnostic(
                "simulate", "annulus", "--annulus", str(r0), "--start-x", str(start), *walk_args
            ),
            _diagnostic("check", "check", cfg),
            _diagnostic("report", "report", "--check", "check/check.json", "--sweep", "sweep/sweep.json"),
        ),
        checks=checks,
    )


def walk_storage(seed: int, tiny: bool) -> Workload:
    n_max, walks = (8, 200) if tiny else (10, 500)
    storage = {"rings": "plain.json", "prefix": "prefix.json", "explicit": "explicit.json"}
    walk_args = ("--eps", "1e-8", "--n-walks", str(walks), "--seed", str(seed))

    def checks(d: Path) -> list[Check]:
        plain = _json(d / "sim-rings" / "simulate.json")["estimate"]
        out = []
        for kind in ("prefix", "explicit"):
            est = _json(d / f"sim-{kind}" / "simulate.json")["estimate"]
            gap = abs(est["p_escape"] - plain["p_escape"])
            ci = max(est["ci95_halfwidth"], plain["ci95_halfwidth"])
            out.append((f"storage.{kind}_agrees_with_rings", gap <= 3.0 * ci, f"gap {gap:.3g}, ci95 {ci:.3g}"))
        return out

    return Workload(
        setup=(
            _generate(storage["rings"], WALK_FAMILY, n_max),
            _generate(storage["prefix"], WALK_FAMILY, n_max, "--drop-first", "5"),
            Step("materialize", (storage["rings"], storage["explicit"]), storage["explicit"]),
        ),
        steps=(
            *(_diagnostic("simulate", f"sim-{kind}", path, *walk_args) for kind, path in storage.items()),
            _diagnostic("check", "check", storage["explicit"]),
        ),
        checks=checks,
        storage=storage,
    )


WORKLOADS = {
    "analytic-flagship": analytic_flagship,
    "walk-rings": walk_rings,
    "walk-storage": walk_storage,
}
