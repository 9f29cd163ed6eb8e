#!/usr/bin/env python3
"""Benchmark of the champagne CLI pipeline (see NOTES.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

``--trace 0`` times the workload end to end.  It runs the set-up steps
(``generate`` and input materialisation) three times, then repeats the
diagnostic steps as passes that fit in S seconds, each step a separate
``python -m champagne.cli`` process started one at a time and preceded by
the reference process of ``reference.py``.  Times are medians over set-ups
and passes; ``*_ref`` metrics are step times over the reference's time.

``--trace 1`` runs the set-up and diagnostic steps inside one interpreter
twice, once plain and once with the tracer's wrappers, followed by the
layer probe.  It reports per-module self times and exact counts.

Every line but the last lists one measured metric.  The last line is one
JSON object ``{correct, attempted, failed, metrics}`` whose metrics are the
ones BENCHMARK.json declares for the mode.  The full record goes to
``perfbench/out/``: environment, per-pass timings, exact counts, SHA-256 of
every artifact, and failed checks.  ``--tiny`` shrinks every workload for
the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WALK_COMMANDS, WORKLOADS, Step, Workload, walk_steps

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DISTANCE_POINTS = 1000


def locate_source() -> Path:
    """The checkout's ``src`` directory, once champagne is known to import from it."""
    src = ROOT / "src"
    if not (src / "champagne" / "__init__.py").is_file():
        sys.exit(f"error: no champagne package under {src}")
    sys.path.insert(0, str(src))
    import champagne

    found = Path(champagne.__file__).resolve().parents[1]
    if found != src.resolve():
        sys.exit(f"error: champagne imports from {found}, not from {src}")
    return found


def child_env(src: Path) -> dict:
    """Environment of every child: absolute src first, walker single-threaded."""
    env = {k: v for k, v in os.environ.items() if k not in ("CHAMPAGNE_OUT", "CHAMPAGNE_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "platform": platform.platform(),
    }


@dataclass
class Tally:
    """Steps and output checks attempted, and the ones that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def checks(self, results) -> None:
        for name, ok, detail in results:
            self.record(name, ok, detail)


@dataclass
class Child:
    wall_s: float
    returncode: int
    max_rss_mb: float


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> Child:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6)


def step_argv(step: Step) -> list[str]:
    if step.kind == "cli":
        return [sys.executable, "-m", "champagne.cli", *step.argv]
    return [sys.executable, str(HERE / "materialize.py"), *step.argv]


def run_steps(steps, workdir: Path, env: dict, tally: Tally, index: int = 0) -> list[Child]:
    children = []
    for i, step in enumerate(steps, start=index):
        child = run_child(step_argv(step), workdir, env, workdir / f"{step.command}{i}.log")
        tally.record(f"step {' '.join(step.argv)}", child.returncode == 0, f"exit {child.returncode}")
        children.append(child)
    return children


def output_files(steps, workdir: Path) -> dict[str, Path]:
    files = {}
    for step in steps:
        path = workdir / step.output
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file():
                files[f.relative_to(workdir).as_posix()] = f
    return files


def digests(steps, workdir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(f.read_bytes()).hexdigest()
        for name, f in output_files(steps, workdir).items()
    }


def bytes_written(workload: Workload, workdir: Path) -> int:
    cli_steps = [s for s in workload.setup + workload.steps if s.kind == "cli"]
    return sum(f.stat().st_size for f in output_files(cli_steps, workdir).values())


def run_checks(workload: Workload, workdir: Path, tally: Tally) -> None:
    try:
        tally.checks(workload.checks(workdir))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        tally.record("output checks", False, repr(exc))


def discs_generated(workload: Workload, workdir: Path) -> int | None:
    """Discs reported by the ``generate`` steps, or None if one did not say."""
    total = 0
    for i, step in enumerate(workload.setup):
        if step.command == "generate":
            log = (workdir / f"{step.command}{i}.log").read_text()
            found = re.search(r"^total (\d+) discs", log, re.M)
            if found is None:
                return None
            total += int(found.group(1))
    return total


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: Workload, args, env: dict, work: Path, tally: Tally, record: dict) -> dict:
    setup_s, rss, first = [], [], None
    for rep in range(SETUP_REPEATS):
        workdir = work / f"setup{rep}"
        workdir.mkdir()
        children = run_steps(workload.setup, workdir, env, tally)
        setup_s.append(sum(c.wall_s for c in children))
        rss += [c.max_rss_mb for c in children]
        digest = digests(workload.setup, workdir)
        if first is None:
            first = digest
        else:
            tally.record("setup byte-identical across repeats", digest == first)

    # a pass starts only if a pass of median length still ends within the window
    passes, first = [], None
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.median(p["elapsed_s"] for p in passes)
        <= args.seconds
    ):
        pass_start = time.perf_counter()
        children, references = [], []
        for i, step in enumerate(workload.steps):
            reference = run_child(
                [sys.executable, str(HERE / "reference.py")], workdir, env, workdir / "reference.log"
            )
            tally.record("reference process", reference.returncode == 0, f"exit {reference.returncode}")
            references.append(reference.wall_s)
            children += run_steps([step], workdir, env, tally, index=i)
        rss += [c.max_rss_mb for c in children]
        run_checks(workload, workdir, tally)
        digest = digests(workload.steps, workdir)
        if first is None:
            first = digest
        else:
            tally.record("artifacts byte-identical across passes", digest == first)
        by_command: dict[str, dict[str, float]] = {}
        for step, child, ref in zip(workload.steps, children, references):
            totals = by_command.setdefault(step.command, {"s": 0.0, "ref": 0.0})
            totals["s"] += child.wall_s
            totals["ref"] += child.wall_s / ref
        steps = 0
        for step in workload.steps:
            if step.command in WALK_COMMANDS:
                try:
                    steps += walk_steps(step, workdir)
                except (OSError, ValueError, KeyError) as exc:
                    tally.record("walk-steps from artifacts", False, repr(exc))
        passes.append(
            {
                "elapsed_s": time.perf_counter() - pass_start,
                "pipeline_s": sum(c.wall_s for c in children),
                "pipeline_ref": sum(c.wall_s / r for c, r in zip(children, references)),
                "by_command": by_command,
                "by_step": {s.output: c.wall_s for s, c in zip(workload.steps, children)},
                "reference_s": references,
                "walk_steps": steps,
            }
        )

    if workload.storage:
        from champagne.geometry import loads_config
        from probe import distance_check

        configs = {k: loads_config((workdir / p).read_text()) for k, p in workload.storage.items()}
        checks, record["distance"] = distance_check(configs, args.seed, DISTANCE_POINTS)
        tally.checks(checks)

    def median(key):
        return statistics.median(key(p) for p in passes)

    metrics = {
        "pipeline_s": metric(median(lambda p: p["pipeline_s"]), "s"),
        "pipeline_ref": metric(median(lambda p: p["pipeline_ref"]), "ref"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }
    for command in sorted(passes[0]["by_command"]):
        for unit in ("s", "ref"):
            metrics[f"{command}_{unit}"] = metric(median(lambda p: p["by_command"][command][unit]), unit)
    walk_wall = [
        sum(p["by_command"][c]["s"] for c in WALK_COMMANDS if c in p["by_command"]) for p in passes
    ]
    if passes[0]["walk_steps"] and min(walk_wall) > 0.0:
        metrics["walk_steps_per_s"] = metric(
            statistics.median(p["walk_steps"] / w for p, w in zip(passes, walk_wall)), "1/s"
        )
    record.update(
        setup_s=setup_s,
        passes=passes,
        counts={
            "processes": sum(s.kind == "cli" for s in workload.setup + workload.steps),
            "discs": discs_generated(workload, workdir),
            "walk_steps": passes[0]["walk_steps"],
            "bytes_written": bytes_written(workload, workdir),
        },
        artifacts={**digests(workload.setup, workdir), **first},
    )
    return metrics


def traced(workload: Workload, args, env: dict, work: Path, tally: Tally, record: dict) -> dict:
    imports = []
    for i in range(IMPORT_REPEATS):
        child = run_child([sys.executable, "-c", "import champagne.cli"], work, env, work / f"import{i}.log")
        tally.record("import champagne.cli", child.returncode == 0, f"exit {child.returncode}")
        imports.append(child.wall_s)

    all_steps = workload.setup + workload.steps
    results = {}
    for mode in ("untraced", "traced"):
        workdir = work / mode
        workdir.mkdir()
        argv = [
            sys.executable, str(HERE / "inprocess.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--result", "result.json",
        ]
        if mode == "traced":
            argv += ["--traced", "--spans", str(OUT / f"{args.workload}-seed{args.seed}-spans.json")]
        if args.tiny:
            argv.append("--tiny")
        child = run_child(argv, workdir, env, work / f"{mode}.log")
        tally.record(f"{mode} in-process run", child.returncode == 0, f"exit {child.returncode}")
        if child.returncode != 0:
            return {}
        results[mode] = json.loads((workdir / "result.json").read_text())
        for step, rc in zip(all_steps, results[mode]["returncodes"]):
            tally.record(f"{mode} step {' '.join(step.argv)}", rc == 0, f"exit {rc}")

    traced_dir = work / "traced"
    tally.record(
        "artifacts byte-identical with and without tracing",
        digests(all_steps, work / "untraced") == digests(all_steps, traced_dir),
    )
    run_checks(workload, traced_dir, tally)
    tally.checks(results["traced"]["checks"])

    metrics = dict(results["traced"]["metrics"])
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    metrics["cli.processes"] = metric(sum(s.kind == "cli" for s in all_steps), "count")
    metrics["cli.bytes_written"] = metric(bytes_written(workload, traced_dir), "bytes")
    metrics["trace_overhead_frac"] = metric(
        results["traced"]["wall_s"] / results["untraced"]["wall_s"] - 1.0, "frac"
    )
    record.update(
        import_s=imports,
        wall_s={mode: r["wall_s"] for mode, r in results.items()},
        steps_only=results["traced"]["steps_only"],
        absent_hooks=results["traced"]["absent"],
        artifacts=digests(all_steps, traced_dir),
    )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    env = child_env(locate_source())
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment()}
    try:
        measure = traced if args.trace else untraced
        metrics = measure(workload, args, env, work, tally, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    metrics["error_rate"] = metric(failed / max(tally.attempted, 1), "ratio")
    record.update(
        metrics=metrics, attempted=tally.attempted, failures=tally.failures,
        absent=[name for name in declared if name not in metrics],
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in record["absent"]:
        print(f"absent: {name}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in declared if name in metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
