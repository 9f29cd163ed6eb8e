"""Run one workload's steps inside a single interpreter.

    python3 perfbench/inprocess.py --workload NAME --seed N --result OUT.json
        [--traced --spans SPANS.json] [--tiny]

Each CLI step is a call of ``champagne.cli.main(argv)`` in the current
directory.  With ``--traced`` the tracer's wrappers are installed first, and
the layer probe runs after the steps; the result then holds per-module
metrics and the spans go to SPANS.json.  ``wall_s`` covers the steps only,
so a traced and an untraced child give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time
import traceback
from pathlib import Path

import champagne.cli

import probe
from materialize import materialize
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Step


def run_step(step: Step, log: Path) -> int:
    if step.kind == "materialize":
        materialize(*step.argv)
        return 0
    with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        try:
            return champagne.cli.main(list(step.argv))
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real CLI process with status 1
            traceback.print_exc()
            return 1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)

    tracer = Tracer()
    if args.traced:
        tracer.install()
    returncodes = []
    start = time.perf_counter()
    for i, step in enumerate(workload.setup + workload.steps):
        with tracer.span(f"step:{step.command}"):
            returncodes.append(run_step(step, Path(f"step{i}.log")))
    wall = time.perf_counter() - start

    result = {"wall_s": wall, "returncodes": returncodes, "checks": [], "absent": tracer.absent}
    if args.traced:
        with tracer.span("probe"):
            try:
                checks, probe_metrics = probe.run(args.seed, args.tiny)
            except Exception as exc:  # a broken public entry point fails the run
                checks, probe_metrics = [("probe", False, repr(exc))], {}
        result["checks"] = checks
        result["metrics"] = {**layer_metrics(tracer), **probe_metrics}
        result["steps_only"] = layer_metrics(tracer, exclude_root="probe")
        Path(args.spans).write_text(json.dumps(tracer.dump()))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
