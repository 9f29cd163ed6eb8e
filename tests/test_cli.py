import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import champagne
from champagne.cli import _walk_params, build_parser, main
from champagne.generators import GeneratorParams, generate_subsquares
from champagne.geometry import (
    Configuration,
    Disc,
    DiscBlock,
    Point,
    RingBlock,
    SpatialIndex,
    dumps_config,
    loads_config,
    sector_count,
)
from champagne.walker import OUTCOMES, WalkParams, annulus_escape_probability, estimate_escape


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    code = run(
        "generate", "subsquares",
        "--beta", 0.1, "--c0", 0.3, "--n-min", 6, "--n-max", 8,
        "-o", path,
    )
    assert code == 0
    return path


class TestGenerate:
    def test_subsquares_counts(self, tmp_path, capsys):
        out = tmp_path / "g1.json"
        assert run("generate", "subsquares", "--beta", 1.5, "--n-min", 1, "--n-max", 1, "-o", out) == 0
        stdout = capsys.readouterr().out
        assert "generation 1: 32 discs" in stdout

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "subsquares", "--beta", 1.2, "--n-max", 4]
        assert run(*argv, "-o", a) == 0
        assert run(*argv, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_avoidable_ring_announces_budget(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        assert run("generate", "avoidable-ring", "-o", out) == 0
        assert "avoidable budget satisfied" in capsys.readouterr().out

    def test_bad_parameters_exit_code(self, tmp_path):
        out = tmp_path / "bad.json"
        code = run(
            "generate", "subsquares", "--beta", 0.5, "--alpha", 2.0,
            "--certify-budget", "-o", out,
        )
        assert code == 1


class TestCheck:
    def test_check_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run("check", cfg_path, "--y-grid", 8, "--out-dir", out) == 0
        doc = json.loads((out / "check.json").read_text())
        assert doc["schema_version"] == 1
        assert "input_sha256" in doc
        assert doc["summary"]["growth_all_positive"] is True
        assert doc["summary"]["separation"]["radius_log"]["value"] > 0
        csv_lines = (out / "series.csv").read_text().splitlines()
        assert csv_lines[0] == "kind,y_index,theta,n,per_generation,cumulative"
        assert len(csv_lines) > 8

    def test_check_deterministic(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run("check", cfg_path, "--y-grid", 4, "--out-dir", out1)
        run("check", cfg_path, "--y-grid", 4, "--out-dir", out2)
        assert (out1 / "check.json").read_bytes() == (out2 / "check.json").read_bytes()
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_invalid_config_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "discs": [
                        {"x": 0.6, "y": 0.0, "r": 0.05, "log_r": math.log(0.05)},
                        {"x": 0.62, "y": 0.0, "r": 0.05, "log_r": math.log(0.05)},
                    ],
                    "rings": [],
                    "n_max": 1,
                    "provenance": {},
                }
            )
        )
        assert run("check", bad, "--out-dir", tmp_path / "o") == 1

    def test_missing_config_exit_two(self, tmp_path):
        assert run("check", tmp_path / "nope.json", "--out-dir", tmp_path) == 2

    def test_one_spatial_index_per_check(self, tmp_path, monkeypatch):
        # validation and separation share the index kept on the configuration
        path = tmp_path / "explicit.json"
        rings = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=6))
        path.write_text(dumps_config(rings.materialized()))
        builds = []
        init = SpatialIndex.__init__
        monkeypatch.setattr(
            SpatialIndex, "__init__", lambda self, c: builds.append(c) or init(self, c)
        )
        assert run("check", path, "--y-grid", 4, "--out-dir", tmp_path / "o") == 0
        assert len(builds) == 1

    def test_integral_summary_matches_closed_form(self, cfg_path, tmp_path):
        out = tmp_path / "oi"
        run("check", cfg_path, "--y-grid", 4, "--out-dir", out)
        doc = json.loads((out / "check.json").read_text())
        it = doc["summary"]["integral_test"]
        assert it["value"] == pytest.approx(it["closed_form"], rel=1e-6)


class TestSimulate:
    def test_annulus_preset(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(
            "simulate", "--annulus", 0.25, "--start-x", 0.5,
            "--n-walks", 20000, "--seed", 3, "--out-dir", out,
        )
        assert code == 0
        doc = json.loads((out / "simulate.json").read_text())
        want = annulus_escape_probability(0.25, 0.5)
        est = doc["estimate"]
        assert abs(est["p_escape"] - want) < max(3 * est["ci95_halfwidth"], 0.01)
        assert doc["seed"] == 3
        assert "seed 3" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("n_walks", [0, -5])
    def test_no_walks_is_a_usage_failure(self, cfg_path, tmp_path, capsys, command, n_walks):
        out = tmp_path / "w"
        assert run(command, cfg_path, "--n-walks", n_walks, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --n-walks must be >= 1") and "Traceback" not in err
        assert not out.exists()

    def test_negative_trace_is_a_usage_failure(self, tmp_path, capsys):
        out = tmp_path / "tr"
        argv = ("simulate", "--annulus", 0.25, "--start-x", 0.5, "--n-walks", 50, "--trace", -3)
        assert run(*argv, "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error: --trace must be >= 0")
        assert not out.exists()

    def test_config_and_annulus_is_a_usage_failure(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "both"
        argv = ("simulate", cfg_path, "--annulus", 0.25, "--start-x", 0.5, "--n-walks", 100)
        assert run(*argv, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pass a configuration file or --annulus R0")
        assert str(cfg_path) in err and "--annulus 0.25" in err
        assert not out.exists()

    def test_no_input_is_a_usage_failure(self, tmp_path, capsys):
        out = tmp_path / "none"
        assert run("simulate", "--n-walks", 100, "--out-dir", out) == 2
        assert capsys.readouterr().err == "error: pass a configuration file or --annulus R0\n"
        assert not out.exists()

    def test_trace_rows(self, tmp_path):
        out = tmp_path / "tr"
        code = run(
            "simulate", "--annulus", 0.25, "--start-x", 0.5,
            "--n-walks", 50, "--trace", 10, "--out-dir", out,
        )
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "walk,outcome,steps"
        assert len(lines) == 11

    def test_trace_rows_are_the_walk_records(self, cfg_path, tmp_path):
        out = tmp_path / "tr"
        code = run(
            "simulate", cfg_path, "--eps", 1e-6, "--n-walks", 300, "--seed", 4,
            "--trace", 300, "--out-dir", out,
        )
        assert code == 0
        doc = json.loads((out / "simulate.json").read_text())
        est = estimate_escape(
            WalkParams(eps_shell=1e-6, seed=4, n_walks=300), loads_config(cfg_path.read_text())
        )
        want = [
            f"{w},{OUTCOMES[o]},{t}" for w, (o, t) in enumerate(zip(est.walk_outcome, est.walk_steps))
        ]
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert rows == want
        outcomes = [r.split(",")[1] for r in rows]
        assert doc["estimate"]["n_escaped"] == outcomes.count("escaped")
        assert doc["estimate"]["n_hit"] == outcomes.count("hit")
        assert doc["estimate"]["n_censored"] == outcomes.count("censored")
        assert doc["estimate"]["mean_steps"] == sum(int(r.split(",")[2]) for r in rows) / 300

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_invalid_config_exit_one(self, tmp_path, capsys, command):
        path = tmp_path / "overlap.json"
        path.write_text(
            dumps_config(
                Configuration.from_discs(
                    [Disc.from_radius(Point(0.6, 0.0), 0.05), Disc.from_radius(Point(0.62, 0.0), 0.05)]
                )
            )
        )
        out = tmp_path / "o"
        assert run(command, path, "--n-walks", 10, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("invalid: overlap")
        assert not out.exists()

    def test_threads_env_caps_processes(self, monkeypatch):
        def params(n_walks):
            return _walk_params(build_parser().parse_args(["simulate", "--n-walks", str(n_walks)]))

        monkeypatch.delenv("CHAMPAGNE_THREADS", raising=False)
        assert params(3000).processes == len(os.sched_getaffinity(0))
        monkeypatch.setenv("CHAMPAGNE_THREADS", "4")
        four = params(3000)
        assert four.processes == 4
        # the variable no longer sets the chunk size
        assert four.chunk_size == params(1_000_000).chunk_size == WalkParams().chunk_size == 32_768


class TestSweepAndReport:
    def test_one_spatial_index_per_depth_below_the_file(self, cfg_path, tmp_path, monkeypatch):
        # every depth, cut or not, is walked on the validated configuration's index
        builds = []
        init = SpatialIndex.__init__
        monkeypatch.setattr(
            SpatialIndex, "__init__", lambda self, c: builds.append(c) or init(self, c)
        )
        argv = ("sweep", cfg_path, "--depths", "7,8,9", "--n-walks", 200, "--out-dir", tmp_path / "s")
        assert run(*argv) == 0
        assert len(builds) == 1
        assert builds[0].n_max == 8 and "truncated" not in builds[0].provenance

    def test_sweep_decreasing_and_report_verdict(self, cfg_path, tmp_path):
        out = tmp_path / "sr"
        assert run("check", cfg_path, "--y-grid", 4, "--out-dir", out) == 0
        assert (
            run(
                "sweep", cfg_path, "--depths", "6,7,8", "--eps", 1e-8,
                "--n-walks", 4000, "--seed", 7, "--out-dir", out,
            )
            == 0
        )
        sweep = json.loads((out / "sweep.json").read_text())
        ps = [r["estimate"]["p_escape"] for r in sweep["rows"]]
        assert ps[0] > ps[1] > ps[2]
        assert (
            run("report", "--check", out / "check.json", "--sweep", out / "sweep.json",
                "--out-dir", out)
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"][0]["verdict"] == "consistent with unavoidable"
        assert report["verdicts"][0]["test"]

    def test_avoidable_report(self, tmp_path):
        ring = tmp_path / "ring.json"
        out = tmp_path / "ro"
        run("generate", "avoidable-ring", "-o", ring)
        run("check", ring, "--y-grid", 4, "--out-dir", out)
        run("report", "--check", out / "check.json", "--out-dir", out)
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"][0]["verdict"] == "certified avoidable (capacity budget)"

    def test_empty_config_trivial_verdict(self, tmp_path):
        from champagne.generators import generate_avoidable_ring
        from champagne.geometry import dumps_config

        empty = tmp_path / "empty.json"
        empty.write_text(dumps_config(generate_avoidable_ring(log_radius_schedule=[])))
        out = tmp_path / "eo"
        assert run("check", empty, "--y-grid", 4, "--out-dir", out) == 0
        run("report", "--check", out / "check.json", "--out-dir", out)
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"][0]["verdict"] == "certified avoidable (trivial)"

    def test_missing_inputs_listed(self, tmp_path, capsys):
        code = run("report", "--check", tmp_path / "no.json", "--out-dir", tmp_path)
        assert code == 2
        assert "missing input" in capsys.readouterr().err

    def test_inconclusive_without_sweep(self, cfg_path, tmp_path):
        out = tmp_path / "inc"
        run("check", cfg_path, "--y-grid", 4, "--out-dir", out)
        run("report", "--check", out / "check.json", "--out-dir", out)
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"][0]["verdict"] == "inconclusive"


class TestCapacityCommand:
    def test_capacity_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "cap"
        code = run(
            "capacity", cfg_path, "--quasiadditivity", "--shrink-to-floor",
            "--max-cells", 12, "--out-dir", out,
        )
        assert code == 0
        text = (out / "capacity.csv").read_text()
        assert "np." not in text
        lines = text.splitlines()
        assert lines[0] == (
            "n,m,log_capacity,capacity,c2_scaled,cell_series_term,quasiadditivity_ratio"
        )
        assert len(lines) == 13
        doc = json.loads((out / "capacity.json").read_text())
        assert doc["summary"]["certificate"]["issued"] is False
        assert doc["summary"]["shrink_log_delta"] < 0
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[2]) < 0.0  # log capacity of a cell set
            assert float(cols[4]) > 0.0  # scaled-cell truncated capacity
            if cols[6]:
                assert 0.0 < float(cols[6]) <= 1.0 + 1e-6


    @pytest.mark.parametrize("family", ["avoidable-ring", "phi-grid"])
    def test_explicit_storage_one_row_per_cell(self, tmp_path, family):
        from champagne.capacity import (
            CapacityConstants,
            c2_disc_system,
            cell_capacity_weights,
        )
        from champagne.geometry import (
            WhitneyIndex,
            dumps_config,
            loads_config,
            whitney_cell,
        )

        grid = tmp_path / "grid.json"
        extra = ["--per-cell", 2, "--n-max", 3] if family == "phi-grid" else []
        assert run("generate", family, *extra, "-o", grid) == 0
        cfg = loads_config(grid.read_text()).materialized()
        path = tmp_path / "explicit.json"
        path.write_text(dumps_config(cfg) + "\n")
        out = tmp_path / "cap"
        # every cell is written: generation 3 of the grid has 128
        assert run("capacity", path, "--max-cells-per-generation", 128, "--out-dir", out) == 0

        rows = [line.split(",") for line in (out / "capacity.csv").read_text().splitlines()[1:]]
        keys = [(int(row[0]), int(row[1])) for row in rows]
        weights = cell_capacity_weights(cfg)
        assert all(len(row.ms) == 1 for row in weights)
        assert keys == sorted(keys) == [(row.n, row.ms.start) for row in weights]
        constants = CapacityConstants.for_configuration(cfg)
        discs = list(cfg.iter_discs())
        for (n, m), row in zip(keys, rows):
            cell = whitney_cell(WhitneyIndex(n, m))
            hits = [d for d in discs if cell.distance_to(d.center) <= d.radius]
            scale = constants.cell_scale(n)
            c2, _ = c2_disc_system(
                np.array([d.center.x for d in hits]) * scale,
                np.array([d.center.y for d in hits]) * scale,
                np.array([d.log_radius for d in hits]) + math.log(scale),
            )
            assert float(row[4]) == c2


    def test_dropped_prefix_matches_materialized_twin(self, tmp_path):
        # full generations stay clusters; the cut one is solved cell by cell
        path, twin = tmp_path / "prefix.json", tmp_path / "twin.json"
        assert run(
            "generate", "subsquares", "--beta", 0.1, "--c0", 0.3, "--n-min", 6,
            "--n-max", 8, "--drop-first", 5, "-o", path,
        ) == 0
        twin.write_text(dumps_config(loads_config(path.read_text()).materialized()))
        tables = []
        for cfg in (path, twin):
            assert run("capacity", cfg, "--quasiadditivity", "--out-dir", tmp_path / cfg.stem) == 0
            with open(tmp_path / cfg.stem / "capacity.csv", newline="") as fh:
                tables.append({(int(r["n"]), int(r["m"])): r for r in csv.DictReader(fh)})
        rows, twin_rows = tables
        # the cut generation has no row for its dropped cells 0..4, and its
        # next 64 cells are written, as for full generations
        assert sorted(m for n, m in rows if n == 6) == list(range(5, 69))
        assert [sum(n == g for n, _ in rows) for g in (7, 8)] == [64, 64]
        for key, row in rows.items():
            want = float(twin_rows[key]["log_capacity"])
            assert float(row["log_capacity"]) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert row["quasiadditivity_ratio"] == twin_rows[key]["quasiadditivity_ratio"]


    def test_mixed_storage_matches_materialized_twin(self, tmp_path):
        # p = 1 rings, whose one-disc clusters are exact, plus two explicit
        # discs: one in generation 1, which holds no rings, and one on the
        # edge between the generation-6 cells 99 and 100, which reaches
        # that ring generation and sends it cell by cell
        rings = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=7))
        theta, rho = 2.0 * math.pi * 100 / sector_count(6), rings.blocks[0].rho
        explicit = DiscBlock(
            np.array([0.6, rho * math.cos(theta)]),
            np.array([0.0, rho * math.sin(theta)]),
            np.array([math.log(1e-3), math.log(1e-5)]),
        )
        cfg = Configuration(blocks=(explicit,) + rings.blocks, n_max=7)
        path, twin = tmp_path / "mixed.json", tmp_path / "twin.json"
        path.write_text(dumps_config(cfg))
        twin.write_text(dumps_config(cfg.materialized()))
        tables = []
        for f in (path, twin):
            argv = ("capacity", f, "--max-cells-per-generation", 1024, "--out-dir", tmp_path / f.stem)
            assert run(*argv) == 0
            with open(tmp_path / f.stem / "capacity.csv", newline="") as fh:
                tables.append({(int(r["n"]), int(r["m"])): r for r in csv.DictReader(fh)})
        rows, twin_rows = tables
        assert sorted(rows) == [(1, 0), (1, 31)] + [(6, m) for m in range(1024)] + [
            (7, m) for m in range(1024)
        ]
        assert rows[(6, 99)]["log_capacity"] != rows[(6, 98)]["log_capacity"]
        for key, row in rows.items():
            want = float(twin_rows[key]["log_capacity"])
            assert float(row["log_capacity"]) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cut_cell_alone_is_gathered(self, tmp_path):
        # the flagship n <= 6 less 3000 discs: the prefix ends inside cell 10
        # of generation 4 (p = 8), which is solved on its own discs; every
        # other row is the unprefixed file's, its run sharing the cluster
        from champagne.capacity import (
            CapacityConstants,
            CellDiscs,
            _cell_discs,
            _cell_shape,
            c2_disc_system,
            log_capacity,
        )
        from champagne.geometry import WhitneyIndex, spatial_index

        tables = {}
        for drop in (0, 3000):
            path, out = tmp_path / f"drop{drop}.json", tmp_path / f"cap{drop}"
            assert run(
                "generate", "subsquares", "--beta", 1.5, "--c0", 0.05, "--n-max", 6,
                "--drop-first", drop, "-o", path,
            ) == 0
            assert run("capacity", path, "--max-cells-per-generation", 1024, "--out-dir", out) == 0
            with open(out / "capacity.csv", newline="") as fh:
                tables[drop] = {(int(r["n"]), int(r["m"])): r for r in csv.DictReader(fh)}
        cut, full = tables[3000], tables[0]
        assert sorted(cut) == [k for k in sorted(full) if k >= (4, 10)]
        for key, row in cut.items():
            if key != (4, 10):
                assert row == full[key]
        cfg = loads_config((tmp_path / "drop3000.json").read_text())
        twin = cfg.materialized()
        i, ex = _cell_discs(twin)[(4, 10)], spatial_index(twin)
        assert len(i) == 40
        # every disc clipped: log_capacity decides each one exactly
        discs = CellDiscs(ex.exp_x[i], ex.exp_y[i], ex.exp_log_r[i], np.zeros(len(i), dtype=bool))
        est = log_capacity(_cell_shape(WhitneyIndex(4, 10), discs))
        assert cut[(4, 10)]["log_capacity"] == repr(est.log_value)
        scale = CapacityConstants.for_configuration(cfg).cell_scale(4)
        c2, _ = c2_disc_system(discs.x * scale, discs.y * scale, discs.log_r + math.log(scale))
        assert cut[(4, 10)]["c2_scaled"] == repr(c2)

    @pytest.mark.parametrize("storage", ["explicit", "cut", "reached"])
    def test_cells_capped_per_generation(self, tmp_path, storage):
        # an explicit generation, a cut one and one that an explicit disc
        # reaches are written cell by cell, ten cells each; generation 7 of
        # the cut and reached files is a full ring generation
        rings = generate_subsquares(
            GeneratorParams.exp_power(
                beta=0.1, c0=0.3, n_min=6, n_max=7, drop_first=5 if storage == "cut" else 0
            )
        )
        cfg = rings.materialized() if storage == "explicit" else rings
        if storage == "reached":
            theta, rho = 2.0 * math.pi * 100 / sector_count(6), rings.blocks[0].rho
            edge = DiscBlock(
                np.array([rho * math.cos(theta)]), np.array([rho * math.sin(theta)]), np.array([-11.5])
            )
            cfg = Configuration(blocks=(edge,) + rings.blocks, n_max=7)
        path, out = tmp_path / "cfg.json", tmp_path / "cap"
        path.write_text(dumps_config(cfg))
        assert run("capacity", path, "--max-cells-per-generation", 10, "--out-dir", out) == 0
        with open(out / "capacity.csv", newline="") as fh:
            keys = [(int(r["n"]), int(r["m"])) for r in csv.DictReader(fh)]
        first = 5 if storage == "cut" else 0
        assert keys == [(6, m) for m in range(first, first + 10)] + [(7, m) for m in range(10)]

    def test_c2_solved_only_for_rows_written(self, tmp_path, monkeypatch):
        from champagne import capacity

        grid = tmp_path / "grid.json"
        assert run("generate", "phi-grid", "--per-cell", 2, "--n-max", 3, "-o", grid) == 0
        path = tmp_path / "explicit.json"
        path.write_text(dumps_config(loads_config(grid.read_text()).materialized()))
        calls = []
        real = capacity._scaled_c2
        monkeypatch.setattr(
            capacity, "_scaled_c2", lambda *a: calls.append(a) or real(*a)
        )
        assert run("capacity", path, "--max-cells", 5, "--out-dir", tmp_path / "cap") == 0
        assert len(calls) == 5
        lines = (tmp_path / "cap" / "capacity.csv").read_text().splitlines()
        assert len(lines) == 6


class TestExitCodes:
    def test_walker_error_exits_one(self, tmp_path, capsys):
        # the default start, the origin, lies inside the annulus obstacle
        assert run("simulate", "--annulus", 0.25, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_cell_bound_exits_one(self, tmp_path, capsys):
        # the prefix cuts cell 0 of generation 8 of the flagship, whose
        # 4095 discs are too many for one cell's solve
        path = tmp_path / "big.json"
        assert run(
            "generate", "subsquares", "--beta", 1.5, "--c0", 0.05, "--n-max", 8,
            "--drop-first", 3558177, "-o", path,
        ) == 0
        assert run("capacity", path, "--out-dir", tmp_path / "cap") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell (n=8, m=0) holds 4095 discs") and "Traceback" not in err
        assert not (tmp_path / "cap").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--y-grid", 0), ("--y-grid", -3), ("--criteria", "bogus"), ("--criteria", "poisson,")],
    )
    def test_check_unusable_argument_exits_two(self, cfg_path, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        assert run("check", cfg_path, flag, value, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and "Traceback" not in err
        assert not (out / "check.json").exists()

    @pytest.mark.parametrize("text", ['{"discs": [{"x": 0.7,', '{"rings": [{"n": 1}]}'])
    def test_unparseable_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run("check", path, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("command", ["check", "capacity", "simulate"])
    def test_non_finite_disc_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "nan.json"
        path.write_text('{"discs": [{"x": NaN, "y": 0.1, "log_r": -5.0}], "n_max": 2}')
        extra = ["--n-walks", 10] if command == "simulate" else []
        assert run(command, path, *extra, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["check", "capacity", "simulate", "sweep"])
    def test_mislabelled_ring_exits_one(self, tmp_path, capsys, command):
        # ring 1 is labelled n=2 but its circle lies in generation 0
        rings = (
            RingBlock(n=1, rho=0.6, log_r=math.log(0.01), count=8),
            RingBlock(n=2, rho=0.3, log_r=math.log(0.01), count=8),
        )
        path = tmp_path / "mislabelled.json"
        path.write_text(dumps_config(Configuration(blocks=rings, n_max=2)))
        extra = ["--n-walks", 10] if command in ("simulate", "sweep") else []
        assert run(command, path, *extra, "--out-dir", tmp_path / "out") == 1
        assert "invalid: generation ring block 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "capacity", "simulate"])
    @pytest.mark.parametrize("storage", ["rings", "reversed", "materialized"])
    def test_overlap_across_a_dropped_prefix_exits_one(self, tmp_path, capsys, command, storage):
        # slot 180 of the first ring and slot 123 of the second sit on one
        # ray, 0.01 apart, and their discs of radius 0.006 meet; the
        # verdict does not depend on block order or storage
        rings = (
            RingBlock(n=1, rho=0.7, log_r=math.log(0.006), count=190),
            RingBlock(n=1, rho=0.71, log_r=math.log(0.006), count=130, a_start=113),
        )
        config = Configuration(blocks=rings[::-1] if storage == "reversed" else rings, n_max=1)
        if storage == "materialized":
            config = config.materialized()
        path = tmp_path / "pair.json"
        path.write_text(dumps_config(config))
        extra = ["--n-walks", 10] if command == "simulate" else []
        assert run(command, path, *extra, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("invalid: overlap")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depths", ["6,x", "", "6,,8", "6.5", "-3", "6,-1"])
    def test_bad_sweep_depths_exit_two(self, cfg_path, tmp_path, capsys, depths):
        out = tmp_path / "s"
        assert run("sweep", cfg_path, "--depths", depths, "--n-walks", 10, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --depths") and "Traceback" not in err
        assert not (out / "sweep.json").exists()

    def test_sweep_depth_zero_walks_no_disc(self, cfg_path, tmp_path):
        out = tmp_path / "s"
        assert run("sweep", cfg_path, "--depths", "0", "--n-walks", 50, "--out-dir", out) == 0
        row = json.loads((out / "sweep.json").read_text())["rows"][0]
        assert row["n_max"] == 0 and row["estimate"]["p_escape"] == 1.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-cells", 0), ("--max-cells-per-generation", -1), ("--n-max", -3), ("--n-max", 0)],
    )
    def test_capacity_cap_below_one_exits_two(self, cfg_path, tmp_path, capsys, flag, value):
        out = tmp_path / "k"
        assert run("capacity", cfg_path, flag, value, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= 1") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_infinite_eps_exits_one(self, cfg_path, tmp_path, capsys, command):
        out = tmp_path / "w"
        assert run(command, cfg_path, "--eps", "inf", "--n-walks", 10, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error: eps_shell must lie in (0, 1)")
        assert not out.exists()

    def test_ids_beyond_int64_exit_one_before_generating(self, tmp_path, capsys):
        # generation 24 of the flagship alone holds 2^(24+4) * (2^18)^2 = 2^64 discs
        out = tmp_path / "big.json"
        assert run("generate", "subsquares", "--n-max", 24, "-o", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "int64" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_report_non_finite_threshold_exits_two(self, tmp_path, capsys, value):
        out = tmp_path / "r"
        assert run("report", f"--separation-threshold={value}", "--out-dir", out) == 2
        assert capsys.readouterr().err.startswith("error: --separation-threshold must be finite")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("avoidable-ring", "--target", "nan"), "avoidable budget target must be finite"),
            (("subsquares", "--n-max", 2, "--alpha", "nan"), "alpha must be finite"),
            (("subsquares", "--n-max", 2, "--alpha", "inf"), "alpha must be finite"),
        ],
    )
    def test_generate_non_finite_parameter_exits_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.json"
        assert run("generate", *argv, "-o", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_check_non_finite_alpha_exits_one(self, cfg_path, tmp_path, capsys, value):
        out = tmp_path / "c"
        assert run("check", cfg_path, "--alpha", value, "--y-grid", 2, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith("error: alpha must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            *(("--alpha", v, "alpha must be positive and finite") for v in ("nan", "0", "-1")),
            *(
                ("--integral-upper", v, "integration endpoint must lie in (0, 1)")
                for v in ("nan", "inf", "0", "1", "-0.5")
            ),
        ],
    )
    @pytest.mark.parametrize("criteria", ["poisson", "integral"])
    @pytest.mark.parametrize("provenance", [True, False])
    def test_check_bad_alpha_or_upper_exits_one_whatever_runs(
        self, cfg_path, tmp_path, capsys, flag, value, message, criteria, provenance
    ):
        # both values are written to check.json, so neither may be NaN there
        # or out of range, even when no selected criterion reads it
        path = cfg_path
        if not provenance:
            path = tmp_path / "plain.json"
            block = DiscBlock(np.array([0.7]), np.array([0.0]), np.array([-8.0]))
            path.write_text(dumps_config(Configuration(blocks=(block,), n_max=2)))
        out = tmp_path / "c"
        argv = ("check", path, "--criteria", criteria, flag, value, "--out-dir", out)
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--check", "--sweep"])
    def test_malformed_report_input_exits_two(self, tmp_path, capsys, flag):
        path = tmp_path / "bad.json"
        path.write_text('{"summary": ')
        assert run("report", flag, path, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text", ["{}", '{"rows": [{"n_max": 6}]}', '{"rows": {"a": 1}}'])
    def test_report_sweep_missing_field_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "sweep.json"
        path.write_text(text)
        assert run("report", "--sweep", path, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report_certificate_missing_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        path.write_text('{"summary": {"avoidable_certificate": {"issued": true}}}')
        assert run("report", "--check", path, "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")


def _main_in_fresh_process(argv, probe: str) -> list[str]:
    """[exit code, str(probe)] of ``main(argv)`` in a new interpreter, where
    probe is a Python expression read after main returns."""
    code = f"import sys; from champagne.cli import main; rc = main(sys.argv[1:]); print(rc, {probe})"
    env = dict(os.environ)
    src = str(Path(champagne.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()[-2:]


class TestWithoutScipy:
    @pytest.mark.parametrize("command", [["check"], ["simulate", "--n-walks", "50"]])
    def test_explicit_storage_leaves_scipy_unloaded(self, tmp_path, command):
        # 3,072 explicit discs: validation, separation and walks all take
        # the windowed band queries
        path = tmp_path / "explicit.json"
        rings = generate_subsquares(GeneratorParams.exp_power(beta=0.1, c0=0.3, n_min=6, n_max=7))
        path.write_text(dumps_config(rings.materialized()))
        loaded = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        argv = [command[0], path, *command[1:], "--out-dir", tmp_path]
        assert _main_in_fresh_process(argv, loaded) == ["0", "False"]


class TestWithoutNumpyMa:
    @pytest.mark.parametrize(
        "command",
        [["check"], ["capacity"], ["sweep", "--depths", "6,8", "--n-walks", "50"]],
    )
    def test_commands_leave_numpy_ma_unloaded(self, cfg_path, tmp_path, command):
        # np.unique and np.median import numpy.ma on their first call
        argv = [command[0], cfg_path, *command[1:], "--out-dir", tmp_path]
        assert _main_in_fresh_process(argv, "'numpy.ma' in sys.modules") == ["0", "False"]


class TestCheckWithoutCapacity:
    @pytest.mark.parametrize("config", ["rings", "avoidable"])
    def test_check_leaves_capacity_unloaded(self, cfg_path, tmp_path, config):
        # the avoidability certificate is a budget criterion: check needs no
        # capacity solver
        path = cfg_path
        if config == "avoidable":
            path = tmp_path / "ring.json"
            assert run("generate", "avoidable-ring", "-o", path) == 0
        argv = ["check", path, "--out-dir", tmp_path]
        assert _main_in_fresh_process(argv, "'champagne.capacity' in sys.modules") == ["0", "False"]


class TestEnvOverrides:
    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_threads_env_not_an_integer_is_a_usage_failure(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("CHAMPAGNE_THREADS", value)
        argv = ("simulate", "--annulus", 0.25, "--start-x", 0.5, "--n-walks", 10, "--out-dir", tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CHAMPAGNE_THREADS") and "Traceback" not in err
        assert not (tmp_path / "simulate.json").exists()

    def test_out_dir_env(self, cfg_path, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("CHAMPAGNE_OUT", str(target))
        assert run("check", cfg_path, "--y-grid", 4) == 0
        assert (target / "check.json").exists()

    def test_threads_env_same_bytes(self, cfg_path, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        run("sweep", cfg_path, "--depths", "6,7", "--n-walks", 2000, "--seed", 5,
            "--eps", 1e-6, "--out-dir", out1)
        monkeypatch.setenv("CHAMPAGNE_THREADS", "4")
        run("sweep", cfg_path, "--depths", "6,7", "--n-walks", 2000, "--seed", 5,
            "--eps", 1e-6, "--out-dir", out2)
        assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()
