import csv
import hashlib
import json
import math
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_one_depth_is_no_trend(self, cfg_path, tmp_path):
        out = tmp_path / "one"
        assert run("check", cfg_path, "--y-grid", 4, "--out-dir", out) == 0
        assert run("sweep", cfg_path, "--depths", "8", "--n-walks", 200, "--out-dir", out) == 0
        argv = ("report", "--check", out / "check.json", "--sweep", out / "sweep.json")
        assert run(*argv, "--out-dir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert not report["summary"]["escape_trend"]["strictly_decreasing_beyond_2ci"]
        assert report["verdicts"][0]["verdict"] == "inconclusive"

    def test_trend_read_in_ascending_depth(self, cfg_path, tmp_path):
        check = tmp_path / "check.json"
        assert run("check", cfg_path, "--y-grid", 4, "--out-dir", tmp_path) == 0
        reports = []
        for depths in ("6,7,8", "8,6,7"):
            out = tmp_path / depths.replace(",", "")
            argv = ("--eps", 1e-8, "--n-walks", 4000, "--seed", 7, "--out-dir", out)
            assert run("sweep", cfg_path, "--depths", depths, *argv) == 0
            argv = ("report", "--check", check, "--sweep", out / "sweep.json")
            assert run(*argv, "--out-dir", out) == 0
            report = json.loads((out / "report.json").read_text())
            reports.append((report["summary"], report["verdicts"]))
        assert reports[1] == reports[0]
        assert reports[0][1][0]["verdict"] == "consistent with unavoidable"

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
        from champagne.capacity import CapacityConstants

        constants = CapacityConstants.for_configuration(loads_config(cfg_path.read_text()))
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[2]) < 0.0  # log capacity of a cell set
            # scaled-cell truncated capacity, read off the row's log capacity
            log_scale = math.log(constants.cell_scale(int(cols[0])))
            assert cols[4] == repr(1.0 / (math.log(2.0) - (float(cols[2]) + log_scale)))
            assert float(cols[4]) > 0.0
            if cols[6]:
                assert 0.0 < float(cols[6]) <= 1.0 + 1e-6


    @pytest.mark.parametrize("family", ["avoidable-ring", "phi-grid"])
    def test_explicit_storage_one_row_per_cell(self, tmp_path, family):
        from champagne.capacity import (
            CapacityConstants,
            _cell_bounds,
            _piece_log_capacity,
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
        assert (weights.m_hi - weights.m_lo == 1).all()
        assert keys == sorted(keys) == list(zip(weights.n.tolist(), weights.m_lo.tolist()))
        constants = CapacityConstants.for_configuration(cfg)
        discs = list(cfg.iter_discs())
        straddled = 0
        for (n, m), row in zip(keys, rows):
            cell = whitney_cell(WhitneyIndex(n, m))
            hits = [d for d in discs if cell.distance_to(d.center) <= d.radius]
            scale = constants.cell_scale(n)
            # C2 is the closed form of the row's own log capacity
            assert row[4] == repr(1.0 / (math.log(2.0) - (float(row[2]) + math.log(scale))))
            x, y, log_r = (np.array(a) for a in zip(*((d.center.x, d.center.y, d.log_radius) for d in hits)))
            whole, _ = c2_disc_system(x * scale, y * scale, log_r + math.log(scale))
            if (_piece_log_capacity(x, y, log_r, _cell_bounds([cell] * len(x))) == log_r).all():
                assert float(row[4]) == pytest.approx(whole, rel=1e-13)
            else:
                # the row's set is the discs clipped to the cell
                straddled += 1
                assert float(row[4]) <= whole
        assert (straddled > 0) == (family == "avoidable-ring")


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
        theta, rho = 2.0 * math.pi * 100 / sector_count(6), rings.rings.rho[0]
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

    @pytest.mark.parametrize("gap", [1e-4, 1e-12])
    def test_disc_near_the_circle_stops_at_n_max(self, tmp_path, gap):
        # a disc of radius 0.1 - gap at x = 0.9 reaches cells of every
        # generation from 2 on; the rows stop at the file's n_max, 4, and
        # each is the clipped disc's capacity in a cell that it meets there
        from champagne.capacity import ClippedDiscShape, DiscShape, log_capacity
        from champagne.geometry import Disc, Point, cells_intersecting_disc, whitney_cell

        log_r = math.log(1.0 - 0.9 - gap)
        path, out = tmp_path / "near.json", tmp_path / "cap"
        path.write_text(json.dumps({"discs": [{"x": 0.9, "y": 0.0, "log_r": log_r}], "n_max": 4}))
        assert run("capacity", path, "--out-dir", out) == 0
        with open(out / "capacity.csv", newline="") as fh:
            rows = {(int(r["n"]), int(r["m"])): r for r in csv.DictReader(fh)}
        disc = Disc(Point(0.9, 0.0), log_r)
        if gap == 1e-4:
            # the unbounded search, which is slow only nearer the circle
            cells = [idx for idx in cells_intersecting_disc(disc) if idx.n <= 4]
        else:
            cells = cells_intersecting_disc(disc, 4)
        assert list(rows) == [(idx.n, idx.m) for idx in cells]
        assert {n for n, _ in rows} == {2, 3, 4}
        for idx in cells[:: max(len(cells) // 4, 1)]:
            est = log_capacity(ClippedDiscShape(DiscShape(disc.center, log_r), whitney_cell(idx)))
            assert rows[(idx.n, idx.m)]["log_capacity"] == repr(est.log_value)

    def test_cut_cell_alone_is_gathered(self, tmp_path):
        # the flagship n <= 6 less 3000 discs: the prefix ends inside cell 10
        # of generation 4 (p = 8), which is solved on its own discs; every
        # other row is the unprefixed file's, its run sharing the cluster
        from champagne.capacity import (
            CapacityConstants,
            CellDiscs,
            ClippedDiscShape,
            DiscShape,
            UnionShape,
            _cell_bounds,
            _cell_pieces,
            _piece_log_capacity,
            c2_disc_system,
            log_capacity,
        )
        from champagne.geometry import Point, WhitneyIndex, whitney_cell

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
        n, m, *columns = _cell_pieces(twin)
        at = (n == 4) & (m == 10)
        assert at.sum() == 40
        discs = CellDiscs(*(a[at] for a in columns))
        cell = whitney_cell(WhitneyIndex(4, 10))
        parts = zip(discs.x.tolist(), discs.y.tolist(), discs.log_r.tolist())
        est = log_capacity(UnionShape(tuple(ClippedDiscShape(DiscShape(Point(x, y), lr), cell) for x, y, lr in parts)))
        assert cut[(4, 10)]["log_capacity"] == repr(est.log_value)
        scale = CapacityConstants.for_configuration(cfg).cell_scale(4)
        c2 = 1.0 / (math.log(2.0) - (est.log_value + math.log(scale)))
        assert cut[(4, 10)]["c2_scaled"] == repr(c2)
        # the cell's discs lie inside it: the truncated-kernel solve agrees
        assert (_piece_log_capacity(*discs[:3], _cell_bounds([cell] * 40)) == discs.log_r).all()
        assert (discs.log_c == discs.log_r).all()
        whole, _ = c2_disc_system(discs.x * scale, discs.y * scale, discs.log_r + math.log(scale))
        assert c2 == pytest.approx(whole, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 30), st.integers(0, 3)), max_size=12),
        per_generation=st.integers(1, 60) | st.just(10**30),
        total=st.integers(1, 120) | st.just(10**30),
    )
    def test_first_cells_match_the_row_by_row_cut(self, runs, per_generation, total):
        # rows of 1-30 cells, in generation order with gaps between them,
        # cut as a loop over the rows cuts them
        from champagne.capacity import CellRows
        from champagne.cli import _first_cells

        rows, end = [], {}
        for n, size, gap in sorted(runs, key=lambda run: run[0]):
            lo = end.get(n, 0) + gap
            rows.append((n, range(lo, lo + size)))
            end[n] = lo + size
        want, count, in_generation = [], 0, {}
        for n, ms in rows:
            done = in_generation.get(n, 0)
            ms = ms[: max(min(per_generation - done, total - count), 0)]
            if ms:
                want.append((n, ms))
                count += len(ms)
                in_generation[n] = done + len(ms)
        n, m_lo, m_hi = (
            np.array(column, dtype=np.int64)
            for column in ([n for n, _ in rows], [ms.start for _, ms in rows], [ms.stop for _, ms in rows])
        )
        k = len(rows)
        got = _first_cells(CellRows(n, m_lo, m_hi, np.zeros(k), np.ones(k), np.full(k, -1)), per_generation, total)
        assert list(zip(got.n.tolist(), map(range, got.m_lo.tolist(), got.m_hi.tolist()))) == want

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
            theta, rho = 2.0 * math.pi * 100 / sector_count(6), rings.rings.rho[0]
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
        assert "invalid: generation ring row 1" in capsys.readouterr().err
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

    def test_capacity_n_max_above_the_file_exits_two(self, cfg_path, tmp_path, capsys):
        # the file stops at generation 8: rows of generation 9 do not exist
        out = tmp_path / "k"
        assert run("capacity", cfg_path, "--n-max", 9, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err == "error: --n-max 9 exceeds the configuration's n_max 8\n"
        assert not out.exists()

    def test_disc_one_ulp_below_the_bound_one_exit_code(self, tmp_path, capsys):
        # |x| + r rounds to 1, but log r < log(1 - |x|): every command takes
        # the disc, by the one log-space test
        path = tmp_path / "ulp.json"
        log_r = math.nextafter(math.log(1.0 - 0.9), -math.inf)
        path.write_text(json.dumps({"discs": [{"x": 0.9, "y": 0.0, "log_r": log_r}], "n_max": 2}))
        assert 0.9 + math.exp(log_r) == 1.0
        codes = {
            command: run(command, path, *extra, "--out-dir", tmp_path / command)
            for command, extra in [
                ("check", ["--y-grid", 4]),
                ("capacity", []),
                ("simulate", ["--n-walks", 10]),
                ("sweep", ["--depths", "1,2", "--n-walks", 10]),
            ]
        }
        assert codes == dict.fromkeys(codes, 0)
        assert "error" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("text", ['{"summary": ', "[" * 100_000 + "]" * 100_000])
    @pytest.mark.parametrize("flag", ["--check", "--sweep"])
    def test_malformed_report_input_exits_two(self, tmp_path, capsys, flag, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
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


CONFIG_COMMANDS = {
    "check": ["--y-grid", 2],
    "capacity": [],
    "simulate": ["--n-walks", 20],
    "sweep": ["--depths", "6,7", "--n-walks", 20],
}


# ring integer fields that int() would round, or that leave int64: a
# format error, not another configuration or a traceback
BAD_RING_INTEGERS = {
    f"{name}-count": b'{"rings": [{"n": 1, "rho": 0.7, "log_r": -6.0, %s}], "n_max": 1}' % fields
    for name, fields in (
        ("fractional", b'"count": 64.7, "a_start": 0.9'),
        ("boolean", b'"count": true, "a_start": 0'),
        ("1e30", b'"count": 1e30, "a_start": 0'),
    )
}


class TestConfigurationInput:
    @pytest.mark.parametrize(
        "content",
        [
            b'{"n_max": 1, "provenance": {"name": "caf\xe9"}}',
            b'{"rings": [{"n": 1, "rho": 0.7, "log_r": -6.0, "count": Infinity}], "n_max": 1}',
            b'{"rings": [], "n_max": 1e999}',
            b'{"discs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            b'{"discs": {"x": [0.6, 0.7], "y": [0.0], "log_r": [-5.0, -5.0]}, "n_max": 2}',
            b'{"discs": {"x": [0.6], "y": ["0.0"], "log_r": [-5.0]}, "n_max": 2}',
            b'{"discs": {"x": [0.6], "y": [0.0], "r": [0.01]}, "n_max": 2}',
            b'{"discs": 7, "n_max": 2}',
            *BAD_RING_INTEGERS.values(),
        ],
        ids=[
            "not-utf8", "infinite-count", "overflowing-n-max", "too-deep",
            "ragged-columns", "string-entry", "no-log_r-column", "scalar-discs",
            *BAD_RING_INTEGERS,
        ],
    )
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_malformed_file_exits_two(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert run(command, path, *CONFIG_COMMANDS[command], "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a configuration document")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["x", "y", "log_r"])
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_nan_in_a_column_exits_one(self, tmp_path, capsys, command, field):
        columns = {"x": [0.6, 0.5], "y": [0.0, 0.1], "log_r": [-5.0, -6.0]}
        columns[field][1] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"discs": columns, "n_max": 2}))
        out = tmp_path / "out"
        assert run(command, path, *CONFIG_COMMANDS[command], "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: disc block has a non-finite {field}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_disc_at_or_beyond_its_bound_exits_one(self, tmp_path, capsys, command):
        # r = e^-1 against 1 - |x| = 0.1: refused when the block is built
        path = tmp_path / "wide.json"
        path.write_text('{"discs": [{"x": 0.9, "y": 0.0, "log_r": -1.0}], "n_max": 2}')
        out = tmp_path / "out"
        assert run(command, path, *CONFIG_COMMANDS[command], "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: disc 0 of the block does not satisfy r < 1-|x|"]
        assert not out.exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_one_read_per_input(self, cfg_path, tmp_path, monkeypatch, command):
        want = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        opens, open_ = [], Path.open

        def counting_open(self, *args, **kwargs):
            if self == cfg_path:
                opens.append(args)
            return open_(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        out = tmp_path / "out"
        assert run(command, cfg_path, *CONFIG_COMMANDS[command], "--out-dir", out) == 0
        assert len(opens) == 1
        assert json.loads((out / f"{command}.json").read_text())["input_sha256"] == want


def _child_env(**overrides) -> dict:
    """The environment of a new interpreter: this checkout's ``src`` first
    on PYTHONPATH, with ``overrides`` set, or removed where None."""
    env = dict(os.environ)
    src = str(Path(champagne.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _main_in_fresh_process(argv, probe: str) -> list[str]:
    """[exit code, str(probe)] of ``main(argv)`` in a new interpreter, where
    probe is a Python expression read after main returns."""
    code = f"import sys; from champagne.cli import main; rc = main(sys.argv[1:]); print(rc, {probe})"
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    return out.stdout.split()[-2:]


class TestWithoutScipy:
    @pytest.mark.parametrize("command", [["check"], ["simulate", "--n-walks", "50"]])
    def test_explicit_storage_leaves_scipy_unloaded(self, tmp_path, command):
        # 3,072 explicit discs: validation, separation and walks all take
        # the bucketed band queries
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


# argv of ``python -m champagne.cli``, run in a copy of the files of
# ``exit_inputs``, and the exit code it ends with
EXIT_CASES = {
    "generate": (["generate", "subsquares", "--beta", "0.1", "--c0", "0.3", "--n-min", "6",
                  "--n-max", "7", "-o", "out/cfg.json"], 0),
    "check": (["check", "cfg.json", "--y-grid", "4", "--out-dir", "out"], 0),
    "capacity": (["capacity", "cfg.json", "--quasiadditivity", "--shrink-to-floor",
                  "--out-dir", "out"], 0),
    "sweep": (["sweep", "cfg.json", "--depths", "6,7", "--n-walks", "200", "--eps", "1e-6",
               "--out-dir", "out"], 0),
    "simulate-annulus": (["simulate", "--annulus", "0.25", "--start-x", "0.5", "--n-walks", "200",
                          "--out-dir", "out"], 0),
    "report": (["report", "--check", "check.json", "--sweep", "sweep.json", "--out-dir", "out"], 0),
    "invalid": (["check", "mislabelled.json", "--out-dir", "out"], 1),
    "not-utf8": (["check", "latin1.json", "--out-dir", "out"], 2),
    **{case: (["check", f"{case}.json", "--out-dir", "out"], 2) for case in BAD_RING_INTEGERS},
    "y-grid-0": (["check", "cfg.json", "--y-grid", "0", "--out-dir", "out"], 2),
    "version": (["--version"], 0),
    "help": (["--help"], 0),
    "unknown-subcommand": (["bogus"], 2),
}


@pytest.fixture(scope="module")
def exit_inputs(tmp_path_factory):
    """A configuration, its check and sweep documents, a configuration that
    fails validation, one that is not UTF-8 and ones whose ring integer
    fields are not integers."""
    root = tmp_path_factory.mktemp("exit-inputs")
    cfg = root / "cfg.json"
    assert run("generate", "subsquares", "--beta", 0.1, "--c0", 0.3, "--n-min", 6, "--n-max", 7,
               "-o", cfg) == 0
    assert run("check", cfg, "--y-grid", 4, "--out-dir", root) == 0
    assert run("sweep", cfg, "--depths", "6,7", "--n-walks", 200, "--out-dir", root) == 0
    # ring 1 is labelled n=2 but its circle lies in generation 0
    rings = (
        RingBlock(n=1, rho=0.6, log_r=math.log(0.01), count=8),
        RingBlock(n=2, rho=0.3, log_r=math.log(0.01), count=8),
    )
    (root / "mislabelled.json").write_text(dumps_config(Configuration(blocks=rings, n_max=2)))
    (root / "latin1.json").write_bytes(b'{"n_max": 1, "provenance": {"name": "caf\xe9"}}')
    for case, content in BAD_RING_INTEGERS.items():
        (root / f"{case}.json").write_bytes(content)
    return root


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestProcessExit:
    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_process_matches_main(self, exit_inputs, tmp_path, monkeypatch, capsys, case):
        # the process ends through run(): its exit code, redirected stdout,
        # stderr and artifacts are those of main() in this interpreter; the
        # width of --help follows COLUMNS
        argv, want = EXIT_CASES[case]
        for key in ("CHAMPAGNE_OUT", "CHAMPAGNE_THREADS"):
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("COLUMNS", "80")
        process, in_process = tmp_path / "process", tmp_path / "main"
        shutil.copytree(exit_inputs, process)
        shutil.copytree(exit_inputs, in_process)
        with open(tmp_path / "stdout", "wb") as fh:
            child = subprocess.run(
                [sys.executable, "-m", "champagne.cli", *argv],
                cwd=process, env=_child_env(), stdout=fh, stderr=subprocess.PIPE, timeout=120,
            )
        monkeypatch.chdir(in_process)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert child.returncode == code == want
        assert (tmp_path / "stdout").read_text() == out
        assert child.stderr.decode() == err
        assert _tree(process) == _tree(in_process)

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout", ["broken pipe", "read-only"])
    def test_unwritable_stdout_exits_two(self, tmp_path, stdout, buffering):
        # buffered, the lines reach the descriptor only when run() flushes
        # them; unbuffered, the first print fails inside main()
        if stdout == "broken pipe":
            reader, writer = os.pipe()
            os.close(reader)
        else:
            writer = os.open(tmp_path / "read-only", os.O_RDONLY | os.O_CREAT)
        argv, _ = EXIT_CASES["generate"]
        env = _child_env(PYTHONUNBUFFERED="1" if buffering == "unbuffered" else None)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "champagne.cli", *argv], cwd=tmp_path, env=env,
                stdout=writer, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(writer)
        assert child.returncode == 2
        lines = child.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("I/O failure: "), child.stderr
        assert (tmp_path / "out" / "cfg.json").exists()

    def test_stdout_closed_at_start_up_exits_zero(self, tmp_path):
        # with descriptor 1 closed the interpreter has no sys.stdout and
        # drops every print: nothing fails, as in main()
        argv, _ = EXIT_CASES["generate"]
        child = subprocess.run(
            [sys.executable, "-m", "champagne.cli", *argv], cwd=tmp_path, env=_child_env(),
            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True, timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert (tmp_path / "out" / "cfg.json").exists()

    def test_profiler_writes_its_report(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", "prof.out", "-m", "champagne.cli",
             "report", "--out-dir", "r"],
            cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert (tmp_path / "r" / "report.json").exists()
        functions = {name for _, _, name in pstats.Stats(str(tmp_path / "prof.out")).stats}
        assert "cmd_report" in functions

    def test_atexit_callbacks_run(self, tmp_path):
        # the callback's line sits in stdout's buffer until run() flushes it
        code = (
            "import atexit, sys; from champagne.cli import run; "
            "atexit.register(print, 'atexit ran'); sys.argv[1:] = ['--version']; run()"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_child_env(PYTHONUNBUFFERED=None),
            capture_output=True, text=True, timeout=120,
        )
        assert (child.returncode, child.stdout) == (0, f"{champagne.__version__}\natexit ran\n")
