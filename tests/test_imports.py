"""What each CLI subcommand loads, the lazy package root, and the frozen
records that every module defines.

The package root resolves its public names on first use (PEP 562), and each
subcommand imports the modules it runs inside its own function: a process
pays for numpy and the champagne submodules its command needs and no others.
Importing a module compiles no code beyond its own source: the records
install their methods as closures, and no command loads ``dataclasses``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import champagne
import champagne.cli as cli
from champagne.capacity import CapacityConstants, CapacityError
from champagne.cli import main
from champagne.generators import GeneratorError, GeneratorParams, MSpec, PhiSpec
from champagne.geometry import Configuration, GeometryError, Point, RingRows, Violation, WhitneyIndex
from champagne.walker import EscapeEstimate, WalkerError, WalkParams

SUBMODULES = {
    f"champagne.{m}" for m in ("bands", "capacity", "criteria", "generators", "geometry", "walker")
}
ERRORS = ("GeometryError", "GeneratorError", "CriteriaError", "CapacityError", "WalkerError")


def loaded_by(argv: list[str], cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after ``champagne ARGV`` exits 0."""
    code = (
        "import json, sys; from champagne.cli import main; rc = main(sys.argv[1:]); "
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    env = dict(os.environ)
    src = str(Path(champagne.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    rc, modules = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0, out.stderr
    return set(modules)


class TestImportBudget:
    def test_report_loads_neither_numpy_nor_a_submodule(self, tmp_path):
        modules = loaded_by(["report", "--out-dir", "r"], tmp_path)
        assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)
        assert {m for m in modules if m.startswith("champagne")} == {"champagne", "champagne.cli"}

    @pytest.mark.parametrize(
        "argv, explicit",
        [
            (["simulate", "--annulus", "0.25", "--start-x", "0.5", "--n-walks", "20", "--out-dir", "w"], True),
            (["sweep", "cfg.json", "--depths", "1,2", "--n-walks", "20", "--out-dir", "w"], False),
        ],
    )
    def test_walks_load_geometry_and_walker_only(self, tmp_path, argv, explicit):
        # the explicit-disc table loads for the annulus's one explicit disc,
        # and not for a file of rings
        assert main(["generate", "subsquares", "--n-max", "2", "-o", str(tmp_path / "cfg.json")]) == 0
        modules = loaded_by(argv, tmp_path)
        want = {"champagne.geometry", "champagne.walker"} | ({"champagne.bands"} if explicit else set())
        assert modules & SUBMODULES == want

    def test_generate_subsquares_loads_generators_and_geometry_only(self, tmp_path):
        modules = loaded_by(["generate", "subsquares", "--n-max", "2", "-o", "cfg.json"], tmp_path)
        assert modules & SUBMODULES == {"champagne.generators", "champagne.geometry"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "subsquares", "--n-max", "2", "-o", "out.json"],
            ["check", "cfg.json", "--out-dir", "c"],
            ["capacity", "cfg.json", "--out-dir", "k"],
            ["sweep", "cfg.json", "--depths", "1,2", "--n-walks", "20", "--out-dir", "w"],
        ],
    )
    def test_no_command_loads_dataclasses(self, tmp_path, argv):
        assert main(["generate", "subsquares", "--n-max", "2", "-o", str(tmp_path / "cfg.json")]) == 0
        assert "dataclasses" not in loaded_by(argv, tmp_path)


class TestGeneratedCode:
    def test_no_module_compiles_functions_from_strings(self):
        # every function a champagne module defines comes from its source
        # file: none is exec-compiled from a string at import
        code = (
            "import gc, pkgutil, types, importlib, champagne\n"
            "for m in pkgutil.iter_modules(champagne.__path__):\n"
            "    importlib.import_module('champagne.' + m.name)\n"
            "print(sorted(f.__qualname__ for f in gc.get_objects() if isinstance(f, types.FunctionType)"
            " and (f.__module__ or '').startswith('champagne') and f.__code__.co_filename == '<string>'))"
        )
        env = dict(os.environ)
        src = str(Path(champagne.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# (class, its fields in order, its repr, arguments that __post_init__ refuses
# and the error it raises)
RECORDS = [
    (Point, {"x": 0.0, "y": 0.5}, "Point(x=0.0, y=0.5)", None),
    (WhitneyIndex, {"n": 2, "m": 65}, "WhitneyIndex(n=2, m=1)", ({"n": 0, "m": 0}, GeometryError)),
    (
        CapacityConstants,
        {"cell_comparability": 4.0, "c2_bracket": 2.0},
        "CapacityConstants(cell_comparability=4.0, c2_bracket=2.0)",
        ({"cell_comparability": 0.5}, CapacityError),
    ),
    (MSpec, {"beta": 1.5, "form": "power"}, "MSpec(beta=1.5, form='power')", ({"beta": -1.0}, GeneratorError)),
    (
        WalkParams,
        {"eps_shell": 1e-4, "max_steps": 10, "start": Point(0.5, 0.0), "seed": 3, "n_walks": 20,
         "chunk_size": 8, "processes": 1},
        "WalkParams(eps_shell=0.0001, max_steps=10, start=Point(x=0.5, y=0.0), seed=3, n_walks=20,"
        " chunk_size=8, processes=1)",
        ({"eps_shell": 2.0}, WalkerError),
    ),
    (Violation, {"kind": "overlap", "detail": "d", "indices": (1, 2)},
     "Violation(kind='overlap', detail='d', indices=(1, 2))", None),
]


class TestRecords:
    @pytest.mark.parametrize("cls, values, text, rejected", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_record(self, cls, values, text, rejected):
        made = cls(*values.values())
        assert made == cls(**values) and hash(made) == hash(cls(**values))
        assert repr(made) == text
        assert made != Point(9.0, 9.0)
        first = next(iter(values))
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(made, first, values[first])
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(made, first)
        if rejected is not None:
            with pytest.raises(rejected[1]):
                cls(**{**values, **rejected[0]})
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(**values, no_such_field=0)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values.values(), **{first: values[first]})

    def test_hash_is_the_field_tuple(self):
        # sets and dicts keyed by cells iterate as they did under dataclasses
        assert hash(WhitneyIndex(3, 5)) == hash((3, 5))
        assert hash(Point(0.25, -0.5)) == hash((0.25, -0.5))

    def test_defaults_and_factories(self):
        params = GeneratorParams()
        assert params.phi == PhiSpec() and params.phi is not GeneratorParams().phi
        assert (params.alpha, params.n_max, params.drop_first) == (2.0, 8, 0)
        assert WalkParams().start == Point(0.0, 0.0) and WalkParams().start is not WalkParams().start
        assert MSpec(2.0) == MSpec(beta=2.0, form="power")
        with pytest.raises(TypeError, match="missing required argument 'beta'"):
            MSpec()

    def test_fields_left_out_of_repr_and_comparison(self):
        a = EscapeEstimate.from_records(np.array([0, 1, 0]), np.array([3, 4, 5]))
        b = EscapeEstimate.from_records(np.array([1, 0, 0]), np.array([2, 4, 6]))
        assert a == b and "walk_outcome" not in repr(a) and "walk_steps" not in repr(a)

    def test_identity_records_and_their_memos(self):
        rows = RingRows([1], [0.6], [-50.0], [32], [0])
        assert rows != RingRows([1], [0.6], [-50.0], [32], [0]) and rows == rows
        assert "log_gap=" not in repr(rows) and rows.log_gap[0] == math.log(1.0 - 0.6)
        config = Configuration(rings=rows, n_max=1)
        assert config.ratio_sup > 0.0 and "log_ratio_sup" in vars(config)
        assert not hasattr(config, "__dataclass_fields__")


class TestPackageRoot:
    def test_every_exported_name_resolves(self):
        for name in champagne.__all__:
            assert getattr(champagne, name) is not None
        assert set(champagne.__all__) <= set(dir(champagne))

    def test_exports_are_the_defining_modules_objects(self):
        from champagne import WalkParams, loads_config
        from champagne.geometry import loads_config as defined
        from champagne.walker import WalkParams as walk_params

        assert loads_config is defined and WalkParams is walk_params
        assert champagne.SCHEMA_VERSION == champagne.geometry.SCHEMA_VERSION

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            champagne.no_such_name
        with pytest.raises(ImportError):
            from champagne import no_such_name  # noqa: F401


class TestErrorFamily:
    @pytest.mark.parametrize("name", ERRORS)
    def test_every_error_class_exits_one(self, monkeypatch, capsys, name):
        error = getattr(champagne, name)
        assert issubclass(error, champagne.ChampagneError)
        assert issubclass(error, ValueError)

        def fail(args):
            raise error("rejected")

        monkeypatch.setattr(cli, "cmd_report", fail)
        assert main(["report"]) == 1
        assert capsys.readouterr().err == "error: rejected\n"
