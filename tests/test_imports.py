"""What each CLI subcommand loads, and the lazy package root.

The package root resolves its public names on first use (PEP 562), and each
subcommand imports the modules it runs inside its own function: a process
pays for numpy and the champagne submodules its command needs and no others.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import champagne
import champagne.cli as cli
from champagne.cli import main

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
