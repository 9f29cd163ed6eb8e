"""Rewrite a configuration file with every disc stored explicitly.

Usage: python3 perfbench/materialize.py SOURCE.json DEST.json
"""

import sys
from pathlib import Path

from champagne.geometry import dumps_config, loads_config


def materialize(source: str, dest: str) -> None:
    config = loads_config(Path(source).read_text())
    Path(dest).write_text(dumps_config(config.materialized()) + "\n")


if __name__ == "__main__":
    materialize(*sys.argv[1:])
