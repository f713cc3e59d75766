"""Module boundaries: the deciders never load the reference oracles.

Each check imports one module in a fresh interpreter under an empty
``badcycle`` package object, so the package ``__init__`` (which imports
everything) does not run and only the module's own imports are loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import badcycle

LOADER = """
import importlib, json, sys, types
package = types.ModuleType("badcycle")
package.__path__ = [sys.argv[1]]
sys.modules["badcycle"] = package
importlib.import_module(sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("badcycle."))))
"""


def loaded_by(module):
    root = str(Path(badcycle.__file__).parent)
    done = subprocess.run(
        [sys.executable, "-c", LOADER, root, module],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout))


def test_balance_loads_neither_goodness_nor_the_oracles():
    loaded = loaded_by("badcycle.balance")
    assert "badcycle.balance" in loaded
    assert not loaded & {"badcycle.oracles", "badcycle.goodness", "badcycle.generators"}


def test_goodness_does_not_load_the_oracles():
    loaded = loaded_by("badcycle.goodness")
    assert "badcycle.goodness" in loaded
    assert "badcycle.oracles" not in loaded
