"""Module boundaries: the deciders never load the reference oracles, the
alternating-cycle check never loads the deciders, the machine model and the
hypergraph module load nothing but the errors, the machine keeps no
``cached_property``, no module keeps a name-keyed view of a machine's table,
the digraph kernel keeps one name-keyed graph class and no ``fractions``, no
module imports a name it never uses, and no private function, class or
method goes unused.

Each boundary check imports one module in a fresh interpreter under an
empty ``badcycle`` package object, so the package ``__init__`` (which
imports everything) does not run and only the module's own imports are
loaded.
"""

import ast
import json
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import badcycle
from badcycle.machine import Machine

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


def test_relations_loads_neither_the_digraph_kernel_nor_goodness():
    # detect_odd_alternating_cycle is the check the goodness verdicts are
    # compared against, so it shares no traversal with them
    loaded = loaded_by("badcycle.relations")
    assert "badcycle.relations" in loaded
    assert not loaded & {"badcycle.digraph", "badcycle.goodness"}


def test_machine_loads_nothing_but_the_errors():
    # relations imports machine and stays off the graph kernel, so the
    # machine's live-atom view closes over its state graph itself
    assert loaded_by("badcycle.machine") == {"badcycle.machine", "badcycle.errors"}


def test_hypergraph_loads_nothing_but_the_errors():
    # both chi kernels, the per-edge one and the neighbour-bitset one for
    # k = 2, live in the hypergraph module and share no graph kernel
    assert loaded_by("badcycle.hypergraph") == {"badcycle.hypergraph", "badcycle.errors"}


def parsed(module_file):
    return ast.parse((Path(badcycle.__file__).parent / module_file).read_text("utf-8"))


def imported_modules(tree):
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_machine_keeps_its_views_without_cached_property():
    # functools.cached_property reads the instance __dict__, which makes
    # CPython 3.11 build it for every machine; the views are plain attributes
    # filled on first read
    assert [name for name, value in vars(Machine).items()
            if isinstance(value, cached_property)] == []
    assert "functools" not in imported_modules(parsed("machine.py"))


def test_no_module_defines_or_reads_a_name_keyed_table_view():
    # numbered_atoms and numbered_bad are a machine's one view of its table;
    # the file writer and verify_order_system name the states through
    # machine.states, and the tests read the old rows through named_table
    gone = {"transition_rows", "transition_atoms", "bad_rows", "_by_state"}
    hits = [
        f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
        for path in sorted(Path(badcycle.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (getattr(node, field, None) for field in ("name", "id", "attr", "arg"))
        if name in gone
    ]
    assert hits == []
    assert not gone & set(dir(Machine))


def test_digraph_has_one_name_keyed_class_and_no_fractions():
    # the kernels run on int rows; Digraph is the unweighted name-keyed view
    # build_auxiliary builds, and SCCResult the components strong_components
    # reads off it
    tree = parsed("digraph.py")
    assert "fractions" not in imported_modules(tree)
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == [
        "Digraph",
        "SCCResult",
    ]


def unused_imports(path):
    """Names a module imports and never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = sorted(set(imported) - used)
    return [f"{path.name}:{imported[name]} {name}" for name in unused]


def test_no_module_imports_an_unused_name():
    src = Path(badcycle.__file__).parent
    files = sorted(src.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in unused_imports(path)] == []


def private_definitions(tree):
    """Top-level ``_name`` functions and classes, and ``_name`` methods, with
    their lines; dunder names are not private."""
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and item.name.startswith("_")
                and not item.name.startswith("__")
            ):
                found.append((item.name, item.lineno))
    return found


def referenced_names(tree):
    """Every name a module uses as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_definition_is_referenced():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(badcycle.__file__).parent.glob("*.py"))
    }
    referenced = set().union(*map(referenced_names, trees.values()))
    defined = [
        (name, f"{module}:{line} {name}")
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
    ]
    assert len(defined) > 50
    assert [where for name, where in defined if name not in referenced] == []


def test_every_exported_name_resolves_once():
    # __all__ is not sorted, so only membership and uniqueness are checked
    assert len(badcycle.__all__) == len(set(badcycle.__all__))
    assert [name for name in badcycle.__all__ if not hasattr(badcycle, name)] == []
