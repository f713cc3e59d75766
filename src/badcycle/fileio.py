"""Readers and writers for the on-disk JSON object formats.

Every format is a JSON value with a fixed field set; unknown fields are
rejected so a typo fails loudly instead of being silently ignored.  The
grammars:

* machine: ``{"k": int, "states": [str], "transitions": [{"from": str,
  "i": int, "j": int, "to": [str]}], "bad": [[str, str]]}`` with every
  name drawn from ``states``
* hypergraph: ``{"k": int, "vertices": [str], "edges": [[str] * k]}``
* order: ``[[state, position], ...]`` listed from least to greatest
* order system: ``{"classes": [[[state, position]]], "partial":
  [[int, int]], "linear": [int]}``; ``partial`` and ``linear`` hold
  indices into ``classes`` and ``linear`` lists them from least to
  greatest
* relation: ``{"n": int, "pairs": [[int, int]]}`` with 1-based indices
* witness: ``{"base": str, "steps": [[int, str]], "states": [str],
  "bad_pair": [str, str]}``; step edge indices refer to the carrying
  hypergraph's edge list

Writers emit canonical key order and a trailing newline, so identical
objects serialize byte-identically; a name that is not a string, which the
reader would reject, raises ``InputError`` before anything is written.
"""

from __future__ import annotations

import json
from pathlib import Path

from .checks import BadCycleWitness, OrderSystem, _as_pairs
from .errors import InputError, require_int
from .hypergraph import DirectedHypergraph, HyperCycle
from .machine import Machine, numbered_table
from .relations import Relation


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _write_json(obj, path):
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _check_fields(obj, what, fields):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise InputError(f"{what} is missing fields: {', '.join(missing)}")
    unknown = [f for f in obj if f not in fields]
    if unknown:
        raise InputError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")


def _str_list(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{what} must be an array of strings")
    return value


def _name(value, what):
    # the readers take every state and vertex name as a JSON string
    if not isinstance(value, str):
        raise InputError(f"{what} {value!r} is not a string")
    return value


def _pair(value, what):
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"{what} must be a 2-element array")
    return value


# -- machines ------------------------------------------------------------


def machine_to_obj(machine):
    names = [_name(name, "machine state") for name in machine.states]
    atoms, bad = numbered_table(machine)
    rows = {}
    for s, i, j, t in atoms:
        rows.setdefault((s, i, j), []).append(names[t])
    return {
        "k": machine.k,
        "states": names,
        "transitions": [
            {"from": names[s], "i": i, "j": j, "to": to} for (s, i, j), to in rows.items()
        ],
        "bad": [[names[a], names[b]] for a, b in bad],
    }


def machine_from_obj(obj):
    _check_fields(obj, "machine", ("k", "states", "transitions", "bad"))
    states = _str_list(obj["states"], "machine states")
    known = set(states)

    def state(name, where):
        if not isinstance(name, str) or name not in known:
            raise InputError(f"{where} references unknown state {name!r}")
        return name

    rows = []
    if not isinstance(obj["transitions"], list):
        raise InputError("machine transitions must be an array")
    for t in obj["transitions"]:
        _check_fields(t, "transition", ("from", "i", "j", "to"))
        rows.append(
            (
                state(t["from"], "transition"),
                require_int(t["i"], "transition position i"),
                require_int(t["j"], "transition position j"),
                tuple(state(x, "transition target") for x in _str_list(t["to"], "transition targets")),
            )
        )
    if not isinstance(obj["bad"], list):
        raise InputError("machine bad pairs must be an array")
    bad = []
    for entry in obj["bad"]:
        a, b = _pair(entry, "bad pair")
        bad.append((state(a, "bad pair"), state(b, "bad pair")))
    return Machine(require_int(obj["k"], "machine k"), states, rows, bad)


def save_machine(machine, path):
    _write_json(machine_to_obj(machine), path)


def load_machine(path):
    return machine_from_obj(_read_json(path))


# -- hypergraphs ----------------------------------------------------------


def hypergraph_to_obj(graph):
    return {
        "k": graph.k,
        "vertices": [_name(v, "hypergraph vertex") for v in graph.vertices],
        "edges": [list(edge) for edge in graph.edges],
    }


def hypergraph_from_obj(obj):
    _check_fields(obj, "hypergraph", ("k", "vertices", "edges"))
    vertices = _str_list(obj["vertices"], "hypergraph vertices")
    if not isinstance(obj["edges"], list):
        raise InputError("hypergraph edges must be an array")
    edges = [tuple(_str_list(e, "hypergraph edge")) for e in obj["edges"]]
    return DirectedHypergraph(require_int(obj["k"], "hypergraph k"), vertices, edges)


def save_hypergraph(graph, path):
    _write_json(hypergraph_to_obj(graph), path)


def load_hypergraph(path):
    return hypergraph_from_obj(_read_json(path))


# -- orders and order systems ----------------------------------------------


def order_to_obj(order):
    return [[_name(s, "order entry state"), i] for s, i in _as_pairs(order)]


def order_from_obj(obj):
    if not isinstance(obj, list):
        raise InputError("an order must be a JSON array of [state, position] pairs")
    out = []
    for entry in obj:
        s, i = _pair(entry, "order entry")
        if not isinstance(s, str):
            raise InputError(f"order entry state {s!r} must be a string")
        out.append((s, require_int(i, "order entry position")))
    return tuple(out)


def save_order(order, path):
    _write_json(order_to_obj(order), path)


def load_order(path):
    return order_from_obj(_read_json(path))


def _member_from_obj(entry):
    s, i = _pair(entry, "order system class member")
    if not isinstance(s, str):
        raise InputError(f"class member state {s!r} must be a string")
    return (s, require_int(i, "class member position"))


def order_system_to_obj(system):
    return {
        "classes": [
            sorted([_name(s, "class member state"), i] for s, i in _as_pairs(block))
            for block in system.classes
        ],
        "partial": [list(pair) for pair in sorted(system.partial)],
        "linear": list(range(len(system.classes))),
    }


def order_system_from_obj(obj):
    _check_fields(obj, "order system", ("classes", "partial", "linear"))
    if not isinstance(obj["classes"], list):
        raise InputError("order system classes must be an array")
    classes = []
    for block in obj["classes"]:
        if not isinstance(block, list):
            raise InputError("order system classes must be arrays of members")
        classes.append([_member_from_obj(entry) for entry in block])
    n = len(classes)
    if not isinstance(obj["linear"], list) or sorted(
        require_int(i, "linear entry") for i in obj["linear"]
    ) != list(range(n)):
        raise InputError("order system linear must list every class index once")
    rank = {ci: pos for pos, ci in enumerate(obj["linear"])}
    if not isinstance(obj["partial"], list):
        raise InputError("order system partial must be an array")
    partial = []
    for entry in obj["partial"]:
        a, b = _pair(entry, "partial pair")
        a = require_int(a, "partial pair index")
        b = require_int(b, "partial pair index")
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"partial pair ({a}, {b}) is out of range")
        partial.append((rank[a], rank[b]))
    return OrderSystem([classes[ci] for ci in obj["linear"]], partial)


def save_order_system(system, path):
    _write_json(order_system_to_obj(system), path)


def load_order_system(path):
    return order_system_from_obj(_read_json(path))


# -- relations --------------------------------------------------------------


def relation_to_obj(relation):
    return {"n": relation.n, "pairs": [list(p) for p in relation.pair_list()]}


def relation_from_obj(obj):
    _check_fields(obj, "relation", ("n", "pairs"))
    if not isinstance(obj["pairs"], list):
        raise InputError("relation pairs must be an array")
    pairs = []
    for entry in obj["pairs"]:
        a, b = _pair(entry, "relation pair")
        pairs.append((require_int(a, "relation pair"), require_int(b, "relation pair")))
    return Relation(require_int(obj["n"], "relation n"), pairs)


def save_relation(relation, path):
    _write_json(relation_to_obj(relation), path)


def load_relation(path):
    return relation_from_obj(_read_json(path))


# -- bad-cycle witnesses ------------------------------------------------------


def witness_to_obj(witness):
    return {
        "base": _name(witness.cycle.base, "witness base"),
        "steps": [[i, _name(v, "witness step vertex")] for i, v in witness.cycle.steps],
        "states": [_name(s, "witness state") for s in witness.states],
        "bad_pair": list(witness.bad_pair),
    }


def witness_from_obj(obj, graph):
    """Rebuild a witness against the hypergraph it was found on."""
    _check_fields(obj, "witness", ("base", "steps", "states", "bad_pair"))
    if not isinstance(obj["base"], str):
        raise InputError("witness base must be a vertex name")
    if not isinstance(obj["steps"], list):
        raise InputError("witness steps must be an array")
    steps = []
    for entry in obj["steps"]:
        index, vertex = _pair(entry, "witness step")
        if not isinstance(vertex, str):
            raise InputError(f"witness step vertex {vertex!r} must be a string")
        steps.append((require_int(index, "witness step edge index"), vertex))
    cycle = HyperCycle(graph, obj["base"], steps)
    a, b = _pair(obj["bad_pair"], "witness bad pair")
    return BadCycleWitness(
        cycle, tuple(_str_list(obj["states"], "witness states")), (a, b)
    )
