import copy
import random

import pytest

from badcycle.errors import InputError
from badcycle.fileio import (
    hypergraph_from_obj,
    hypergraph_to_obj,
    load_hypergraph,
    load_machine,
    load_order,
    load_order_system,
    load_relation,
    machine_from_obj,
    machine_to_obj,
    order_from_obj,
    order_system_from_obj,
    order_system_to_obj,
    order_to_obj,
    relation_from_obj,
    relation_to_obj,
    save_hypergraph,
    save_machine,
    save_order,
    save_order_system,
    save_relation,
    witness_from_obj,
    witness_to_obj,
)
from badcycle.generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_example3_machine,
    gen_explicit_hasse_digraph,
    gen_unbalanced_machine,
    unbalanced_machine_order_system,
)
from badcycle.goodness import is_good, validate_witness
from badcycle.hypergraph import DirectedHypergraph, path_digraph
from badcycle.orders import (
    OrderSystem,
    find_compatible_order,
    verify_order_system,
)
from badcycle.relations import gen_alternating_machine, gen_alternating_relation
from named_table import bad_rows, transition_rows


def test_machine_round_trip(tmp_path):
    for machine in (
        gen_example3_machine(),
        gen_counter_machine(3),
        gen_unbalanced_machine(2),
    ):
        path = tmp_path / "m.json"
        save_machine(machine, path)
        loaded = load_machine(path)
        assert loaded.k == machine.k
        assert loaded.states == machine.states
        assert transition_rows(loaded) == transition_rows(machine)
        assert bad_rows(loaded) == bad_rows(machine)


def test_machine_writes_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_machine(gen_example3_machine(), a)
    save_machine(gen_example3_machine(), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_machine_rejects_malformed_objects():
    good = machine_to_obj(gen_counter_machine(2))
    with pytest.raises(InputError, match="unknown fields: extra"):
        machine_from_obj({**good, "extra": 1})
    with pytest.raises(InputError, match="missing fields: bad"):
        machine_from_obj({k: v for k, v in good.items() if k != "bad"})
    with pytest.raises(InputError, match="unknown state"):
        machine_from_obj({**good, "bad": [["0", "zz"]]})
    with pytest.raises(InputError, match="unknown state"):
        machine_from_obj(
            {**good, "transitions": [{"from": "7", "i": 1, "j": 2, "to": ["0"]}]}
        )
    with pytest.raises(InputError, match="must be an integer"):
        machine_from_obj({**good, "k": "2"})
    with pytest.raises(InputError, match="must be an integer"):
        machine_from_obj({**good, "k": True})
    with pytest.raises(InputError, match="array of strings"):
        machine_from_obj({**good, "states": [1, 2]})
    with pytest.raises(InputError, match="transition.*missing fields"):
        machine_from_obj({**good, "transitions": [{"from": "0", "i": 1, "j": 2}]})
    with pytest.raises(InputError, match="2-element array"):
        machine_from_obj({**good, "bad": [["0"]]})


def test_machine_rejects_bad_files(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        load_machine(broken)
    with pytest.raises(InputError, match="cannot read"):
        load_machine(tmp_path / "absent.json")
    listy = tmp_path / "list.json"
    listy.write_text("[]", encoding="utf-8")
    with pytest.raises(InputError, match="must be a JSON object"):
        load_machine(listy)


def test_hypergraph_round_trip(tmp_path):
    for graph in (
        path_digraph(4),
        gen_explicit_hasse_digraph(2),
        DirectedHypergraph(3, "abcd", [("a", "b", "c"), ("b", "c", "d")]),
    ):
        path = tmp_path / "g.json"
        save_hypergraph(graph, path)
        loaded = load_hypergraph(path)
        assert loaded.k == graph.k
        assert loaded.vertices == graph.vertices
        assert loaded.edges == graph.edges


def test_hypergraph_rejects_malformed_objects():
    with pytest.raises(InputError, match="unknown fields"):
        hypergraph_from_obj({"k": 2, "vertices": [], "edges": [], "name": "x"})
    with pytest.raises(InputError, match="array of strings"):
        hypergraph_from_obj({"k": 2, "vertices": ["a"], "edges": [[1, 2]]})
    # structural validation is delegated to the hypergraph type
    with pytest.raises(InputError):
        hypergraph_from_obj({"k": 2, "vertices": ["a", "b"], "edges": [["a", "z"]]})


def test_order_round_trip(tmp_path):
    order = find_compatible_order(gen_counter_machine(2))
    assert order is not None
    path = tmp_path / "order.json"
    save_order(order, path)
    assert load_order(path) == tuple((s, i) for s, i in order)


def test_order_writer_keeps_positions_and_rejects_non_integers(tmp_path):
    # the writer checks entries as the order verifier does, so it never
    # saves an order other than the one it was given
    order = find_compatible_order(gen_counter_machine(2))
    assert order_to_obj(order) == [[s, i] for s, i in order]
    path = tmp_path / "order.json"
    for position in (1.7, True, 1.0, "1", None):
        with pytest.raises(InputError, match="not an integer"):
            save_order([("s", position), ("s", 2)], path)
    with pytest.raises(InputError, match=r"not a \(state, position\) pair"):
        save_order([("s", 1, 2)], path)
    assert not path.exists()


def test_order_rejects_malformed_objects():
    with pytest.raises(InputError, match="JSON array"):
        order_from_obj({"order": []})
    with pytest.raises(InputError, match="2-element array"):
        order_from_obj([["a", 1, 2]])
    with pytest.raises(InputError, match="must be a string"):
        order_from_obj([[3, 1]])
    with pytest.raises(InputError, match="must be an integer"):
        order_from_obj([["a", "1"]])


def test_order_system_round_trip(tmp_path):
    for k in (1, 2):
        system = unbalanced_machine_order_system(k)
        path = tmp_path / "system.json"
        save_order_system(system, path)
        loaded = load_order_system(path)
        assert loaded == system
        assert verify_order_system(gen_unbalanced_machine(k), loaded)


def test_order_system_accepts_permuted_linear():
    obj = {
        "classes": [[["b", 1]], [["a", 1]]],
        "partial": [[1, 0]],
        "linear": [1, 0],
    }
    expected = OrderSystem([[("a", 1)], [("b", 1)]], [(0, 1)])
    assert order_system_from_obj(obj) == expected


def test_order_system_rejects_malformed_objects():
    good = order_system_to_obj(OrderSystem([[("a", 1)], [("b", 1)]], [(0, 1)]))
    with pytest.raises(InputError, match="every class index once"):
        order_system_from_obj({**good, "linear": [0, 0]})
    with pytest.raises(InputError, match="every class index once"):
        order_system_from_obj({**good, "linear": [0]})
    with pytest.raises(InputError, match="out of range"):
        order_system_from_obj({**good, "partial": [[0, 5]]})
    with pytest.raises(InputError, match="unknown fields"):
        order_system_from_obj({**good, "note": ""})
    with pytest.raises(InputError, match="must be a string"):
        order_system_from_obj({**good, "classes": [[[1, 1]], [["b", 1]]]})


def test_relation_round_trip(tmp_path):
    rel = gen_alternating_relation()
    path = tmp_path / "rel.json"
    save_relation(rel, path)
    assert load_relation(path) == rel


def test_relation_rejects_malformed_objects():
    with pytest.raises(InputError, match="missing fields: pairs"):
        relation_from_obj({"n": 2})
    with pytest.raises(InputError, match="2-element array"):
        relation_from_obj({"n": 2, "pairs": [[1, 2, 3]]})
    with pytest.raises(InputError, match="outside the ground set"):
        relation_from_obj({"n": 2, "pairs": [[0, 1]]})


def test_witness_round_trip():
    graph = DirectedHypergraph(
        2,
        ["u0", "u1", "u2", "u3", "u4"],
        [("u0", "u1"), ("u2", "u1"), ("u2", "u3"), ("u4", "u3"), ("u4", "u0")],
    )
    machine = gen_alternating_machine().machine
    verdict = is_good(graph, machine)
    assert not verdict.good
    obj = witness_to_obj(verdict.witness)
    rebuilt = witness_from_obj(obj, graph)
    assert rebuilt.cycle == verdict.witness.cycle
    assert rebuilt.states == verdict.witness.states
    assert tuple(rebuilt.bad_pair) == tuple(verdict.witness.bad_pair)
    assert validate_witness(graph, machine, rebuilt)


def test_witness_rejects_malformed_objects():
    graph = path_digraph(3)
    base = {"base": "1", "steps": [], "states": ["s"], "bad_pair": ["s", "s"]}
    with pytest.raises(InputError, match="unknown fields"):
        witness_from_obj({**base, "color": 1}, graph)
    with pytest.raises(InputError, match="vertex name"):
        witness_from_obj({**base, "base": 4}, graph)
    with pytest.raises(InputError, match="edge index"):
        witness_from_obj({**base, "steps": [["0", "2"]]}, graph)
    # step replay is delegated to the cycle type
    with pytest.raises(InputError, match="out of range"):
        witness_from_obj({**base, "steps": [[9, "2"]]}, graph)


JUNK = (
    None, True, 0, -1, 1, 2, 3, 10**9, 1.5, "", "x", "a", "s0",
    [], {}, [1, 2], ["a", "b"], [[]], {"k": 2},
)


def _mutate(rng, obj):
    """One random edit somewhere inside a JSON object tree."""
    if not isinstance(obj, (dict, list)) or rng.random() < 0.15:
        return copy.deepcopy(rng.choice(JUNK))
    if isinstance(obj, dict):
        obj = dict(obj)
        keys = sorted(obj)
        roll = rng.random()
        if keys and roll < 0.15:
            del obj[rng.choice(keys)]
        elif roll < 0.25:
            key = rng.choice(["note", "k", "n", "edges", "to"])
            obj[key] = copy.deepcopy(rng.choice(JUNK))
        elif keys:
            key = rng.choice(keys)
            obj[key] = _mutate(rng, obj[key])
        return obj
    obj = list(obj)
    roll = rng.random()
    if obj and roll < 0.15:
        del obj[rng.randrange(len(obj))]
    elif obj and roll < 0.25:
        obj.append(copy.deepcopy(rng.choice(obj)))
    elif roll < 0.35:
        obj.insert(rng.randint(0, len(obj)), copy.deepcopy(rng.choice(JUNK)))
    elif obj:
        n = rng.randrange(len(obj))
        obj[n] = _mutate(rng, obj[n])
    return obj


def test_readers_raise_only_input_errors_on_mutated_objects():
    # a seeded fuzz run: whatever a malformed file holds, a reader either
    # returns or raises InputError
    cases = [
        (machine_from_obj, machine_to_obj(gen_example3_machine())),
        (machine_from_obj, machine_to_obj(gen_unbalanced_machine(2))),
        (hypergraph_from_obj, hypergraph_to_obj(gen_explicit_hasse_digraph(2))),
        (
            hypergraph_from_obj,
            hypergraph_to_obj(
                DirectedHypergraph(
                    3, ["a", "b", "c", "d"], [("a", "b", "c"), ("d", "c", "a")]
                )
            ),
        ),
        (order_from_obj, order_to_obj(counter_machine_order(2))),
        (order_system_from_obj, order_system_to_obj(unbalanced_machine_order_system(2))),
        (relation_from_obj, relation_to_obj(gen_alternating_relation())),
    ]
    rng = random.Random(2718)
    rejected = 0
    for reader, valid in cases:
        for _ in range(400):
            obj = valid
            for _ in range(rng.randint(1, 3)):
                obj = _mutate(rng, obj)
            try:
                reader(obj)
            except InputError:
                rejected += 1
            except Exception as err:
                pytest.fail(
                    f"{reader.__name__} raised {type(err).__name__}: {err} on {obj!r}"
                )
    assert rejected >= 2400
