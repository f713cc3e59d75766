import itertools

import pytest

from badcycle import sat
from badcycle.checks import verify_compatible_order
from badcycle.corpus import default_rng, random_cnf
from badcycle.errors import InputError
from badcycle.machine import validate_machine
from badcycle.orders import find_compatible_order
from badcycle.sat import (
    CnfInstance,
    assignment_to_order,
    cnf_from_dimacs,
    cnf_to_dimacs,
    evaluate_cnf,
    order_to_assignment,
    sat_to_machine,
)
from named_table import bad_rows, transition_atoms, transition_rows


def truth_table_assignment(cnf):
    # independent brute-force oracle, feasible up to a dozen variables
    for bits in itertools.product([False, True], repeat=len(cnf.variables)):
        assignment = dict(zip(cnf.variables, bits))
        if all(
            any(assignment[v] == positive for v, positive in clause)
            for clause in cnf.clauses
        ):
            return assignment
    return None


def all_patterns_instance(missing=None):
    # every sign pattern over (x, y, z) except the given one; with all
    # eight present the formula is unsatisfiable, with one dropped its
    # unique model is the negation of the dropped pattern
    clauses = []
    for signs in itertools.product([True, False], repeat=3):
        if signs != missing:
            clauses.append(tuple(zip(("x", "y", "z"), signs)))
    return CnfInstance(["x", "y", "z"], clauses)


def test_cnf_normalization():
    by_pairs = CnfInstance(["x", "y"], [(("x", True), ("y", False), ("x", False))])
    by_strings = CnfInstance(["x", "y"], [("x", "~y", "~x")])
    assert by_pairs == by_strings
    assert by_pairs.clauses == ((("x", True), ("y", False), ("x", False)),)


def test_cnf_validation_errors():
    with pytest.raises(InputError, match="three literals"):
        CnfInstance(["x", "y"], [("x", "y")])
    with pytest.raises(InputError, match="three literals"):
        CnfInstance(["x", "y"], [("x", "y", "x", "y")])
    with pytest.raises(InputError, match="undeclared"):
        CnfInstance(["x"], [("x", "y", "x")])
    with pytest.raises(InputError, match="duplicate"):
        CnfInstance(["x", "x"], [])
    with pytest.raises(InputError, match="bad variable name"):
        CnfInstance(["~x"], [])
    with pytest.raises(InputError, match="cannot read literal"):
        CnfInstance(["x"], [("x", "x", 3)])


def test_evaluate_cnf():
    cnf = CnfInstance(["x", "y"], [("x", "~y", "~y")])
    assert evaluate_cnf(cnf, {"x": True, "y": True})
    assert not evaluate_cnf(cnf, {"x": False, "y": True})
    with pytest.raises(InputError, match="missing variable"):
        evaluate_cnf(cnf, {"x": True})


def test_single_clause_machine_table():
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z")])
    machine = sat_to_machine(cnf)
    assert machine.k == 3
    assert machine.states == ("x", "~x", "y", "~y", "z", "~z")
    assert list(transition_rows(machine)) == [
        ("x", 1, 2, ("~y",)),
        ("y", 2, 3, ("~z",)),
        ("z", 3, 1, ("~x",)),
    ]
    assert list(bad_rows(machine)) == [(s, s) for s in machine.states]
    assert machine.is_cycling
    assert machine.is_deterministic
    assert validate_machine(machine, "cycling").ok


def test_two_clause_machine_positions():
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z"), ("~x", "y", "~z")])
    machine = sat_to_machine(cnf)
    assert machine.k == 6
    assert list(transition_rows(machine)) == [
        ("x", 1, 2, ("~y",)),
        ("~x", 4, 5, ("~y",)),
        ("y", 2, 3, ("~z",)),
        ("y", 5, 6, ("z",)),
        ("z", 3, 1, ("~x",)),
        ("~z", 6, 4, ("x",)),
    ]
    used = {(i, j) for _, i, j, _ in transition_atoms(machine)}
    assert all(i in {1, 2, 3} and j in {1, 2, 3} for i, j in used if i <= 3)
    assert all(i in {4, 5, 6} and j in {4, 5, 6} for i, j in used if i >= 4)


def test_sat_to_machine_rejects_empty():
    with pytest.raises(InputError, match="at least one clause"):
        sat_to_machine(CnfInstance(["x"], []))


def test_one_clause_machine_per_formula(monkeypatch):
    built = []

    class CountedMachine(sat.Machine):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sat, "Machine", CountedMachine)
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z"), ("~x", "y", "~z")])
    machine = sat_to_machine(cnf)
    assert sat_to_machine(cnf) is machine
    order = find_compatible_order(machine)
    assert evaluate_cnf(cnf, order_to_assignment(order, cnf))
    assert len(built) == 1
    # an equal formula is another object and builds its own machine
    assert sat_to_machine(CnfInstance(cnf.variables, cnf.clauses)) == machine
    assert len(built) == 2
    empty = CnfInstance(["x"], [])
    for _ in range(2):
        with pytest.raises(InputError, match="at least one clause"):
            sat_to_machine(empty)


def test_assignment_to_order_accepted():
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z")])
    machine = sat_to_machine(cnf)
    assignment = {"x": True, "y": True, "z": True}
    order = assignment_to_order(assignment, cnf)
    assert len(order) == 6 * 3
    assert verify_compatible_order(machine, order).ok
    assert order_to_assignment(order, cnf) == assignment


def test_assignment_to_order_rejects():
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z")])
    with pytest.raises(InputError, match="falsifies the clause"):
        assignment_to_order({"x": False, "y": False, "z": False}, cnf)
    with pytest.raises(InputError, match="missing variable"):
        assignment_to_order({"x": True}, cnf)
    with pytest.raises(InputError, match="at least one clause"):
        assignment_to_order({"x": True}, CnfInstance(["x"], []))


def test_order_to_assignment_requires_compatibility():
    cnf = CnfInstance(["x", "y", "z"], [("x", "y", "z")])
    good = assignment_to_order({"x": True, "y": False, "z": True}, cnf)
    with pytest.raises(InputError, match="not compatible"):
        order_to_assignment(tuple(reversed(good)), cnf)
    with pytest.raises(InputError, match="total order"):
        order_to_assignment(good[:5], cnf)


def test_order_roundtrip_corpus():
    rng = default_rng(717)
    satisfiable = 0
    for _ in range(30):
        variables, clauses = random_cnf(rng)
        cnf = CnfInstance(variables, clauses)
        assignment = truth_table_assignment(cnf)
        if assignment is None:
            continue
        satisfiable += 1
        order = assignment_to_order(assignment, cnf)
        assert verify_compatible_order(sat_to_machine(cnf), order).ok
        assert order_to_assignment(order, cnf) == assignment
    assert satisfiable >= 25


def test_found_orders_read_to_models():
    rng = default_rng(718)
    found = 0
    for _ in range(25):
        variables, clauses = random_cnf(rng, max_vars=4)
        cnf = CnfInstance(variables, clauses)
        order = find_compatible_order(sat_to_machine(cnf))
        if order is None:
            assert truth_table_assignment(cnf) is None
            continue
        found += 1
        assignment = order_to_assignment(order, cnf)
        assert evaluate_cnf(cnf, assignment)
    assert found >= 20


def test_sat_equivalence_corpus():
    rng = default_rng(719)
    for _ in range(50):
        variables, clauses = random_cnf(rng)
        cnf = CnfInstance(variables, clauses)
        order = find_compatible_order(sat_to_machine(cnf))
        assert (order is not None) == (truth_table_assignment(cnf) is not None)


def test_all_patterns_unsatisfiable():
    cnf = all_patterns_instance()
    assert len(cnf.clauses) == 8
    assert truth_table_assignment(cnf) is None
    assert find_compatible_order(sat_to_machine(cnf)) is None


@pytest.mark.parametrize("missing", list(itertools.product([True, False], repeat=3)))
def test_seven_patterns_have_unique_model(missing):
    cnf = all_patterns_instance(missing)
    expected = dict(zip(("x", "y", "z"), (not s for s in missing)))
    assert truth_table_assignment(cnf) == expected
    order = find_compatible_order(sat_to_machine(cnf))
    assert order is not None
    assert order_to_assignment(order, cnf) == expected


def test_dimacs_parse_frozen():
    text = "c tiny example\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
    cnf = cnf_from_dimacs(text)
    assert cnf.variables == ("x1", "x2", "x3")
    assert cnf.clauses == (
        (("x1", True), ("x2", False), ("x3", True)),
        (("x1", False), ("x2", True), ("x3", False)),
    )
    assert cnf_from_dimacs(cnf_to_dimacs(cnf)) == cnf


def test_dimacs_roundtrip_corpus():
    rng = default_rng(720)
    for _ in range(20):
        variables, clauses = random_cnf(rng)
        cnf = CnfInstance(variables, clauses)
        again = cnf_from_dimacs(cnf_to_dimacs(cnf))
        renamed = {v: f"x{n}" for n, v in enumerate(cnf.variables, start=1)}
        assert again.variables == tuple(renamed[v] for v in cnf.variables)
        assert again.clauses == tuple(
            tuple((renamed[v], sign) for v, sign in clause)
            for clause in cnf.clauses
        )


def test_dimacs_errors():
    with pytest.raises(InputError, match="missing DIMACS header"):
        cnf_from_dimacs("1 2 3 0\n")
    with pytest.raises(InputError, match="duplicate DIMACS header"):
        cnf_from_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")
    with pytest.raises(InputError, match="malformed DIMACS header"):
        cnf_from_dimacs("p cnf three 1\n")
    with pytest.raises(InputError, match="malformed DIMACS header"):
        cnf_from_dimacs("p sat 3 1\n1 2 3 0\n")
    with pytest.raises(InputError, match="unexpected DIMACS token"):
        cnf_from_dimacs("p cnf 3 1\n1 two 3 0\n")
    with pytest.raises(InputError, match="exceeds"):
        cnf_from_dimacs("p cnf 3 1\n1 2 4 0\n")
    with pytest.raises(InputError, match="unterminated clause"):
        cnf_from_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(InputError, match="declares 2 clauses"):
        cnf_from_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(InputError, match="three literals"):
        cnf_from_dimacs("p cnf 3 1\n1 2 0\n")
