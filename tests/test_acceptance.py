"""Acceptance suite: one test per shipping criterion.

Every test prints a single pass line (visible under -s) after its
assertions hold, so a verbose run reads as a checklist.  Corpus seeds
are fixed; reruns are byte-identical.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction

from badcycle import (
    CnfInstance,
    Machine,
    OrderSystem,
    Relation,
    balanced_coloring,
    check_two_balanced_equivalence,
    chromatic_number_exact,
    compose,
    counter_machine_order,
    decide_cycling_2machine,
    default_rng,
    detect_odd_alternating_cycle,
    evaluate_cnf,
    find_compatible_order,
    gen_alternating_machine,
    gen_alternating_relation,
    gen_counter_machine,
    gen_cycling_construction,
    gen_example3_machine,
    gen_explicit_hasse_digraph,
    gen_shift_digraph,
    gen_unbalanced_machine,
    is_alpha_balanced,
    is_good,
    is_pq_compatible,
    is_proper_coloring,
    iter_compatible_order_systems,
    non_alternating_family,
    path_digraph,
    random_cnf,
    random_cycling_machine,
    random_digraph,
    random_hypergraph,
    random_machine,
    reverse,
    sat_to_machine,
    unbalanced_machine_order_system,
    verify_compatible_order,
    verify_order_system,
)
from badcycle.oracles import cross_check_goodness


def _report(number, detail):
    print(f"criterion {number:2d}: PASS  {detail}")


def test_criterion_01_explicit_hasse_chromatic():
    numbers = {}
    for n in (2, 3):
        numbers[n] = chromatic_number_exact(gen_explicit_hasse_digraph(n)).number
        assert numbers[n] == n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = gen_explicit_hasse_digraph(4)
    started = time.monotonic()
    numbers[4] = chromatic_number_exact(big).number
    elapsed = time.monotonic() - started
    assert numbers[4] == 4
    assert elapsed < 300
    _report(1, f"chi = n for n = 2, 3, 4 (n = 4 in {elapsed:.1f}s)")


def test_criterion_02_unique_order_system():
    machine = gen_example3_machine()
    expected = OrderSystem(
        [{("0", 1)}, {("1", 1), ("0", 2)}, {("1", 2)}],
        [(0, 2)],
    )
    started = time.monotonic()
    systems = list(iter_compatible_order_systems(machine))
    elapsed = time.monotonic() - started
    assert systems == [expected]
    assert elapsed < 10
    _report(2, f"exactly one order system, found in {elapsed:.2f}s")


def test_criterion_03_counter_machines():
    for n in range(2, 6):
        machine = gen_counter_machine(n)
        order = counter_machine_order(n)
        result = verify_compatible_order(machine, order)
        assert result.ok, result.violations
        assert decide_cycling_2machine(machine)
        assert find_compatible_order(machine) is not None
    _report(3, "explicit orders verify and searches succeed for n = 2..5")


KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _all_small_cycling_machines(states):
    options = [()] + [
        c for size in (1, 2) for c in itertools.combinations(states, size)
    ]
    slots = [(s, i, j) for s in states for i, j in KEYS]
    for choice in itertools.product(options, repeat=len(slots)):
        rows = [
            (s, i, j, targets)
            for (s, i, j), targets in zip(slots, choice)
            if targets
        ]
        yield Machine(2, states, rows, bad=[(s, s) for s in states])


def test_criterion_04_decide2_vs_exhaustive():
    total = 0
    for states in (("a",), ("a", "b")):
        for machine in _all_small_cycling_machines(states):
            total += 1
            fast = decide_cycling_2machine(machine)
            slow = find_compatible_order(machine) is not None
            assert fast == slow, machine
    assert total == 16 + 4**8

    rng = default_rng(90405)
    seeded = 0
    while seeded < 200:
        machine = random_cycling_machine(rng, k=2, max_states=3)
        if len(machine.states) != 3:
            continue
        seeded += 1
        fast = decide_cycling_2machine(machine)
        slow = find_compatible_order(machine) is not None
        assert fast == slow, machine
    _report(4, f"agreement on all {total} small machines and {seeded} seeded")


def _all_patterns_instance(missing=None):
    clauses = [
        (("x", a), ("y", b), ("z", c))
        for a in (True, False)
        for b in (True, False)
        for c in (True, False)
        if (a, b, c) != missing
    ]
    return CnfInstance(["x", "y", "z"], clauses)


def _truth_table_satisfiable(cnf):
    return any(
        evaluate_cnf(cnf, dict(zip(cnf.variables, bits)))
        for bits in itertools.product((False, True), repeat=len(cnf.variables))
    )


def test_criterion_05_sat_reduction():
    rng = default_rng(90503)
    satisfiable = 0
    for _ in range(50):
        cnf = CnfInstance(*random_cnf(rng, max_vars=6, max_clauses=8))
        order = find_compatible_order(sat_to_machine(cnf))
        assert _truth_table_satisfiable(cnf) == (order is not None)
        satisfiable += order is not None

    unsat = _all_patterns_instance()
    assert not _truth_table_satisfiable(unsat)
    assert find_compatible_order(sat_to_machine(unsat)) is None
    for missing in itertools.product((True, False), repeat=3):
        one_model = _all_patterns_instance(missing)
        assert _truth_table_satisfiable(one_model)
        assert find_compatible_order(sat_to_machine(one_model)) is not None
    _report(5, f"50 seeded ({satisfiable} sat) + 9 pattern instances agree")


def test_criterion_06_balanced_coloring():
    alphas = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
    rng = default_rng(90604)
    pool = [random_digraph(rng, max_vertices=6, edge_prob=0.3) for _ in range(120)]
    pool += [gen_explicit_hasse_digraph(2), gen_explicit_hasse_digraph(3)]
    pool += [path_digraph(n) for n in range(1, 7)]
    checks = 0
    for alpha in alphas:
        ceiling = math.ceil(alpha)
        for graph in pool:
            if not is_alpha_balanced(graph, alpha).balanced:
                continue
            result = balanced_coloring(graph, alpha)
            assert is_proper_coloring(graph, result.colors)
            assert len(set(result.colors.values())) <= ceiling + 1
            for a, b in graph.edges:
                pa, pb = result.potentials[a], result.potentials[b]
                assert pa + 1 <= pb <= pa + ceiling, (a, b, pa, pb)
            checks += 1
    assert checks >= 200
    _report(6, f"{checks} balanced colorings proper within ceil(alpha)+1 colors")


def test_criterion_07_two_balance_machine_equivalence():
    rng = default_rng(90702)
    for _ in range(200):
        graph = random_digraph(rng, max_vertices=6, edge_prob=0.3)
        assert check_two_balanced_equivalence(graph)
    _report(7, "2-balance matches counter-machine goodness on 200 digraphs")


def test_criterion_08_goodness_oracle_equivalence():
    rng = default_rng(90801)
    bad_seen = conclusive = 0
    for trial in range(300):
        k = 2 if trial % 2 else 3
        graph = random_hypergraph(rng, k=k, max_vertices=5, max_edges=5)
        if trial % 3 == 0:
            machine = random_cycling_machine(rng, k=k, max_states=3)
        else:
            machine = random_machine(rng, k=k, max_states=3)
        check = cross_check_goodness(graph, machine)
        assert not check.problems, check.problems
        bad_seen += not check.verdict.good
        conclusive += check.conclusive
    assert bad_seen >= 100
    assert conclusive >= 200
    _report(8, f"300 pairs, {bad_seen} bad, {conclusive} brute-force conclusive")


def test_criterion_09_shift_digraph():
    machine = gen_alternating_machine().machine
    for m in range(2, 9):
        graph = gen_shift_digraph(m)
        assert detect_odd_alternating_cycle(graph) is None
        assert is_good(graph, machine).good
    for m in range(2, 17):
        number = chromatic_number_exact(gen_shift_digraph(m)).number
        assert number == math.ceil(math.log2(m)), m
    _report(9, "no odd alternating cycles (m <= 8); chi = ceil(log2 m) (m <= 16)")


def test_criterion_10_relation_algebra():
    seed = gen_alternating_relation()
    cube = compose(compose(seed, seed), seed)
    assert cube == Relation(
        3, ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3))
    )
    conjugate = compose(compose(reverse(seed), compose(seed, seed)), reverse(seed))
    assert conjugate == Relation(
        3,
        ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)),
    )
    report = is_pq_compatible(non_alternating_family(seed))
    assert report.compatible, report.violations
    _report(10, "both displayed composites match; the 27-member family is pq-compatible")


def test_criterion_11_unbalanced_order_systems():
    for k in (1, 2, 3):
        machine = gen_unbalanced_machine(k)
        system = unbalanced_machine_order_system(k)
        result = verify_order_system(machine, system)
        assert result.ok, result.violations
    _report(11, "emitted order systems verify for k = 1, 2, 3")


def test_criterion_12_construction_growth():
    machine = gen_counter_machine(2)
    order = counter_machine_order(2)
    numbers = []
    for m in (6, 8, 10):
        graph = gen_cycling_construction(machine, order, m)
        assert is_good(graph, machine).good, m
        numbers.append(chromatic_number_exact(graph).number)
    assert numbers == sorted(numbers)
    _report(12, f"good for m = 6, 8, 10 with nondecreasing chi {numbers}")
