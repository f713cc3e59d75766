import itertools
import warnings

import pytest

from badcycle.checks import (
    OrderSystem,
    induced_on_position,
    verify_compatible_order,
    verify_order_system,
)
from badcycle.corpus import default_rng, random_cycling_machine
from badcycle.errors import InputError
from badcycle.generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_cycling_construction,
    gen_example3_machine,
    gen_explicit_hasse_digraph,
    gen_hasse_machine,
    gen_incomparable_pairs_digraph,
    gen_shift_digraph,
    gen_unbalanced_machine,
    unbalanced_machine_order_system,
)
from badcycle.goodness import is_good
from badcycle.hypergraph import (
    DirectedHypergraph,
    chromatic_number_exact,
    path_digraph,
)
from badcycle.machine import Machine, validate_machine
from badcycle.orders import (
    decide_cycling_2machine,
    find_compatible_order,
    find_order_system,
    iter_compatible_order_systems,
)
from named_table import bad_rows, transition_rows

COUNTER2_ORDER = (("2", 1), ("1", 1), ("2", 2), ("0", 1), ("1", 2), ("0", 2))


def test_hasse_machine_table():
    machine = gen_hasse_machine()
    assert machine.k == 2
    assert machine.states == ("s", "t", "u", "v")
    assert list(transition_rows(machine)) == [
        ("s", 1, 2, ("t",)),
        ("t", 1, 2, ("t",)),
        ("t", 2, 1, ("u",)),
        ("u", 1, 2, ("v",)),
    ]
    assert list(bad_rows(machine)) == [("s", "t"), ("s", "v")]
    assert machine.is_deterministic
    assert not machine.is_cycling
    assert validate_machine(machine, "general").ok


def test_hasse_machine_separates_diagrams_from_shortcuts():
    machine = gen_hasse_machine()
    assert is_good(path_digraph(3), machine).good
    shortcut = DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")]
    )
    assert not is_good(shortcut, machine).good
    loop = DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]
    )
    assert not is_good(loop, machine).good


def test_counter_machine_table():
    machine = gen_counter_machine(2)
    assert machine.states == ("0", "1", "2")
    assert list(transition_rows(machine)) == [
        ("0", 1, 2, ("1",)),
        ("1", 1, 2, ("2",)),
        ("2", 1, 2, ("2",)),
        ("2", 2, 1, ("0",)),
    ]
    assert list(bad_rows(machine)) == [("0", "0"), ("1", "1"), ("2", "2")]
    assert machine.is_cycling
    assert machine.is_deterministic


@pytest.mark.parametrize("n", range(5))
def test_counter_machine_orderable(n):
    assert decide_cycling_2machine(gen_counter_machine(n))


def test_counter_machine_order_is_the_staircase():
    assert counter_machine_order(2) == COUNTER2_ORDER
    for n in range(6):
        result = verify_compatible_order(
            gen_counter_machine(n), counter_machine_order(n)
        )
        assert result.ok, result.violations


def test_counter_machine_rejects_negative():
    with pytest.raises(InputError):
        gen_counter_machine(-1)


def test_example3_machine_table_and_unique_system():
    machine = gen_example3_machine()
    assert list(transition_rows(machine)) == [
        ("0", 1, 2, ("1",)),
        ("0", 2, 1, ("1",)),
        ("1", 1, 2, ("0",)),
    ]
    assert list(bad_rows(machine)) == [("0", "1")]
    assert validate_machine(machine, "general").ok
    expected = OrderSystem(
        [{("0", 1)}, {("1", 1), ("0", 2)}, {("1", 2)}], [(0, 2)]
    )
    assert find_order_system(machine) == expected
    assert list(iter_compatible_order_systems(machine)) == [expected]


def test_unbalanced_machine_k1_table():
    machine = gen_unbalanced_machine(1)
    assert machine.states == ("a-1", "a0", "a1", "b0", "b1")
    assert list(transition_rows(machine)) == [
        ("a-1", 1, 2, ("a0",)),
        ("a0", 1, 2, ("a1",)),
        ("a0", 2, 1, ("a-1",)),
        ("a1", 1, 2, ("b0",)),
        ("a1", 2, 1, ("a0",)),
        ("b0", 1, 2, ("b0",)),
        ("b0", 2, 1, ("b1",)),
        ("b1", 1, 2, ("b0",)),
    ]
    assert list(bad_rows(machine)) == [
        ("a0", "a-1"),
        ("a0", "a1"),
        ("a0", "b0"),
        ("a0", "b1"),
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unbalanced_machine_shape(k):
    machine = gen_unbalanced_machine(k)
    assert len(machine.states) == 3 * k + 2
    assert machine.is_deterministic
    assert not machine.is_cycling
    assert validate_machine(machine, "general").ok
    assert all(s == "a0" and t != "a0" for s, t in bad_rows(machine))
    assert len(bad_rows(machine)) == 3 * k + 1


def test_unbalanced_machine_k1_system_frozen():
    system = unbalanced_machine_order_system(1)
    assert system.classes == (
        frozenset({("a-1", 2)}),
        frozenset({("a-1", 1), ("a0", 2)}),
        frozenset({("a0", 1), ("a1", 2)}),
        frozenset({("a1", 1)}),
        frozenset({("b0", 1)}),
        frozenset({("b0", 2), ("b1", 1)}),
        frozenset({("b1", 2)}),
    )
    assert system.partial == frozenset(
        {(4, 5), (4, 6), (5, 6), (2, 6), (3, 5), (3, 6)}
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unbalanced_machine_system_compatible(k):
    machine = gen_unbalanced_machine(k)
    system = unbalanced_machine_order_system(k)
    result = verify_order_system(machine, system)
    assert result.ok, result.violations


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unbalanced_machine_a0_incomparable(k):
    machine = gen_unbalanced_machine(k)
    induced = induced_on_position(unbalanced_machine_order_system(k), 1)
    for s in machine.states:
        if s == "a0":
            continue
        assert not induced.below_or_equal("a0", s)
        assert not induced.below_or_equal(s, "a0")


def test_unbalanced_machine_rejects_small_k():
    with pytest.raises(InputError):
        gen_unbalanced_machine(0)
    with pytest.raises(InputError):
        unbalanced_machine_order_system(0)


def test_explicit_hasse_small():
    one = gen_explicit_hasse_digraph(1)
    assert one.vertices == ("1-2",)
    assert one.edges == ()
    two = gen_explicit_hasse_digraph(2)
    assert two.vertices == ("1-2", "1-3", "1-4", "2-3", "2-4", "3-4")
    assert set(two.edges) == {
        ("1-2", "2-3"),
        ("1-2", "2-4"),
        ("1-3", "3-4"),
        ("2-3", "3-4"),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_explicit_hasse_matches_cover_recount(n):
    graph = gen_explicit_hasse_digraph(n)
    subsets = list(itertools.combinations(range(1, 2**n + 1), 2))

    def strictly_under(x, y):
        return x != y and max(x) <= min(y)

    covers = set()
    for x in subsets:
        for y in subsets:
            if not strictly_under(x, y):
                continue
            if any(
                strictly_under(x, z) and strictly_under(z, y) for z in subsets
            ):
                continue
            covers.add(
                ("-".join(map(str, x)), "-".join(map(str, y)))
            )
    assert set(graph.edges) == covers
    assert len(graph.vertices) == len(subsets)


@pytest.mark.parametrize("n, chi", [(1, 1), (2, 2), (3, 3)])
def test_explicit_hasse_chromatic(n, chi):
    assert chromatic_number_exact(gen_explicit_hasse_digraph(n)).number == chi


def test_explicit_hasse_good_for_hasse_machine():
    machine = gen_hasse_machine()
    for n in (1, 2, 3):
        assert is_good(gen_explicit_hasse_digraph(n), machine).good


def test_explicit_hasse_builds_n4_without_warning_and_rejects():
    # n = 4 is shift(16), whose exact chi takes well under a second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = gen_explicit_hasse_digraph(4)
    assert len(big.vertices) == 120
    with pytest.raises(InputError):
        gen_explicit_hasse_digraph(0)
    with pytest.raises(InputError):
        gen_explicit_hasse_digraph(5)


def one_state_cycler():
    return Machine(2, ["s"], {}, bad=[("s", "s")])


def test_cycling_construction_one_state():
    graph = gen_cycling_construction(one_state_cycler(), (("s", 1), ("s", 2)), 4)
    assert graph.vertices == ("1", "2", "3", "4")
    assert graph.edges == (
        ("1", "2"),
        ("1", "3"),
        ("1", "4"),
        ("2", "3"),
        ("2", "4"),
        ("3", "4"),
    )


def test_cycling_construction_counter2():
    machine = gen_counter_machine(2)
    graph = gen_cycling_construction(machine, COUNTER2_ORDER, 8)
    assert len(graph.vertices) == 56
    assert len(graph.edges) == 28
    # window 1..6 hands 1, 2, 4 to position 1 (states 2, 1, 0) and the
    # rest to position 2
    assert graph.edges[0] == ("1-2-4", "3-5-6")
    for edge in graph.edges:
        blocks = [set(map(int, part.split("-"))) for part in edge]
        assert all(len(b) == 3 for b in blocks)
        assert not blocks[0] & blocks[1]
    assert is_good(graph, machine).good


def test_cycling_construction_minimal_window():
    machine = gen_counter_machine(2)
    graph = gen_cycling_construction(machine, COUNTER2_ORDER, 6)
    assert len(graph.edges) == 1
    assert is_good(graph, machine).good


def test_cycling_construction_rejects():
    machine = gen_counter_machine(2)
    broken = (("2", 1), ("2", 2), ("1", 1), ("1", 2), ("0", 1), ("0", 2))
    with pytest.raises(InputError, match="not compatible"):
        gen_cycling_construction(machine, broken, 8)
    with pytest.raises(InputError, match="need m >= 6"):
        gen_cycling_construction(machine, COUNTER2_ORDER, 5)
    with pytest.raises(InputError):
        gen_cycling_construction(
            gen_example3_machine(), COUNTER2_ORDER, 8
        )


# The generators as they were before the subset-table rewrite, kept
# verbatim as references: the rewrite must list the same vertices and
# edges in the same order.


def _subset_name(elems):
    return "-".join(str(x) for x in sorted(elems))


def reference_cycling_construction(machine, order, m):
    result = verify_compatible_order(machine, order)
    if not result.ok:
        raise InputError(
            "the order is not compatible with the machine: " + result.violations[0]
        )
    m = int(m)
    size = len(machine.states)
    span = machine.k * size
    if m < span:
        raise InputError(f"need m >= {span} to fit an edge")
    listed = [(s, int(i)) for s, i in order]
    vertices = [_subset_name(c) for c in itertools.combinations(range(1, m + 1), size)]
    edges = []
    for window in itertools.combinations(range(1, m + 1), span):
        blocks = {i: [] for i in machine.positions}
        for element, (_, position) in zip(window, listed):
            blocks[position].append(element)
        edges.append(tuple(_subset_name(blocks[i]) for i in machine.positions))
    return DirectedHypergraph(machine.k, vertices, edges)


def reference_shift_digraph(m):
    m = int(m)
    if m < 2:
        raise InputError("needs m >= 2")
    vertices = [(a, b) for a, b in itertools.combinations(range(1, m + 1), 2)]
    edges = [
        (f"{a}-{b}", f"{b}-{c}")
        for a, b in vertices
        for b2, c in vertices
        if b == b2
    ]
    return DirectedHypergraph(2, [f"{a}-{b}" for a, b in vertices], edges)


def assert_matches_reference(graph, reference):
    assert graph.k == reference.k
    assert graph.vertices == reference.vertices
    assert graph.edges == reference.edges
    # every edge coordinate is the vertex's own name object, not a copy
    coordinates = itertools.chain.from_iterable(graph.edges)
    assert all(
        v is graph.vertices[n] for v, n in zip(coordinates, graph.members)
    )


def _construction_cases():
    for n in range(4):
        machine = gen_counter_machine(n)
        span = 2 * (n + 1)
        for m in range(span, span + 4):
            yield machine, counter_machine_order(n), m
    for m in range(2, 6):
        yield one_state_cycler(), (("s", 1), ("s", 2)), m


@pytest.mark.parametrize("machine, order, m", list(_construction_cases()))
def test_cycling_construction_matches_reference(machine, order, m):
    assert_matches_reference(
        gen_cycling_construction(machine, order, m),
        reference_cycling_construction(machine, order, m),
    )


@pytest.mark.parametrize("k, seed", [(2, 2024), (3, 2025)])
def test_cycling_construction_matches_reference_on_found_orders(k, seed):
    rng = default_rng(seed)
    sizes = []
    for _ in range(200):
        machine = random_cycling_machine(rng, k=k, max_states=3, density=0.2)
        order = find_compatible_order(machine)
        if order is None:
            continue
        span = k * len(machine.states)
        for m in (span, span + 2):
            assert_matches_reference(
                gen_cycling_construction(machine, order, m),
                reference_cycling_construction(machine, order, m),
            )
        sizes.append(len(machine.states))
    assert len(sizes) >= 50 and set(sizes) == {1, 2, 3}


@pytest.mark.parametrize("m", range(2, 25))
def test_shift_digraph_matches_reference(m):
    assert_matches_reference(gen_shift_digraph(m), reference_shift_digraph(m))


def test_incomparable_pairs_m2():
    graph = gen_incomparable_pairs_digraph(2)
    assert graph.vertices == ("1|2", "2|1")
    assert graph.edges == ()


def test_incomparable_pairs_m3_recount():
    graph = gen_incomparable_pairs_digraph(3)
    assert len(graph.vertices) == 18
    subsets = []
    for size in range(4):
        subsets.extend(
            frozenset(c) for c in itertools.combinations(range(1, 4), size)
        )
    pairs = [
        (x, y) for x in subsets for y in subsets if not (x <= y or y <= x)
    ]

    def name(x):
        return "-".join(str(e) for e in sorted(x))

    edges = {
        (f"{name(a)}|{name(b)}", f"{name(b2)}|{name(c)}")
        for a, b in pairs
        for b2, c in pairs
        if b == b2 and a < c
    }
    assert set(graph.edges) == edges
    assert len(edges) > 0


def two_colorable(graph):
    # underlying undirected bipartiteness check
    adjacency = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    side = {}
    for start in graph.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def test_incomparable_pairs_chromatic_and_goodness():
    machine = gen_example3_machine()
    for m in (2, 3):
        graph = gen_incomparable_pairs_digraph(m)
        assert is_good(graph, machine).good
    graph = gen_incomparable_pairs_digraph(3)
    chi = chromatic_number_exact(graph).number
    if two_colorable(graph):
        assert chi == 2
    else:
        assert chi >= 3


def test_incomparable_pairs_rejects():
    with pytest.raises(InputError):
        gen_incomparable_pairs_digraph(1)
    with pytest.raises(InputError):
        gen_incomparable_pairs_digraph(5)


def test_shift_digraph_small():
    three = gen_shift_digraph(3)
    assert three.vertices == ("1-2", "1-3", "2-3")
    assert three.edges == (("1-2", "2-3"),)
    four = gen_shift_digraph(4)
    assert len(four.vertices) == 6
    assert set(four.edges) == {
        ("1-2", "2-3"),
        ("1-2", "2-4"),
        ("1-3", "3-4"),
        ("2-3", "3-4"),
    }
    with pytest.raises(InputError):
        gen_shift_digraph(1)


@pytest.mark.parametrize("m, chi", [(2, 1), (3, 2), (4, 2), (8, 3)])
def test_shift_digraph_chromatic_is_log(m, chi):
    assert chromatic_number_exact(gen_shift_digraph(m)).number == chi


def test_generator_sizes_refuse_a_float_or_a_bool():
    # int() read gen_counter_machine(2.5) as counter 2 and
    # gen_shift_digraph(4.7) as shift 4; the range messages are unchanged
    machine = gen_counter_machine(1)
    sized = [
        (gen_counter_machine, "n"),
        (counter_machine_order, "n"),
        (gen_unbalanced_machine, "k"),
        (unbalanced_machine_order_system, "k"),
        (gen_explicit_hasse_digraph, "n"),
        (lambda m: gen_cycling_construction(machine, counter_machine_order(1), m), "m"),
        (gen_incomparable_pairs_digraph, "m"),
        (gen_shift_digraph, "m"),
    ]
    for build, name in sized:
        for bad in (2.5, 4.0, True, "3", None):
            with pytest.raises(InputError, match=f"^{name} must be an integer$"):
                build(bad)
    with pytest.raises(InputError, match="^the counter needs n >= 0$"):
        gen_counter_machine(-1)
    with pytest.raises(InputError, match="^supported range is 2 <= m <= 4$"):
        gen_incomparable_pairs_digraph(5)
    assert gen_counter_machine(2).states == ("0", "1", "2")
