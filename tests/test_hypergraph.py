import itertools
import random

import pytest

from badcycle.corpus import random_digraph, random_hypergraph
from badcycle.errors import BudgetError, InputError
from badcycle.hypergraph import (
    ChromaticResult,
    DirectedHypergraph,
    HyperCycle,
    chromatic_number_exact,
    chromatic_upper_greedy,
    enumerate_cycles,
    is_proper_coloring,
    path_digraph,
    weak_components,
)


def brute_chromatic(graph):
    """Oracle: exhaustive search over all colorings, smallest count first."""
    n = len(graph.vertices)
    if n == 0:
        return 0
    for t in range(1, n + 1):
        for combo in itertools.product(range(1, t + 1), repeat=n):
            coloring = dict(zip(graph.vertices, combo))
            if is_proper_coloring(graph, coloring):
                return t
    raise AssertionError("no coloring found")


def brute_cycle_keys(graph, max_len):
    """Oracle: canonical keys of all cycles, by exhaustive step sequences."""
    keys = set()
    alphabet = [
        (n, v) for n in range(len(graph.edges)) for v in graph.edges[n]
    ]
    for base in graph.vertices:
        keys.add(HyperCycle(graph, base).canonical_key())
        for length in range(1, max_len + 1):
            for steps in itertools.product(alphabet, repeat=length):
                try:
                    cycle = HyperCycle(graph, base, steps)
                except InputError:
                    continue
                keys.add(cycle.canonical_key())
    return keys


def triangle():
    return DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")]
    )


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        DirectedHypergraph(1, ["a"])
    with pytest.raises(InputError):
        DirectedHypergraph(2, ["a", "a"])
    with pytest.raises(InputError):
        DirectedHypergraph(2, ["a", "b"], [("a", "b", "a")])
    with pytest.raises(InputError):
        DirectedHypergraph(2, ["a", "b"], [("a", "a")])
    with pytest.raises(InputError):
        DirectedHypergraph(2, ["a", "b"], [("a", "c")])
    with pytest.raises(InputError):
        DirectedHypergraph(2, ["a", "b"], [("a", "b"), ("a", "b")])


def test_trace_on_digraph_edge():
    g = DirectedHypergraph(2, ["1", "2"], [("1", "2")])
    back_and_forth = HyperCycle(g, "1", [(0, "2"), (0, "1")])
    assert back_and_forth.trace(1) == (1, 2)
    assert back_and_forth.trace(2) == (2, 1)
    stay = HyperCycle(g, "1", [(0, "1")])
    assert stay.trace(1) == (1, 1)
    with pytest.raises(InputError):
        stay.trace(2)
    with pytest.raises(InputError):
        stay.trace(0)


def test_trace_on_three_uniform_edge():
    g = DirectedHypergraph(3, ["a", "b", "c"], [("a", "b", "c")])
    c = HyperCycle(g, "a", [(0, "c"), (0, "a")])
    assert c.trace(1) == (1, 3)
    assert c.trace(2) == (3, 1)
    assert c.traces() == ((1, 3), (3, 1))


def test_cycle_validation():
    g = triangle()
    with pytest.raises(InputError):
        HyperCycle(g, "nope")
    with pytest.raises(InputError):
        HyperCycle(g, "1", [(5, "2")])
    with pytest.raises(InputError):
        HyperCycle(g, "1", [(1, "2")])
    with pytest.raises(InputError):
        HyperCycle(g, "1", [(0, "2")])
    c = HyperCycle(g, "1", [(0, "2"), (1, "3"), (2, "1")])
    assert c.length == 3
    assert c.base == "1"
    assert c.vertex_seq == ("1", "2", "3", "1")


def test_canonical_key_identifies_rotations():
    g = triangle()
    c1 = HyperCycle(g, "1", [(0, "2"), (1, "3"), (2, "1")])
    c2 = HyperCycle(g, "2", [(1, "3"), (2, "1"), (0, "2")])
    c3 = HyperCycle(g, "3", [(2, "1"), (0, "2"), (1, "3")])
    assert c1.canonical_key() == c2.canonical_key() == c3.canonical_key()
    assert c2.canonical() == c1
    other = HyperCycle(g, "1", [(2, "3"), (1, "2"), (0, "1")])
    assert other.canonical_key() != c1.canonical_key()


def test_enumerate_cycles_single_edge():
    g = DirectedHypergraph(2, ["1", "2"], [("1", "2")])
    cycles = list(enumerate_cycles(g, 2))
    keys = {c.canonical_key() for c in cycles}
    assert len(cycles) == len(keys) == 7
    lengths = sorted(c.length for c in cycles)
    assert lengths == [0, 0, 1, 1, 2, 2, 2]
    seqs = {c.vertex_seq for c in cycles}
    assert ("1", "2", "1") in seqs
    assert ("1", "1") in seqs
    assert ("2", "2") in seqs


def test_enumerate_cycles_edgeless():
    g = DirectedHypergraph(2, ["a", "b", "c"], [])
    cycles = list(enumerate_cycles(g, 4))
    assert sorted(c.base for c in cycles) == ["a", "b", "c"]
    assert all(c.length == 0 for c in cycles)


def test_enumerate_cycles_matches_oracle_on_triangle():
    g = triangle()
    got = [c.canonical_key() for c in enumerate_cycles(g, 3)]
    assert len(got) == len(set(got))
    assert set(got) == brute_cycle_keys(g, 3)


def test_enumerate_cycles_matches_oracle_on_corpus():
    rng = random.Random(2004)
    for _ in range(20):
        g = random_hypergraph(rng, k=rng.choice([2, 3]), max_vertices=4, max_edges=3)
        got = [c.canonical_key() for c in enumerate_cycles(g, 3)]
        assert len(got) == len(set(got))
        assert set(got) == brute_cycle_keys(g, 3)


def test_path_digraph_shapes():
    p0 = path_digraph(0)
    assert p0.vertices == ("1",) and p0.edges == ()
    p1 = path_digraph(1)
    assert p1.edges == (("1", "2"),)
    p3 = path_digraph(3)
    assert len(p3.vertices) == 4 and len(p3.edges) == 3
    with pytest.raises(InputError):
        path_digraph(-1)


def test_weak_components():
    g = DirectedHypergraph(
        2, ["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")]
    )
    assert weak_components(g) == (("a", "b"), ("c", "d"), ("e",))


def test_chromatic_small_cases():
    assert chromatic_number_exact(path_digraph(3)).number == 2
    verts = ["1", "2", "3", "4"]
    k4 = DirectedHypergraph(
        2, verts, [(u, v) for u in verts for v in verts if u < v]
    )
    assert chromatic_number_exact(k4).number == 4
    empty = DirectedHypergraph(2, [], [])
    assert chromatic_number_exact(empty) == ChromaticResult(0, {})
    edgeless = DirectedHypergraph(2, ["a", "b"], [])
    assert chromatic_number_exact(edgeless).number == 1


def test_chromatic_odd_cycle():
    verts = [str(i) for i in range(1, 6)]
    edges = [(verts[i], verts[(i + 1) % 5]) for i in range(5)]
    c5 = DirectedHypergraph(2, verts, edges)
    result = chromatic_number_exact(c5)
    assert result.number == 3
    assert is_proper_coloring(c5, result.coloring)


def test_chromatic_three_uniform():
    verts = ["a", "b", "c", "d"]
    edges = list(itertools.combinations(verts, 3))
    h = DirectedHypergraph(3, verts, edges)
    result = chromatic_number_exact(h)
    assert result.number == 2
    assert is_proper_coloring(h, result.coloring)


def test_chromatic_matches_oracle_on_corpus():
    rng = random.Random(77)
    for _ in range(25):
        g = random_digraph(rng, max_vertices=5, edge_prob=0.4)
        result = chromatic_number_exact(g)
        assert result.number == brute_chromatic(g)
        assert is_proper_coloring(g, result.coloring)
        assert max(result.coloring.values(), default=0) <= result.number
    for _ in range(10):
        h = random_hypergraph(rng, k=3, max_vertices=5, max_edges=5)
        result = chromatic_number_exact(h)
        assert result.number == brute_chromatic(h)
        assert is_proper_coloring(h, result.coloring)


def test_greedy_upper_bounds_exact():
    rng = random.Random(78)
    for _ in range(15):
        g = random_digraph(rng, max_vertices=6, edge_prob=0.4)
        exact = chromatic_number_exact(g).number
        order = list(g.vertices)
        rng.shuffle(order)
        assert exact <= chromatic_upper_greedy(g, order)
        assert exact <= chromatic_upper_greedy(g)
    with pytest.raises(InputError):
        chromatic_upper_greedy(triangle(), ["1", "2"])


def test_chromatic_budget_exhaustion():
    verts = [str(i) for i in range(1, 6)]
    edges = [(verts[i], verts[(i + 1) % 5]) for i in range(5)]
    c5 = DirectedHypergraph(2, verts, edges)
    with pytest.raises(BudgetError) as err:
        chromatic_number_exact(c5, budget=0)
    assert err.value.lower == 2
    assert err.value.upper == 3


def test_proper_coloring_checks_totality():
    g = triangle()
    assert not is_proper_coloring(g, {"1": 1, "2": 2})
    assert not is_proper_coloring(g, {"1": 1, "2": 1, "3": 1})
    assert is_proper_coloring(g, {"1": 1, "2": 2, "3": 3})
