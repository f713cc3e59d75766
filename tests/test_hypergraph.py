import hashlib
import itertools
import json
import random
import sys

import pytest

from badcycle.corpus import random_digraph, random_hypergraph
from badcycle import hypergraph as hypergraph_module
from badcycle.balance import balanced_coloring, is_alpha_balanced
from badcycle.checks import is_proper_coloring
from badcycle.errors import Budget, BudgetError, InputError
from badcycle.generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_cycling_construction,
    gen_shift_digraph,
)
from badcycle.hypergraph import (
    ChromaticResult,
    DirectedHypergraph,
    HyperCycle,
    chromatic_number_exact,
    chromatic_upper_greedy,
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


def test_construction_refuses_a_uniformity_that_is_not_an_integer():
    # int() truncated it: DirectedHypergraph(2.5, ...).k was 2
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(InputError, match="^hypergraph k must be an integer$"):
            DirectedHypergraph(k, ["a", "b"], [("a", "b")])


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


def reference_least_free_color(graph, color, v):
    """The per-vertex rule the greedy kernel replaced: the least color that no
    edge at v has on all of its other coordinates, read from color (0:
    uncolored) by one set per edge."""
    forbidden = set()
    for e in graph.incidence[v]:
        others = {color[u] for u in graph.members_of(e) if u != v}
        if len(others) == 1:
            forbidden |= others
    c = 1
    while c in forbidden:
        c += 1
    return c


def greedy_corpus():
    rng = random.Random(2718)
    for k in (2, 3, 4):
        for _ in range(60):
            yield random_hypergraph(rng, k=k, max_vertices=14, max_edges=40)
    for m in range(2, 10):
        yield gen_shift_digraph(m)
    for n, m in ((1, 6), (2, 8), (3, 9)):
        yield gen_cycling_construction(gen_counter_machine(n), counter_machine_order(n), m)


def test_greedy_kernel_matches_the_per_vertex_rule():
    # the greedy bound along the vertex order and along shuffled orders,
    # and the reinsertion case: a partial coloring, not necessarily proper,
    # walked first, then the uncolored vertices in a shuffled order
    rng = random.Random(31)
    for graph in greedy_corpus():
        n = len(graph.vertices)
        for trial in range(4):
            order = list(range(n))
            if trial:
                rng.shuffle(order)
            color = [0] * n
            for v in order[: rng.randint(0, n) if trial > 1 else 0]:
                color[v] = rng.randint(1, 3)
            order.sort(key=lambda v: not color[v])
            expected = list(color)
            for v in order:
                if not expected[v]:
                    expected[v] = reference_least_free_color(graph, expected, v)
            if trial < 2:
                names = [graph.vertices[v] for v in order]
                assert chromatic_upper_greedy(graph, names) == max(expected, default=0)
            state = dict.fromkeys(range(len(graph.edges)), 0)
            hypergraph_module._greedy(graph, color, order, state, dict(state))
            assert color == expected


def reference_peel(graph, part, t):
    """The set-based peel that the degree dict replaced, with its LIFO pops."""
    vertices, edges = part
    alive_vertices = set(vertices)
    alive_edges = set(edges)
    degree = {v: len(graph.incidence[v]) for v in vertices}
    queue = [v for v in vertices if degree[v] < t]
    order = []
    while queue:
        v = queue.pop()
        if v not in alive_vertices:
            continue
        alive_vertices.remove(v)
        for e in graph.incidence[v]:
            if e not in alive_edges:
                continue
            alive_edges.remove(e)
            for u in graph.members_of(e):
                if u == v or u not in alive_vertices:
                    continue
                degree[u] -= 1
                if degree[u] < t:
                    queue.append(u)
        order.append(v)
    return order


def test_peel_keeps_the_set_based_order():
    # the peel order is the reinsertion order, read back reversed
    for graph in chromatic_reference_corpus():
        top = max(map(len, graph.incidence), default=0) + 1
        for part in graph.components:
            for t in range(1, top + 1):
                assert hypergraph_module._peel(graph, part, t) == reference_peel(graph, part, t)


class CountingIncidence(tuple):
    """Incidence lists that count every read."""

    reads = 0

    def __getitem__(self, v):
        CountingIncidence.reads += 1
        return tuple.__getitem__(self, v)


def test_chromatic_work_stays_linear_over_many_components(monkeypatch):
    # 2,000 paths a->b->c->d declared a, d, b, c: the greedy bound needs 3
    # colors, so every component runs a t = 2 search, peels all four
    # vertices and reinserts them; the reinsertion reads its own part only
    vertices = []
    edges = []
    for i in range(2000):
        a, b, c, d = (f"{name}{i}" for name in "abcd")
        vertices += [a, d, b, c]
        edges += [(a, b), (b, c), (c, d)]
    graph = DirectedHypergraph(2, vertices, edges)
    assert chromatic_upper_greedy(graph) == 3
    monkeypatch.setattr(CountingIncidence, "reads", 0)
    graph.incidence = CountingIncidence(graph.incidence)
    result = chromatic_number_exact(graph)
    assert result.number == 2
    assert is_proper_coloring(graph, result.coloring)
    assert CountingIncidence.reads < 20 * (len(vertices) + len(edges))


def test_names_that_do_not_compare():
    graph = DirectedHypergraph(2, [1, "a"], [(1, "a")])
    assert chromatic_number_exact(graph) == ChromaticResult(2, {1: 1, "a": 2})
    assert chromatic_upper_greedy(graph) == 2
    assert chromatic_upper_greedy(graph, ["a", 1]) == 2
    with pytest.raises(InputError, match="unknown vertex"):
        chromatic_upper_greedy(graph, [1, "b"])
    with pytest.raises(InputError, match="exactly once"):
        chromatic_upper_greedy(graph, [1, 1])


def test_components_build_no_graph(monkeypatch):
    # chi and the balanced coloring read the graph's own vertex and edge
    # numbers, one weak component at a time
    rng = random.Random(11)
    graph = shuffled_union(rng, [gen_shift_digraph(8), gen_shift_digraph(6), path_digraph(2)])
    paths = shuffled_union(rng, [path_digraph(2), path_digraph(4)])
    assert len(weak_components(graph)) == 5
    assert len(weak_components(paths)) == 2
    built = []
    init = DirectedHypergraph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DirectedHypergraph, "__init__", counting)
    assert chromatic_number_exact(graph).number == 3
    assert is_proper_coloring(paths, balanced_coloring(paths, 2).colors)
    assert built == []


def test_weak_components_are_found_once_per_graph(monkeypatch):
    # balance at four alphas, the balanced coloring, chi and weak_components
    # all read the components the graph keeps; an equal graph finds its own
    found = []
    union_find = hypergraph_module._components

    def counting(graph):
        found.append(graph)
        return union_find(graph)

    monkeypatch.setattr(hypergraph_module, "_components", counting)
    vertices, edges = "12345", [("1", "2"), ("2", "3"), ("1", "3"), ("4", "5")]
    graph, twin = DirectedHypergraph(2, vertices, edges), DirectedHypergraph(2, vertices, edges)
    for alpha in ("3/2", 2, "5/2", 3):
        is_alpha_balanced(graph, alpha)
    balanced_coloring(graph, 3)
    assert chromatic_number_exact(graph).number == 3
    assert weak_components(graph) == (("1", "2", "3"), ("4", "5"))
    assert len(found) == 1 and found[0] is graph
    assert weak_components(twin) == weak_components(graph)
    assert len(found) == 2 and found[1] is twin
    # tuples all the way down: a list never equals a tuple
    assert graph.components == (((0, 1, 2), (0, 1, 2)), ((3, 4), (3,)))


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


def test_chromatic_search_runs_deeper_than_the_recursion_limit(monkeypatch):
    # the t = 2 search on an odd cycle goes once around it before failing,
    # far deeper than the default recursion limit of 1000 frames
    n = 3001
    verts = [str(i) for i in range(n)]
    cycle = DirectedHypergraph(
        2, verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    )

    def refuse(limit):
        raise AssertionError("the search must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    result = chromatic_number_exact(cycle)
    assert result.number == 3
    assert is_proper_coloring(cycle, result.coloring)


class _ReferenceBudgetHit(Exception):
    pass


def reference_chromatic(graph, budget=None):
    """Recursive DSATUR search with one induced-subgraph scan per component.

    The search that the integer kernel replaced, written out with its
    name-keyed state: components are rebuilt by scanning every vertex and
    edge, the core comes from a peel log of removed edges, and the pick is
    a max over the uncolored vertices by (saturation, degree, -rank).
    Backtracking is chronological.  Returns (number, coloring, nodes
    expanded) or raises BudgetError with the same bounds as
    chromatic_number_exact: the upper bound of each component left is the
    lesser of its greedy count and that of one uncapped DSATUR descent.
    """
    nodes = 0

    def spend():
        nonlocal nodes
        if budget is not None and nodes >= budget:
            raise _ReferenceBudgetHit
        nodes += 1

    def induced(keep):
        vertices = [v for v in graph.vertices if v in keep]
        edges = [e for e in graph.edges if all(v in keep for v in e)]
        return DirectedHypergraph(graph.k, vertices, edges)

    def forbidden_colors(part, coloring, v):
        forbidden = set()
        for edge_index in part.incident_edges(v):
            others = {coloring.get(u) for u in part.edges[edge_index] if u != v}
            if len(others) == 1 and None not in others:
                forbidden.add(next(iter(others)))
        return forbidden

    def least_free(forbidden):
        color = 1
        while color in forbidden:
            color += 1
        return color

    def greedy(part):
        coloring = {}
        for v in part.vertices:
            coloring[v] = least_free(forbidden_colors(part, coloring, v))
        return coloring

    def descent(part):
        # one DSATUR descent with no color cap: the least free color for
        # the uncolored vertex of greatest (saturation, degree, -rank)
        coloring = {}
        rank = {v: n for n, v in enumerate(part.vertices)}
        while len(coloring) < len(part.vertices):
            forbidden = {
                v: forbidden_colors(part, coloring, v)
                for v in part.vertices
                if v not in coloring
            }
            v = max(
                forbidden,
                key=lambda u: (
                    len(forbidden[u]), len(part.incident_edges(u)), -rank[u]
                ),
            )
            coloring[v] = least_free(forbidden[v])
        return max(coloring.values(), default=0)

    def clique_lower_bound(part):
        if not part.edges:
            return 1 if part.vertices else 0
        if part.k != 2:
            return 2
        neighbors = {v: set() for v in part.vertices}
        for a, b in part.edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        by_degree = sorted(part.vertices, key=lambda v: -len(neighbors[v]))
        best = 2
        for seed in by_degree[:8]:
            clique = {seed}
            for u in by_degree:
                if u not in clique and all(u in neighbors[w] for w in clique):
                    clique.add(u)
            best = max(best, len(clique))
        return best

    def peel(part, t):
        alive_vertices = set(part.vertices)
        alive_edges = set(range(len(part.edges)))
        degree = {v: len(part.incident_edges(v)) for v in part.vertices}
        queue = [v for v in part.vertices if degree[v] < t]
        log = []
        while queue:
            v = queue.pop()
            if v not in alive_vertices:
                continue
            alive_vertices.remove(v)
            removed = []
            for edge_index in part.incident_edges(v):
                if edge_index not in alive_edges:
                    continue
                alive_edges.remove(edge_index)
                removed.append(part.edges[edge_index])
                for u in part.edges[edge_index]:
                    if u == v or u not in alive_vertices:
                        continue
                    degree[u] -= 1
                    if degree[u] < t:
                        queue.append(u)
            log.append((v, tuple(removed)))
        core = DirectedHypergraph(
            part.k,
            [v for v in part.vertices if v in alive_vertices],
            [part.edges[n] for n in sorted(alive_edges)],
        )
        return core, log

    def search_core(core, t):
        vertices = core.vertices
        if not vertices:
            return {}
        color = {v: 0 for v in vertices}
        forbid_count = {v: [0] * (t + 1) for v in vertices}
        saturation = {v: 0 for v in vertices}
        uncolored_in = [len(e) for e in core.edges]
        present = [set() for _ in core.edges]
        degree = {v: len(core.incident_edges(v)) for v in vertices}
        uncolored = set(vertices)
        rank = {v: n for n, v in enumerate(vertices)}

        def assign(v, c):
            journal = []
            color[v] = c
            uncolored.remove(v)
            ok = True
            for edge_index in core.incident_edges(v):
                uncolored_in[edge_index] -= 1
                fresh = c not in present[edge_index]
                if fresh:
                    present[edge_index].add(c)
                journal.append(("edge", edge_index, fresh))
                if uncolored_in[edge_index] == 0:
                    if len(present[edge_index]) == 1:
                        ok = False
                elif uncolored_in[edge_index] == 1 and len(present[edge_index]) == 1:
                    last = next(u for u in core.edges[edge_index] if color[u] == 0)
                    forbid_count[last][c] += 1
                    if forbid_count[last][c] == 1:
                        saturation[last] += 1
                    journal.append(("forbid", last, c))
            return ok, journal

        def undo(v, journal):
            for tag, first, second in reversed(journal):
                if tag == "edge":
                    uncolored_in[first] += 1
                    if second:
                        present[first].discard(color[v])
                else:
                    forbid_count[first][second] -= 1
                    if forbid_count[first][second] == 0:
                        saturation[first] -= 1
            color[v] = 0
            uncolored.add(v)

        def extend(used):
            if not uncolored:
                return True
            spend()
            v = max(uncolored, key=lambda u: (saturation[u], degree[u], -rank[u]))
            for c in range(1, min(used + 1, t) + 1):
                if forbid_count[v][c]:
                    continue
                ok, journal = assign(v, c)
                if ok and extend(max(used, c)):
                    return True
                undo(v, journal)
            return False

        if extend(0):
            return {v: color[v] for v in vertices}
        return None

    def color_with(part, t):
        if t <= 0:
            return {} if not part.vertices else None
        core, log = peel(part, t)
        coloring = search_core(core, t)
        if coloring is None:
            return None
        for v, removed in reversed(log):
            forbidden = set()
            for edge in removed:
                others = {coloring[u] for u in edge if u != v}
                if len(others) == 1:
                    forbidden.add(next(iter(others)))
            coloring[v] = next(c for c in range(1, t + 1) if c not in forbidden)
        return coloring

    parts = [induced(set(c)) for c in weak_components(graph)]
    greedies = [greedy(p) for p in parts]
    uppers = [max(g.values(), default=0) for g in greedies]
    best = 0
    coloring = {}
    for n, part in enumerate(parts):
        number, found = uppers[n], greedies[n]
        lower = clique_lower_bound(part)
        for t in range(lower, uppers[n]):
            try:
                attempt = color_with(part, t)
            except _ReferenceBudgetHit:
                bounds = (min(u, descent(p)) for p, u in zip(parts[n:], uppers[n:]))
                raise BudgetError(
                    "chromatic search budget exhausted",
                    lower=max(best, t),
                    upper=max(best, *bounds),
                ) from None
            if attempt is not None:
                number, found = t, attempt
                break
        best = max(best, number)
        coloring.update(found)
    return best, coloring, nodes


def shuffled_union(rng, parts):
    """Disjoint union of parts, vertices and edges listed in random order."""
    vertices = []
    edges = []
    for n, part in enumerate(parts):
        name = {v: f"{v}.{n}" for v in part.vertices}
        vertices.extend(name.values())
        edges.extend(tuple(name[u] for u in edge) for edge in part.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return DirectedHypergraph(parts[0].k, vertices, edges)


def chromatic_reference_corpus():
    rng = random.Random(505)
    for _ in range(100):
        yield random_hypergraph(rng, k=2, max_vertices=12, max_edges=30)
    for _ in range(150):
        yield random_hypergraph(rng, k=3, max_vertices=12, max_edges=40)
    for _ in range(60):
        yield random_digraph(rng, max_vertices=30, edge_prob=0.15)
    for _ in range(60):
        parts = [random_digraph(rng, max_vertices=14, edge_prob=0.25) for _ in range(3)]
        yield shuffled_union(rng, parts)
    for _ in range(60):
        parts = [
            random_hypergraph(rng, k=3, max_vertices=10, max_edges=30)
            for _ in range(rng.randint(2, 4))
        ]
        yield shuffled_union(rng, parts)
    for m in range(2, 13):
        yield gen_shift_digraph(m)
    for n, m in ((1, 6), (1, 8), (2, 6), (2, 8), (3, 9)):
        yield gen_cycling_construction(
            gen_counter_machine(n), counter_machine_order(n), m
        )


def test_chromatic_search_matches_the_recursive_reference():
    # same chi and coloring, and the budget runs out at the same node with
    # the same bounds
    searched = split = 0
    for graph in chromatic_reference_corpus():
        number, coloring, nodes = reference_chromatic(graph)
        result = chromatic_number_exact(graph)
        assert result.number == number
        assert list(result.coloring.items()) == list(coloring.items())
        assert chromatic_number_exact(graph, budget=nodes) == result
        if nodes == 0:
            continue
        searched += 1
        split += len(weak_components(graph)) > 1
        with pytest.raises(BudgetError) as expected:
            reference_chromatic(graph, budget=nodes - 1)
        with pytest.raises(BudgetError) as got:
            chromatic_number_exact(graph, budget=nodes - 1)
        assert (got.value.lower, got.value.upper) == (
            expected.value.lower,
            expected.value.upper,
        )
    assert searched >= 200
    assert split >= 80


@pytest.fixture
def node_charges(monkeypatch):
    """The budget units chromatic_number_exact charges, one entry each."""
    charges = []

    class CountingBudget(Budget):
        def spend(self):
            charges.append(None)
            super().spend()

    monkeypatch.setattr(hypergraph_module, "Budget", CountingBudget)
    return charges


def threshold_hypergraph(rng, n):
    """Random 3-uniform hypergraph with about 2.1 n edges, near 2-colorability."""
    vertices = [str(i) for i in range(n)]
    edges = {}
    while len(edges) < round(2.1 * n):
        edges[tuple(rng.sample(vertices, 3))] = None
    return DirectedHypergraph(3, vertices, edges)


def backjumping_corpus():
    rng = random.Random(1993)
    for _ in range(80):
        yield threshold_hypergraph(rng, rng.randint(40, 60))
    for m in (12, 14):
        for _ in range(5):
            yield shuffled_union(rng, [gen_shift_digraph(m)])


def test_backjumping_matches_the_recursive_reference(node_charges):
    # graphs on which the search jumps back over levels: the same chi and
    # coloring as chronological backtracking, never more nodes, and the
    # budget runs out exactly one node short of the new count
    fewer = 0
    for graph in backjumping_corpus():
        number, coloring, nodes = reference_chromatic(graph)
        node_charges.clear()
        result = chromatic_number_exact(graph)
        spent = len(node_charges)
        assert result.number == number
        assert list(result.coloring.items()) == list(coloring.items())
        assert spent <= nodes
        fewer += spent < nodes
        assert chromatic_number_exact(graph, budget=spent) == result
        with pytest.raises(BudgetError):
            chromatic_number_exact(graph, budget=spent - 1)
    assert fewer >= 20


def test_backjumping_node_counts_on_shift_digraphs(node_charges):
    # chronological backtracking expanded 241, 52,851 and 299,154 nodes
    for m, nodes in ((14, 212), (15, 2023), (16, 74712)):
        node_charges.clear()
        result = chromatic_number_exact(gen_shift_digraph(m), budget=100_000)
        assert result.number == 4
        assert len(node_charges) == nodes


# the coloring workload's eight constructions, as (counter machine n, ground set m)
COLORING_CONSTRUCTIONS = ((1, 10), (2, 10), (2, 11), (2, 12), (2, 13), (3, 11), (3, 12), (3, 13))
CHROMATIC_ANSWERS_DIGEST = "d3a016d0cf0f957f5630ec036fc82138fec3b457966b0b3b48b2b7600a0580ec"


def chromatic_digest_corpus():
    yield from chromatic_reference_corpus()
    for m in range(2, 16):
        yield gen_shift_digraph(m)
    for n, m in COLORING_CONSTRUCTIONS:
        yield gen_cycling_construction(gen_counter_machine(n), counter_machine_order(n), m)


def test_chromatic_answers_match_their_pinned_digest(node_charges):
    # pinned before the 2-uniform kernel landed: chi, the coloring, the
    # greedy bound, and the bounds a budget one node short raises
    digest = hashlib.sha256()
    for graph in chromatic_digest_corpus():
        node_charges.clear()
        result = chromatic_number_exact(graph)
        bounds = None
        if node_charges:
            with pytest.raises(BudgetError) as short:
                chromatic_number_exact(graph, budget=len(node_charges) - 1)
            bounds = [short.value.lower, short.value.upper]
        answer = [result.number, list(result.coloring.items()), chromatic_upper_greedy(graph)]
        digest.update(json.dumps([*answer, bounds]).encode())
    assert digest.hexdigest() == CHROMATIC_ANSWERS_DIGEST


def kernel_run(search, budget=10**9):
    """What a kernel call returns, or "budget" when it runs out, with the
    units it charged."""
    counter = Budget(budget, "budget exhausted")
    try:
        answer = search(counter)
    except BudgetError:
        answer = "budget"
    return answer, budget - counter.left


def two_uniform_cores(graph):
    """Each component's core at every color count up to the greedy bound,
    and the whole component at one below it with the descent's budget, as
    (vertex numbers, edge members, t, budget)."""
    top = chromatic_upper_greedy(graph)
    for part in graph.components:
        vertices, edges = part
        for t in range(top + 1):
            peeled = set(hypergraph_module._peel(graph, part, t))
            kept = [e for e in edges if peeled.isdisjoint(graph.members_of(e))]
            core = [v for v in vertices if v not in peeled]
            yield core, [v for e in kept for v in graph.members_of(e)], t, 10**9
        whole = [v for e in edges for v in graph.members_of(e)]
        yield list(vertices), whole, top - 1, len(vertices)


def has_antiparallel_pair(graph):
    edges = set(graph.edges)
    return any((b, a) in edges for a, b in graph.edges)


def test_both_kernels_agree_on_two_uniform_cores():
    # the neighbour-bitset kernel makes the per-edge kernel's decisions:
    # the same colors, or None, for the same budget units
    rng = random.Random(1979)
    graphs = [gen_shift_digraph(m) for m in range(2, 16)]
    graphs += [
        gen_cycling_construction(gen_counter_machine(n), counter_machine_order(n), m)
        for n, m in COLORING_CONSTRUCTIONS
    ]
    drawn = [
        random_digraph(rng, max_vertices=30, edge_prob=rng.choice((0.1, 0.2, 0.3, 0.5)))
        for _ in range(150)
    ]
    assert sum(map(has_antiparallel_pair, drawn)) >= 100
    searches = colored = 0
    for graph in graphs + drawn:
        for vertices, members, t, budget in two_uniform_cores(graph):
            pairs = kernel_run(
                lambda counter: hypergraph_module._search_pairs(vertices, members, t, counter),
                budget,
            )
            edges = kernel_run(
                lambda counter: hypergraph_module._search_core(vertices, members, 2, t, counter),
                budget,
            )
            assert pairs == edges
            searches += 1
            colored += isinstance(pairs[0], list) and pairs[1] > 0
    assert searches >= 2000
    assert colored >= 500


def test_chi_runs_one_kernel_per_uniformity(monkeypatch):
    # chi and the descent behind a budget's bounds search a 2-uniform graph
    # with the bitset kernel only, and a 3-uniform one with the per-edge one
    entered = []

    def entering(name):
        kernel = getattr(hypergraph_module, name)

        def counted(*args):
            entered.append(name)
            return kernel(*args)

        monkeypatch.setattr(hypergraph_module, name, counted)

    entering("_search_pairs")
    entering("_search_core")
    rng = random.Random(3)
    for graph, kernel in (
        (gen_shift_digraph(12), "_search_pairs"),
        (threshold_hypergraph(rng, 40), "_search_core"),
    ):
        entered.clear()
        chromatic_number_exact(graph)
        with pytest.raises(BudgetError):
            chromatic_number_exact(graph, budget=10)
        assert len(entered) >= 3
        assert set(entered) == {kernel}


def test_path_length_and_cycle_edge_index_refuse_a_float_or_a_bool():
    # path_digraph(2.5) raised a bare TypeError and path_digraph(True) built
    # P_1; a bool edge index read True as edge 1
    graph = path_digraph(2)
    for bad in (2.5, 1.0, True, False, "1", None):
        with pytest.raises(InputError, match="^path length must be an integer$"):
            path_digraph(bad)
        with pytest.raises(InputError, match="^edge index must be an integer$"):
            HyperCycle(graph, "2", [(bad, "3"), (1, "2")])
    assert HyperCycle(graph, "2", [(1, "3"), (1, "2")]).edge_indices == (1, 1)
