import hashlib
import random
from fractions import Fraction

import pytest

from badcycle import digraph
from badcycle.digraph import (
    Digraph,
    bfs,
    has_zero_mean_span,
    least_first_order,
    strong_components,
    tarjan,
    tarjan_from,
    unpeeled,
)
from badcycle.corpus import default_rng, random_cycling_machine, random_hypergraph, random_machine
from badcycle.errors import InputError
from badcycle.generators import gen_shift_digraph
from badcycle.goodness import build_auxiliary
from badcycle.hypergraph import weak_components
from badcycle.relations import gen_alternating_machine
from named_rows import (
    NamedRows,
    ref_cyclic_components,
    ref_find_positive_cycle,
    ref_karp_max_mean,
    ref_karp_min_mean,
    ref_relax,
)
from test_balance import ALPHAS, reference_balance_corpus


MIXED_WEIGHTS = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2))


def random_weighted(rng, max_vertices=6, arc_factor=1.5, weights=MIXED_WEIGHTS):
    n = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(n)]
    arcs = []
    for _ in range(int(n * arc_factor) + rng.randint(0, 2)):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        arcs.append((u, v, rng.choice(weights)))
    return NamedRows(vertices, arcs)


def unweighted(g):
    return Digraph(g.vertices, [(u, v) for u, v, _ in g.arcs])


def all_simple_cycles(g):
    """Oracle: every simple directed cycle, once, as a list of arcs."""
    order = {v: n for n, v in enumerate(g.vertices)}
    by_source = {v: [] for v in g.vertices}
    for arc in g.arcs:
        by_source[arc[0]].append(arc)
    cycles = []

    def extend(start, at, path, onpath):
        for arc in by_source[at]:
            nxt = arc[1]
            if nxt == start:
                cycles.append(path + [arc])
            elif nxt not in onpath and order[nxt] > order[start]:
                onpath.add(nxt)
                extend(start, nxt, path + [arc], onpath)
                onpath.remove(nxt)

    for start in g.vertices:
        extend(start, start, [], {start})
    return cycles


def closure_oracle(g):
    """Oracle: reflexive transitive closure by repeated squaring of the relation."""
    reach = {(v, v) for v in g.vertices}
    reach |= {(u, v) for u, v, *_ in g.arcs}
    while True:
        extra = {
            (a, d)
            for a, b in reach
            for c, d in reach
            if b == c and (a, d) not in reach
        }
        if not extra:
            return reach
        reach |= extra


def test_construction_checks_endpoints():
    with pytest.raises(InputError, match="source 'c'"):
        Digraph(["a"], [("c", "a")])
    with pytest.raises(InputError, match="target 'b'"):
        Digraph(["a"], [("a", "b")])
    with pytest.raises(InputError):
        Digraph(["a", "a"])
    # parallel arcs and self-loops are kept, in input order
    g = Digraph(["a", "b"], [("a", "b"), ("b", "b"), ("a", "b")])
    assert g.arcs == (("a", "b"), ("b", "b"), ("a", "b"))


def test_strong_components_two_cycle():
    g = Digraph(["a", "b"], [("a", "b"), ("b", "a")])
    res = strong_components(g)
    assert res.components == (("a", "b"),)
    assert res.condensation == ()


def test_strong_components_path_is_topological():
    g = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    res = strong_components(g)
    assert res.components == (("a",), ("b",), ("c",))
    assert res.condensation == ((0, 1), (1, 2))


def test_strong_components_agree_with_reachability():
    rng = random.Random(11)
    for _ in range(30):
        g = unweighted(random_weighted(rng))
        res = strong_components(g)
        reach = closure_oracle(g)
        for u in g.vertices:
            for v in g.vertices:
                together = res.component_of[u] == res.component_of[v]
                assert together == ((u, v) in reach and (v, u) in reach)
        for a, b in res.condensation:
            assert a < b
        for n, comp in enumerate(res.components):
            members = set(comp)
            expected = tuple(
                arc for arc in g.arcs if arc[0] in members and arc[1] in members
            )
            assert res.internal_arcs[n] == expected


def networkx_cross_check(nx, g):
    res = strong_components(g)
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.arcs)
    theirs = {frozenset(c) for c in nx.strongly_connected_components(nxg)}
    assert {frozenset(c) for c in res.components} == theirs
    cond = nx.condensation(nxg)
    ours_of = {x: res.component_of[cond.nodes[x]["members"].pop()] for x in cond}
    assert set(res.condensation) == {(ours_of[x], ours_of[y]) for x, y in cond.edges}
    # reachability in our condensation, folded backwards over its sorted pairs
    reach = [{c} for c in range(len(res.components))]
    for a, b in reversed(res.condensation):
        reach[a] |= reach[b]
    for x in cond:
        expected = {ours_of[y] for y in nx.descendants(cond, x)} | {ours_of[x]}
        assert reach[ours_of[x]] == expected


def test_strong_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    for n in range(80):
        g = random_weighted(rng, max_vertices=10, arc_factor=(0.7, 1.2, 2.0)[n % 3])
        networkx_cross_check(nx, unweighted(g))
    rng = default_rng(14)
    for n in range(40):
        k = 2 + n % 2
        graph = random_hypergraph(rng, k=k, max_vertices=5, max_edges=5)
        if n % 4 < 2:
            machine = random_cycling_machine(rng, k=k, max_states=3)
        else:
            machine = random_machine(rng, k=k, max_states=3)
        networkx_cross_check(nx, build_auxiliary(graph, machine).graph)
    alternating = gen_alternating_machine().machine
    networkx_cross_check(nx, build_auxiliary(gen_shift_digraph(6), alternating).graph)


def random_succ(rng, n, out=3):
    return [[rng.randrange(n) for _ in range(rng.randint(0, out))] for _ in range(n)]


def test_rooted_search_closes_what_its_roots_reach_as_networkx_does():
    # from shuffled roots, each yield has closed exactly the nodes the roots so
    # far reach, every one in its networkx component, and no other node
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for trial in range(300):
        n = rng.randint(1, 14)
        succ = random_succ(rng, n, out=(1, 2, 3)[trial % 3])
        dag = nx.DiGraph()
        dag.add_nodes_from(range(n))
        dag.add_edges_from((u, w) for u, targets in enumerate(succ) for w in targets)
        theirs = {v: frozenset(c) for c in nx.strongly_connected_components(dag) for v in c}
        roots = list(range(n)) * 2
        rng.shuffle(roots)
        reached = set()
        yields = 0
        for root, (closed, owner) in zip(roots, tarjan_from(succ, roots)):
            yields += 1
            reached |= nx.descendants(dag, root) | {root}
            assert {v for v in range(n) if owner[v] >= 0} == reached
            assert sorted(v for comp in closed for v in comp) == sorted(reached)
            for c, comp in enumerate(closed):
                assert comp == sorted(theirs[comp[0]])
                assert all(owner[v] == c for v in comp)
                # closing order: every arc stays inside or goes to an earlier one
                assert all(owner[w] <= c for v in comp for w in succ[v])
        assert yields == len(roots)


def test_tarjan_is_unchanged_by_the_rooted_search():
    # the components, in topological order with members ascending, and the
    # component numbers, as the node-order search gave them before it could resume
    assert tarjan([]) == ([], [])
    assert tarjan([[1], [2], [0, 3], [], [4, 3]]) == ([[4], [0, 1, 2], [3]], [1, 1, 1, 2, 0])
    rng = random.Random(31)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(repr(tarjan(random_succ(rng, rng.randint(0, 14)))).encode())
    assert digest.hexdigest() == (
        "12246f3be7e106dd0ffaf9c09e327c5338ec5275c9e5de99d764cd2ea9a13cde"
    )


def test_least_first_order_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 12)
        # arcs run forward in a hidden shuffled order of the labels
        hidden = list(range(n))
        rng.shuffle(hidden)
        succ = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    succ[hidden[a]].append(hidden[b])
        key = [rng.randrange(3) for _ in range(n)]
        dag = nx.DiGraph()
        dag.add_nodes_from(range(n))
        dag.add_edges_from((u, w) for u, targets in enumerate(succ) for w in targets)
        assert least_first_order(succ) == list(nx.lexicographical_topological_sort(dag))
        assert least_first_order(succ, key) == list(
            nx.lexicographical_topological_sort(dag, key=lambda v: (key[v], v))
        )


def test_unpeeled_keeps_what_a_cycle_reaches_as_networkx_finds():
    # on graphs with parallel arcs and self-loops, the peel leaves exactly the
    # nodes reachable from a nontrivial strong component or a self-loop
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    cyclic = 0
    for trial in range(400):
        n = rng.randint(1, 14)
        succ = random_succ(rng, n, out=(1, 2, 3)[trial % 3])
        if trial % 5 == 0:
            succ[rng.randrange(n)].extend([rng.randrange(n)] * 2)
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((u, w) for u, targets in enumerate(succ) for w in targets)
        sources = {v for c in nx.strongly_connected_components(graph) if len(c) > 1 for v in c}
        sources |= {v for v in range(n) if v in succ[v]}
        reached = set(sources)
        for v in sources:
            reached |= nx.descendants(graph, v)
        assert unpeeled(succ) == sorted(reached)
        assert (not reached) == nx.is_directed_acyclic_graph(graph)
        cyclic += bool(reached)
    assert 100 <= cyclic < 400


def test_unpeeled_leaves_nothing_of_a_dag():
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(0, 14)
        # arcs, parallel ones too, run forward in a hidden shuffled order
        hidden = list(range(n))
        rng.shuffle(hidden)
        succ = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                for _ in range(rng.choice((0, 0, 0, 1, 2))):
                    succ[hidden[a]].append(hidden[b])
        assert unpeeled(succ) == []
        if n:
            # a self-loop on the last node in that order leaves it alone
            succ[hidden[-1]].append(hidden[-1])
            assert unpeeled(succ) == [hidden[-1]]


def test_reachable_matches_closure_oracle():
    # bfs from u parents exactly the closure's row of u, and a target
    # test stops it with that target as the one hit when it is reached
    rng = random.Random(12)
    for _ in range(30):
        g = random_weighted(rng)
        reach = closure_oracle(g)
        succ = [[] for _ in g.vertices]
        for u, v, _ in g.rows:
            succ[u].append(v)
        for source, u in enumerate(g.vertices):
            parent, hits = bfs(succ, source, lambda x: False)
            assert hits == []
            # with no predicate the BFS runs to its end with the same parents
            unstopped, hits = bfs(succ, source)
            assert hits == [] and list(unstopped.items()) == list(parent.items())
            assert {g.vertices[w] for w in parent} == {v for a, v in reach if a == u}
            for target, v in enumerate(g.vertices):
                hits = bfs(succ, source, lambda x: x == target)[1]
                assert hits == ([target] if (u, v) in reach else [])


def test_cycle_mean_small_cases():
    two = NamedRows(["a", "b"], [("a", "b", 1), ("b", "a", -1)])
    assert two.cycle_mean(1) == 0
    assert two.cycle_mean(-1) == 0
    tri = NamedRows(
        ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]
    )
    assert tri.cycle_mean(1) == 1
    acyclic = NamedRows(["a", "b"], [("a", "b", 5)])
    assert acyclic.cycle_mean(1) is None
    assert acyclic.cycle_mean(-1) is None


def test_cycle_mean_counter_machine_digraph():
    g = NamedRows(
        ["0", "1", "2"],
        [("0", "1", 1), ("1", "2", 1), ("2", "2", 1), ("2", "0", -1)],
    )
    assert g.cycle_mean(1) == Fraction(1, 3)
    assert g.cycle_mean(-1) == 1


def test_cycle_mean_matches_oracle():
    rng = random.Random(13)
    seen_cyclic = 0
    for _ in range(60):
        g = random_weighted(rng, max_vertices=6)
        cycles = all_simple_cycles(g)
        if not cycles:
            assert g.cycle_mean(1) is None
            continue
        seen_cyclic += 1
        means = [
            Fraction(sum(w for _, _, w in c)) / len(c) for c in cycles
        ]
        assert g.cycle_mean(1) == min(means)
        assert g.cycle_mean(-1) == max(means)
    assert seen_cyclic >= 20


def span_oracle(g):
    """Oracle: some strong component holds simple cycles of mean <= 0 and of
    mean >= 0 (a closed walk's mean lies between its simple cycles')."""
    rank = {v: n for n, v in enumerate(g.vertices)}
    _, owner = tarjan(unweighted(g)._succ)
    signs = {}
    for cycle in all_simple_cycles(g):
        total = sum(w for _, _, w in cycle)
        signs.setdefault(owner[rank[cycle[0][0]]], set()).add((total > 0) - (total < 0))
    return any(0 in seen or seen == {-1, 1} for seen in signs.values())


def test_zero_mean_span_small_cases():
    def span(vertices, arcs):
        g = NamedRows(vertices, arcs)
        assert g.zero_mean_span() == span_oracle(g)
        return has_zero_mean_span(len(g.vertices), g.rows)

    assert span("ab", [("a", "b", 1), ("b", "a", -1)])  # a zero-weight cycle
    assert span("a", [("a", "a", 0)])
    assert not span("a", [("a", "a", 1)])
    assert not span("a", [("a", "a", -2)])
    assert not span("ab", [("a", "b", 3)])
    assert not span("", [])
    # parallel arcs close cycles of means 1/2 and -1/2
    assert span("ab", [("a", "b", 1), ("a", "b", -1), ("b", "a", 0)])
    assert not span("ab", [("a", "b", 1), ("a", "b", 2), ("b", "a", 0)])
    # all-positive and all-negative components, with and without self-loops
    assert not span("abc", [("a", "b", 1), ("b", "c", 2), ("c", "a", 1), ("b", "b", 5)])
    assert not span("abc", [("a", "b", -1), ("b", "a", -2), ("c", "c", -1)])
    # a negative and a positive component, joined one way: no one component
    # spans zero, though the digraph holds cycles of both signs
    opposite = [("a", "b", -1), ("b", "a", -1), ("b", "c", 7), ("c", "d", 1), ("d", "c", 2)]
    assert not span("abcd", opposite)
    assert span("abcd", opposite + [("d", "a", 0)])


def test_zero_mean_span_matches_the_scaled_karp_signs():
    rng = random.Random(17)
    spans = {True: 0, False: 0}
    for n in range(600):
        weights = (MIXED_WEIGHTS, (0, 1, 2), (-2, -1, 0), (-1, 1), (1, 3), (-3, -1))[n % 6]
        g = random_weighted(rng, max_vertices=6, arc_factor=(0.8, 1.5, 2.5)[n // 6 % 3],
                            weights=weights)
        if n % 5 == 0 and g.arcs:  # a parallel copy of an arc and a self-loop
            u, v, w = rng.choice(g.arcs)
            loop = rng.choice(g.vertices)
            g = NamedRows(g.vertices, g.arcs + ((u, v, w + rng.choice((-1, 1))), (loop, loop, w)))
        expected = g.zero_mean_span()
        assert has_zero_mean_span(len(g.vertices), g.rows) == expected
        if n < 200:
            assert span_oracle(g) == expected
        spans[expected] += 1
    assert min(spans.values()) >= 150


def test_zero_mean_span_on_every_two_node_row_set():
    # each of the 12 rows (u, v, w) with u, v in {0, 1} and w in {-1, 0, 1}
    # present or absent: 4,096 row sets
    pool = [(u, v, w) for u in range(2) for v in range(2) for w in (-1, 0, 1)]
    spans = 0
    for mask in range(1 << len(pool)):
        rows = [row for bit, row in enumerate(pool) if mask >> bit & 1]
        expected = NamedRows(range(2), rows).zero_mean_span()
        assert has_zero_mean_span(2, rows) == expected
        spans += expected
    assert 0 < spans < 4096


def test_a_cycle_of_zero_arcs_is_answered_by_the_peel(monkeypatch):
    def no_components(n, rows):
        raise AssertionError("the peel should have answered")

    monkeypatch.setattr(digraph, "_cyclic_components", no_components)
    assert has_zero_mean_span(2, [(0, 1, 5), (1, 1, 0)])
    assert has_zero_mean_span(4, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, -4), (3, 0, 1)])


def test_zero_arcs_without_a_zero_cycle_reach_the_relaxations():
    def span(vertices, arcs):
        g = NamedRows(vertices, arcs)
        assert g.zero_mean_span() == span_oracle(g)
        return has_zero_mean_span(len(g.vertices), g.rows)

    # a 0-arc and a +1-arc close one cycle of mean 1/2
    assert not span("ab", [("a", "b", 0), ("b", "a", 1)])
    # with a -1-arc in parallel, the component also closes a cycle of mean -1/2
    assert span("ab", [("a", "b", 0), ("b", "a", 1), ("b", "a", -1)])
    opposite = [("a", "b", -1), ("b", "a", -1), ("b", "c", 7), ("c", "d", 1), ("d", "c", 2)]
    assert not span("abcd", opposite + [("a", "c", 0)])
    assert span("abcd", opposite + [("c", "a", 0)])


def test_find_positive_cycle_replays():
    rng = random.Random(14)
    hits = 0
    for _ in range(60):
        g = random_weighted(rng, max_vertices=6)
        cycles = all_simple_cycles(g)
        expected = any(sum(w for _, _, w in c) > 0 for c in cycles)
        witness = g.positive_cycle()
        assert (witness is not None) == expected
        if witness is None:
            continue
        hits += 1
        assert sum(w for _, _, w in witness) > 0
        pool = list(g.arcs)
        for arc in witness:
            pool.remove(arc)
        for n, (u, v, _) in enumerate(witness):
            assert witness[(n + 1) % len(witness)][0] == v
        seen = [u for u, _, _ in witness]
        assert len(seen) == len(set(seen))
    assert hits >= 15


def test_longest_walk_single_arc():
    g = NamedRows(["a", "b"], [("a", "b", 1)])
    assert g.potentials("a") == {"a": 0, "b": 1}


def test_longest_walk_hand_relaxation():
    g = NamedRows(["a", "b"], [("a", "b", 1), ("b", "a", -2)])
    assert g.potentials("a") == {"a": 0, "b": 1}


def test_longest_walk_positive_self_loop():
    g = NamedRows(["a"], [("a", "a", 1)])
    assert g.potentials("a") is None
    assert g.positive_cycle() == (("a", "a", Fraction(1)),)


def test_longest_walk_requires_reachability():
    # the relaxation gives a vertex the source does not reach no value
    g = NamedRows(["a", "b", "c"], [("b", "c", 1)])
    assert g.potentials("a") == {"a": 0, "b": None, "c": None}
    assert g.potentials("b") == {"a": None, "b": 0, "c": 1}


def brute_longest(g, source):
    """Oracle: max simple-path weight per target (valid when no positive cycles)."""
    best = {source: Fraction(0)}
    by_source = {v: [] for v in g.vertices}
    for arc in g.arcs:
        by_source[arc[0]].append(arc)

    def extend(at, total, onpath):
        for u, v, w in by_source[at]:
            if v in onpath:
                continue
            cand = total + w
            if v not in best or cand > best[v]:
                best[v] = cand
            onpath.add(v)
            extend(v, cand, onpath)
            onpath.remove(v)

    extend(source, Fraction(0), {source})
    return best


def test_longest_walk_matches_oracle_and_tightness():
    rng = random.Random(15)
    checked = 0
    for _ in range(80):
        base = random_weighted(rng, max_vertices=5)
        chain = [
            (base.vertices[i], base.vertices[i + 1], Fraction(-2))
            for i in range(len(base.vertices) - 1)
        ]
        g = NamedRows(base.vertices, chain + list(base.arcs))
        source = g.vertices[0]
        potentials = g.potentials(source)
        cycles = all_simple_cycles(g)
        has_positive = any(sum(w for _, _, w in c) > 0 for c in cycles)
        assert (potentials is not None) == (not has_positive)
        if potentials is None:
            assert sum(w for _, _, w in g.positive_cycle()) > 0
            continue
        checked += 1
        assert potentials == brute_longest(g, source)
        incoming_tight = {v: False for v in g.vertices}
        for u, v, w in g.arcs:
            assert potentials[v] >= potentials[u] + w
            if potentials[v] == potentials[u] + w:
                incoming_tight[v] = True
        for v in g.vertices:
            if v != source:
                assert incoming_tight[v]
    assert checked >= 10


def assert_matches_reference(g, sources):
    cyclic = ref_cyclic_components(g.vertices, g.arcs)
    assert g.cycle_mean(1) == min((ref_karp_min_mean(*c) for c in cyclic), default=None)
    assert g.cycle_mean(-1) == max((ref_karp_max_mean(*c) for c in cyclic), default=None)
    assert g.positive_cycle() == ref_find_positive_cycle(g.vertices, g.arcs)
    for source in sources:
        dist, changed = ref_relax(g.vertices, g.arcs, source, len(g.vertices))
        assert g.potentials(source) == (None if changed else dist)


def test_kernels_match_the_name_keyed_fraction_reference():
    rng = random.Random(16)
    for n in range(300):
        g = random_weighted(rng, max_vertices=7, arc_factor=(0.8, 1.5, 2.5)[n % 3])
        assert_matches_reference(g, g.vertices)
        g = random_weighted(rng, max_vertices=7, weights=(-3, -1, 0, 1, 2))
        assert_matches_reference(g, g.vertices)
    assert_matches_reference(NamedRows("ab", [("a", "b", Fraction(4))]), "ab")
    assert_matches_reference(NamedRows("a", [("a", "a", Fraction(4))]), "a")


def test_balance_digraphs_match_the_name_keyed_fraction_reference():
    # the doubled digraphs balance recognition builds, with the
    # eps-perturbed Fraction weights and their |V|+1 integer scaling, and
    # the one coloring builds on each weak component with weights 1 and
    # -ceil(alpha)
    positive = 0
    for graph in reference_balance_corpus():
        scale = len(graph.vertices) + 1
        for alpha in ALPHAS:
            p, q = alpha.numerator, alpha.denominator
            ceiling = -(-p // q)
            eps = Fraction(1, scale)
            weightings = ((eps - p, eps + q), (1 - p * scale, 1 + q * scale))
            for forward, backward in weightings:
                arcs = [(a, b, forward) for a, b in graph.edges]
                arcs += [(b, a, backward) for a, b in graph.edges]
                g = NamedRows(graph.vertices, arcs)
                assert_matches_reference(g, graph.vertices[:1])
                positive += g.positive_cycle() is not None
            for component in weak_components(graph):
                members = set(component)
                arcs = []
                for a, b in graph.edges:
                    if a in members:
                        arcs += [(a, b, 1), (b, a, -ceiling)]
                part = NamedRows(component, arcs)
                assert_matches_reference(part, component[:1])
    assert positive >= 1000
