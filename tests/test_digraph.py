import hashlib
import random
import re
from fractions import Fraction

import pytest

from badcycle.digraph import (
    LongestWalks,
    WeightedDigraph,
    bfs,
    find_positive_cycle,
    least_first_order,
    longest_walk_potentials,
    max_cycle_mean,
    min_cycle_mean,
    strong_components,
    tarjan,
    tarjan_from,
)
from badcycle.corpus import default_rng, random_cycling_machine, random_hypergraph, random_machine
from badcycle.errors import InputError
from badcycle.generators import gen_shift_digraph
from badcycle.goodness import build_auxiliary
from badcycle.hypergraph import weak_components
from badcycle.relations import gen_alternating_machine
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
    return WeightedDigraph(vertices, arcs)


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
    reach |= {(u, v) for u, v, _ in g.arcs}
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
    with pytest.raises(InputError):
        WeightedDigraph(["a"], [("a", "b", 1)])
    with pytest.raises(InputError):
        WeightedDigraph(["a", "a"])
    g = WeightedDigraph(["a", "b"], [("a", "b", "1/2")])
    assert g.arcs == (("a", "b", Fraction(1, 2)),)


def test_strong_components_two_cycle():
    g = WeightedDigraph(["a", "b"], [("a", "b", 1), ("b", "a", 1)])
    res = strong_components(g)
    assert res.components == (("a", "b"),)
    assert res.condensation == ()


def test_strong_components_path_is_topological():
    g = WeightedDigraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
    res = strong_components(g)
    assert res.components == (("a",), ("b",), ("c",))
    assert res.condensation == ((0, 1), (1, 2))


def test_strong_components_agree_with_reachability():
    rng = random.Random(11)
    for _ in range(30):
        g = random_weighted(rng)
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
    nxg.add_edges_from((u, v) for u, v, _ in g.arcs)
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
        networkx_cross_check(
            nx, random_weighted(rng, max_vertices=10, arc_factor=(0.7, 1.2, 2.0)[n % 3])
        )
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


def test_reachable_matches_closure_oracle():
    # bfs from u parents exactly the closure's row of u, and a target
    # test stops it with that target as the one hit when it is reached
    rng = random.Random(12)
    for _ in range(30):
        g = random_weighted(rng)
        reach = closure_oracle(g)
        for u in g.vertices:
            source = g.index_of(u)
            parent, hits = bfs(g._succ, source, lambda x: False)
            assert hits == []
            assert {g.vertices[w] for w in parent} == {v for a, v in reach if a == u}
            for target, v in enumerate(g.vertices):
                hits = bfs(g._succ, source, lambda x: x == target)[1]
                assert hits == ([target] if (u, v) in reach else [])
    with pytest.raises(InputError):
        g.index_of("nope")


def test_cycle_mean_small_cases():
    two = WeightedDigraph(["a", "b"], [("a", "b", 1), ("b", "a", -1)])
    assert min_cycle_mean(two) == 0
    assert max_cycle_mean(two) == 0
    tri = WeightedDigraph(
        ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]
    )
    assert min_cycle_mean(tri) == 1
    acyclic = WeightedDigraph(["a", "b"], [("a", "b", 5)])
    assert min_cycle_mean(acyclic) is None
    assert max_cycle_mean(acyclic) is None


def test_cycle_mean_counter_machine_digraph():
    g = WeightedDigraph(
        ["0", "1", "2"],
        [("0", "1", 1), ("1", "2", 1), ("2", "2", 1), ("2", "0", -1)],
    )
    assert min_cycle_mean(g) == Fraction(1, 3)
    assert max_cycle_mean(g) == 1


def test_cycle_mean_matches_oracle():
    rng = random.Random(13)
    seen_cyclic = 0
    for _ in range(60):
        g = random_weighted(rng, max_vertices=6)
        cycles = all_simple_cycles(g)
        if not cycles:
            assert min_cycle_mean(g) is None
            continue
        seen_cyclic += 1
        means = [
            Fraction(sum(w for _, _, w in c)) / len(c) for c in cycles
        ]
        assert min_cycle_mean(g) == min(means)
        assert max_cycle_mean(g) == max(means)
    assert seen_cyclic >= 20


def test_find_positive_cycle_replays():
    rng = random.Random(14)
    hits = 0
    for _ in range(60):
        g = random_weighted(rng, max_vertices=6)
        cycles = all_simple_cycles(g)
        expected = any(sum(w for _, _, w in c) > 0 for c in cycles)
        witness = find_positive_cycle(g)
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
    g = WeightedDigraph(["a", "b"], [("a", "b", 1)])
    res = longest_walk_potentials(g, "a")
    assert res == LongestWalks({"a": 0, "b": 1}, None)
    assert res.bounded


def test_longest_walk_hand_relaxation():
    g = WeightedDigraph(["a", "b"], [("a", "b", 1), ("b", "a", -2)])
    res = longest_walk_potentials(g, "a")
    assert res.potentials == {"a": 0, "b": 1}


def test_longest_walk_positive_self_loop():
    g = WeightedDigraph(["a"], [("a", "a", 1)])
    res = longest_walk_potentials(g, "a")
    assert not res.bounded
    assert res.positive_cycle == (("a", "a", Fraction(1)),)


def test_longest_walk_requires_reachability():
    g = WeightedDigraph(["a", "b"], [])
    with pytest.raises(InputError):
        longest_walk_potentials(g, "a")


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
        g = WeightedDigraph(base.vertices, chain + list(base.arcs))
        source = g.vertices[0]
        res = longest_walk_potentials(g, source)
        cycles = all_simple_cycles(g)
        has_positive = any(sum(w for _, _, w in c) > 0 for c in cycles)
        assert res.bounded == (not has_positive)
        if not res.bounded:
            assert sum(w for _, _, w in res.positive_cycle) > 0
            continue
        checked += 1
        assert res.potentials == brute_longest(g, source)
        incoming_tight = {v: False for v in g.vertices}
        for u, v, w in g.arcs:
            assert res.potentials[v] >= res.potentials[u] + w
            if res.potentials[v] == res.potentials[u] + w:
                incoming_tight[v] = True
        for v in g.vertices:
            if v != source:
                assert incoming_tight[v]
    assert checked >= 10


# Reference kernel: the name-keyed implementation badcycle.digraph ran
# before its kernels moved to int rows on node numbers, transcribed
# unchanged except that it reads the graph only through the public
# ``vertices``, ``arcs`` and ``strong_components``.  Karp builds one
# Fraction per (vertex, walk length) pair and the relaxation runs on the
# exact weights.


def ref_cyclic_components(graph):
    result = strong_components(graph)
    return [pair for pair in zip(result.components, result.internal_arcs) if pair[1]]


def ref_karp_min_mean(comp, arcs):
    n = len(comp)
    rank = {v: i for i, v in enumerate(comp)}
    rows = [(rank[u], rank[v], w) for u, v, w in arcs]
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0
    for k in range(1, n + 1):
        prev, cur = d[k - 1], d[k]
        for u, v, w in rows:
            if prev[u] is None:
                continue
            cand = prev[u] + w
            if cur[v] is None or cand < cur[v]:
                cur[v] = cand
    return min(
        max(Fraction(d[n][v] - d[k][v], n - k) for k in range(n) if d[k][v] is not None)
        for v in range(n)
        if d[n][v] is not None
    )


def ref_karp_max_mean(comp, arcs):
    return -ref_karp_min_mean(comp, [(u, v, -w) for u, v, w in arcs])


def ref_relax(vertices, arcs, source, rounds):
    dist = dict.fromkeys(vertices)
    dist[source] = 0
    for _ in range(rounds):
        changed = False
        for u, v, w in arcs:
            if dist[u] is None:
                continue
            cand = dist[u] + w
            if dist[v] is None or cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    return dist, changed


def ref_any_cycle(vertices, arcs):
    out = {v: [] for v in vertices}
    for arc in arcs:
        out[arc[0]].append(arc)
    color = {v: 0 for v in vertices}
    for root in vertices:
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, 0)]
        path_arcs = []
        while stack:
            v, pos = stack[-1]
            if pos < len(out[v]):
                stack[-1] = (v, pos + 1)
                arc = out[v][pos]
                w = arc[1]
                if color[w] == 1:
                    idx = len(path_arcs)
                    for n, a in enumerate(path_arcs):
                        if a[0] == w:
                            idx = n
                            break
                    return path_arcs[idx:] + [arc]
                if color[w] == 0:
                    color[w] = 1
                    path_arcs.append(arc)
                    stack.append((w, 0))
            else:
                stack.pop()
                color[v] = 2
                if path_arcs:
                    path_arcs.pop()
    return None


def ref_find_positive_cycle(graph):
    for comp, internal in ref_cyclic_components(graph):
        mean = ref_karp_max_mean(comp, internal)
        if mean <= 0:
            continue
        a, b = mean.numerator, mean.denominator
        shifted = [(u, v, w * b - a) for u, v, w in internal]
        pot, _ = ref_relax(comp, shifted, comp[0], max(len(comp) - 1, 1))
        tight = [
            arc for arc, (u, v, w) in zip(internal, shifted) if pot[v] == pot[u] + w
        ]
        cycle = ref_any_cycle(comp, tight)
        if cycle:
            return tuple(cycle)
    return None


def ref_longest_walk_potentials(graph, source):
    succ = {v: [] for v in graph.vertices}
    for u, v, _ in graph.arcs:
        succ[u].append(v)
    seen = {source}
    frontier = [source]
    while frontier:
        for y in succ[frontier.pop()]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    missing = [v for v in graph.vertices if v not in seen]
    if missing:
        raise InputError(f"vertex {missing[0]!r} is not reachable from {source!r}")
    dist, changed = ref_relax(graph.vertices, graph.arcs, source, len(graph.vertices))
    if changed:
        return LongestWalks(None, ref_find_positive_cycle(graph))
    return LongestWalks(dist, None)


def assert_matches_reference(g, sources):
    cyclic = ref_cyclic_components(g)
    for got, expected in (
        (min_cycle_mean(g), min((ref_karp_min_mean(*c) for c in cyclic), default=None)),
        (max_cycle_mean(g), max((ref_karp_max_mean(*c) for c in cyclic), default=None)),
    ):
        assert got == expected
        assert type(got) is (Fraction if cyclic else type(None))
    assert find_positive_cycle(g) == ref_find_positive_cycle(g)
    whole = all(w.denominator == 1 for _, _, w in g.arcs)
    for source in sources:
        try:
            expected = ref_longest_walk_potentials(g, source)
        except InputError as err:
            with pytest.raises(InputError, match=re.escape(str(err))):
                longest_walk_potentials(g, source)
            continue
        got = longest_walk_potentials(g, source)
        assert got == expected
        if got.bounded:
            # potentials are ints exactly when every weight is integral
            kinds = {type(x) for x in got.potentials.values()}
            assert kinds == {int if whole else Fraction}


def test_kernels_match_the_name_keyed_fraction_reference():
    rng = random.Random(16)
    for n in range(300):
        g = random_weighted(rng, max_vertices=7, arc_factor=(0.8, 1.5, 2.5)[n % 3])
        assert_matches_reference(g, g.vertices)
        g = random_weighted(rng, max_vertices=7, weights=(-3, -1, 0, 1, 2))
        assert_matches_reference(g, g.vertices)
    # a Fraction weight with denominator 1 gives int potentials
    assert_matches_reference(WeightedDigraph("ab", [("a", "b", Fraction(4))]), "ab")
    assert_matches_reference(WeightedDigraph("a", [("a", "a", Fraction(4))]), "a")


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
                g = WeightedDigraph(graph.vertices, arcs)
                assert_matches_reference(g, graph.vertices[:1])
                positive += find_positive_cycle(g) is not None
            for component in weak_components(graph):
                members = set(component)
                arcs = []
                for a, b in graph.edges:
                    if a in members:
                        arcs += [(a, b, 1), (b, a, -ceiling)]
                part = WeightedDigraph(component, arcs)
                assert_matches_reference(part, component[:1])
    assert positive >= 1000
