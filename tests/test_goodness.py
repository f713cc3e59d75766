import heapq

import pytest

from badcycle.corpus import default_rng, goodness_corpus, random_cycling_machine, random_hypergraph, random_machine
from badcycle.errors import BudgetError, InputError, NotGoodError
from badcycle.generators import gen_shift_digraph
from badcycle.goodness import (
    BadCycleWitness,
    build_auxiliary,
    induced_order_system_coloring,
    is_good,
    validate_witness,
)
from badcycle.hypergraph import DirectedHypergraph, HyperCycle, chromatic_number_exact, is_proper_coloring, path_digraph
from badcycle.machine import Machine
from badcycle.oracles import brute_force_is_good, cross_check_goodness
from badcycle.orders import OrderSystem, count_order_systems, find_compatible_order, find_order_system
from badcycle.relations import gen_alternating_machine


def hasse_machine():
    return Machine(
        2,
        ["s", "t", "u", "v"],
        {
            ("s", 1, 2): {"t"},
            ("t", 1, 2): {"t"},
            ("t", 2, 1): {"u"},
            ("u", 1, 2): {"v"},
        },
        bad=[("s", "t"), ("s", "v")],
    )


def parity_machine():
    return Machine(
        2,
        ["0", "1"],
        {("0", 1, 2): {"1"}, ("0", 2, 1): {"1"}, ("1", 1, 2): {"0"}},
        bad=[("0", "1")],
    )


def triangle(edges):
    return DirectedHypergraph(2, ["1", "2", "3"], edges)


def product_arcs(graph, machine):
    # definitional product relation, written independently of build_auxiliary
    arcs = set()
    for edge in graph.edges:
        for s in machine.states:
            for i in range(1, machine.k + 1):
                for j in range(1, machine.k + 1):
                    for t in machine.targets(s, i, j):
                        arcs.add(((edge[i - 1], s), (edge[j - 1], t)))
    return arcs


def closure_oracle_is_good(graph, machine):
    # reachability in >= 1 step by iterated relational composition
    arcs = product_arcs(graph, machine)
    reach = set(arcs)
    while True:
        more = {(a, c) for a, b in reach for b2, c in arcs if b == b2}
        if more <= reach:
            break
        reach |= more
    if machine.is_cycling:
        return not any(a == b for a, b in reach)
    for v in graph.vertices:
        for s, t in machine.bad:
            if ((v, s), (v, t)) in reach:
                return False
    return True


def test_auxiliary_single_edge_hasse():
    aux = build_auxiliary(path_digraph(1), hasse_machine())
    assert aux.graph.vertices == (
        ("1", "s"),
        ("1", "t"),
        ("1", "u"),
        ("1", "v"),
        ("2", "s"),
        ("2", "t"),
        ("2", "u"),
        ("2", "v"),
    )
    arcs = {(u, v) for u, v, _ in aux.graph.arcs}
    assert arcs == {
        (("1", "s"), ("2", "t")),
        (("1", "t"), ("2", "t")),
        (("2", "t"), ("1", "u")),
        (("1", "u"), ("2", "v")),
    }
    assert aux.provenance[(("1", "s"), ("2", "t"))] == ((0, 1, 2),)
    assert aux.provenance[(("2", "t"), ("1", "u"))] == ((0, 2, 1),)


def test_auxiliary_edgeless_graph_has_no_arcs():
    graph = DirectedHypergraph(2, ["a", "b"], [])
    aux = build_auxiliary(graph, hasse_machine())
    assert aux.graph.arcs == ()
    assert aux.provenance == {}


def test_auxiliary_single_3uniform_edge_one_transition():
    graph = DirectedHypergraph(3, ["x", "y", "z"], [("x", "y", "z")])
    machine = Machine(3, ["a", "b"], [("a", 1, 3, ["b"])], bad=[("a", "b")])
    aux = build_auxiliary(graph, machine)
    assert [(u, v) for u, v, _ in aux.graph.arcs] == [(("x", "a"), ("z", "b"))]
    assert aux.provenance[(("x", "a"), ("z", "b"))] == ((0, 1, 3),)


def test_auxiliary_merges_provenance_for_repeated_arcs():
    graph = DirectedHypergraph(2, ["a", "b"], [("a", "b"), ("b", "a")])
    machine = Machine(2, ["s"], [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])], bad=[])
    aux = build_auxiliary(graph, machine)
    assert len(aux.graph.arcs) == 2
    assert aux.provenance[(("a", "s"), ("b", "s"))] == ((0, 1, 2), (1, 2, 1))
    assert aux.provenance[(("b", "s"), ("a", "s"))] == ((0, 2, 1), (1, 1, 2))


def test_auxiliary_uniformity_mismatch():
    with pytest.raises(InputError):
        build_auxiliary(path_digraph(2), Machine(3, ["s"], [], bad=[]))


def test_directed_3cycle_is_bad_for_hasse():
    graph = triangle([("1", "2"), ("2", "3"), ("3", "1")])
    verdict = is_good(graph, hasse_machine())
    assert not verdict.good
    w = verdict.witness
    assert w.cycle.base == "1"
    assert w.cycle.steps == ((0, "2"), (1, "3"), (2, "1"))
    assert w.states == ("s", "t", "t", "t")
    assert w.bad_pair == ("s", "t")
    assert validate_witness(graph, hasse_machine(), w).ok


def test_transitive_triangle_is_bad_for_hasse():
    graph = triangle([("1", "2"), ("2", "3"), ("1", "3")])
    verdict = is_good(graph, hasse_machine())
    assert not verdict.good
    w = verdict.witness
    assert w.cycle.base == "2"
    assert w.cycle.steps == ((1, "3"), (2, "1"), (0, "2"))
    assert w.states == ("s", "t", "u", "v")
    assert w.bad_pair == ("s", "v")
    assert validate_witness(graph, hasse_machine(), w).ok


def test_paths_are_good_for_hasse():
    for n in range(1, 9):
        assert is_good(path_digraph(n), hasse_machine()).good


def test_brute_force_agrees_on_the_frozen_examples():
    machine = hasse_machine()
    for edges, bad in [
        ([("1", "2"), ("2", "3"), ("3", "1")], True),
        ([("1", "2"), ("2", "3"), ("1", "3")], True),
    ]:
        graph = triangle(edges)
        verdict = brute_force_is_good(graph, machine, 2 * 3 * 4)
        assert verdict.good != bad
        assert validate_witness(graph, machine, verdict.witness).ok
    graph = path_digraph(1)
    assert brute_force_is_good(graph, machine, 2 * 2 * 4).good


def test_brute_force_budget_is_distinct_from_good():
    graph = path_digraph(2)
    with pytest.raises(BudgetError):
        brute_force_is_good(graph, hasse_machine(), 2)


def test_brute_force_trivial_cases():
    edgeless = DirectedHypergraph(2, ["a", "b"], [])
    assert brute_force_is_good(edgeless, hasse_machine(), 8).good
    no_bad = Machine(2, ["s"], [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])], bad=[])
    dense = triangle([("1", "2"), ("2", "3"), ("3", "1")])
    assert brute_force_is_good(dense, no_bad, 3).good
    assert is_good(dense, no_bad).good


def test_double_self_loop_machine_p1_bad():
    machine = Machine(
        2,
        ["s"],
        [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])],
        bad=[("s", "s")],
    )
    verdict = is_good(path_digraph(1), machine)
    assert not verdict.good
    w = verdict.witness
    assert w.cycle.steps == ((0, "2"), (0, "1"))
    assert w.states == ("s", "s", "s")
    assert validate_witness(path_digraph(1), machine, w).ok
    brute = brute_force_is_good(path_digraph(1), machine, 2)
    assert not brute.good
    assert validate_witness(path_digraph(1), machine, brute.witness).ok


def test_cycling_needs_length_at_least_one():
    # stateless cycling machine: length-0 cycles never count
    machine = Machine(2, ["s"], [], bad=[("s", "s")])
    graph = triangle([("1", "2"), ("2", "3"), ("3", "1")])
    assert is_good(graph, machine).good
    assert brute_force_is_good(graph, machine, 3 * 1).good


def test_is_good_rejects_invalid_machine():
    mixed = Machine(2, ["a", "b"], [], bad=[("a", "a")])
    with pytest.raises(InputError):
        is_good(path_digraph(1), mixed)


def test_names_that_do_not_compare():
    # states and vertices of mixed types: validation sorts their names by
    # str, and the decision reads numbers
    machine = Machine(2, [1, "a"], [(1, 1, 2, ["a"]), ("a", 2, 1, ["a"])], bad=[(1, "a")])
    graph = DirectedHypergraph(2, [1, "a"], [(1, "a")])
    verdict = is_good(graph, machine)
    assert not verdict.good
    assert verdict.witness.cycle.vertex_seq == (1, "a", 1)
    assert verdict.witness.states == (1, "a", "a")
    assert validate_witness(graph, machine, verdict.witness).ok


def test_witness_validation_flags_corruption():
    graph = triangle([("1", "2"), ("2", "3"), ("1", "3")])
    machine = hasse_machine()
    w = is_good(graph, machine).witness
    broken = BadCycleWitness(w.cycle, ("s", "t", "u", "u"), ("s", "u"))
    report = validate_witness(graph, machine, broken)
    assert not report.ok
    assert any("successor" in v for v in report.violations)
    assert any("not a bad pair" in v for v in report.violations)
    mislabeled = BadCycleWitness(w.cycle, w.states, ("s", "t"))
    report = validate_witness(graph, machine, mislabeled)
    assert not report.ok
    other = path_digraph(3)
    report = validate_witness(other, machine, w)
    assert not report.ok


def test_witness_validation_checks_state_count():
    graph = path_digraph(1)
    machine = hasse_machine()
    cycle = HyperCycle(graph, "1", [(0, "2"), (0, "1")])
    report = validate_witness(graph, machine, BadCycleWitness(cycle, ("s", "t"), ("s", "t")))
    assert not report.ok


def test_is_good_matches_oracles_on_corpus():
    agreements = 0
    bad_seen = 0
    brute_conclusive = 0
    for graph, machine in goodness_corpus(4207, 140):
        check = cross_check_goodness(graph, machine)
        assert check.verdict.good == closure_oracle_is_good(graph, machine)
        assert not check.problems, check.problems
        agreements += 1
        bad_seen += not check.verdict.good
        brute_conclusive += check.conclusive
    assert agreements == 140
    assert bad_seen >= 25
    assert brute_conclusive >= 60


def test_induced_coloring_edgeless_is_discrete():
    graph = DirectedHypergraph(2, ["a", "b", "c"], [])
    coloring = induced_order_system_coloring(graph, hasse_machine())
    expected = OrderSystem(
        [frozenset(["s"]), frozenset(["t"]), frozenset(["u"]), frozenset(["v"])], ()
    )
    assert set(coloring) == {"a", "b", "c"}
    for system in coloring.values():
        assert system == expected


def test_induced_coloring_builds_the_product_once(monkeypatch):
    import badcycle.goodness as goodness

    calls = []
    build = goodness._product

    def counting(graph, machine):
        calls.append(1)
        return build(graph, machine)

    monkeypatch.setattr(goodness, "_product", counting)
    induced_order_system_coloring(path_digraph(3), hasse_machine())
    assert len(calls) == 1


def test_induced_coloring_p2_hasse_pigeonhole():
    graph = path_digraph(2)
    machine = hasse_machine()
    coloring = induced_order_system_coloring(graph, machine)
    palette = {}
    colors = {}
    for v in graph.vertices:
        palette.setdefault(coloring[v], len(palette) + 1)
        colors[v] = palette[coloring[v]]
    assert is_proper_coloring(graph, colors)
    assert chromatic_number_exact(graph).number <= len(palette)


def test_induced_coloring_respects_bad_pairs():
    graph = DirectedHypergraph(2, ["1-2", "1-3", "2-3"], [("1-2", "2-3")])
    machine = parity_machine()
    coloring = induced_order_system_coloring(graph, machine)
    for system in coloring.values():
        assert not system.below_or_equal("0", "1")


def test_induced_coloring_on_good_general_corpus():
    # bad pairs are never ordered upward at any vertex
    rng = default_rng(515)
    goods = 0
    for _ in range(120):
        graph = random_hypergraph(rng, k=2, max_vertices=5, max_edges=5)
        machine = random_machine(rng, k=2, max_states=3)
        if not is_good(graph, machine).good:
            continue
        goods += 1
        coloring = induced_order_system_coloring(graph, machine)
        for system in coloring.values():
            for s, t in machine.bad_rows():
                assert not system.below_or_equal(s, t)
    assert goods >= 40


def test_induced_coloring_proper_when_no_order_system_exists():
    # when the machine has no compatible order system at all, a
    # monochromatic edge in a good graph would let one be read off the
    # per-vertex systems, so the coloring must come out proper; machines
    # like that are rare, so filter for them before sampling graphs
    rng = default_rng(516)
    proper_checked = 0
    for _ in range(2000):
        if proper_checked >= 6:
            break
        machine = random_machine(rng, k=2, max_states=3)
        if not machine.bad or find_order_system(machine) is not None:
            continue
        for _ in range(30):
            graph = random_hypergraph(rng, k=2, max_vertices=5, max_edges=5)
            if not graph.edges or not is_good(graph, machine).good:
                continue
            coloring = induced_order_system_coloring(graph, machine)
            palette = {}
            colors = {}
            for v in graph.vertices:
                palette.setdefault(coloring[v], len(palette) + 1)
                colors[v] = palette[coloring[v]]
            assert is_proper_coloring(graph, colors)
            proper_checked += 1
    assert proper_checked >= 6


def test_induced_coloring_requires_goodness():
    graph = triangle([("1", "2"), ("2", "3"), ("3", "1")])
    machine = hasse_machine()
    with pytest.raises(NotGoodError) as info:
        induced_order_system_coloring(graph, machine)
    assert validate_witness(graph, machine, info.value.witness).ok


def test_no_order_implies_factorial_chromatic_bound():
    rng = default_rng(88)
    checked = 0
    for _ in range(60):
        machine = random_cycling_machine(rng, k=2, max_states=2)
        if find_compatible_order(machine) is not None:
            continue
        bound = 1
        for n in range(1, len(machine.states) + 1):
            bound *= n
        for _ in range(6):
            graph = random_hypergraph(rng, k=2, max_vertices=5, max_edges=6)
            if is_good(graph, machine).good:
                assert chromatic_number_exact(graph).number <= bound
                checked += 1
    assert checked >= 10


def test_no_order_system_implies_count_chromatic_bound():
    rng = default_rng(89)
    checked = 0
    bound = count_order_systems(2)
    for _ in range(90):
        machine = random_machine(rng, k=2, max_states=2)
        if len(machine.states) != 2:
            continue
        if find_order_system(machine) is not None:
            continue
        for _ in range(4):
            graph = random_hypergraph(rng, k=2, max_vertices=5, max_edges=6)
            if is_good(graph, machine).good:
                assert chromatic_number_exact(graph).number <= bound
                checked += 1
    assert checked >= 4


def reference_decide(graph, machine):
    # the tuple-keyed product with per-arc provenance, tuple-keyed Tarjan
    # and full BFS that goodness ran on before it moved to node numbers;
    # returns (good, witness or None, induced coloring or None)
    nodes = [(v, s) for v in graph.vertices for s in machine.states]
    position = {node: n for n, node in enumerate(nodes)}
    tags = {}
    arcs = []
    for edge_index, edge in enumerate(graph.edges):
        for s, i, j, t in machine.transition_atoms():
            arc = ((edge[i - 1], s), (edge[j - 1], t))
            if arc not in tags:
                tags[arc] = []
                arcs.append(arc)
            tags[arc].append((edge_index, i, j))
    succ = {node: [] for node in nodes}
    for u, w in arcs:
        succ[u].append(w)

    index, low, on_stack, stack, raw = {}, {}, set(), [], []
    for root in nodes:
        if root in index:
            continue
        call = [(root, 0)]
        while call:
            v, pos = call.pop()
            if pos == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            descended = False
            for n in range(pos, len(succ[v])):
                w = succ[v][n]
                if w not in index:
                    call.append((v, n + 1))
                    call.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                raw.append(comp)
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[v])
    raw.reverse()
    components = [sorted(comp, key=position.get) for comp in raw]
    component_of = {v: n for n, comp in enumerate(components) for v in comp}
    internal = [[] for _ in components]
    condensation = set()
    for u, w in arcs:
        a, b = component_of[u], component_of[w]
        if a == b:
            internal[a].append((u, w))
        else:
            condensation.add((a, b))
    condensation = sorted(condensation)
    reach = [{c} for c in range(len(components))]
    for a, b in reversed(condensation):
        reach[a] |= reach[b]

    def bfs(source):
        dist, parent, queue = {source: 0}, {}, [source]
        for u in queue:
            for w in succ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        return dist, parent

    def walk_to(parent, source, target):
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        return path[::-1]

    walk = None
    if machine.is_cycling:
        for node in nodes:
            inside = internal[component_of[node]]
            if inside:
                dist, parent = bfs(node)
                best = None
                for u, w in inside:
                    if w == node and (best is None or dist[u] < dist[best]):
                        best = u
                walk = walk_to(parent, node, best) + [node]
                break
    else:
        for v in graph.vertices:
            for s, t in machine.bad_rows():
                if walk is None and component_of[(v, t)] in reach[component_of[(v, s)]]:
                    walk = walk_to(bfs((v, s))[1], (v, s), (v, t))
    if walk is not None:
        edges = tuple(min(tags[pair])[0] for pair in zip(walk, walk[1:]))
        states = tuple(s for _, s in walk)
        return False, (tuple(v for v, _ in walk), edges, states), None

    ready = [(position[comp[0]], c) for c, comp in enumerate(components)
             if all(b != c for _, b in condensation)]
    heapq.heapify(ready)
    indeg = [sum(1 for _, b in condensation if b == c) for c in range(len(components))]
    rank = {}
    while ready:
        _, c = heapq.heappop(ready)
        rank[c] = len(rank)
        for a, b in condensation:
            if a == c:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, (position[components[b][0]], b))
    coloring = {}
    for v in graph.vertices:
        groups = {}
        for s in machine.states:
            groups.setdefault(component_of[(v, s)], []).append(s)
        comps = sorted(groups, key=rank.get)
        coloring[v] = OrderSystem(
            [frozenset(groups[c]) for c in comps],
            {
                (a, b)
                for a in range(len(comps))
                for b in range(len(comps))
                if a != b and comps[b] in reach[comps[a]]
            },
        )
    return True, None, coloring


def reference_goodness_corpus():
    rng = default_rng(4301)
    for trial in range(400):
        k = 2 if trial % 4 else 3
        graph = random_hypergraph(rng, k=k, max_vertices=6, max_edges=7)
        if trial % 2:
            machine = random_cycling_machine(rng, k=k, max_states=3)
        else:
            machine = random_machine(rng, k=k, max_states=3)
        yield graph, machine
    alternating = gen_alternating_machine().machine
    rng = default_rng(4302)
    for m in range(4, 9):
        graph = gen_shift_digraph(m)
        yield graph, alternating
        yield graph, random_cycling_machine(rng, k=2, max_states=4, density=0.2)
        yield graph, random_machine(rng, k=2, max_states=4)


def test_is_good_matches_the_tuple_product_reference():
    # same verdict, witness and induced coloring as the tuple-keyed product
    good = bad = 0
    for graph, machine in reference_goodness_corpus():
        verdict_good, witness, coloring = reference_decide(graph, machine)
        verdict = is_good(graph, machine)
        assert verdict.good == verdict_good
        if verdict.good:
            assert induced_order_system_coloring(graph, machine) == coloring
            good += 1
        else:
            cycle = verdict.witness.cycle
            assert (cycle.vertex_seq, cycle.edge_indices, verdict.witness.states) == witness
            bad += 1
    assert good >= 100
    assert bad >= 100
