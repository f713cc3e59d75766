import hashlib
import heapq
import json
from itertools import chain

import pytest

from badcycle import digraph, goodness, oracles
from badcycle.checks import BadCycleWitness, OrderSystem, is_proper_coloring, validate_witness
from badcycle.corpus import (
    default_rng,
    goodness_corpus,
    random_cycling_machine,
    random_digraph,
    random_hypergraph,
    random_machine,
)
from badcycle.errors import BudgetError, InputError, NotGoodError
from badcycle.fileio import witness_to_obj
from badcycle.generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_cycling_construction,
    gen_shift_digraph,
)
from badcycle.goodness import (
    check_paths_good,
    GoodnessVerdict,
    build_auxiliary,
    induced_order_system_coloring,
    is_good,
)
from badcycle.hypergraph import DirectedHypergraph, HyperCycle, chromatic_number_exact, path_digraph
from badcycle.machine import Machine
from badcycle.oracles import brute_force_is_good, cross_check_goodness, sweep_cap
from badcycle.orders import count_order_systems, find_compatible_order, find_order_system
from badcycle.relations import gen_alternating_machine
from named_table import bad_rows, transition_atoms


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
    assert set(aux.graph.arcs) == {
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
    assert aux.graph.arcs == ((("x", "a"), ("z", "b")),)
    assert aux.provenance[(("x", "a"), ("z", "b"))] == ((0, 1, 3),)


def test_auxiliary_merges_provenance_for_repeated_arcs():
    graph = DirectedHypergraph(2, ["a", "b"], [("a", "b"), ("b", "a")])
    machine = Machine(2, ["s"], [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])], bad=[])
    aux = build_auxiliary(graph, machine)
    assert len(aux.graph.arcs) == 2
    assert aux.provenance[(("a", "s"), ("b", "s"))] == ((0, 1, 2), (1, 2, 1))
    assert aux.provenance[(("b", "s"), ("a", "s"))] == ((0, 2, 1), (1, 1, 2))


def test_product_lists_each_nodes_arcs_in_product_arc_order():
    # the grouped build lists every node's arcs, repeats included, in the
    # order _product_arcs yields them: edge by edge, then atom by atom;
    # taking the position-pair groups in first-appearance order instead of
    # sorted order reorders some lists here
    rng = default_rng(99)
    for trial in range(400):
        k = 2 + trial % 2
        graph = random_hypergraph(rng, k=k, max_vertices=6, max_edges=8)
        draw = random_cycling_machine if trial % 4 < 2 else random_machine
        machine = draw(rng, k=k, max_states=4)
        expected = [[] for _ in range(len(graph.vertices) * len(machine.states))]
        for arcs in goodness._product_arcs(graph, machine):
            for u, w in arcs:
                expected[u].append(w)
        width = len(machine.states)
        assert goodness._product(graph, width, machine.atom_groups) == expected


def antiparallel_cases():
    # antiparallel edges (a, b), (b, a) and atoms (s,1,2,t), (s,2,1,t) put
    # each arc (a,s) -> (b,t) and (b,s) -> (a,t) twice in the product
    graph = DirectedHypergraph(2, ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    both = [("s", 1, 2, ["t"]), ("s", 2, 1, ["t"])]
    loops = [("s", "s"), ("t", "t"), ("u", "u")]
    machines = [
        Machine(2, ["s", "t", "u"], both, loops),
        Machine(2, ["s", "t", "u"], both + [("t", 1, 2, ["s"])], loops),
        Machine(2, ["s", "t", "u"], both + [("t", 1, 2, ["u"])], [("u", "s")]),
        Machine(2, ["s", "t", "u"], both + [("t", 1, 2, ["u"])], [("s", "u")]),
    ]
    return graph, machines


def test_repeated_product_arcs_change_no_answer(monkeypatch):
    # the components, BFS parents, whole-product verdict, the search's
    # components and reach bitsets from every node, the verdict, witness and
    # induced coloring are those of the deduplicated successor lists
    graph, machines = antiparallel_cases()
    build = goodness._product

    def deduplicated(graph, width, groups):
        return [list(dict.fromkeys(ws)) for ws in build(graph, width, groups)]

    verdicts = []
    for machine in machines:
        whole = (graph, len(machine.states), machine.atom_groups)
        succ, unique = build(*whole), deduplicated(*whole)
        assert succ != unique
        assert digraph.tarjan(succ) == digraph.tarjan(unique)
        for node in range(len(succ)):
            parent, _ = digraph.bfs(succ, node, lambda u: False)
            unique_parent, _ = digraph.bfs(unique, node, lambda u: False)
            assert list(parent.items()) == list(unique_parent.items())
        answers = []
        for product in (build, deduplicated):
            monkeypatch.setattr(goodness, "_product", product)
            verdict = is_good(graph, machine)
            if verdict.good:
                answer = induced_order_system_coloring(graph, machine)
            else:
                cycle = verdict.witness.cycle
                answer = (cycle.vertex_seq, cycle.edge_indices, verdict.witness.states,
                          verdict.witness.bad_pair)
            states = range(len(machine.states))
            _, decided, search = goodness._decide(
                graph, machine, states, machine.atom_groups, machine.numbered_bad, True
            )
            # resumed to its end, the search has run from every node
            *_, (components, owner, reach) = search
            answers.append((verdict.good, answer, comparable(decided), components, owner, reach))
        assert answers[0] == answers[1]
        verdicts.append(answers[0][0])
    assert verdicts == [True, False, True, False]


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

    def counting(graph, width, atoms):
        calls.append(1)
        return build(graph, width, atoms)

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
            for s, t in bad_rows(machine):
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
        for s, i, j, t in transition_atoms(machine):
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
            for s, t in bad_rows(machine):
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
    # 3-uniform pairs with cycling machines too, and up to four states
    rng = default_rng(4303)
    for trial in range(100):
        graph = random_hypergraph(rng, k=3, max_vertices=6, max_edges=7)
        draw = random_cycling_machine if trial % 2 else random_machine
        yield graph, draw(rng, k=3, max_states=4)


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


def live_product_corpus():
    # random draws, the alternating machine on shift digraphs and on
    # 10-vertex digraphs, and the counter machines on their constructions
    # and on shift digraphs
    rng = default_rng(4401)
    for trial in range(1200):
        k = 2 + trial % 2
        graph = random_hypergraph(rng, k=k, max_vertices=6, max_edges=8)
        draw = random_cycling_machine if trial % 4 < 2 else random_machine
        yield graph, draw(rng, k=k, max_states=4)
    alternating = gen_alternating_machine().machine
    for m in range(3, 12):
        yield gen_shift_digraph(m), alternating
    rng = default_rng(4402)
    drawn = 0
    while drawn < 60:
        graph = random_digraph(rng, max_vertices=10)
        if len(graph.vertices) == 10:
            drawn += 1
            yield graph, alternating
    for n, m in ((1, 8), (1, 10), (2, 8), (2, 9), (3, 9)):
        machine = gen_counter_machine(n)
        yield gen_cycling_construction(machine, counter_machine_order(n), m), machine
    for n in (1, 2, 3):
        for m in range(3, 8):
            yield gen_shift_digraph(m), gen_counter_machine(n)


def comparable(verdict):
    witness = verdict.witness
    if witness is None:
        return verdict.good, None
    cycle = witness.cycle
    return verdict.good, (cycle.vertex_seq, cycle.edge_indices, witness.states, witness.bad_pair)


def test_search_closes_nothing_past_the_first_answer(monkeypatch):
    # a small bad digraph on the first vertices, then shift(12) disjoint from
    # it: the verdict and witness are the small digraph's alone, and the
    # search, under either semantics, closes no node of the shift part
    small = DirectedHypergraph(2, ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    shift = gen_shift_digraph(12)
    union = DirectedHypergraph(2, small.vertices + shift.vertices, small.edges + shift.edges)
    either_way = Machine(2, ["s"], {("s", 1, 2): {"s"}, ("s", 2, 1): {"s"}}, bad=[("s", "s")])
    rooted = goodness.tarjan_from
    closed = []

    def recording(succ, roots):
        for components, owner in rooted(succ, roots):
            closed[:] = [(len(succ), v) for comp in components for v in comp]
            yield components, owner

    monkeypatch.setattr(goodness, "tarjan_from", recording)
    for machine in (gen_alternating_machine().machine, either_way):
        alone = is_good(small, machine)
        assert not alone.good
        whole = is_good(union, machine)
        assert comparable(whole) == comparable(alone)
        assert closed
        for size, node in closed:
            assert node < len(small.vertices) * size // len(union.vertices)


def test_live_product_answers_as_the_whole_product():
    # is_good decides on the live atoms only; the whole product, which the
    # induced coloring builds, must give the same verdict and witness
    counts = {True: 0, False: 0}
    pruned = 0
    for graph, machine in live_product_corpus():
        live = is_good(graph, machine)
        states = range(len(machine.states))
        whole = goodness._decide(
            graph, machine, states, machine.atom_groups, machine.numbered_bad
        )[1]
        assert comparable(live) == comparable(whole)
        if live.good:
            coloring = induced_order_system_coloring(graph, machine)
            assert set(coloring) == set(graph.vertices)
        else:
            with pytest.raises(NotGoodError) as caught:
                induced_order_system_coloring(graph, machine)
            assert comparable(GoodnessVerdict(False, caught.value.witness)) == comparable(live)
        counts[live.good] += 1
        pruned += machine.live_atoms != machine.numbered_atoms
    assert counts[True] >= 300
    assert counts[False] >= 300
    assert pruned >= 450


def test_dead_bad_pairs_are_good_without_a_product_state():
    # b is not reachable from a, so no atom is live and neither a nor b is a
    # product state, though the whole product has the arc a -> c
    general = Machine(2, ["a", "b", "c"], [("a", 1, 2, ["c"]), ("b", 1, 2, ["a"])], bad=[("a", "b")])
    cycling = Machine(2, ["a", "b"], [("a", 1, 2, ["b"]), ("a", 2, 1, ["b"])],
                      bad=[("a", "a"), ("b", "b")])
    for machine in (general, cycling):
        assert machine.live_atoms == () and machine.live_states == ()
        for graph in (path_digraph(3), triangle([("1", "2"), ("2", "3"), ("3", "1")])):
            assert is_good(graph, machine).good
            assert induced_order_system_coloring(graph, machine)
    assert check_paths_good(cycling, 6) is None


def reference_anchored_cycles(graph, base, length):
    # every anchored cycle of this length at base, as its steps and their
    # position pairs, in (edge index, coordinate) step order
    steps, traces = [], []

    def walk(at, remaining):
        if remaining == 0:
            if at == base:
                yield steps, traces
            return
        for edge_index in graph.incident_edges(at):
            edge = graph.edges[edge_index]
            for j, nxt in enumerate(edge, 1):
                steps.append((edge_index, nxt))
                traces.append((edge.index(at) + 1, j))
                yield from walk(nxt, remaining - 1)
                steps.pop()
                traces.pop()

    yield from walk(base, length)


def reference_accepting_run(machine, traces):
    # each start state's reachable layers replayed from scratch (an empty
    # layer stays empty, so it ends the replay), then the first accepting
    # state walked back through each layer's first state
    states, targets = machine.states, machine.targets
    for s0 in states:
        layers = [{s0}]
        for i, j in traces:
            layers.append({t for s in layers[-1] for t in targets(s, i, j)})
            if not layers[-1]:
                break
        final = [t for t in states if t in layers[-1] and (s0, t) in machine.bad]
        if not final:
            continue
        seq = final[:1]
        for m in reversed(range(len(traces))):
            i, j = traces[m]
            seq.append(next(s for s in states if s in layers[m] and seq[-1] in targets(s, i, j)))
        return tuple(reversed(seq))
    return None


def reference_brute_force_is_good(graph, machine, max_len):
    # the sweep before runs were carried: every anchored cycle enumerated
    # and every start state's run replayed on it, by length, base, then
    # step order; same threshold and message as brute_force_is_good
    for length in range(max_len + 1):
        if machine.is_cycling and length == 0:
            continue
        for base in graph.vertices:
            for steps, traces in reference_anchored_cycles(graph, base, length):
                run = reference_accepting_run(machine, traces)
                if run is not None:
                    witness = BadCycleWitness(HyperCycle(graph, base, steps), run, (run[0], run[-1]))
                    return GoodnessVerdict(False, witness)
    need = len(graph.vertices) * len(machine.states)
    if max_len >= need:
        return GoodnessVerdict(True)
    raise BudgetError(f"cycle length budget {max_len} cannot certify goodness (needs {need})")


def sweep_outcome(oracle, graph, machine, max_len):
    # verdict with the witness's fields, or the BudgetError message
    try:
        verdict = oracle(graph, machine, max_len)
    except BudgetError as exc:
        return str(exc)
    if verdict.good:
        return True
    w = verdict.witness
    return w.cycle.vertex_seq, w.cycle.edge_indices, w.states, w.bad_pair


def criterion_08_pairs():
    # the instances of test_acceptance's criterion 08
    rng = default_rng(90801)
    for trial in range(300):
        k = 2 if trial % 2 else 3
        graph = random_hypergraph(rng, k=k, max_vertices=5, max_edges=5)
        if trial % 3 == 0:
            machine = random_cycling_machine(rng, k=k, max_states=3)
        else:
            machine = random_machine(rng, k=k, max_states=3)
        yield graph, machine


def test_brute_force_matches_the_replaying_reference():
    # every max_len up to the cap; the reference sweeps the lengths in
    # order, so its answer at the cap fixes every shorter one: a bad cycle
    # of length m answers each max_len >= m, and each max_len below m
    # sweeps clean
    sweeps = bad = 0
    for graph, machine in chain(goodness_corpus(4207, 140), criterion_08_pairs()):
        need = len(graph.vertices) * len(machine.states)
        cap = sweep_cap(graph, need)
        top = sweep_outcome(reference_brute_force_is_good, graph, machine, cap)
        found = len(top[0]) - 1 if isinstance(top, tuple) else cap + 1
        for max_len in range(cap + 1):
            if max_len >= found:
                expected = top
            elif max_len >= need:
                expected = True
            else:
                expected = f"cycle length budget {max_len} cannot certify goodness (needs {need})"
            assert sweep_outcome(brute_force_is_good, graph, machine, max_len) == expected
            sweeps += 1
        bad += found <= cap
    assert sweeps == 2593
    assert bad == 199


def test_brute_force_matches_the_reference_on_edge_cases():
    # a general machine sweeps length 0 (no valid one is bad there), a
    # cycling one skips it; edgeless and vertexless graphs and a machine
    # with no bad pair sweep clean
    general = Machine(2, ["s", "t"], [("s", 1, 2, ["t"]), ("t", 2, 1, ["s"])], bad=[("s", "t")])
    cycling = Machine(2, ["s"], [("s", 1, 2, ["s"])], bad=[("s", "s")])
    no_bad = Machine(2, ["s"], [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])], bad=[])
    tri = triangle([("1", "2"), ("2", "3"), ("3", "1")])
    edgeless = DirectedHypergraph(2, ["a", "b"], [])
    empty = DirectedHypergraph(2, [], [])
    for graph in (tri, path_digraph(2), edgeless, empty):
        for machine in (general, cycling, no_bad, hasse_machine()):
            for max_len in range(8):
                expected = sweep_outcome(reference_brute_force_is_good, graph, machine, max_len)
                assert sweep_outcome(brute_force_is_good, graph, machine, max_len) == expected
    budget = "cycle length budget 0 cannot certify goodness (needs {})"
    assert sweep_outcome(brute_force_is_good, tri, general, 0) == budget.format(6)
    assert sweep_outcome(brute_force_is_good, tri, cycling, 0) == budget.format(3)
    assert sweep_outcome(brute_force_is_good, tri, cycling, 3)[2] == ("s", "s", "s", "s")
    assert sweep_outcome(brute_force_is_good, edgeless, general, 4) is True
    assert sweep_outcome(brute_force_is_good, empty, cycling, 0) is True
    assert sweep_outcome(brute_force_is_good, tri, no_bad, 3) is True


def test_brute_force_finds_each_cycle_of_a_single_edge():
    # the loops at either end and the out-and-back walk, each flagged alone
    edge = DirectedHypergraph(2, ["1", "2"], [("1", "2")])
    cases = [
        (Machine(2, ["s", "t"], [("s", 1, 1, ["t"])], bad=[("s", "t")]), ("1", "1"), ((1, 1),)),
        (Machine(2, ["s", "t"], [("s", 2, 2, ["t"])], bad=[("s", "t")]), ("2", "2"), ((2, 2),)),
        (
            Machine(2, ["s", "u", "t"], [("s", 1, 2, ["u"]), ("u", 2, 1, ["t"])], bad=[("s", "t")]),
            ("1", "2", "1"),
            ((1, 2), (2, 1)),
        ),
    ]
    for machine, vertices, traces in cases:
        verdict = brute_force_is_good(edge, machine, 2)
        assert not verdict.good
        assert verdict.witness.cycle.vertex_seq == vertices
        assert verdict.witness.cycle.traces() == traces
        assert verdict.witness.bad_pair == ("s", "t")
        assert validate_witness(edge, machine, verdict.witness).ok


def test_brute_force_builds_only_the_returned_cycle(monkeypatch):
    built = []

    class CountedCycle(HyperCycle):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(oracles, "HyperCycle", CountedCycle)
    bad = 0
    for graph, machine in goodness_corpus(4207, 40):
        built.clear()
        cap = sweep_cap(graph, len(graph.vertices) * len(machine.states))
        verdict = sweep_outcome(brute_force_is_good, graph, machine, cap)
        assert len(built) == isinstance(verdict, tuple)
        bad += len(built)
    assert bad == 20


def test_brute_force_needs_neither_the_product_nor_the_graph_searches(monkeypatch):
    # the oracle checks the decider, so it must answer with the decider's
    # product and searches all refusing to run
    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle ran a decider routine")

    for module, name in [
        (goodness, "_product"),
        (goodness, "tarjan_from"),
        (goodness, "bfs"),
        (digraph, "tarjan"),
        (digraph, "tarjan_from"),
        (digraph, "bfs"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    test_brute_force_agrees_on_the_frozen_examples()
    bad = 0
    for graph, machine in goodness_corpus(4207, 140):
        cap = sweep_cap(graph, len(graph.vertices) * len(machine.states))
        bad += isinstance(sweep_outcome(brute_force_is_good, graph, machine, cap), tuple)
    assert bad >= 25
    with pytest.raises(AssertionError):
        is_good(path_digraph(1), hasse_machine())


def peel_free_cycling_decide(graph, machine):
    # the cycling decision as it ran before the peel: every node of the live
    # product, in order, is a query
    states = machine.live_states
    groups, bad = machine.live_local
    width = len(states)
    succ = goodness._product(graph, width, groups)
    queries = [(v * width + s, v * width + t) for v in range(len(graph.vertices)) for s, t in bad]
    walk, _ = goodness._bad_walk(graph, machine, states, succ, queries, False)
    return GoodnessVerdict(walk is None, walk and goodness._witness(graph, machine, states, walk))


def peel_corpus():
    # seeded cycling pairs, 2- and 3-uniform, the counter machines on shift
    # digraphs, and the counter-machine constructions
    rng = default_rng(4501)
    for trial in range(700):
        k = 2 + trial % 2
        graph = random_hypergraph(rng, k=k, max_vertices=6, max_edges=8)
        yield graph, random_cycling_machine(rng, k=k, max_states=4)
    rng = default_rng(4502)
    for _ in range(100):
        yield random_digraph(rng, max_vertices=10), random_cycling_machine(rng, max_states=4)
    for n in (1, 2, 3):
        for m in range(6, 14):
            yield gen_shift_digraph(m), gen_counter_machine(n)
    for n, m in ((1, 6), (1, 10), (2, 6), (2, 8), (3, 8)):
        machine = gen_counter_machine(n)
        yield gen_cycling_construction(machine, counter_machine_order(n), m), machine


def test_peel_keeps_the_cycling_verdicts_and_witnesses():
    counts = {True: 0, False: 0}
    for graph, machine in peel_corpus():
        verdict = is_good(graph, machine)
        assert comparable(verdict) == comparable(peel_free_cycling_decide(graph, machine))
        counts[verdict.good] += 1
    assert counts[False] >= 300
    assert counts[True] >= 100


def test_good_cycling_products_run_no_search(monkeypatch):
    # an acyclic product is peeled bare, so no query is asked and the rooted
    # search never starts
    def refused(succ, roots):
        raise AssertionError("the rooted search ran on a good cycling product")
        yield

    monkeypatch.setattr(goodness, "tarjan_from", refused)
    for n in (1, 2):
        machine = gen_counter_machine(n)
        for m in range(6, 11):
            graph = gen_cycling_construction(machine, counter_machine_order(n), m)
            assert is_good(graph, machine).good


def test_factored_peel_leaves_what_the_successor_list_peel_leaves():
    # on the live and the whole product: peel_corpus, seeded 3- and
    # 4-uniform draws, and the antiparallel graph, whose repeated arcs count
    # twice in both peels
    rng = default_rng(3501)
    draws = [(random_hypergraph(rng, k=k, max_vertices=7, max_edges=10),
              random_cycling_machine(rng, k=k, max_states=4))
             for k in (3, 4) for _ in range(150)]
    graph, machines = antiparallel_cases()
    outcomes = {"none": 0, "some": 0, "all": 0}
    for graph, machine in chain(peel_corpus(), draws, ((graph, m) for m in machines)):
        products = ((len(machine.live_states), machine.live_local[0]),
                    (len(machine.states), machine.atom_groups))
        for width, groups in products:
            left = goodness._unpeeled(graph, width, groups)
            assert left == digraph.unpeeled(goodness._product(graph, width, groups))
            nodes = len(graph.vertices) * width
            outcomes["none" if not left else "all" if len(left) == nodes else "some"] += 1
    # bare products, ones the peel stops on unpeeled, and ones it peels in part
    assert min(outcomes.values()) >= 100


def test_good_cycling_decisions_build_no_successor_lists(monkeypatch):
    def refused(graph, width, groups):
        raise AssertionError("successor lists were built")

    monkeypatch.setattr(goodness, "_product", refused)
    for n in (1, 2, 3):
        machine = gen_counter_machine(n)
        # an edge spans k * |S| consecutive vertices, 8 for counter 3
        for m in range(max(6, 2 * len(machine.states)), 13):
            graph = gen_cycling_construction(machine, counter_machine_order(n), m)
            assert is_good(graph, machine).good
        assert check_paths_good(machine, 12) is None


def test_bad_cycling_decisions_build_the_product_once(monkeypatch):
    calls = []
    build = goodness._product

    def counting(graph, width, groups):
        calls.append(width)
        return build(graph, width, groups)

    monkeypatch.setattr(goodness, "_product", counting)
    bad = 0
    for graph, machine in peel_corpus():
        calls.clear()
        verdict = is_good(graph, machine)
        assert len(calls) == (not verdict.good)
        bad += not verdict.good
    assert bad >= 300


def test_check_paths_good_refuses_a_bool_a_non_integer_or_a_negative_bound():
    # int() read 2.9 as 2 and True as 1, and a negative bound scanned nothing
    machine = gen_counter_machine(1)
    for n_max in (2.9, 3.0, True, False, "3", None):
        with pytest.raises(InputError, match="^n_max must be an integer$"):
            check_paths_good(machine, n_max)
    with pytest.raises(InputError, match="^n_max must be non-negative, not -1$"):
        check_paths_good(machine, -1)
    assert check_paths_good(machine, 0) is None
    assert check_paths_good(machine, 3) is None


def drawn_digraphs(seed, sizes, count):
    # random_digraph draws its own size; keep the first count of the wanted sizes
    rng = default_rng(seed)
    drawn = 0
    while drawn < count:
        graph = random_digraph(rng, max_vertices=max(sizes))
        if len(graph.vertices) in sizes:
            drawn += 1
            yield graph


GOODNESS_ANSWERS_DIGEST = "c13c651b0360215f6e417b09799af1e76f307adee8733ddfd28d20ae0a4f8419"


def test_goodness_answers_match_their_pinned_digest():
    # pinned before the first source was answered by one BFS: verdicts,
    # witnesses as written to file, and the induced colorings of the good
    # oracle-corpus pairs
    digest = hashlib.sha256()
    alternating = gen_alternating_machine().machine
    pairs = chain(
        goodness_corpus(5101, 500),
        goodness_corpus(5102, 500),
        ((graph, alternating) for graph in drawn_digraphs(5103, range(10, 15), 300)),
        ((gen_shift_digraph(m), alternating) for m in range(2, 21)),
    )
    for n, (graph, machine) in enumerate(pairs):
        verdict = is_good(graph, machine)
        answer = verdict.witness and witness_to_obj(verdict.witness)
        if verdict.good and n < 1000:
            coloring = induced_order_system_coloring(graph, machine)
            answer = [(v, [sorted(block) for block in c.classes], sorted(c.partial))
                      for v, c in coloring.items()]
        digest.update(json.dumps([verdict.good, answer]).encode())
    assert digest.hexdigest() == GOODNESS_ANSWERS_DIGEST


def test_bad_general_decisions_at_the_first_source_run_no_search(monkeypatch):
    # the first source's queries are answered by one BFS, so a verdict whose
    # witness starts there never starts the rooted search, and every other
    # verdict does; the answers are those decided with the search in place
    def refused(succ, roots):
        raise AssertionError("the rooted search ran")
        yield

    alternating = gen_alternating_machine().machine
    _, bad = alternating.live_local
    first_state = alternating.states[alternating.live_states[bad[0][0]]]
    graphs = list(drawn_digraphs(2901, (12,), 150))
    verdicts = [is_good(graph, alternating) for graph in graphs]
    monkeypatch.setattr(goodness, "tarjan_from", refused)
    hits = 0
    for graph, verdict in zip(graphs, verdicts):
        witness = verdict.witness
        if witness and (witness.cycle.base, witness.states[0]) == (graph.vertices[0], first_state):
            assert comparable(is_good(graph, alternating)) == comparable(verdict)
            hits += 1
        else:
            with pytest.raises(AssertionError, match="the rooted search ran"):
                is_good(graph, alternating)
    assert hits >= 100


def test_a_good_first_part_leaves_the_answer_to_the_fallback_search(monkeypatch):
    # a good part declared first, so that every query of vertex 0 misses, and
    # a bad part after it: the union's verdict is the bad part's, its witness
    # the bad part's with edge numbers shifted past the good part's, and the
    # rooted search ran
    rng = default_rng(2902)
    alternating = gen_alternating_machine().machine
    cases = [(graph, alternating) for graph in drawn_digraphs(2903, range(6, 13), 60)]
    cases += [(random_digraph(rng, max_vertices=8), random_machine(rng, k=2, max_states=4, density=0.3))
              for _ in range(300)]
    rooted = goodness.tarjan_from
    started = []

    def recording(succ, roots):
        started.append(len(succ))
        yield from rooted(succ, roots)

    monkeypatch.setattr(goodness, "tarjan_from", recording)
    checked = 0
    for n, (part, machine) in enumerate(cases):
        verdict = is_good(part, machine)
        if verdict.good:
            continue
        good = path_digraph(1 + n % 5) if machine is alternating else DirectedHypergraph(2, "xy", [])
        assert is_good(good, machine).good
        union = DirectedHypergraph(2, [f"g{v}" for v in good.vertices] + list(part.vertices),
                                   [(f"g{a}", f"g{b}") for a, b in good.edges] + list(part.edges))
        started.clear()
        whole = is_good(union, machine)
        assert started
        assert not whole.good and validate_witness(union, machine, whole.witness).ok
        shifted = witness_to_obj(verdict.witness)
        shifted["steps"] = [[e + len(good.edges), v] for e, v in shifted["steps"]]
        assert witness_to_obj(whole.witness) == shifted
        checked += 1
    assert checked >= 100


def test_brute_force_is_good_refuses_a_bool_or_a_float_length():
    # int() read max_len 2.9 as 2 and True as 1
    graph = gen_shift_digraph(3)
    machine = gen_alternating_machine().machine
    for bad in (2.9, 2.0, True, "2", None):
        with pytest.raises(InputError, match="^max_len must be an integer$"):
            brute_force_is_good(graph, machine, bad)
