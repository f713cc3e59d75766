import math
from fractions import Fraction

import pytest

from badcycle import digraph
from badcycle.balance import BalanceVerdict, balanced_coloring, is_alpha_balanced
from badcycle.checks import is_proper_coloring, validate_witness
from badcycle.corpus import default_rng, random_digraph
from badcycle.errors import InputError, UnbalancedError
from badcycle.generators import gen_counter_machine, gen_explicit_hasse_digraph
from badcycle.goodness import induced_order_system_coloring, is_good
from badcycle.hypergraph import (
    DirectedHypergraph,
    path_digraph,
    weak_components,
)
from badcycle.machine import Machine
from badcycle.oracles import check_two_balanced_equivalence
from badcycle.orders import decide_cycling_2machine, find_compatible_order
from badcycle.relations import gen_alternating_machine
from named_rows import ref_find_positive_cycle, ref_relax

ALPHAS = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))


def closed_traversals(graph):
    # (start, forward count, backward count) of every simple closed
    # traversal, each listed once from its least vertex by declaration order
    out = {}
    for a, b in graph.edges:
        out.setdefault(a, []).append((b, 1, 0))
        out.setdefault(b, []).append((a, 0, 1))
    rank = {v: n for n, v in enumerate(graph.vertices)}

    def search(start, at, seen, forward, backward):
        for v, f, bk in out.get(at, ()):
            if v == start:
                yield start, forward + f, backward + bk
            elif v not in seen and rank[v] > rank[start]:
                yield from search(start, v, seen | {v}, forward + f, backward + bk)

    for s in graph.vertices:
        yield from search(s, s, {s}, 0, 0)


def brute_unbalanced(graph, alpha):
    # a traversal violates balance when its backward count reaches alpha
    # times its forward count
    alpha = Fraction(alpha)
    return any(backward >= alpha * forward for _, forward, backward in closed_traversals(graph))


def assert_valid_witness(graph, verdict):
    steps = verdict.witness
    assert steps
    forward = sum(1 for _, d in steps if d == "forward")
    backward = len(steps) - forward
    assert backward >= verdict.alpha * forward
    hops = []
    for edge, direction in steps:
        assert edge in graph.edges
        assert direction in ("forward", "backward")
        hops.append(edge if direction == "forward" else edge[::-1])
    for n, (_, head) in enumerate(hops):
        assert hops[(n + 1) % len(hops)][0] == head


def transitive_triangle():
    return DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")]
    )


def test_balance_matches_traversal_oracle():
    rng = default_rng(611)
    balanced_seen = unbalanced_seen = 0
    for _ in range(100):
        graph = random_digraph(rng, max_vertices=5)
        for alpha in ALPHAS:
            verdict = is_alpha_balanced(graph, alpha)
            assert verdict.balanced == (not brute_unbalanced(graph, alpha))
            if verdict.balanced:
                balanced_seen += 1
            else:
                unbalanced_seen += 1
                assert_valid_witness(graph, verdict)
    assert balanced_seen >= 60
    assert unbalanced_seen >= 60


def test_path_balanced_for_every_alpha():
    for alpha in ALPHAS:
        verdict = is_alpha_balanced(path_digraph(5), alpha)
        assert verdict.balanced
        assert verdict.witness is None
        assert bool(verdict)


def test_directed_cycles_unbalanced():
    two = DirectedHypergraph(2, ["1", "2"], [("1", "2"), ("2", "1")])
    three = DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]
    )
    for graph in (two, three):
        for alpha in (Fraction(2), Fraction(3)):
            verdict = is_alpha_balanced(graph, alpha)
            assert not verdict.balanced
            assert_valid_witness(graph, verdict)


def test_transitive_triangle_threshold():
    graph = transitive_triangle()
    for alpha in ALPHAS:
        verdict = is_alpha_balanced(graph, alpha)
        assert verdict.balanced == (alpha > 2)
        assert verdict.balanced == (not brute_unbalanced(graph, alpha))
    at_two = is_alpha_balanced(graph, 2)
    assert_valid_witness(graph, at_two)
    forward = sum(1 for _, d in at_two.witness if d == "forward")
    assert len(at_two.witness) - forward >= 2 * forward


def test_alpha_validation():
    graph = path_digraph(2)
    with pytest.raises(InputError):
        is_alpha_balanced(graph, 2.0)
    with pytest.raises(InputError):
        is_alpha_balanced(graph, 1)
    with pytest.raises(InputError):
        is_alpha_balanced(graph, Fraction(1, 2))
    with pytest.raises(InputError):
        is_alpha_balanced(graph, "zero")
    assert is_alpha_balanced(graph, "5/2").alpha == Fraction(5, 2)
    assert is_alpha_balanced(graph, "2.5").alpha == Fraction(5, 2)
    with pytest.raises(InputError):
        is_alpha_balanced(
            DirectedHypergraph(3, ["1", "2", "3"], [("1", "2", "3")]), 2
        )
    # alpha is read first, then the uniformity, both before the shares are kept
    triple = DirectedHypergraph(3, ["1", "2", "3"], [("1", "2", "3")])
    for decide in (is_alpha_balanced, balanced_coloring):
        with pytest.raises(InputError, match="alpha must exceed 1"):
            decide(triple, Fraction(1))
        with pytest.raises(InputError, match="2-uniform"):
            decide(triple, 2)
    cycle = DirectedHypergraph(2, "ab", [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        balanced_coloring(cycle, "1/2")
    assert triple._critical_shares is cycle._critical_shares is None


def test_coloring_single_edge():
    result = balanced_coloring(path_digraph(1), 2)
    assert result.potentials == {"1": 0, "2": 1}
    assert result.colors == {"1": 0, "2": 1}
    assert result.alpha_ceiling == 2


def test_coloring_path3():
    result = balanced_coloring(path_digraph(3), 2)
    assert result.potentials == {"1": 0, "2": 1, "3": 2, "4": 3}
    assert result.colors == {"1": 0, "2": 1, "3": 2, "4": 0}
    assert is_proper_coloring(path_digraph(3), result.colors)


def test_coloring_transitive_triangle():
    graph = transitive_triangle()
    for alpha in ("5/2", 3):
        result = balanced_coloring(graph, alpha)
        assert result.alpha_ceiling == 3
        assert result.potentials == {"1": 0, "2": 1, "3": 2}
        assert result.colors == {"1": 0, "2": 1, "3": 2}
        assert is_proper_coloring(graph, result.colors)


def test_coloring_rejects_unbalanced():
    graph = transitive_triangle()
    with pytest.raises(UnbalancedError) as caught:
        balanced_coloring(graph, 2)
    assert not caught.value.verdict.balanced
    assert_valid_witness(graph, caught.value.verdict)
    cycle = DirectedHypergraph(
        2, ["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")]
    )
    with pytest.raises(UnbalancedError):
        balanced_coloring(cycle, 3)


def test_coloring_handles_components_independently():
    graph = DirectedHypergraph(
        2, ["1", "2", "3", "4", "5"], [("1", "2"), ("3", "4")]
    )
    result = balanced_coloring(graph, 2)
    assert result.potentials == {"1": 0, "2": 1, "3": 0, "4": 1, "5": 0}
    assert result.colors == {"1": 0, "2": 1, "3": 0, "4": 1, "5": 0}


def test_coloring_corpus_properties():
    rng = default_rng(612)
    colored = rejected = 0
    for _ in range(80):
        graph = random_digraph(rng, max_vertices=5)
        for alpha in ALPHAS:
            if not is_alpha_balanced(graph, alpha).balanced:
                with pytest.raises(UnbalancedError):
                    balanced_coloring(graph, alpha)
                rejected += 1
                continue
            result = balanced_coloring(graph, alpha)
            colored += 1
            assert is_proper_coloring(graph, result.colors)
            assert len(set(result.colors.values())) <= result.alpha_ceiling + 1
            assert all(
                color in range(result.alpha_ceiling + 1)
                for color in result.colors.values()
            )
            for a, b in graph.edges:
                gap = result.potentials[b] - result.potentials[a]
                assert 1 <= gap <= result.alpha_ceiling
            for component in weak_components(graph):
                assert result.potentials[component[0]] == 0
    assert colored >= 60
    assert rejected >= 20


def test_balance_monotone_in_alpha():
    rng = default_rng(613)
    for _ in range(60):
        graph = random_digraph(rng, max_vertices=5)
        flags = [is_alpha_balanced(graph, alpha).balanced for alpha in ALPHAS]
        assert flags == sorted(flags)


def test_equivalence_trivial_cases():
    two_cycle = DirectedHypergraph(2, ["1", "2"], [("1", "2"), ("2", "1")])
    assert not is_alpha_balanced(two_cycle, 2).balanced
    assert not is_good(two_cycle, gen_counter_machine(1)).good
    assert check_two_balanced_equivalence(two_cycle, 6)
    path = path_digraph(4)
    assert is_alpha_balanced(path, 2).balanced
    assert all(
        is_good(path, gen_counter_machine(n)).good for n in range(1, 11)
    )
    assert check_two_balanced_equivalence(path, 10)


def test_equivalence_corpus():
    rng = default_rng(615)
    for _ in range(60):
        graph = random_digraph(rng, max_vertices=6)
        assert check_two_balanced_equivalence(graph)


def test_equivalence_rejects_wrong_arity():
    with pytest.raises(InputError):
        check_two_balanced_equivalence(
            DirectedHypergraph(3, ["1", "2", "3"], [("1", "2", "3")]), 4
        )


def reference_balance(graph, alpha):
    # the eps-perturbed Fraction construction is_alpha_balanced used before
    # it scaled the weights by |V|+1 to integers, and balanced_coloring's
    # potentials on Fraction weights, both on the test-local Fraction
    # references; returns (witness or None, potentials)
    p, q = alpha.numerator, alpha.denominator
    eps = Fraction(1, len(graph.vertices) + 1)
    arcs = []
    origin = {}
    for edge in graph.edges:
        a, b = edge
        arcs.append((a, b, eps - p))
        origin[(a, b, eps - p)] = (edge, "forward")
        arcs.append((b, a, eps + q))
        origin[(b, a, eps + q)] = (edge, "backward")
    cycle = ref_find_positive_cycle(graph.vertices, arcs)
    if cycle is not None:
        return tuple(origin[arc] for arc in cycle), None
    ceiling = Fraction(math.ceil(alpha))
    potentials = {}
    for component in weak_components(graph):
        members = set(component)
        arcs = []
        for a, b in graph.edges:
            if a in members:
                arcs.append((a, b, Fraction(1)))
                arcs.append((b, a, -ceiling))
        dist, changed = ref_relax(component, arcs, component[0], len(component))
        assert not changed
        potentials.update(dist)
    return None, potentials


def reference_balance_corpus():
    rng = default_rng(90604)
    yield from (random_digraph(rng, max_vertices=6, edge_prob=0.3) for _ in range(120))
    yield gen_explicit_hasse_digraph(2)
    yield gen_explicit_hasse_digraph(3)
    yield from (path_digraph(n) for n in range(1, 7))
    for seed, count, size in ((611, 100, 5), (612, 80, 5), (613, 60, 5), (615, 60, 6)):
        rng = default_rng(seed)
        yield from (random_digraph(rng, max_vertices=size) for _ in range(count))
    # disjoint unions, the second draw's vertices primed and declared first,
    # so several weak components can hold a violating traversal
    rng = default_rng(90605)
    for _ in range(100):
        first, second = (random_digraph(rng, max_vertices=4, edge_prob=0.5) for _ in "12")
        primed = [(a + "'", b + "'") for a, b in second.edges]
        vertices = [v + "'" for v in second.vertices] + list(first.vertices)
        yield DirectedHypergraph(2, vertices, list(first.edges) + primed)


def test_balance_matches_the_fraction_weight_reference():
    # same verdict, witness traversal and potentials as the Fraction weights
    balanced = unbalanced = 0
    for graph in reference_balance_corpus():
        for alpha in ALPHAS:
            witness, potentials = reference_balance(graph, alpha)
            verdict = is_alpha_balanced(graph, alpha)
            assert verdict.balanced == (witness is None)
            assert verdict.witness == witness
            if verdict.balanced:
                assert balanced_coloring(graph, alpha).potentials == potentials
                balanced += 1
            else:
                unbalanced += 1
    assert balanced >= 1000
    assert unbalanced >= 500


def test_witness_comes_from_the_component_with_the_greatest_least_vertex():
    # both triangles violate 2-balance; the components are searched in
    # Tarjan's order on the doubled digraph, so d, e, f answer, though a, b, c
    # come first by name and by edge
    graph = DirectedHypergraph(
        2, "abcdef", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")]
    )
    verdict = is_alpha_balanced(graph, 2)
    assert verdict.witness == (
        (("f", "d"), "backward"), (("e", "f"), "backward"), (("d", "e"), "backward")
    )
    with pytest.raises(UnbalancedError) as caught:
        balanced_coloring(graph, 2)
    assert caught.value.verdict == verdict


def seeded_forest(rng, size):
    # each vertex after the first hangs from an earlier one with probability
    # 3/4, by an edge in either direction; names and edges are shuffled
    names = [f"v{i}" for i in range(size)]
    edges = []
    for i in range(1, size):
        if rng.random() < 0.75:
            a, b = names[rng.randrange(i)], names[i]
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(names)
    rng.shuffle(edges)
    return DirectedHypergraph(2, names, edges)


def counted_karp(monkeypatch):
    # the args of every Karp table, through the greatest-mean kernel
    karp = digraph._karp
    searches = []

    def counted(n, rows, scale):
        searches.append((n, len(rows) // 2))
        return karp(n, rows, scale)

    monkeypatch.setattr(digraph, "_karp", counted)
    return searches


def test_karp_runs_once_per_cyclic_weak_component_and_never_on_a_forest(monkeypatch):
    # a weak component with fewer edges than vertices is a tree, balanced
    # for every alpha > 1, so Karp never sees one; a cyclic one is searched
    # on the graph's first balance call only.  In the union the tree is
    # declared after the directed triangle, so it has the greater least
    # vertex and is passed over before the triangle answers
    searched = counted_karp(monkeypatch)
    rng = default_rng(2024)
    forests = [path_digraph(n) for n in range(1, 7)]
    forests += [seeded_forest(rng, rng.randint(1, 9)) for _ in range(40)]
    union = DirectedHypergraph(
        2, "abcwxyz", [("x", "y"), ("z", "y"), ("a", "b"), ("y", "w"), ("b", "c"), ("c", "a")]
    )
    for graph in forests + [union]:
        for alpha in ALPHAS:
            verdict = is_alpha_balanced(graph, alpha)
            assert verdict.witness == reference_balance(graph, alpha)[0]
            if verdict.balanced:
                balanced_coloring(graph, alpha)
            else:
                assert graph is union
    assert searched == [(3, 3)]
    searched.clear()
    # two triangles: one table each, the later-declared one first
    two = DirectedHypergraph(
        2, "abcdefg", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d"), ("f", "g")]
    )
    for alpha in ALPHAS:
        is_alpha_balanced(two, alpha)
    assert searched == [(4, 4), (3, 3)]


def test_no_later_balance_call_on_a_graph_runs_karp(monkeypatch):
    # the first balance call on a graph object, here a coloring, keeps each
    # cyclic weak component's critical share on the graph; no later call
    # for any alpha, decision or coloring, runs Karp, and the answers are
    # those of fresh copies.  Arcs that each go up one level of three
    # vertices close no traversal with more backward steps than forward
    # ones: balanced, cyclic
    rng = default_rng(2031)
    graphs = [random_digraph(rng, max_vertices=8, edge_prob=0.2) for _ in range(200)]
    for _ in range(50):
        names = [str(v) for v in range(rng.randint(4, 12))]
        arcs = [(a, b) for a in names for b in names
                if int(b) // 3 == int(a) // 3 + 1 and rng.random() < 0.5]
        graphs.append(DirectedHypergraph(2, names, arcs))
    expected = [[is_alpha_balanced(DirectedHypergraph(2, graph.vertices, graph.edges), alpha)
                 for alpha in ALPHAS] for graph in graphs]
    searches = counted_karp(monkeypatch)
    cyclic = 0
    for graph, verdicts in zip(graphs, expected):
        components = sum(len(edges) >= len(vertices) for vertices, edges in graph.components)
        for n, (alpha, verdict) in enumerate(zip(ALPHAS, verdicts)):
            searches.clear()
            if verdict.balanced:
                assert balanced_coloring(graph, alpha).alpha == alpha
            else:
                with pytest.raises(UnbalancedError) as caught:
                    balanced_coloring(graph, alpha)
                assert caught.value.verdict == verdict
            assert is_alpha_balanced(graph, alpha) == verdict
            assert len(searches) == (0 if n else components)
            cyclic += components > 0 and verdict.balanced
    assert cyclic >= 100
    assert sum(not v.balanced for verdicts in expected for v in verdicts) >= 100


def test_the_kept_share_is_the_greatest_backward_share_of_a_traversal():
    # per weak component, the share kept on the graph is the greatest
    # B/(F+B) over its simple closed traversals, its witness attains it,
    # and every component passed over as a forest has greatest share 1/2
    rng = default_rng(616)
    kept_seen = 0
    shares = set()
    for _ in range(240):
        graph = random_digraph(rng, max_vertices=6)
        is_alpha_balanced(graph, 2)
        least = {}
        for vertices, _ in graph.components:
            least.update((graph.vertices[v], vertices[0]) for v in vertices)
        greatest = {}
        for start, forward, backward in closed_traversals(graph):
            share = Fraction(backward, forward + backward)
            greatest[least[start]] = max(share, greatest.get(least[start], share))
        cyclic = [vertices[0] for vertices, edges in sorted(graph.components, reverse=True)
                  if len(edges) >= len(vertices)]
        kept = graph._critical_shares
        assert [Fraction(share, scale) for share, scale, _ in kept] == [greatest[v] for v in cyclic]
        assert {share for v, share in greatest.items() if v not in cyclic} <= {Fraction(1, 2)}
        for share, scale, steps in kept:
            backward = sum(direction == "backward" for _, direction in steps)
            assert Fraction(backward, len(steps)) == Fraction(share, scale)
            # alpha 0: only the steps' chain is checked
            assert_valid_witness(graph, BalanceVerdict(False, Fraction(0), steps))
        kept_seen += len(kept)
        shares.update(Fraction(share, scale) for share, scale, _ in kept)
    assert kept_seen >= 100
    assert len(shares) >= 5


def test_every_alpha_a_component_answers_gets_its_one_witness():
    # the witness is the answering component's tight cycle, whatever alpha
    answered = {}
    for graph in reference_balance_corpus():
        witnesses = {}
        for alpha in ALPHAS:
            witness = is_alpha_balanced(graph, alpha).witness
            if witness is not None:
                first = graph.index_of(witness[0][0][0])
                part = next(vertices for vertices, _ in graph.components if first in vertices)
                witnesses.setdefault(part, set()).add(witness)
        assert all(len(found) == 1 for found in witnesses.values())
        answered[len(witnesses)] = answered.get(len(witnesses), 0) + 1
    assert answered[1] >= 200
    assert answered.get(2, 0) >= 1


def test_no_decider_builds_a_name_keyed_digraph(monkeypatch):
    # goodness, the induced coloring, balance and the order searches all
    # decide on int rows; the name-keyed Digraph serves build_auxiliary only
    alternating = gen_alternating_machine().machine
    triangle = transitive_triangle()
    loop = Machine(2, ["a"], [("a", 1, 2, ["a"]), ("a", 2, 1, ["a"])], bad=[("a", "a")])

    def answers():
        bad = is_good(triangle, alternating)
        assert validate_witness(triangle, alternating, bad.witness).ok
        return (
            is_good(path_digraph(3), alternating),
            bad,
            induced_order_system_coloring(path_digraph(3), alternating),
            is_alpha_balanced(triangle, 3),
            is_alpha_balanced(triangle, 2),
            balanced_coloring(triangle, 3),
            decide_cycling_2machine(gen_counter_machine(2)),
            decide_cycling_2machine(loop),
            find_compatible_order(gen_counter_machine(2)),
            find_compatible_order(loop),
        )

    expected = answers()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a name-keyed Digraph was built")

    monkeypatch.setattr(digraph.Digraph, "__init__", refuse)
    assert answers() == expected
    good, bad, _, balanced, unbalanced, _, counter, swing, order, no_order = expected
    assert good and not bad and balanced.balanced and not unbalanced.balanced
    assert counter and not swing and order is not None and no_order is None
    with pytest.raises(UnbalancedError):
        balanced_coloring(triangle, 2)


def test_two_balanced_equivalence_refuses_a_bool_or_a_float_bound():
    # int() read n_max 2.9 as 2 and True as 1; None keeps the default bound
    graph = path_digraph(2)
    for bad in (2.9, 2.0, True, "2"):
        with pytest.raises(InputError, match="^n_max must be an integer$"):
            check_two_balanced_equivalence(graph, n_max=bad)
    assert check_two_balanced_equivalence(graph)
    assert check_two_balanced_equivalence(graph, n_max=2)
