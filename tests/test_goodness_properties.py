"""Metamorphic properties of goodness and order existence, on random inputs."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from badcycle.checks import validate_witness  # noqa: E402
from badcycle.goodness import _product, is_good  # noqa: E402
from badcycle.hypergraph import DirectedHypergraph  # noqa: E402
from badcycle.machine import Machine  # noqa: E402
from badcycle.orders import (  # noqa: E402
    decide_cycling_2machine,
    find_compatible_order,
    find_order_system,
)
from named_table import transition_atoms  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=100, deadline=None, database=None, derandomize=True
)


@st.composite
def machines(draw, k, cycling, max_states=3):
    n = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"s{i}" for i in range(n)]
    state = st.sampled_from(states)
    position = st.integers(min_value=1, max_value=k)
    targets = st.lists(state, min_size=1, max_size=2, unique=True)
    rows = draw(st.lists(st.tuples(state, position, position, targets), max_size=3 * n))
    if cycling:
        bad = [(s, s) for s in states]
    else:
        apart = [(s, t) for s in states for t in states if s != t]
        bad = draw(st.lists(st.sampled_from(apart), unique=True)) if apart else []
    return Machine(k, states, rows, bad)


@st.composite
def hypergraphs(draw, k, prefix="v"):
    n = draw(st.integers(min_value=k, max_value=5))
    vertices = [f"{prefix}{i}" for i in range(n)]
    edge = st.permutations(vertices).map(lambda p: tuple(p[:k]))
    return DirectedHypergraph(k, vertices, draw(st.lists(edge, max_size=5, unique=True)))


@st.composite
def instances(draw):
    """(hypergraph, machine) of one uniformity, either semantics."""
    k = draw(st.sampled_from((2, 3)))
    cycling = draw(st.booleans())
    return draw(hypergraphs(k)), draw(machines(k, cycling))


def renamed_machine(machine, order):
    """The machine with state s renamed and declared at place order[s]."""
    name = {s: f"q{order[n]}" for n, s in enumerate(machine.states)}
    rows = [(name[s], i, j, [name[t]]) for s, i, j, t in transition_atoms(machine)]
    states = sorted(name.values(), key=lambda q: int(q[1:]))
    return Machine(machine.k, states, rows, [(name[s], name[t]) for s, t in machine.bad])


@SETTINGS
@hypothesis.given(instances(), st.randoms(use_true_random=False))
def test_renaming_and_permuting_keep_the_verdicts(instance, rng):
    graph, machine = instance
    vertices = list(graph.vertices)
    rng.shuffle(vertices)
    name = {v: f"w{n}" for n, v in enumerate(vertices)}
    edges = [tuple(name[v] for v in edge) for edge in graph.edges]
    rng.shuffle(edges)
    other_graph = DirectedHypergraph(graph.k, [name[v] for v in vertices], edges)
    order = list(range(len(machine.states)))
    rng.shuffle(order)
    other = renamed_machine(machine, order)
    assert is_good(other_graph, other).good == is_good(graph, machine).good
    if machine.is_cycling:
        search = find_compatible_order
    else:
        search = find_order_system
    assert (search(other) is None) == (search(machine) is None)


@SETTINGS
@hypothesis.given(st.data())
def test_goodness_of_a_disjoint_union_is_the_and_of_the_parts(data):
    k = data.draw(st.sampled_from((2, 3)))
    machine = data.draw(machines(k, data.draw(st.booleans())))
    first = data.draw(hypergraphs(k, "a"))
    second = data.draw(hypergraphs(k, "b"))
    union = DirectedHypergraph(
        k, first.vertices + second.vertices, first.edges + second.edges
    )
    expected = is_good(first, machine).good and is_good(second, machine).good
    assert is_good(union, machine).good == expected


@SETTINGS
@hypothesis.given(instances())
def test_every_bad_witness_replays(instance):
    graph, machine = instance
    verdict = is_good(graph, machine)
    if not verdict.good:
        assert validate_witness(graph, machine, verdict.witness).ok


@SETTINGS
@hypothesis.given(st.data())
def test_cycling_goodness_is_an_acyclic_whole_product(data):
    nx = pytest.importorskip("networkx")
    k = data.draw(st.sampled_from((2, 3)))
    graph = data.draw(hypergraphs(k))
    machine = data.draw(machines(k, cycling=True, max_states=4))
    succ = _product(graph, len(machine.states), machine.atom_groups)
    product = nx.MultiDiGraph()
    product.add_nodes_from(range(len(succ)))
    product.add_edges_from((u, w) for u, targets in enumerate(succ) for w in targets)
    assert is_good(graph, machine).good == nx.is_directed_acyclic_graph(product)


@SETTINGS
@hypothesis.given(machines(2, cycling=True, max_states=4))
def test_decide2_agrees_with_the_order_search(machine):
    assert decide_cycling_2machine(machine) == (find_compatible_order(machine) is not None)
