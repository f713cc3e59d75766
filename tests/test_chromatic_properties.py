"""Metamorphic properties of the exact chromatic number, on random hypergraphs."""
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from badcycle import hypergraph as hypergraph_module  # noqa: E402
from badcycle.checks import is_proper_coloring  # noqa: E402
from badcycle.errors import Budget  # noqa: E402
from badcycle.hypergraph import DirectedHypergraph, chromatic_number_exact  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=80, deadline=None, database=None, derandomize=True
)


@st.composite
def hypergraphs(draw, k=None):
    k = draw(st.sampled_from([2, 3])) if k is None else k
    n = draw(st.integers(min_value=k, max_value=8))
    vertices = [f"v{i}" for i in range(n)]
    edge = st.permutations(vertices).map(lambda p: tuple(p[:k]))
    edges = draw(st.lists(edge, max_size=18, unique=True))
    return DirectedHypergraph(k, vertices, edges)


@SETTINGS
@hypothesis.given(hypergraphs(), st.randoms(use_true_random=False))
def test_renaming_vertices_and_permuting_edges_preserves_chi(graph, rng):
    names = [f"w{i}" for i in range(len(graph.vertices))]
    rng.shuffle(names)
    rename = dict(zip(graph.vertices, names))
    vertices = list(names)
    rng.shuffle(vertices)
    edges = [tuple(rename[v] for v in edge) for edge in graph.edges]
    rng.shuffle(edges)
    renamed = DirectedHypergraph(graph.k, vertices, edges)
    assert (
        chromatic_number_exact(renamed).number
        == chromatic_number_exact(graph).number
    )


@SETTINGS
@hypothesis.given(
    st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(hypergraphs(k), hypergraphs(k)))
)
def test_chi_of_a_disjoint_union_is_the_max(pair):
    left, right = pair
    vertices = [f"a{v}" for v in left.vertices] + [f"b{v}" for v in right.vertices]
    edges = [tuple(f"a{v}" for v in e) for e in left.edges]
    edges += [tuple(f"b{v}" for v in e) for e in right.edges]
    union = DirectedHypergraph(left.k, vertices, edges)
    assert chromatic_number_exact(union).number == max(
        chromatic_number_exact(left).number, chromatic_number_exact(right).number
    )


@SETTINGS
@hypothesis.given(hypergraphs())
def test_every_coloring_is_proper_with_at_most_chi_colors(graph):
    result = chromatic_number_exact(graph)
    assert is_proper_coloring(graph, result.coloring)
    assert set(result.coloring.values()) <= set(range(1, result.number + 1))


@hypothesis.settings(SETTINGS, max_examples=300)
@hypothesis.given(st.integers(min_value=0, max_value=2**32 - 1))
def test_both_kernels_make_the_same_decisions_on_digraphs(seed):
    # the bitset kernel and the per-edge one find the same t-coloring, or
    # none, and charge the same units, at every color count up to 5; the
    # digraph is drawn from the seed because backjumps over several levels
    # need more vertices than shrinking keeps
    rng = random.Random(seed)
    n, p = rng.randint(12, 30), rng.choice((0.1, 0.2, 0.3, 0.5))
    members = [u for a in range(n) for b in range(n) if a != b and rng.random() < p for u in (a, b)]
    for t in range(6):
        answers = []
        for search in (
            lambda counter: hypergraph_module._search_pairs(range(n), members, t, counter),
            lambda counter: hypergraph_module._search_core(range(n), members, 2, t, counter),
        ):
            counter = Budget(10**9, "")
            answers.append((search(counter), counter.left))
        assert answers[0] == answers[1]
