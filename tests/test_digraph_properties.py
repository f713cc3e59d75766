"""Metamorphic properties of the weighted digraph kernels, on random digraphs."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from badcycle.digraph import (  # noqa: E402
    WeightedDigraph,
    find_positive_cycle,
    longest_walk_potentials,
    max_cycle_mean,
    min_cycle_mean,
)

SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None, database=None, derandomize=True
)

WEIGHTS = st.integers(min_value=-3, max_value=3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def weighted_digraphs(draw):
    """A digraph on "0".."n-1" whose chain 0 -> 1 -> ... reaches every vertex."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = [str(i) for i in range(n)]
    chain = [(vertices[i], vertices[i + 1], -2) for i in range(n - 1)]
    vertex = st.sampled_from(vertices)
    arcs = draw(st.lists(st.tuples(vertex, vertex, WEIGHTS), max_size=2 * n + 2))
    return WeightedDigraph(vertices, chain + arcs)


def scaled(graph, c):
    return WeightedDigraph(graph.vertices, [(u, v, w * c) for u, v, w in graph.arcs])


@SETTINGS
@hypothesis.given(
    weighted_digraphs(),
    st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7),
)
def test_scaling_every_weight_scales_means_and_potentials(graph, c):
    hypothesis.assume(c > 0)
    big = scaled(graph, c)
    for mean in (min_cycle_mean, max_cycle_mean):
        expected = mean(graph)
        assert mean(big) == (None if expected is None else expected * c)
    cycle = find_positive_cycle(graph)
    expected = None if cycle is None else tuple((u, v, w * c) for u, v, w in cycle)
    assert find_positive_cycle(big) == expected
    walks = longest_walk_potentials(graph, "0")
    big_walks = longest_walk_potentials(big, "0")
    assert big_walks.bounded == walks.bounded
    if walks.bounded:
        assert big_walks.potentials == {v: x * c for v, x in walks.potentials.items()}
    else:
        assert walks.positive_cycle == cycle
        assert big_walks.positive_cycle == expected


@SETTINGS
@hypothesis.given(weighted_digraphs(), st.randoms(use_true_random=False))
def test_renaming_vertices_changes_no_mean(graph, rng):
    names = [f"w{i}" for i in range(len(graph.vertices))]
    rng.shuffle(names)
    rename = dict(zip(graph.vertices, names))
    vertices = list(names)
    rng.shuffle(vertices)
    arcs = [(rename[u], rename[v], w) for u, v, w in graph.arcs]
    renamed = WeightedDigraph(vertices, arcs)
    assert min_cycle_mean(renamed) == min_cycle_mean(graph)
    assert max_cycle_mean(renamed) == max_cycle_mean(graph)
