"""Metamorphic properties of the weighted digraph row kernels, on random
name-keyed digraphs seen through the ``NamedRows`` adapter."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from named_rows import NamedRows  # noqa: E402

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
    return NamedRows(vertices, chain + arcs)


def scaled(graph, c):
    return NamedRows(graph.vertices, [(u, v, w * c) for u, v, w in graph.arcs])


@SETTINGS
@hypothesis.given(
    weighted_digraphs(),
    st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7),
)
def test_scaling_every_weight_scales_means_and_potentials(graph, c):
    hypothesis.assume(c > 0)
    big = scaled(graph, c)
    for sign in (1, -1):
        expected = graph.cycle_mean(sign)
        assert big.cycle_mean(sign) == (None if expected is None else expected * c)
    cycle = graph.positive_cycle()
    expected = None if cycle is None else tuple((u, v, w * c) for u, v, w in cycle)
    assert big.positive_cycle() == expected
    walks = graph.potentials("0")
    big_walks = big.potentials("0")
    assert (big_walks is None) == (walks is None) == (cycle is not None)
    if walks is not None:
        assert big_walks == {v: x * c for v, x in walks.items()}


@SETTINGS
@hypothesis.given(weighted_digraphs(), st.randoms(use_true_random=False))
def test_renaming_vertices_changes_no_mean(graph, rng):
    names = [f"w{i}" for i in range(len(graph.vertices))]
    rng.shuffle(names)
    rename = dict(zip(graph.vertices, names))
    vertices = list(names)
    rng.shuffle(vertices)
    arcs = [(rename[u], rename[v], w) for u, v, w in graph.arcs]
    renamed = NamedRows(vertices, arcs)
    assert renamed.cycle_mean(1) == graph.cycle_mean(1)
    assert renamed.cycle_mean(-1) == graph.cycle_mean(-1)
