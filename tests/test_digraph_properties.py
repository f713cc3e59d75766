"""Metamorphic properties of the weighted digraph row kernels, on random
name-keyed digraphs seen through the ``NamedRows`` adapter."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from badcycle.digraph import has_zero_mean_span  # noqa: E402
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


@st.composite
def wide_weight_rows(draw):
    """Int rows on nodes 0..n-1, n <= 8, with weights in -50..50: a ring
    through every node of total weight -1, 0 or 1, then random arcs."""
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.integers(min_value=-50, max_value=50)
    ring = draw(st.lists(weight, min_size=n, max_size=n))
    excess = sum(ring) - draw(st.sampled_from((-1, 0, 1)))
    for u in range(n):  # take the excess off the weights, each kept in -50..50
        step = max(ring[u] - 50, min(ring[u] + 50, excess))
        ring[u] -= step
        excess -= step
    return n, [(u, (u + 1) % n, w) for u, w in enumerate(ring)] + draw(
        st.lists(st.tuples(node, node, weight), max_size=2 * n)
    )


@SETTINGS
@hypothesis.given(wide_weight_rows())
def test_zero_mean_span_matches_karp_on_wide_weights(case):
    # a ring of weight -1 over all n nodes weighs n - (n + 1) < 0 under the
    # scaled weights w*(n+1) + 1, so it must not read as a cycle of mean >= 0
    n, rows = case
    assert has_zero_mean_span(n, rows) == NamedRows(range(n), rows).zero_mean_span()
