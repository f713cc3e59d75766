"""Balance and the balanced coloring on random oriented forests, and on
random digraphs asked in any order."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from badcycle.balance import balanced_coloring, is_alpha_balanced  # noqa: E402
from badcycle.checks import is_proper_coloring  # noqa: E402
from badcycle.errors import UnbalancedError  # noqa: E402
from badcycle.hypergraph import DirectedHypergraph, weak_components  # noqa: E402
from test_balance import ALPHAS, reference_balance  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=80, deadline=None, database=None, derandomize=True
)

# p/q with p > q >= 1
alphas = st.builds(
    lambda q, more: Fraction(q + more, q), st.integers(1, 5), st.integers(1, 12)
)


@st.composite
def forests(draw):
    # vertex i > 0 hangs from an earlier vertex or starts a new tree
    n = draw(st.integers(min_value=1, max_value=9))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = []
    for i in range(1, n):
        parent = draw(st.none() | st.integers(0, i - 1))
        if parent is not None:
            a, b = names[parent], names[i]
            edges.append((a, b) if draw(st.booleans()) else (b, a))
    vertices = draw(st.permutations(names))
    return DirectedHypergraph(2, vertices, draw(st.permutations(edges)))


@SETTINGS
@hypothesis.given(forests(), alphas)
def test_a_forest_is_balanced_for_every_alpha(forest, alpha):
    verdict = is_alpha_balanced(forest, alpha)
    assert verdict.balanced and verdict.witness is None


@SETTINGS
@hypothesis.given(forests(), alphas)
def test_a_forest_gets_the_balanced_coloring(forest, alpha):
    result = balanced_coloring(forest, alpha)
    ceiling = -(-alpha.numerator // alpha.denominator)
    assert result.alpha_ceiling == ceiling
    assert is_proper_coloring(forest, result.colors)
    assert len(set(result.colors.values())) <= ceiling + 1
    for a, b in forest.edges:
        assert result.potentials[a] + 1 <= result.potentials[b]
        assert result.potentials[b] <= result.potentials[a] + ceiling


@SETTINGS
@hypothesis.given(forests(), alphas, st.data())
def test_an_edge_closing_a_cycle_answers_as_the_reference(forest, alpha, data):
    trees = [tree for tree in weak_components(forest) if len(tree) > 1]
    hypothesis.assume(trees)
    tree = data.draw(st.sampled_from(trees))
    a, b = data.draw(st.permutations(tree))[:2]
    if (a, b) in forest.edges:
        a, b = b, a
    closed = DirectedHypergraph(2, forest.vertices, forest.edges + ((a, b),))
    witness, potentials = reference_balance(closed, alpha)
    verdict = is_alpha_balanced(closed, alpha)
    assert verdict.balanced == (witness is None)
    assert verdict.witness == witness
    if verdict.balanced:
        assert balanced_coloring(closed, alpha).potentials == potentials


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    return DirectedHypergraph(2, draw(st.permutations(names)), edges)


def fresh(graph):
    return DirectedHypergraph(2, graph.vertices, graph.edges)


@SETTINGS
@hypothesis.given(
    digraphs(),
    st.permutations(ALPHAS),
    st.lists(st.none() | st.sampled_from(ALPHAS), min_size=4, max_size=4),
)
def test_one_graph_asked_in_any_order_answers_as_fresh_copies(graph, order, colorings):
    # the critical shares kept on the graph by whichever call comes first
    # give every later decision and coloring the answers of a fresh copy
    for alpha, coloring_alpha in zip(order, colorings):
        if coloring_alpha is not None:
            try:
                expected = balanced_coloring(fresh(graph), coloring_alpha)
            except UnbalancedError as caught:
                with pytest.raises(UnbalancedError) as again:
                    balanced_coloring(graph, coloring_alpha)
                assert again.value.verdict == caught.verdict
            else:
                assert balanced_coloring(graph, coloring_alpha) == expected
        assert is_alpha_balanced(graph, alpha) == is_alpha_balanced(fresh(graph), alpha)
