"""Balanced digraphs: cycle-ratio recognition and the modular coloring.

A digraph is alpha-balanced when every closed traversal of its underlying
graph uses strictly fewer than alpha times as many backward edges as
forward ones.  Recognition reduces to cycle means on a doubled weighted
digraph; balanced graphs get a proper coloring with at most ceil(alpha)+1
colors from longest-walk potentials.  Both run ``digraph``'s row kernels
directly on each weak component's doubled int rows, read from the weak
components the graph keeps.  Recognition searches only components with
at least as many edges as vertices: the only simple cycles of a
forest's doubled digraph are its 2-cycles, each of negative weight, so a
forest holds no positive cycle and is balanced for every alpha > 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digraph import _positive_cycle, _relax
from .errors import InputError, UnbalancedError


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of a balance check.

    When unbalanced, ``witness`` lists the violating traversal as
    (edge, "forward" | "backward") steps whose backward count is at least
    alpha times the forward count.
    """

    balanced: bool
    alpha: Fraction
    witness: tuple | None = None

    def __bool__(self):
        return self.balanced


@dataclass(frozen=True)
class BalancedColoring:
    """Potentials and colors produced for a balanced digraph."""

    alpha: Fraction
    alpha_ceiling: int
    potentials: dict
    colors: dict


def _as_alpha(alpha):
    if isinstance(alpha, float):
        raise InputError("alpha must be exact; pass an int, Fraction, or string")
    try:
        value = Fraction(alpha)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot read {alpha!r} as a rational") from exc
    if value <= 1:
        raise InputError(f"alpha must exceed 1, got {value}")
    return value


def _require_digraph(graph):
    if graph.k != 2:
        raise InputError("balance is defined for 2-uniform digraphs")


def _doubled(graph, vertices, edges, forward, backward):
    """A weak component's rows on places in ``vertices``: its n-th edge gives
    row 2n forward, of weight ``forward``, and row 2n+1 backward."""
    local = dict(zip(vertices, range(len(vertices))))
    ends = [(local[graph.members[2 * e]], local[graph.members[2 * e + 1]]) for e in edges]
    return [row for a, b in ends for row in ((a, b, forward), (b, a, backward))]


def _weights(graph, alpha):
    """alpha, read exactly, and the doubled arc weights (forward, backward)
    under which the digraph is alpha-balanced iff it has no positive cycle."""
    alpha = _as_alpha(alpha)
    _require_digraph(graph)
    scale = len(graph.vertices) + 1
    return alpha, 1 - alpha.numerator * scale, 1 + alpha.denominator * scale


def is_alpha_balanced(graph, alpha):
    """Decide alpha-balance; unbalanced verdicts carry a traversal witness.

    Each edge doubles into a forward arc of weight p and a backward arc
    of weight -q (alpha = p/q), so the graph is balanced exactly when
    every directed cycle of the doubled digraph has positive weight.  The
    search perturbs every arc by eps = 1/(|V|+1), too little to flip any
    simple cycle past an integer, turning weight <= 0 detection into a
    positive cycle search; scaled by |V|+1, the weights are the integers
    1 - p(|V|+1) and 1 + q(|V|+1).
    """
    alpha, forward, backward = _weights(graph, alpha)
    # every doubled arc has its reverse, so the strong components are the
    # weak ones; they are searched in Tarjan's order, greatest least vertex first
    for vertices, edges in sorted(graph.components, reverse=True):
        # a forest: its doubled digraph's only simple cycles are 2-cycles, of
        # weight forward + backward = 2 - (p - q) * scale < 0 (p > q, scale >= 3)
        if len(edges) < len(vertices):
            continue
        cycle = _positive_cycle(len(vertices), _doubled(graph, vertices, edges, forward, backward))
        if cycle:
            steps = ((graph.edges[edges[p >> 1]], "backward" if p & 1 else "forward")
                     for p in cycle)
            return BalanceVerdict(False, alpha, tuple(steps))
    return BalanceVerdict(True, alpha)


def balanced_coloring(graph, alpha):
    """Color a balanced digraph with at most ceil(alpha)+1 colors.

    Potentials are longest-walk values from the least vertex of each weak
    component in the doubled digraph weighted +1 forward and -ceil(alpha)
    backward; colors are the potentials mod ceil(alpha)+1.  Every edge
    (a, b) then satisfies l(a)+1 <= l(b) <= l(a)+ceil(alpha), which makes
    the coloring proper.  Balance is confirmed on ``_weights`` with no Karp:
    a doubled weak component is strongly connected, so its n-th sweep raises
    a value iff it holds a positive cycle, and only then is it decided again.
    """
    alpha, forward, backward = _weights(graph, alpha)
    ceiling = -(-alpha.numerator // alpha.denominator)
    potentials = {}
    for vertices, edges in graph.components:
        n = len(vertices)
        if n <= len(edges) and _relax(n, _doubled(graph, vertices, edges, forward, backward), 0, n)[1]:
            raise UnbalancedError("the digraph is not alpha-balanced", is_alpha_balanced(graph, alpha))
        dist, changed = _relax(n, _doubled(graph, vertices, edges, 1, -ceiling), 0, n)
        if changed:
            # reversed, a positive cycle here has over alpha backward edges per forward one
            raise AssertionError("a balanced digraph has bounded potentials")
        potentials.update(zip([graph.vertices[v] for v in vertices], dist))
    colors = {v: potentials[v] % (ceiling + 1) for v in graph.vertices}
    return BalancedColoring(alpha, ceiling, potentials, colors)
