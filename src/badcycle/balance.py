"""Balanced digraphs: cycle-ratio recognition and the modular coloring.

A digraph is alpha-balanced when every closed traversal of its underlying
graph uses strictly fewer than alpha times as many backward edges as
forward ones.  Whether a traversal violates alpha = p/q depends only on
its backward share B/(F+B) >= p/(p+q), so recognition reads one critical
share per weak component, the greatest cycle mean of its doubled digraph
weighted 0 forward and 1 backward, with the tight cycle that attains it
as the witness: ``digraph``'s Karp kernel runs on each weak component's
doubled int rows once per graph object, which keeps the shares, and
every alpha then costs one comparison per component.  A forest is never
searched: its doubled digraph's only simple cycles are its 2-cycles, of
share 1/2, so it is balanced for every alpha > 1.  Balanced graphs get a
proper coloring with at most ceil(alpha)+1 colors from longest-walk
potentials.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digraph import _greatest_mean_cycle, _relax
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
    if type(alpha) is Fraction and alpha.numerator > alpha.denominator:
        return alpha
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


def _violation(graph, alpha):
    """alpha, read exactly, and the witness steps of the first weak component
    whose critical share reaches alpha/(alpha+1), or None.  The shares are
    (share, scale, steps) per component with a cycle, greatest least vertex
    first, found on first use and kept on the graph."""
    alpha = _as_alpha(alpha)
    _require_digraph(graph)
    shares = graph._critical_shares
    if shares is None:
        shares = []
        # every doubled arc has its reverse, so the strong components are the
        # weak ones, kept in Tarjan's order: greatest least vertex first
        for vertices, edges in sorted(graph.components, reverse=True):
            if len(edges) >= len(vertices):
                share, scale, cycle = _greatest_mean_cycle(
                    len(vertices), _doubled(graph, vertices, edges, 0, 1))
                steps = tuple((graph.edges[edges[p >> 1]], "backward" if p & 1 else "forward")
                              for p in cycle)
                shares.append((share, scale, steps))
        graph._critical_shares = shares = tuple(shares)
    p, total = alpha.numerator, alpha.numerator + alpha.denominator
    return alpha, next((steps for share, scale, steps in shares if share * total >= p * scale), None)


def is_alpha_balanced(graph, alpha):
    """Decide alpha-balance; unbalanced verdicts carry a traversal witness.

    Each edge doubles into a forward arc of weight 0 and a backward arc of
    weight 1, so a cycle's mean is its backward share B/(F+B), and a closed
    traversal violates alpha = p/q, B >= alpha*F, exactly when that share is
    at least p/(p+q).  The greatest share is attained on a simple cycle, so
    the graph is unbalanced exactly when some weak component's greatest
    cycle mean, its critical share, reaches p/(p+q); the witness is the
    first such component's tight cycle, the same for every such alpha.
    """
    alpha, steps = _violation(graph, alpha)
    return BalanceVerdict(steps is None, alpha, steps)


def balanced_coloring(graph, alpha):
    """Color a balanced digraph with at most ceil(alpha)+1 colors.

    Potentials are longest-walk values from the least vertex of each weak
    component in the doubled digraph weighted +1 forward and -ceil(alpha)
    backward; colors are the potentials mod ceil(alpha)+1.  Every edge
    (a, b) then satisfies l(a)+1 <= l(b) <= l(a)+ceil(alpha), which makes
    the coloring proper.  Balance is confirmed on the critical shares that
    ``is_alpha_balanced`` reads, found once per graph object.
    """
    alpha, steps = _violation(graph, alpha)
    if steps is not None:
        raise UnbalancedError("the digraph is not alpha-balanced", BalanceVerdict(False, alpha, steps))
    ceiling = -(-alpha.numerator // alpha.denominator)
    potentials = {}
    for vertices, edges in graph.components:
        n = len(vertices)
        dist, changed = _relax(n, _doubled(graph, vertices, edges, 1, -ceiling), 0, n)
        if changed:
            # reversed, a positive cycle here has over alpha backward edges per forward one
            raise AssertionError("a balanced digraph has bounded potentials")
        potentials.update(zip([graph.vertices[v] for v in vertices], dist))
    colors = {v: potentials[v] % (ceiling + 1) for v in graph.vertices}
    return BalancedColoring(alpha, ceiling, potentials, colors)
