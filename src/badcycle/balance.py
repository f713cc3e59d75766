"""Balanced digraphs: cycle-ratio recognition and the modular coloring.

A digraph is alpha-balanced when every closed traversal of its underlying
graph uses strictly fewer than alpha times as many backward edges as
forward ones.  Recognition reduces to cycle means on a doubled weighted
digraph; balanced graphs get a proper coloring with at most ceil(alpha)+1
colors from longest-walk potentials.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digraph import WeightedDigraph, find_positive_cycle, longest_walk_potentials
from .errors import InputError, UnbalancedError
from .hypergraph import _components


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
    alpha = _as_alpha(alpha)
    _require_digraph(graph)
    scale = len(graph.vertices) + 1
    forward = 1 - alpha.numerator * scale
    backward = 1 + alpha.denominator * scale
    arcs = []
    origin = {}
    for edge in graph.edges:
        a, b = edge
        arcs.append((a, b, forward))
        origin[(a, b, forward)] = (edge, "forward")
        arcs.append((b, a, backward))
        origin[(b, a, backward)] = (edge, "backward")
    cycle = find_positive_cycle(WeightedDigraph(graph.vertices, arcs))
    if cycle is None:
        return BalanceVerdict(True, alpha)
    return BalanceVerdict(False, alpha, tuple(origin[arc] for arc in cycle))


def balanced_coloring(graph, alpha):
    """Color a balanced digraph with at most ceil(alpha)+1 colors.

    Potentials are longest-walk values from the least vertex of each weak
    component in the doubled digraph weighted +1 forward and -ceil(alpha)
    backward; colors are the potentials mod ceil(alpha)+1.  Every edge
    (a, b) then satisfies l(a)+1 <= l(b) <= l(a)+ceil(alpha), which makes
    the coloring proper.
    """
    alpha = _as_alpha(alpha)
    verdict = is_alpha_balanced(graph, alpha)
    if not verdict.balanced:
        raise UnbalancedError("the digraph is not alpha-balanced", verdict)
    ceiling = -(-alpha.numerator // alpha.denominator)
    potentials = {}
    for vertices, edges in _components(graph):
        arcs = []
        for e in edges:
            a, b = graph.edges[e]
            arcs.append((a, b, 1))
            arcs.append((b, a, -ceiling))
        part = [graph.vertices[v] for v in vertices]
        walks = longest_walk_potentials(WeightedDigraph(part, arcs), part[0])
        if not walks.bounded:
            # unreachable on balanced input: a positive cycle here means
            # some traversal has more than ceil(alpha) forward edges per
            # backward edge, and its reverse already violates balance
            witness = []
            for u, v, w in walks.positive_cycle:
                edge = (u, v) if w == 1 else (v, u)
                witness.append((edge, "backward" if w == 1 else "forward"))
            raise UnbalancedError(
                "the digraph is not alpha-balanced",
                BalanceVerdict(False, alpha, tuple(reversed(witness))),
            )
        potentials.update(walks.potentials)
    colors = {v: int(potentials[v]) % (ceiling + 1) for v in graph.vertices}
    return BalancedColoring(alpha, ceiling, potentials, colors)

