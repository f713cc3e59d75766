"""Weighted digraph kernels shared by the deciders.

One iterative Tarjan pass on integer successor lists yields the strong
components; ``strong_components`` runs it on a WeightedDigraph and adds
the condensation and each component's internal arcs, which the exact
cycle means (Karp), positive cycles and longest-walk potentials read.
WeightedDigraph weights are exact: ints stay ints and any other weight
becomes a Fraction, so integer-weighted digraphs run in int arithmetic.
The goodness product calls ``tarjan`` directly on node numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


class WeightedDigraph:
    """Digraph with exact rational arc weights.

    Parallel arcs and self-loops are allowed; arcs are (source, target,
    weight) triples kept in input order.
    """

    def __init__(self, vertices, arcs=()):
        self.vertices = tuple(vertices)
        self._index = {v: n for n, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise InputError("duplicate vertex names")
        cleaned = []
        for u, v, w in arcs:
            if u not in self._index:
                raise InputError(f"arc source {u!r} is not a declared vertex")
            if v not in self._index:
                raise InputError(f"arc target {v!r} is not a declared vertex")
            cleaned.append((u, v, w if type(w) is int else Fraction(w)))
        self.arcs = tuple(cleaned)
        succ: dict = {v: [] for v in self.vertices}
        for u, v, _ in self.arcs:
            succ[u].append(v)
        self._succ = {v: tuple(dict.fromkeys(ts)) for v, ts in succ.items()}

    def index_of(self, v):
        if v not in self._index:
            raise InputError(f"unknown vertex {v!r}")
        return self._index[v]

    def successors(self, v):
        if v not in self._succ:
            raise InputError(f"unknown vertex {v!r}")
        return self._succ[v]

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.vertices == other.vertices and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.vertices, self.arcs))

    def __repr__(self):
        return (
            f"WeightedDigraph(vertices={len(self.vertices)}, arcs={len(self.arcs)})"
        )


@dataclass(frozen=True)
class SCCResult:
    """Strong components in topological order, the condensation DAG, and
    each component's internal arcs in input order (empty when acyclic)."""

    components: tuple
    component_of: dict
    condensation: tuple
    internal_arcs: tuple


def tarjan(succ):
    """Strong components of the digraph on nodes 0..n-1 with successor lists.

    Tarjan's algorithm (1972), iterative, with roots taken in node order
    and successors in list order.  Returns the components in topological
    order (every arc stays inside one or goes to a later one), each
    listing its members in ascending order, and each node's component
    number.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    place = [0] * n
    stack = []
    raw = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        place[root] = len(stack)
        stack.append(root)
        call = [(root, iter(succ[root]))]
        while call:
            v, pending = call[-1]
            for w in pending:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    place[w] = len(stack)
                    stack.append(w)
                    call.append((w, iter(succ[w])))
                    break
                # a finished node's index is n, so only stacked ones count
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                call.pop()
                if low[v] == index[v]:
                    comp = stack[place[v]:]
                    del stack[place[v]:]
                    for w in comp:
                        index[w] = n
                    comp.sort()
                    raw.append(comp)
                if call:
                    u = call[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    raw.reverse()
    component_of = [0] * n
    for c, comp in enumerate(raw):
        for v in comp:
            component_of[v] = c
    return raw, component_of


def strong_components(graph):
    """Strong components of a WeightedDigraph, topologically sorted (see tarjan)."""
    names = graph.vertices
    index = graph._index
    succ = [[index[w] for w in graph._succ[v]] for v in names]
    raw, owner = tarjan(succ)
    components = tuple(tuple(names[v] for v in comp) for comp in raw)
    component_of = {names[v]: c for v, c in enumerate(owner)}
    internal = [[] for _ in components]
    conden = set()
    for arc in graph.arcs:
        a, b = component_of[arc[0]], component_of[arc[1]]
        if a == b:
            internal[a].append(arc)
        else:
            conden.add((a, b))
    return SCCResult(
        components,
        component_of,
        tuple(sorted(conden)),
        tuple(tuple(arcs) for arcs in internal),
    )


def _reached(graph, source):
    """Every vertex a directed walk (possibly empty) from source reaches."""
    seen = {source}
    frontier = [source]
    while frontier:
        for y in graph.successors(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def reachable(graph, u, v):
    """True iff a directed walk (possibly empty) leads from u to v."""
    graph.index_of(u)
    graph.index_of(v)
    return v in _reached(graph, u)


def _cyclic_components(graph):
    """(component, internal arcs) for each component that carries a cycle."""
    result = strong_components(graph)
    return [pair for pair in zip(result.components, result.internal_arcs) if pair[1]]


def min_cycle_mean(graph):
    """Minimum mean weight over directed cycles; None when acyclic."""
    means = [karp_min_mean(c, arcs) for c, arcs in _cyclic_components(graph)]
    return min(means, default=None)


def max_cycle_mean(graph):
    """Maximum mean weight over directed cycles; None when acyclic."""
    means = [karp_max_mean(c, arcs) for c, arcs in _cyclic_components(graph)]
    return max(means, default=None)


def karp_min_mean(comp, arcs):
    """Karp's formula on one strong component with a cycle, given its arcs."""
    n = len(comp)
    rank = {v: i for i, v in enumerate(comp)}
    rows = [(rank[u], rank[v], w) for u, v, w in arcs]
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0
    for k in range(1, n + 1):
        prev, cur = d[k - 1], d[k]
        for u, v, w in rows:
            if prev[u] is None:
                continue
            cand = prev[u] + w
            if cur[v] is None or cand < cur[v]:
                cur[v] = cand
    # min over v of max over k of (d_n(v) - d_k(v)) / (n - k); a walk of
    # length n to v repeats a vertex, so some shorter one reaches v too
    return min(
        max(Fraction(d[n][v] - d[k][v], n - k) for k in range(n) if d[k][v] is not None)
        for v in range(n)
        if d[n][v] is not None
    )


def karp_max_mean(comp, arcs):
    """Maximum cycle mean of one strong component: Karp on negated weights."""
    return -karp_min_mean(comp, [(u, v, -w) for u, v, w in arcs])


def find_positive_cycle(graph):
    """Some directed cycle of strictly positive total weight, or None.

    Returns the cycle as a tuple of (source, target, weight) arcs.  Uses
    the tight subgraph of max-mean-shifted potentials, so the result is
    exact.  Shifting by the mean a/b as w*b - a scales every shifted
    weight by b > 0, which keeps the same tight arcs and the same cycle.
    """
    for comp, internal in _cyclic_components(graph):
        mean = karp_max_mean(comp, internal)
        if mean <= 0:
            continue
        a, b = mean.numerator, mean.denominator
        shifted = [(u, v, w * b - a) for u, v, w in internal]
        pot, _ = _relax(comp, shifted, comp[0], max(len(comp) - 1, 1))
        tight = [
            arc for arc, (u, v, w) in zip(internal, shifted) if pot[v] == pot[u] + w
        ]
        cycle = _any_cycle(comp, tight)
        if cycle:
            return tuple(cycle)
    return None


def _relax(vertices, arcs, source, rounds):
    """Longest-walk relaxation from source for at most ``rounds`` sweeps.

    Returns the values and whether the last sweep still raised one; a
    raise in sweep |V| means a positive cycle is reachable.
    """
    dist = dict.fromkeys(vertices)
    dist[source] = 0
    for _ in range(rounds):
        changed = False
        for u, v, w in arcs:
            if dist[u] is None:
                continue
            cand = dist[u] + w
            if dist[v] is None or cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    return dist, changed


def _any_cycle(vertices, arcs):
    """A simple directed cycle in (vertices, arcs), as a list of arcs."""
    out = {v: [] for v in vertices}
    for arc in arcs:
        out[arc[0]].append(arc)
    color = {v: 0 for v in vertices}
    for root in vertices:
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, 0)]
        path_arcs = []
        while stack:
            v, pos = stack[-1]
            if pos < len(out[v]):
                stack[-1] = (v, pos + 1)
                arc = out[v][pos]
                w = arc[1]
                if color[w] == 1:
                    idx = len(path_arcs)
                    for n, a in enumerate(path_arcs):
                        if a[0] == w:
                            idx = n
                            break
                    return path_arcs[idx:] + [arc]
                if color[w] == 0:
                    color[w] = 1
                    path_arcs.append(arc)
                    stack.append((w, 0))
            else:
                stack.pop()
                color[v] = 2
                if path_arcs:
                    path_arcs.pop()
    return None


@dataclass(frozen=True)
class LongestWalks:
    """Either finite longest-walk values or a positive-cycle witness."""

    potentials: dict | None
    positive_cycle: tuple | None

    @property
    def bounded(self):
        return self.potentials is not None


def longest_walk_potentials(graph, source):
    """Supremum of walk weights from source to each vertex.

    Every vertex must be reachable from source.  When some reachable
    cycle has positive total weight the supremum is infinite and the
    witness cycle is returned instead.
    """
    graph.index_of(source)
    seen = _reached(graph, source)
    missing = [v for v in graph.vertices if v not in seen]
    if missing:
        raise InputError(f"vertex {missing[0]!r} is not reachable from {source!r}")
    dist, changed = _relax(graph.vertices, graph.arcs, source, len(graph.vertices))
    if changed:
        return LongestWalks(None, find_positive_cycle(graph))
    return LongestWalks(dist, None)
