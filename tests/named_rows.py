"""Name-keyed weighted digraphs for the tests of ``badcycle.digraph``'s row kernels.

``NamedRows`` is the one adapter: it numbers the vertices in order, scales
the ``Fraction`` weights to ints by the lcm of their denominators, and reads
cycle means off ``_cyclic_components`` and ``_karp``, positive cycles off
``_greatest_mean_cycle`` on ``tarjan``'s components (its cycle, when the
greatest mean is positive), whose row positions name the arcs, and
longest-walk potentials off ``_relax``, divided back to ``Fraction``
values and named arcs; ``zero_mean_span``
reads the same scaled ``_karp`` means by sign, with no peel and no
relaxation, so it checks ``has_zero_mean_span``'s weight-0 peel and its two
scaled relaxations per component.

The ``ref_*`` functions are the references the adapter is compared with:
the name-keyed implementation the library ran before its kernels moved to
int rows on node numbers, transcribed unchanged except that it reads a
graph only through its vertices, its (source, target, weight) arcs and
``tarjan``.  Karp builds one Fraction per (vertex, walk length) pair and
the relaxation runs on the exact weights.
"""
from fractions import Fraction
from math import lcm

from badcycle.digraph import _cyclic_components, _greatest_mean_cycle, _karp, _relax, tarjan


class NamedRows:
    """A weighted digraph on named vertices as the row kernels see it."""

    def __init__(self, vertices, arcs):
        self.vertices = tuple(vertices)
        self.arcs = tuple((u, v, Fraction(w)) for u, v, w in arcs)
        self.index = {v: n for n, v in enumerate(self.vertices)}
        self.scale = lcm(*(w.denominator for _, _, w in self.arcs))
        self.rows = [
            (self.index[u], self.index[v], int(w * self.scale)) for u, v, w in self.arcs
        ]

    def cycle_mean(self, sign):
        """The least (sign 1) or greatest (sign -1) cycle mean; None when acyclic."""
        means = []
        for n, rows in _cyclic_components(len(self.vertices), self.rows):
            scale = lcm(*range(1, n + 1))
            signed = [(u, v, sign * w) for u, v, w in rows]
            means.append(sign * Fraction(_karp(n, signed, scale), scale * self.scale))
        return (min if sign > 0 else max)(means, default=None)

    def zero_mean_span(self):
        """Whether some strong component has cycles of mean <= 0 and >= 0,
        by the signs of its scaled least and greatest Karp means."""
        for n, rows in _cyclic_components(len(self.vertices), self.rows):
            scale = lcm(*range(1, n + 1))
            if _karp(n, rows, scale) <= 0 and _karp(n, [(u, v, -w) for u, v, w in rows], scale) <= 0:
                return True
        return False

    def positive_cycle(self):
        """A directed cycle of positive weight as a tuple of arcs, or None."""
        succ = [[] for _ in self.vertices]
        for u, v, _ in self.rows:
            succ[u].append(v)
        raw, owner = tarjan(succ)
        for c, comp in enumerate(raw):
            local = {v: place for place, v in enumerate(comp)}
            positions = [p for p, (u, v, _) in enumerate(self.rows) if owner[u] == owner[v] == c]
            rows = [(local[u], local[v], w) for u, v, w in (self.rows[p] for p in positions)]
            if rows:
                share, _, cycle = _greatest_mean_cycle(len(comp), rows)
                if share > 0:
                    return tuple(self.arcs[positions[p]] for p in cycle)
        return None

    def potentials(self, source):
        """Longest-walk weight from source to each vertex, None for one it
        does not reach; None in all when a positive cycle is reachable."""
        n = len(self.vertices)
        dist, changed = _relax(n, self.rows, self.index[source], n)
        if changed:
            return None
        return {
            v: None if d is None else Fraction(d, self.scale)
            for v, d in zip(self.vertices, dist)
        }


def ref_cyclic_components(vertices, arcs):
    rank = {v: n for n, v in enumerate(vertices)}
    succ = [[] for _ in vertices]
    for u, v, _ in arcs:
        succ[rank[u]].append(rank[v])
    raw, owner = tarjan(succ)
    internal = [[] for _ in raw]
    for arc in arcs:
        a, b = owner[rank[arc[0]]], owner[rank[arc[1]]]
        if a == b:
            internal[a].append(arc)
    return [
        (tuple(vertices[v] for v in comp), inner)
        for comp, inner in zip(raw, internal)
        if inner
    ]


def ref_karp_min_mean(comp, arcs):
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
    return min(
        max(Fraction(d[n][v] - d[k][v], n - k) for k in range(n) if d[k][v] is not None)
        for v in range(n)
        if d[n][v] is not None
    )


def ref_karp_max_mean(comp, arcs):
    return -ref_karp_min_mean(comp, [(u, v, -w) for u, v, w in arcs])


def ref_relax(vertices, arcs, source, rounds):
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


def ref_any_cycle(vertices, arcs):
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


def ref_find_positive_cycle(vertices, arcs):
    """A positive cycle as a tuple of the given arcs, or None; components are
    searched in topological order, so on a digraph where every arc has its
    reverse the one with the greatest least vertex comes first."""
    for comp, internal in ref_cyclic_components(vertices, arcs):
        mean = ref_karp_max_mean(comp, internal)
        if mean <= 0:
            continue
        a, b = mean.numerator, mean.denominator
        shifted = [(u, v, w * b - a) for u, v, w in internal]
        pot, _ = ref_relax(comp, shifted, comp[0], max(len(comp) - 1, 1))
        tight = [
            arc for arc, (u, v, w) in zip(internal, shifted) if pot[v] == pot[u] + w
        ]
        cycle = ref_any_cycle(comp, tight)
        if cycle:
            return tuple(cycle)
    return None
