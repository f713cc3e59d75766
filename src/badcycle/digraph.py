"""Digraph kernels shared by the deciders, all on int rows.

The kernels take successor lists or (u, v, w) rows on node numbers: one
iterative Tarjan search, ``tarjan_from``, splits the strong components, and
Karp's cycle means (over a common denominator), the longest-walk relaxation
and the tight-cycle search run on each component's local numbering.
``has_zero_mean_span`` peels the weight-0 rows, a cycle of which answers,
then relaxes each cyclic component under two scaled weightings.
``balance`` and ``orders`` build their rows and call the kernels directly.
``tarjan_from`` runs from the given roots in order and hands control back
after each, so a caller can stop at its answer; ``tarjan`` runs it from
every node.  They, ``bfs`` and Kahn's (1962) in-degree peel, as the
least-key topological order or as ``unpeeled``, the nodes it cannot remove,
also serve ``goodness`` and ``orders``.  ``Digraph``, an unweighted
name-keyed view, ``strong_components`` and ``goodness.build_auxiliary`` stay
only because the benchmark's traced run calls them.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import lcm

from .errors import InputError


class Digraph:
    """Digraph on named vertices; arcs are (source, target) pairs kept in
    input order, parallel arcs and self-loops allowed."""

    def __init__(self, vertices, arcs=()):
        self.vertices = tuple(vertices)
        index = {v: n for n, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise InputError("duplicate vertex names")
        self.arcs = tuple(arcs)
        self._succ = succ = [[] for _ in self.vertices]
        for u, v in self.arcs:
            if u not in index:
                raise InputError(f"arc source {u!r} is not a declared vertex")
            if v not in index:
                raise InputError(f"arc target {v!r} is not a declared vertex")
            succ[index[u]].append(index[v])


@dataclass(frozen=True)
class SCCResult:
    """Strong components in topological order, the condensation DAG, and
    each component's internal arcs in input order (empty when acyclic)."""

    components: tuple
    component_of: dict
    condensation: tuple
    internal_arcs: tuple


def tarjan_from(succ, roots):
    """Tarjan (1972), iterative, on nodes 0..n-1 with successor lists, from
    each of ``roots`` in turn, skipping one already reached.  Yields after
    each root, once all it reaches has closed: the components so far in
    closing order (arcs go within one or to an earlier one), members
    ascending, and each node's place there, -1 while unreached."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    place = [0] * n
    owner = [-1] * n
    stack = []
    closed = []
    counter = 0
    for root in roots:
        if index[root] < 0:
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
                    # a closed node's index is n, so only stacked ones count
                    if index[w] < low[v]:
                        low[v] = index[w]
                else:
                    call.pop()
                    if low[v] == index[v]:
                        comp = stack[place[v]:]
                        del stack[place[v]:]
                        c = len(closed)
                        for w in comp:
                            index[w] = n
                            owner[w] = c
                        comp.sort()
                        closed.append(comp)
                    if call:
                        u = call[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
        yield closed, owner


def tarjan(succ):
    """Strong components: ``tarjan_from`` run from every node in order, its
    components listed in topological order (every arc stays inside one or
    goes to a later one), and each node's component number in that list."""
    closed, owner = [], []
    for closed, owner in tarjan_from(succ, range(len(succ))):
        pass
    last = len(closed) - 1
    return closed[::-1], [last - c for c in owner]


def strong_components(graph):
    """Strong components of a Digraph, topologically sorted (see tarjan)."""
    names = graph.vertices
    raw, owner = tarjan(graph._succ)
    component_of = dict(zip(names, owner))
    internal = [[] for _ in raw]
    conden = set()
    for u, v in graph.arcs:
        a, b = component_of[u], component_of[v]
        if a == b:
            internal[a].append((u, v))
        else:
            conden.add((a, b))
    return SCCResult(
        tuple(tuple(names[v] for v in comp) for comp in raw),
        component_of,
        tuple(sorted(conden)),
        tuple(tuple(arcs) for arcs in internal),
    )


def bfs(succ, source, found=None):
    """BFS parents from source, stopped at the first layer holding a node
    that satisfies ``found``; returns the parents and those nodes in
    queue order (empty when no reachable node does).  With ``found`` None
    the BFS runs to its end and calls nothing per node."""
    parent = {source: source}
    layer = [source]
    while layer:
        if found is not None:
            hits = [u for u in layer if found(u)]
            if hits:
                return parent, hits
        following = []
        for u in layer:
            for w in succ[u]:
                if w not in parent:
                    parent[w] = u
                    following.append(w)
        layer = following
    return parent, []


def _indegrees(succ):
    """In-degree of each node of successor lists, every arc counted."""
    indeg = [0] * len(succ)
    for targets in succ:
        for w in targets:
            indeg[w] += 1
    return indeg


def unpeeled(succ):
    """Nodes, ascending, that Kahn's in-degree peel leaves in the digraph on
    0..n-1 with successor lists: those some cycle reaches, none when acyclic."""
    indeg = _indegrees(succ)
    peeled = [v for v, d in enumerate(indeg) if not d]
    for v in peeled:
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                peeled.append(w)
    return [v for v, d in enumerate(indeg) if d]


def least_first_order(succ, key=None):
    """Topological order of the DAG on nodes 0..n-1 with successor lists:
    Kahn (1962), taking the ready node of least (key[node], node) each
    time; the key defaults to the node number itself."""
    if key is None:
        key = range(len(succ))
    indeg = _indegrees(succ)
    ready = [(key[v], v) for v, d in enumerate(indeg) if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        _, v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(ready, (key[w], w))
    return order


def _cyclic_components(n, rows):
    """(size, rows) of each strong component with a cycle of the digraph on
    nodes 0..n-1 with (u, v, w) ``rows``, its rows renumbered by place in the
    component, in ``tarjan_from``'s closing order."""
    succ = [[] for _ in range(n)]
    for u, v, _ in rows:
        succ[u].append(v)
    closed, owner = [], []
    for closed, owner in tarjan_from(succ, range(n)):
        pass
    local = [0] * n
    for comp in closed:
        for place, v in enumerate(comp):
            local[v] = place
    inner = [[] for _ in closed]
    for u, v, w in rows:
        if owner[u] == owner[v]:
            inner[owner[u]].append((local[u], local[v], w))
    return [(len(c), r) for c, r in zip(closed, inner) if r]


def _karp(n, rows, scale):
    """Least cycle mean of a strong component on nodes 0..n-1, times scale,
    a common multiple of 1..n: Karp (1978) with d_k(v) the least weight of a
    k-arc walk from 0 to v, min over v of max over k of (d_n - d_k)/(n - k)."""
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0
    for k in range(1, n + 1):
        prev, cur = d[k - 1], d[k]
        for u, v, w in rows:
            if prev[u] is not None and (cur[v] is None or prev[u] + w < cur[v]):
                cur[v] = prev[u] + w
    # a walk of length n to v repeats a vertex, so a shorter one reaches v
    return min(
        max((x - d[k][v]) * (scale // (n - k)) for k in range(n) if d[k][v] is not None)
        for v, x in enumerate(d[n])
        if x is not None
    )


def _negated(rows):
    return [(u, v, -w) for u, v, w in rows]


def has_zero_mean_span(n, rows):
    """Whether some strong component of the digraph on nodes 0..n-1 with int
    ``rows`` has cycles of mean <= 0 and >= 0.  A cycle of weight-0 rows,
    which Kahn's peel of them leaves, answers at once; otherwise each cyclic
    component of size s is relaxed from its node 0, which reaches all its
    cycles, under w*(s+1) + 1 and then 1 - w*(s+1): a simple cycle of length
    L <= s and weight W weighs W*(s+1) + L under the first, > 0 iff W >= 0."""
    zero = [[] for _ in range(n)]
    for u, v, w in rows:
        if not w:
            zero[u].append(v)
    if unpeeled(zero):
        return True
    for size, part in _cyclic_components(n, rows):
        scale = size + 1
        if (_relax(size, [(u, v, w * scale + 1) for u, v, w in part], 0, size)[1]
                and _relax(size, [(u, v, 1 - w * scale) for u, v, w in part], 0, size)[1]):
            return True
    return False


def _greatest_mean_cycle(n, rows):
    """(share, scale, cycle) for the strong component with a cycle on nodes
    0..n-1 with (u, v, w) int ``rows``: its greatest cycle mean share/scale,
    scale = lcm(1..n), and the row positions of a cycle of that mean.  Uses
    the tight subgraph of max-mean-shifted potentials, so the cycle is exact:
    the rows w*scale - share are the shifted weights scaled by scale."""
    scale = lcm(*range(1, n + 1))
    share = -_karp(n, _negated(rows), scale)
    shifted = [(u, v, w * scale - share) for u, v, w in rows]
    pot, _ = _relax(n, shifted, 0, max(n - 1, 1))
    tight = [p for p, (u, v, w) in enumerate(shifted) if pot[v] == pot[u] + w]
    return share, scale, [tight[i] for i in _any_cycle(n, [shifted[p] for p in tight])]


def _relax(n, rows, source, rounds):
    """Longest-walk relaxation on nodes 0..n-1 for at most ``rounds`` sweeps,
    and whether the last sweep still raised a value; a raise in sweep n
    means a positive cycle is reachable."""
    dist = [None] * n
    dist[source] = 0
    for _ in range(rounds):
        changed = False
        for u, v, w in rows:
            if dist[u] is not None and (dist[v] is None or dist[u] + w > dist[v]):
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist, changed


def _any_cycle(n, rows):
    """A simple directed cycle among rows on nodes 0..n-1, as row indices."""
    out = [[] for _ in range(n)]
    for i, (u, _, _) in enumerate(rows):
        out[u].append(i)
    color = [0] * n
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        stack, path = [(root, iter(out[root]))], []
        while stack:
            v, pending = stack[-1]
            for i in pending:
                w = rows[i][1]
                if color[w] == 1:
                    # the nodes on the stack are the path's sources and v
                    start = ([rows[j][0] for j in path] + [v]).index(w)
                    return path[start:] + [i]
                if color[w] == 0:
                    color[w] = 1
                    path.append(i)
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                color[v] = 2
                if path:
                    path.pop()
    return None
