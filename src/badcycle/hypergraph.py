"""Directed hypergraphs, their cycles and traces, and chromatic numbers.

A k-uniform directed hypergraph is a vertex set plus a set of k-tuples
of pairwise distinct vertices.  A coloring is proper when no edge has
all of its coordinates colored alike.  A graph numbers its vertices once
and keeps its edges' vertex numbers (``members``, read through
``members_of``) and each vertex's edge numbers (``incidence``); the exact
solver reads only these.  It splits them into weak components in one
union-find pass and runs iterative deepening on each component's color
count.  For each count t, vertices on fewer than t edges are peeled and
reinserted greedily afterwards; the core left is searched by an iterative
DSATUR branch and bound with int bitsets for the colors present on each
edge and for the uncolored vertices at each saturation level.  The search
backtracks by conflict-directed backjumping: a vertex with no color left
jumps back to the deepest vertex whose color helped forbid it, skipping
levels that have nothing to do with the dead end.  Only subtrees without
a coloring are skipped, so the first coloring found, and chi, are those
of plain chronological backtracking; only the node count falls.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .errors import Budget, BudgetError, InputError


class DirectedHypergraph:
    """Immutable k-uniform directed hypergraph with named vertices."""

    def __init__(self, k, vertices, edges=()):
        self.k = int(k)
        if self.k < 2:
            raise InputError(f"uniformity k must be at least 2, got {k}")
        self.vertices = tuple(vertices)
        self._index = index = {v: n for n, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise InputError("duplicate vertex names")
        seen = set()
        cleaned = []
        for raw in edges:
            edge = tuple(raw)
            if len(edge) != self.k:
                raise InputError(f"edge {edge!r} is not a {self.k}-tuple")
            for v in edge:
                if v not in index:
                    raise InputError(f"edge coordinate {v!r} is not a declared vertex")
            if len(set(edge)) != self.k:
                raise InputError(f"edge {edge!r} repeats a coordinate")
            if edge in seen:
                raise InputError(f"duplicate edge {edge!r}")
            seen.add(edge)
            cleaned.append(edge)
        self.edges = tuple(cleaned)
        # one flat tuple: a tuple per edge would outweigh the named edges
        self.members = tuple(map(index.__getitem__, chain.from_iterable(self.edges)))
        incidence = [[] for _ in self.vertices]
        for n, edge in enumerate(self.edges):
            for v in edge:
                incidence[index[v]].append(n)
        self.incidence = tuple(map(tuple, incidence))

    def index_of(self, v):
        if v not in self._index:
            raise InputError(f"unknown vertex {v!r}")
        return self._index[v]

    def incident_edges(self, v):
        """Indices of edges containing v, in edge order."""
        return self.incidence[self.index_of(v)]

    def members_of(self, e):
        """Vertex numbers of edge e, in coordinate order."""
        return self.members[self.k * e : self.k * (e + 1)]

    def __eq__(self, other):
        if not isinstance(other, DirectedHypergraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.k, self.vertices, self.edges))

    def __repr__(self):
        return (
            f"DirectedHypergraph(k={self.k}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)})"
        )


class HyperCycle:
    """A cycle (v_0, e_1, v_1, ..., e_n, v_n) with v_n = v_0.

    ``steps`` is a sequence of (edge index, next vertex) pairs.  Each
    step's edge must contain both the previous and the next vertex; the
    two may coincide (the trace is then a diagonal position pair).
    """

    def __init__(self, graph, base, steps=()):
        graph.index_of(base)
        verts = [base]
        indices = []
        at = base
        for edge_index, nxt in steps:
            if not 0 <= edge_index < len(graph.edges):
                raise InputError(f"edge index {edge_index} out of range")
            edge = graph.edges[edge_index]
            if at not in edge:
                raise InputError(f"vertex {at!r} is not on edge {edge_index}")
            if nxt not in edge:
                raise InputError(f"vertex {nxt!r} is not on edge {edge_index}")
            indices.append(edge_index)
            verts.append(nxt)
            at = nxt
        if at != base:
            raise InputError(f"cycle ends at {at!r}, expected base {base!r}")
        self.graph = graph
        self.vertex_seq = tuple(verts)
        self.edge_indices = tuple(indices)

    @property
    def base(self):
        return self.vertex_seq[0]

    @property
    def length(self):
        return len(self.edge_indices)

    @property
    def steps(self):
        return tuple(zip(self.edge_indices, self.vertex_seq[1:]))

    def trace(self, i):
        """Position pair (a, b) of step i (1-based): edge coordinates of v_{i-1} and v_i."""
        if not 1 <= i <= self.length:
            raise InputError(f"step index {i} out of range 1..{self.length}")
        edge = self.graph.edges[self.edge_indices[i - 1]]
        return edge.index(self.vertex_seq[i - 1]) + 1, edge.index(self.vertex_seq[i]) + 1

    def traces(self):
        return tuple(self.trace(i) for i in range(1, self.length + 1))

    def _encoded(self):
        flat = []
        for i, edge_index in enumerate(self.edge_indices):
            flat.append(self.graph.index_of(self.vertex_seq[i]))
            flat.append(edge_index)
        return flat

    def canonical_key(self):
        """Lexicographically least rotation of the (vertex, edge, ...) encoding."""
        if self.length == 0:
            return (self.graph.index_of(self.base),)
        flat = self._encoded()
        return min(
            tuple(flat[2 * r :] + flat[: 2 * r]) for r in range(self.length)
        )

    def canonical(self):
        """The rotation of this cycle whose encoding is canonical."""
        key = self.canonical_key()
        if self.length == 0:
            return self
        names = self.graph.vertices
        verts = [names[key[2 * i]] for i in range(self.length)]
        verts.append(verts[0])
        steps = [(key[2 * i + 1], verts[i + 1]) for i in range(self.length)]
        return HyperCycle(self.graph, verts[0], steps)

    def __eq__(self, other):
        if not isinstance(other, HyperCycle):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.vertex_seq == other.vertex_seq
            and self.edge_indices == other.edge_indices
        )

    def __hash__(self):
        return hash((self.vertex_seq, self.edge_indices))

    def __repr__(self):
        return f"HyperCycle(base={self.base!r}, length={self.length})"


def enumerate_cycles(graph, max_len):
    """Yield every cycle of length at most max_len, once per rotation class.

    The representative yielded is the canonical rotation.  Vertices and
    edges may repeat within a cycle; length-0 cycles are included.
    """
    if max_len < 0:
        raise InputError(f"max_len must be nonnegative, got {max_len}")
    for base in graph.vertices:
        yield HyperCycle(graph, base)
    for base_rank, base in enumerate(graph.vertices):
        seen = set()
        steps = []

        def walk(at):
            if len(steps) >= max_len:
                return
            for edge_index in graph.incident_edges(at):
                for nxt in graph.edges[edge_index]:
                    if graph.index_of(nxt) < base_rank:
                        continue
                    steps.append((edge_index, nxt))
                    if nxt == base:
                        cycle = HyperCycle(graph, base, tuple(steps))
                        key = cycle.canonical_key()
                        if key not in seen:
                            seen.add(key)
                            yield cycle.canonical()
                    yield from walk(nxt)
                    steps.pop()

        yield from walk(base)


def path_digraph(n):
    """Directed path with n edges: vertices "1".."n+1", arcs i -> i+1."""
    if n < 0:
        raise InputError(f"path length must be nonnegative, got {n}")
    vertices = [str(i) for i in range(1, n + 2)]
    edges = [(str(i), str(i + 1)) for i in range(1, n + 1)]
    return DirectedHypergraph(2, vertices, edges)


def _components(graph):
    """Weak components as ascending (vertex numbers, edge numbers) lists,
    in the order of their union-find roots."""
    parent = list(range(len(graph.vertices)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = list(zip(*[iter(graph.members)] * graph.k))
    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            parent[find(v)] = root
    groups = {}
    for v in range(len(parent)):
        groups.setdefault(find(v), ([], []))[0].append(v)
    for e, edge in enumerate(edges):
        groups[find(edge[0])][1].append(e)
    return [groups[root] for root in sorted(groups)]


def weak_components(graph):
    """Weakly connected components as tuples of vertices, in canonical order."""
    return tuple(tuple(graph.vertices[v] for v in part) for part, _ in _components(graph))


# -- coloring ------------------------------------------------------------


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number with a witness coloring."""

    number: int
    coloring: dict


def is_proper_coloring(graph, coloring):
    """True when every vertex is colored and no edge is monochromatic."""
    if any(v not in coloring for v in graph.vertices):
        return False
    return all(len({coloring[v] for v in edge}) > 1 for edge in graph.edges)


def chromatic_upper_greedy(graph, order=None):
    """Color count of the greedy coloring along the given vertex order."""
    n = len(graph.vertices)
    order = range(n) if order is None else [graph.index_of(v) for v in order]
    if sorted(order) != list(range(n)):
        raise InputError("order must list every vertex exactly once")
    return max(_greedy(graph, order), default=0)


def _greedy(graph, order):
    color = [0] * len(graph.vertices)
    for v in order:
        color[v] = _least_free_color(graph, color, v)
    return color


def _least_free_color(graph, color, v):
    """Least color no edge at v has on all its other coordinates (0: uncolored)."""
    forbidden = set()
    for e in graph.incidence[v]:
        others = {color[u] for u in graph.members_of(e) if u != v}
        if len(others) == 1:
            forbidden |= others
    c = 1
    while c in forbidden:
        c += 1
    return c


def chromatic_number_exact(graph, budget=None):
    """Least color count admitting a proper coloring, with a witness.

    ``budget`` caps the number of branch-and-bound decisions; on
    exhaustion a BudgetError carrying the best known bounds is raised.
    """
    counter = Budget(budget, "chromatic search budget exhausted")
    parts = _components(graph)
    greedy = _greedy(graph, range(len(graph.vertices)))
    uppers = [max(greedy[v] for v in part) for part, _ in parts]
    best = 0
    color = [0] * len(graph.vertices)
    order = []
    for n, part in enumerate(parts):
        number, found = uppers[n], None
        for t in range(_clique_lower_bound(graph, part), uppers[n]):
            try:
                found = _color_with(graph, part, t, color, counter)
            except BudgetError as stop:
                bounds = map(_descent_upper, repeat(graph), parts[n:], uppers[n:])
                raise BudgetError(
                    str(stop), lower=max(best, t), upper=max(best, *bounds)
                ) from None
            if found is not None:
                number = t
                break
        if found is None:
            found = part[0]
            for v in found:
                color[v] = greedy[v]
        best = max(best, number)
        order.extend(found)
    return ChromaticResult(best, {graph.vertices[v]: color[v] for v in order})


def _descent_upper(graph, part, greedy):
    """The lesser of ``greedy`` and the color count of one DSATUR descent.

    The descent is the kernel's first leaf with no color cap, found only
    when a search runs out of budget.  Capped at greedy - 1 colors, which
    keeps the kernel's per-vertex color tables at the size the exact
    search uses, the kernel makes the same choices until the descent
    would need a greedy-th color, where it meets its first dead end.  A
    descent with no dead end expands one node per vertex, so a budget of
    that many nodes stops the search at the first backtrack.
    """
    vertices, edges = part
    members = [graph.members_of(e) for e in edges]
    try:
        colors = _search_core(vertices, members, greedy - 1, Budget(len(vertices), ""))
    except BudgetError:
        return greedy
    if colors is None:
        return greedy
    return max(colors)


def _clique_lower_bound(graph, part):
    """Greedy clique size; valid for k=2 only, else 2 when any edge exists."""
    vertices, edges = part
    if not edges:
        return 1
    if graph.k != 2:
        return 2
    neighbors = {v: set() for v in vertices}
    for e in edges:
        a, b = graph.members_of(e)
        neighbors[a].add(b)
        neighbors[b].add(a)
    by_degree = sorted(vertices, key=lambda v: -len(neighbors[v]))
    best = 2
    for seed in by_degree[:8]:
        clique = {seed}
        for u in by_degree:
            if clique <= neighbors[u]:  # u is not its own neighbor
                clique.add(u)
        best = max(best, len(clique))
    return best


def _peel(graph, part, t):
    """Remove vertices incident to fewer than t edges, cascading.

    Returns the peel order.  The core is what stays: the unpeeled
    vertices and the edges with no peeled vertex.  Coloring the peeled
    vertices greedily in reverse order extends any proper t-coloring of
    the core: the edges a vertex still had when it was peeled, fewer
    than t, are then colored everywhere else, and its other edges keep
    an uncolored vertex.
    """
    vertices, edges = part
    alive_vertices = set(vertices)
    alive_edges = set(edges)
    degree = {v: len(graph.incidence[v]) for v in vertices}
    queue = [v for v in vertices if degree[v] < t]
    order = []
    while queue:
        v = queue.pop()
        if v not in alive_vertices:
            continue
        alive_vertices.remove(v)
        for e in graph.incidence[v]:
            if e not in alive_edges:
                continue
            alive_edges.remove(e)
            for u in graph.members_of(e):
                if u == v or u not in alive_vertices:
                    continue
                degree[u] -= 1
                if degree[u] < t:
                    queue.append(u)
        order.append(v)
    return order


def _color_with(graph, part, t, color, counter):
    """Write a proper t-coloring of part into color and return its vertex
    numbers in coloring order, or return None when none exists."""
    order = _peel(graph, part, t)
    peeled = set(order)
    core = [v for v in part[0] if v not in peeled]
    edges = [graph.members_of(e) for e in part[1]]
    colors = _search_core(core, [e for e in edges if peeled.isdisjoint(e)], t, counter)
    if colors is None:
        return None
    for v, c in zip(core, colors):
        color[v] = c
    order.reverse()
    for v in order:
        color[v] = _least_free_color(graph, color, v)
    return core + order


def _search_core(vertices, edges, t, counter):
    """Branch-and-bound t-coloring (DSATUR) of a peeled core, on vertex numbers.

    ``vertices`` lists the core's vertex numbers in ascending order and
    ``edges`` its edges' member tuples; the colors come back as a list
    aligned with ``vertices``, or None.  The search renumbers the core:
    vertex i is ``vertices[i]``.  Each edge keeps its number of
    uncolored coordinates, the sum of their vertex numbers (which names
    the last one) and its present colors as a bitmask, bit c for color
    c.  An edge with one uncolored coordinate and one present color
    forbids that color there, so a fully colored edge is never
    monochromatic.  A vertex's saturation is its number of forbidden
    colors.

    The pick is the uncolored vertex of greatest (saturation, degree,
    -i).  Each vertex has a fixed position by (degree descending, i
    ascending), and each saturation level keeps an int bitset of the
    positions of its uncolored vertices, so the pick is the lowest set
    bit of the highest non-empty level.  Colors are tried in increasing
    order up to one past the highest used so far.  The depth-first
    search runs on an explicit stack with one frame per colored vertex,
    and spends one budget unit per node expanded.

    Backtracking is conflict-directed backjumping (Prosser 1993).  Each
    colored vertex records its depth, the stack index of its frame, and
    each frame gathers a conflict set: an int bitmask of depths.  When
    the picked vertex has no color left, every edge on which it is the
    one uncolored coordinate and whose colored coordinates share one
    color adds the depths of all those coordinates.  The search jumps to
    the deepest depth in the set, undoes every frame above it with its
    conflict set, and merges the rest of the set into the target frame,
    which tries its next color.  A target frame with no color left adds
    the same scan for its own vertex to what it has gathered and jumps
    again; an empty set means no t-coloring exists.

    The assignments at the depths of a conflict set admit no proper
    coloring, so every frame the jump undoes roots a subtree without
    one: the first coloring found is the one chronological backtracking
    finds, and only the node count, and with it the node at which a
    budget runs out, changes.  The color cap stays sound.  A vertex can
    run out of colors only once all t colors are in use, since an unused
    color is forbidden nowhere, so each of its colors has a forbidding
    edge.  A frame's colors above its cap are covered by the conflict
    set gathered under the fresh color it tried last: apart from the
    frame's own, those assignments are shallower and use only colors
    below the fresh one, so swapping the fresh color for any higher one
    leaves them as they are.
    """
    n = len(vertices)
    if not n:
        return []
    local = {v: i for i, v in enumerate(vertices)}
    members = [[local[u] for u in edge] for edge in edges]
    incident = [[] for _ in range(n)]
    for e, edge in enumerate(members):
        for u in edge:
            incident[u].append(e)
    ranked = sorted(range(n), key=lambda v: (-len(incident[v]), v))
    bit = [0] * n
    for position, v in enumerate(ranked):
        bit[v] = 1 << position
    color = [0] * n
    uncolored_in = [len(edge) for edge in members]
    rest = [sum(edge) for edge in members]
    present = [0] * len(members)
    forbid_count = [[0] * (t + 1) for _ in range(n)]
    forbidden = [0] * n
    saturation = [0] * n
    level = [0] * (t + 1)
    level[0] = (1 << n) - 1
    depth_bit = [0] * n
    stack = []
    left = n
    used = 0
    while left:
        counter.spend()
        s = t
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        level[s] ^= low
        v = ranked[low.bit_length() - 1]
        left -= 1
        choices = ((2 << min(used + 1, t)) - 2) & ~forbidden[v]
        conflict = 0
        while not choices:
            # v has no color left: add the depths of the vertices on its
            # forbidding edges to what its colors gathered, and jump back
            # to the deepest of them
            for e in incident[v]:
                p = present[e]
                if uncolored_in[e] == 1 and not p & (p - 1):
                    for u in members[e]:
                        if u != v:
                            conflict |= depth_bit[u]
            level[saturation[v]] |= bit[v]
            left += 1
            if not conflict:
                return None
            h = conflict.bit_length() - 1
            while True:
                v, choices, used, fresh, targets, gathered = stack.pop()
                c = color[v]
                cb = 1 << c
                for e in incident[v]:
                    uncolored_in[e] += 1
                    rest[e] += v
                for e in fresh:
                    present[e] ^= cb
                for u in targets:
                    counts = forbid_count[u]
                    counts[c] -= 1
                    if not counts[c]:
                        s = saturation[u]
                        level[s] ^= bit[u]
                        level[s - 1] |= bit[u]
                        saturation[u] = s - 1
                        forbidden[u] ^= cb
                color[v] = 0
                if len(stack) == h:
                    break
                level[saturation[v]] |= bit[v]
                left += 1
            conflict = gathered | (conflict ^ (1 << h))
        # give v its least remaining color
        cb = choices & -choices
        choices ^= cb
        c = cb.bit_length() - 1
        color[v] = c
        depth_bit[v] = 1 << len(stack)
        fresh = []
        targets = []
        for e in incident[v]:
            k = uncolored_in[e] - 1
            uncolored_in[e] = k
            r = rest[e] - v
            rest[e] = r
            p = present[e]
            if not p & cb:
                p |= cb
                present[e] = p
                fresh.append(e)
            if k == 1 and p == cb:
                counts = forbid_count[r]
                counts[c] += 1
                if counts[c] == 1:
                    s = saturation[r]
                    level[s] ^= bit[r]
                    level[s + 1] |= bit[r]
                    saturation[r] = s + 1
                    forbidden[r] |= cb
                targets.append(r)
        stack.append((v, choices, used, fresh, targets, conflict))
        used = max(used, c)
    return color
