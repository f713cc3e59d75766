"""Directed hypergraphs, their cycles and traces, and chromatic numbers.

A k-uniform directed hypergraph is a vertex set plus a set of k-tuples
of pairwise distinct vertices.  A coloring is proper when no edge has
all of its coordinates colored alike.  A graph numbers its vertices once
and keeps its edges' vertex numbers (``members``, read through
``members_of``) and each vertex's edge numbers (``incidence``), and on
first use keeps its weak components from one union-find pass
(``components``), which balance reads too; it also declares the slot
where balance keeps its critical shares.  The exact solver reads only
the numbers and components and runs iterative deepening on each
component's color count.
One greedy kernel, a forbidden-color bitmask per vertex over each edge's
colored count and common color, gives the upper bound and, for each
count t, reinserts the vertices on fewer than t edges, peeled before the
search.  The core left is searched by an iterative DSATUR branch and
bound with an int bitset for the uncolored vertices at each saturation
level, in one of two kernels chosen by k in ``_search``: for k >= 3,
``_search_core`` keeps per-edge counters and the colors present on each
edge; for digraphs, ``_search_pairs`` keeps a neighbour bitset per vertex
and, per color, the vertices next to one of that color, and makes the
same decisions.  The search backtracks by conflict-directed backjumping:
a vertex with no color left jumps back to the deepest vertex whose color
helped forbid it, skipping levels that have nothing to do with the dead
end.  Only subtrees without a coloring are skipped, so the first coloring
found, and chi, are those of plain chronological backtracking; only the
node count falls.
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
        self._weak_parts = None
        # each cyclic weak component's critical backward share, filled by balance
        self._critical_shares = None

    @property
    def components(self):
        """Weak components as (vertex numbers, edge numbers) tuples, found by
        ``_components`` on first use and kept in an attribute set in ``__init__``,
        as ``Machine`` keeps its views: ``cached_property`` would read the
        instance ``__dict__``, which makes CPython 3.11 build it and slows every
        later attribute load (the chromatic search on a 715-vertex construction
        by about 9 %, and ``decide_cycling_2machine`` on fresh 3-state machines by
        about 9 %)."""
        if self._weak_parts is None:
            self._weak_parts = _components(self)
        return self._weak_parts

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


def path_digraph(n):
    """Directed path with n edges: vertices "1".."n+1", arcs i -> i+1."""
    if n < 0:
        raise InputError(f"path length must be nonnegative, got {n}")
    vertices = [str(i) for i in range(1, n + 2)]
    edges = [(str(i), str(i + 1)) for i in range(1, n + 1)]
    return DirectedHypergraph(2, vertices, edges)


def _components(graph):
    """Weak components as ascending (vertex numbers, edge numbers) tuples,
    in the order of their union-find roots."""
    members = graph.members
    parent = list(range(len(graph.vertices)))
    for edge in zip(*[iter(members)] * graph.k):
        # finds by path halving: each coordinate's root joins the first's
        root = edge[0]
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        for v in edge[1:]:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            parent[v] = root
    groups = {}
    for v, root in enumerate(parent):
        while parent[root] != root:
            root = parent[root]
        parent[v] = root
        groups.setdefault(root, ([], []))[0].append(v)
    for e, root in enumerate(map(parent.__getitem__, members[:: graph.k])):
        groups[root][1].append(e)
    return tuple((tuple(part), tuple(edges)) for _, (part, edges) in sorted(groups.items()))


def weak_components(graph):
    """Weakly connected components as tuples of vertices, in canonical order."""
    return tuple(tuple(graph.vertices[v] for v in part) for part, _ in graph.components)


# -- coloring ------------------------------------------------------------


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number with a witness coloring."""

    number: int
    coloring: dict


def chromatic_upper_greedy(graph, order=None):
    """Color count of the greedy coloring along the given vertex order."""
    n = len(graph.vertices)
    order = range(n) if order is None else [graph.index_of(v) for v in order]
    if sorted(order) != list(range(n)):
        raise InputError("order must list every vertex exactly once")
    color = [0] * n
    _greedy(graph, color, order, [0] * len(graph.edges), [0] * len(graph.edges))
    return max(color, default=0)


def _greedy(graph, color, order, filled, common):
    """Walk ``order`` in ``color``: an uncolored vertex (0) takes the least
    color that no edge at it has on all other coordinates; a colored one
    keeps its color and must come before the uncolored ones on its edges.
    Each edge counts its walked coordinates (``filled``) and keeps their
    common color (``common``: 0 for none, -1 once two differ)."""
    last = graph.k - 1
    incidence = graph.incidence
    for v in order:
        c = color[v]
        if not c:
            forbidden = 1
            for e in incidence[v]:
                if filled[e] == last and common[e] > 0:
                    forbidden |= 1 << common[e]
            c = (~forbidden & (forbidden + 1)).bit_length() - 1
            color[v] = c
        for e in incidence[v]:
            filled[e] += 1
            if common[e] != c:
                common[e] = -1 if common[e] else c


def chromatic_number_exact(graph, budget=None):
    """Least color count admitting a proper coloring, with a witness.

    ``budget`` caps the number of branch-and-bound decisions; on
    exhaustion a BudgetError carrying the best known bounds is raised.
    """
    counter = Budget(budget, "chromatic search budget exhausted")
    parts = graph.components
    greedy = [0] * len(graph.vertices)
    _greedy(graph, greedy, range(len(greedy)), [0] * len(graph.edges), [0] * len(graph.edges))
    uppers = [max(map(greedy.__getitem__, part)) for part, _ in parts]
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
    members = chain.from_iterable(map(graph.members_of, edges))
    try:
        colors = _search(vertices, members, graph.k, greedy - 1, Budget(len(vertices), ""))
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
    members = graph.members
    local = dict(zip(vertices, range(len(vertices))))
    neighbors = [0] * len(vertices)
    for e in edges:
        a, b = map(local.__getitem__, members[2 * e : 2 * e + 2])
        neighbors[a] |= 1 << b
        neighbors[b] |= 1 << a
    minus_degree = [-bits.bit_count() for bits in neighbors]
    by_degree = sorted(range(len(vertices)), key=minus_degree.__getitem__)
    best = 2
    for seed in by_degree[:8]:
        clique = 1 << seed
        for u in by_degree:
            if neighbors[u] & clique == clique:  # u is not its own neighbor
                clique |= 1 << u
        best = max(best, clique.bit_count())
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
    incidence = graph.incidence
    # a peeled vertex has degree -1 and no alive edge
    degree = dict(zip(vertices, map(len, map(incidence.__getitem__, vertices))))
    alive = set(edges)
    queue = [v for v in vertices if degree[v] < t]
    order = []
    while queue:
        v = queue.pop()
        if degree[v] < 0:
            continue
        degree[v] = -1
        order.append(v)
        for e in incidence[v]:
            if e in alive:
                alive.remove(e)
                for u in graph.members_of(e):
                    if u != v:
                        degree[u] -= 1
                        if degree[u] < t:
                            queue.append(u)
    return order


def _color_with(graph, part, t, color, counter):
    """Write a proper t-coloring of part into color and return its vertex
    numbers in coloring order, or return None when none exists."""
    vertices, edges = part
    k = graph.k
    members = graph.members
    order = _peel(graph, part, t)
    peeled = set(order)
    core = [v for v in vertices if v not in peeled]
    outer = set(chain.from_iterable(map(graph.incidence.__getitem__, order)))
    inner = [members[k * e : k * e + k] for e in edges if e not in outer]
    colors = _search(core, chain.from_iterable(inner), k, t, counter)
    if colors is None:
        return None
    for v, c in zip(core, colors):
        color[v] = c
    order.reverse()
    _greedy(graph, color, core + order, dict.fromkeys(edges, 0), dict.fromkeys(edges, 0))
    return core + order


def _search(vertices, members, k, t, counter):
    """The t-coloring search of a core, by the kernel for its uniformity."""
    if k == 2:
        return _search_pairs(vertices, members, t, counter)
    return _search_core(vertices, members, k, t, counter)


def _search_pairs(vertices, members, t, counter):
    """``_search_core``'s decisions on a 2-uniform core, over bitsets.

    Takes what ``_search_core`` takes, less k, and returns what it
    returns, so it finds the same coloring, or none, for the same budget
    units.  Vertices sit at their positions by (degree descending, i
    ascending), the degree counting an antiparallel pair twice, so the
    lowest bit of the highest non-empty saturation level is the same pick.
    At k = 2 an edge forbids c at its one uncolored coordinate exactly
    when the other is colored c.  So with ``near[v]`` the neighbours of v
    and ``beside[c]`` the positions next to a vertex colored c, v's
    forbidden colors are the c with v in ``beside[c]``, and coloring v
    with c raises v's uncolored neighbours outside ``beside[c]`` one
    level, then adds ``near[v]`` to it.  The per-edge conflict scan at a
    dead end adds the depth of the colored coordinate of each edge whose
    one uncolored coordinate is the vertex: the depths of its colored
    neighbours.  The colors tried and their cap are the same.  Each frame
    keeps the uncolored set, the levels and ``beside`` from before its
    vertex was colored, and coloring writes fresh lists, so a backjump
    restores them by assignment.
    """
    n = len(vertices)
    if not n:
        return []
    local = dict(zip(vertices, range(n)))
    ends = list(map(local.__getitem__, members))
    minus_degree = [0] * n
    for u in ends:
        minus_degree[u] -= 1
    ranked = sorted(range(n), key=minus_degree.__getitem__)
    position = sorted(range(n), key=ranked.__getitem__)
    near = [0] * n
    for a, b in zip(*[map(position.__getitem__, ends)] * 2):
        near[a] |= 1 << b
        near[b] |= 1 << a
    color = [0] * n
    depth_bit = [0] * n
    free = (1 << n) - 1
    level = [free] + [0] * t
    beside = [0] * (t + 1)
    stack = []
    used = 0
    while free:
        counter.spend()
        s = t
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        v = low.bit_length() - 1
        level[s] ^= low
        free ^= low
        choices = 0
        for c in range(1, min(used + 1, t) + 1):
            if not beside[c] & low:
                choices |= 1 << c
        conflict = 0
        while not choices:
            # v has no color left: add the depths of its colored
            # neighbours and jump back to the deepest of them
            colored = near[v] & ~free
            while colored:
                u = colored & -colored
                conflict |= depth_bit[u.bit_length() - 1]
                colored ^= u
            if not conflict:
                return None
            h = conflict.bit_length() - 1
            v, choices, used, gathered, free, level, beside = stack[h]
            del stack[h:]
            conflict = gathered | (conflict ^ (1 << h))
        # give v its least remaining color
        cb = choices & -choices
        choices ^= cb
        c = cb.bit_length() - 1
        color[v] = c
        depth_bit[v] = 1 << len(stack)
        stack.append((v, choices, used, conflict, free, level, beside))
        used = max(used, c)
        up = near[v] & free & ~beside[c]
        beside = beside[:]
        beside[c] |= near[v]
        level = level[:]
        s = 0
        carry = 0
        while up:
            moved = level[s] & up
            level[s] ^= moved | carry
            up ^= moved
            carry = moved
            s += 1
        level[s] |= carry
    return list(map(color.__getitem__, position))


def _search_core(vertices, members, k, t, counter):
    """Branch-and-bound t-coloring (DSATUR) of a peeled core, on vertex
    numbers, for k >= 3; ``_search_pairs`` makes its decisions at k = 2.

    ``vertices`` lists the core's vertex numbers in ascending order and
    ``members`` its edges' vertex numbers, k per edge in one iterable;
    the colors come back as a list aligned with ``vertices``, or None.
    The search renumbers the core: vertex i is ``vertices[i]``.  Each
    edge keeps its number of uncolored coordinates, the sum of their
    vertex numbers (which names the last one) and its present colors as
    a bitmask, bit c for color c.  An edge with one uncolored coordinate
    and one present color forbids that color there, so a fully colored
    edge is never monochromatic.  A vertex's saturation is its number of
    forbidden colors.

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
    local = dict(zip(vertices, range(n)))
    members = list(zip(*[iter(map(local.__getitem__, members))] * k))
    incident = [[] for _ in range(n)]
    for e, edge in enumerate(members):
        for u in edge:
            incident[u].append(e)
    minus_degree = [-len(at) for at in incident]
    ranked = sorted(range(n), key=minus_degree.__getitem__)
    bit = [1 << position for position in sorted(range(n), key=ranked.__getitem__)]
    color = [0] * n
    uncolored_in = list(map(len, members))
    rest = list(map(sum, members))
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
