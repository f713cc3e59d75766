"""Goodness decisions on the product digraph, witnesses, induced systems.

A hypergraph is good for a machine when no cycle admits an accepting
state sequence ending in a bad pair.  The decision runs on the product
digraph over vertex-state pairs: a step of a cycle together with a
machine transition becomes one arc.  The decision builds integer
successor lists from the machine's position-pair groups, and finds the
edge behind an arc only for a witness.  Witness walks and induced linear
orders come from ``digraph.bfs`` and ``least_first_order``.

The decision asks its queries in order, (v, s) reaching (v, t) per vertex
v and bad pair (s, t), or each node lying on a cycle.  The general first
source's queries come first, and one full ``bfs`` from it answers them by
tree membership, with the witness a BFS stopped at the target gives.  When
they all miss, ``digraph.tarjan_from`` runs rooted at each remaining
query's node in turn, ORing in reach bitsets as components close, and stops
at the first query that hits.  Cycling queries are only the nodes that
Kahn's in-degree peel, ``digraph.unpeeled``, leaves, a set closed under
successors that holds every node on a cycle: an acyclic product, a good
one, asks none and never starts the search.

``is_good`` builds the product only on the machine's ``live_atoms``, the
atoms that can lie on a bad walk, and on the states they touch.  Every bad
walk is kept, with every arc between two nodes that lie on one, and the
kept nodes keep their relative order.  So the components holding a cycle,
and the BFS layers of the nodes that reach the target, are those of the
whole product: the first qualifying node and its witness are the same.
The induced coloring reads every state's component, so it builds the
whole product and runs the search on from every node.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, takewhile

from .checks import BadCycleWitness, OrderSystem
from .digraph import Digraph, bfs, least_first_order, tarjan_from, unpeeled
from .errors import InputError, NotGoodError
from .hypergraph import HyperCycle, path_digraph
from .machine import require_valid


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Product digraph on vertex-state pairs with per-arc provenance.

    An arc ((a,s),(b,t)) exists exactly when some edge holds a at
    position i and b at position j with t reachable from s under (i,j).
    ``provenance`` maps each arc to the sorted tuple of (edge_index, i, j)
    triples that generate it.  This is a public view for inspection;
    ``is_good`` does not build it and decides on node numbers instead.
    """

    graph: Digraph
    provenance: dict = field(compare=False)


@dataclass(frozen=True)
class GoodnessVerdict:
    good: bool
    witness: BadCycleWitness | None = None

    def __bool__(self):
        return self.good


def _require_same_k(graph, machine):
    if graph.k != machine.k:
        raise InputError(
            f"hypergraph uniformity {graph.k} does not match machine arity {machine.k}"
        )


def _semantics(machine):
    return "cycling" if machine.is_cycling else "general"


def _require_decidable(graph, machine):
    _require_same_k(graph, machine)
    require_valid(machine, _semantics(machine))


def _product_arcs(graph, machine):
    """Each edge's product arcs as (u, w) node-number pairs, edge by edge.

    Node (v, s) is numbered index(v) * |S| + index(s), its place in the
    product's node order, and an edge's n-th arc comes from the n-th atom of
    ``numbered_atoms``; this is the one definition of the product's arc order.
    """
    width = len(machine.states)
    atoms = [(s, i - 1, j - 1, t) for s, i, j, t in machine.numbered_atoms]
    # the flat members, k at a time
    for edge in zip(*[iter(graph.members)] * graph.k):
        base = [v * width for v in edge]
        yield [(base[i] + s, base[j] + t) for s, i, j, t in atoms]


def _product(graph, width, groups):
    """Successor lists of the product on node numbers, width states a vertex,
    from position-pair ``groups`` on those states' places (``Machine.atom_groups``
    or ``live_local``), in first-arc order: atoms sort by (s, i, j, t) and a
    vertex holds one place per edge, so taking them grouped by position pair,
    groups in sorted order, keeps ``_product_arcs`` order.  An arc two edges
    share is listed twice: ``tarjan_from`` retakes a min, ``bfs`` keeps the
    first parent, and ``in`` tests and the reach OR are idempotent."""
    succ = [[] for _ in range(len(graph.vertices) * width)]
    for edge in zip(*[iter(graph.members)] * graph.k):
        for i, j, pairs in groups:
            a, b = edge[i] * width, edge[j] * width
            for s, t in pairs:
                succ[a + s].append(b + t)
    return succ


def build_auxiliary(graph, machine):
    """Product digraph of a hypergraph and a machine, as a public view.

    Arcs come in first-occurrence order.  ``is_good`` does not build this
    view; it decides by node number on the arcs of live atoms.
    """
    _require_same_k(graph, machine)
    nodes = [(v, s) for v in graph.vertices for s in machine.states]
    tags = {}
    for edge_index, arcs in enumerate(_product_arcs(graph, machine)):
        for arc, (_, i, j, _) in zip(arcs, machine.numbered_atoms):
            tags.setdefault(arc, []).append((edge_index, i, j))
    product = Digraph(nodes, [(nodes[u], nodes[w]) for u, w in tags])
    provenance = {
        (nodes[u], nodes[w]): tuple(sorted(found)) for (u, w), found in tags.items()
    }
    return AuxiliaryDigraph(product, provenance)


def _walk_to(parent, source, target):
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _first_arc(graph, machine, states, u, w):
    """(edge number, atom number) of the least edge that yields the product
    arc u -> w, on the state numbers ``states``, and of the atom that yields it there."""
    (a, s), (b, t) = divmod(u, len(states)), divmod(w, len(states))
    s, t = states[s], states[t]
    atoms = machine.numbered_atoms
    for e in graph.incidence[a]:
        edge = graph.members_of(e)
        if b in edge:
            atom = (s, edge.index(a) + 1, edge.index(b) + 1, t)
            # numbered_atoms is sorted, so one bisection finds the atom or its gap
            n = bisect_left(atoms, atom)
            if n < len(atoms) and atoms[n] == atom:
                return e, n
    raise AssertionError(f"no edge yields the product arc {u!r} -> {w!r}")


def _witness(graph, machine, states, walk):
    """The bad-cycle witness read off a walk of the product on ``states``."""
    vertices = [graph.vertices[u // len(states)] for u in walk]
    names = tuple(machine.states[states[u % len(states)]] for u in walk)
    edges = [_first_arc(graph, machine, states, u, w)[0] for u, w in zip(walk, walk[1:])]
    cycle = HyperCycle(graph, vertices[0], zip(edges, vertices[1:]))
    return BadCycleWitness(cycle, names, (names[0], names[-1]))


def _closing(succ, roots):
    """``tarjan_from`` with each component's reach bitset, its own bit and
    those of the components it reaches, ORed in from its arcs when its root
    is handed back: their targets closed first, so the bits are final."""
    reach = []
    for closed, owner in tarjan_from(succ, roots):
        for comp in closed[len(reach):]:
            bits = 1 << len(reach)
            reach.append(bits)
            for u in comp:
                for w in succ[u]:
                    bits |= reach[owner[w]]
            reach[-1] = bits
        yield closed, owner, reach


def _decide(graph, machine, states, groups, bad, reach=False):
    """The product on ``states``, ascending state numbers, from position-pair
    ``groups``, with ``bad`` pairs on places there; the verdict on it; and the
    search of ``_bad_walk``, which goes on from every node when resumed, with
    reach bitsets under general semantics or with ``reach``."""
    width = len(states)
    succ = _product(graph, width, groups)
    # cycling bad pairs are the diagonal: nodes on a cycle qualify, and the peel leaves each
    queries = ([(u, u) for u in unpeeled(succ)] if machine.is_cycling else
               [(v * width + s, v * width + t) for v in range(len(graph.vertices)) for s, t in bad])
    walk, search = _bad_walk(graph, machine, states, succ, queries, reach)
    witness = walk and _witness(graph, machine, states, walk)
    return succ, GoodnessVerdict(walk is None, witness), search


def is_good(graph, machine):
    """Decide goodness; a bad verdict carries a reconstructed witness.

    Cycling semantics: bad iff some product vertex lies on a closed walk
    of length at least 1.  General semantics: bad iff some (v,s) reaches
    (v,t) for a bad pair (s,t); reachability is reflexive, which is
    harmless because bad pairs are off the diagonal.  Witnesses are the
    shortest ones through the first qualifying product vertex.  One BFS
    answers the first general source; the rooted search starts only if it
    misses.  A cycling decision asks only about the nodes an in-degree peel
    leaves, so a good cycling product is decided by the peel alone.

    The product holds only the machine's ``live_atoms`` and ``live_states``:
    a bad walk projects onto a machine walk from a bad pair's first state to
    its second, so the atoms left out lie on none, and the verdict and
    witness are those of the whole product.
    """
    _require_decidable(graph, machine)
    return _decide(graph, machine, machine.live_states, *machine.live_local)[1]


def check_paths_good(machine, n_max):
    """Scan the directed paths P_1..P_n_max for a bad cycle.

    Returns (n, witness) for the first bad path, or None when every one
    of them is good.
    """
    require_valid(machine, "cycling")
    if machine.k != 2:
        raise InputError("path digraphs are 2-uniform")
    for n in range(1, int(n_max) + 1):
        verdict = is_good(path_digraph(n), machine)
        if not verdict.good:
            return n, verdict.witness
    return None


def _bad_walk(graph, machine, states, succ, queries, reach):
    """Shortest bad walk of the product on ``states`` through the first
    qualifying node, or None, and the search.  One full BFS answers a general
    first source's queries, which come first; the search is rooted at the
    other queries' sources, each yield answering one, and then at every node,
    and is left at the first that hits, or unstarted when the BFS answered."""
    first = []
    if not machine.is_cycling and queries:
        # run to its end, the BFS keeps the parents of one stopped at the target
        parent, _ = bfs(succ, queries[0][0])
        first = list(takewhile(lambda query: query[0] == queries[0][0], queries))
        queries = queries[len(first):]
    roots = chain((source for source, _ in queries), range(len(succ)))
    search = (_closing if reach or not machine.is_cycling else tarjan_from)(succ, roots)
    for source, target in first:
        if target in parent:
            return _walk_to(parent, source, target), search
    if machine.is_cycling:
        for (node, _), (closed, owner, *_) in zip(queries, search):
            if len(closed[owner[node]]) == 1 and node not in succ[node]:
                continue
            # every node the BFS reaches with an arc back to node lies in
            # its component; the nearest ones close shortest closed walks,
            # and ties go to the arc that comes first in the product
            parent, nearest = bfs(succ, node, lambda u: node in succ[u])
            last = min(nearest, key=lambda u: _first_arc(graph, machine, states, u, node))
            return _walk_to(parent, node, last) + [node], search
        return None, search
    for (source, target), (_, owner, bits) in zip(queries, search):
        # a target the search has not reached is not reached from source
        if owner[target] >= 0 and bits[owner[source]] >> owner[target] & 1:
            parent, _ = bfs(succ, source, lambda u: u == target)
            return _walk_to(parent, source, target), search
    return None, search


def induced_order_system_coloring(graph, machine):
    """Color each vertex by the order system its product states induce.

    Same strong component gives same class, reach bitsets give the strict
    order, and a fixed topological order of the condensation, whose arcs
    only this coloring reads (least product vertex first among the ready
    components), gives the linear order.  Requires the hypergraph to be good.
    It builds the whole product, every state and atom, decides on it, and
    then runs the search on from every node; on a good cycling product the
    peel has asked no query, so the search starts there, from node 0.
    """
    _require_decidable(graph, machine)
    width = len(machine.states)
    succ, verdict, search = _decide(
        graph, machine, range(width), machine.atom_groups, machine.numbered_bad, True
    )
    if not verdict.good:
        raise NotGoodError("hypergraph is not good for this machine", verdict.witness)
    components, component_of, reach = [], [], []
    for components, component_of, reach in search:
        pass
    following = [{component_of[w] for u in comp for w in succ[u]} - {c}
                 for c, comp in enumerate(components)]
    # components list their members in ascending node order
    order = least_first_order(following, [comp[0] for comp in components])
    rank = {c: n for n, c in enumerate(order)}
    coloring = {}
    for n, v in enumerate(graph.vertices):
        groups = {}
        for m, s in enumerate(machine.states):
            c = component_of[n * width + m]
            groups.setdefault(c, []).append(s)
        comps = sorted(groups, key=lambda c: rank[c])
        classes = [frozenset(groups[c]) for c in comps]
        partial = {
            (a, b)
            for a in range(len(comps))
            for b in range(len(comps))
            if a != b and reach[comps[a]] >> comps[b] & 1
        }
        coloring[v] = OrderSystem(classes, partial)
    return coloring
