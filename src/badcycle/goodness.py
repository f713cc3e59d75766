"""Goodness decisions on the product digraph, witnesses, induced systems.

A hypergraph is good for a machine when no cycle admits an accepting
state sequence ending in a bad pair.  The decision runs on the product
digraph over vertex-state pairs: a step of a cycle together with a
machine transition becomes one arc.  The decision numbers the pairs and
keeps integer successor lists; which edge yields an arc is worked out
only for the steps of a witness.  Components, witness walks and induced
linear orders come from ``digraph.tarjan``, ``bfs`` and ``least_first_order``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .digraph import WeightedDigraph, bfs, least_first_order, tarjan
from .errors import InputError, NotGoodError
from .hypergraph import HyperCycle, path_digraph
from .machine import require_valid
from .orders import CheckResult, OrderSystem


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Product digraph on vertex-state pairs with per-arc provenance.

    An arc ((a,s),(b,t)) exists exactly when some edge holds a at
    position i and b at position j with t reachable from s under (i,j).
    ``provenance`` maps each arc to the sorted tuple of (edge_index, i, j)
    triples that generate it.  This is a public view for inspection;
    ``is_good`` does not build it and decides on node numbers instead.
    """

    graph: WeightedDigraph
    provenance: dict = field(compare=False)


@dataclass(frozen=True)
class BadCycleWitness:
    """A cycle, a state sequence accepting it, and the bad endpoint pair."""

    cycle: HyperCycle
    states: tuple
    bad_pair: tuple


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


def _product_arcs(graph, machine):
    """Each edge's product arcs as (u, w) node-number pairs, edge by edge.

    Node (v, s) is numbered index(v) * |S| + index(s), its place in the
    product's node order, and an edge's n-th arc comes from the n-th
    transition atom; this is the one definition of the product's arc order.
    """
    width = len(machine.states)
    atoms = [(s, i - 1, j - 1, t) for s, i, j, t in machine.numbered_atoms]
    # the flat members, k at a time
    for edge in zip(*[iter(graph.members)] * graph.k):
        base = [v * width for v in edge]
        yield [(base[i] + s, base[j] + t) for s, i, j, t in atoms]


def _product(graph, machine):
    """Successor lists of the product on node numbers, in first-arc order."""
    succ = [[] for _ in range(len(graph.vertices) * len(machine.states))]
    for arcs in _product_arcs(graph, machine):
        for u, w in arcs:
            succ[u].append(w)
    # an arc repeats only when two edges share both of its vertices
    return [list(dict.fromkeys(ws)) for ws in succ]


def build_auxiliary(graph, machine):
    """Product digraph of a hypergraph and a machine, as a public view.

    Arcs come in first-occurrence order with weight 0.  ``is_good`` does
    not build this view; it decides on the same arcs by node number.
    """
    _require_same_k(graph, machine)
    nodes = [(v, s) for v in graph.vertices for s in machine.states]
    tags = {}
    for edge_index, arcs in enumerate(_product_arcs(graph, machine)):
        for arc, (_, i, j, _) in zip(arcs, machine.transition_atoms()):
            tags.setdefault(arc, []).append((edge_index, i, j))
    weighted = WeightedDigraph(
        nodes, [(nodes[u], nodes[w], 0) for u, w in tags]
    )
    provenance = {
        (nodes[u], nodes[w]): tuple(sorted(found)) for (u, w), found in tags.items()
    }
    return AuxiliaryDigraph(weighted, provenance)


def _walk_to(parent, source, target):
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _first_arc(product, u, w):
    """(edge number, atom number) of the least edge that yields the product
    arc u -> w and of the atom that yields it there."""
    (a, s), (b, t) = divmod(u, product.width), divmod(w, product.width)
    graph, atoms = product.graph, product.machine.numbered_atoms
    for e in graph.incidence[a]:
        edge = graph.members_of(e)
        if b in edge:
            atom = (s, edge.index(a) + 1, edge.index(b) + 1, t)
            if atom in atoms:
                return e, atoms.index(atom)
    raise AssertionError(f"no edge yields the product arc {u!r} -> {w!r}")


def _witness(product, walk):
    """The bad-cycle witness read off a product walk on node numbers."""
    vertices, states = zip(*map(product.name, walk))
    edges = [_first_arc(product, u, w)[0] for u, w in zip(walk, walk[1:])]
    cycle = HyperCycle(product.graph, vertices[0], zip(edges, vertices[1:]))
    return BadCycleWitness(cycle, states, (states[0], states[-1]))


class _Product:
    """The product digraph on node numbers with its strong components."""

    def __init__(self, graph, machine):
        self.graph = graph
        self.machine = machine
        self.width = len(machine.states)
        self.succ = _product(graph, machine)
        self.components, self.component_of = tarjan(self.succ)

    def name(self, node):
        """The (vertex, state) pair numbered node."""
        v, s = divmod(node, self.width)
        return self.graph.vertices[v], self.machine.states[s]

    @cached_property
    def condensation(self):
        """Per component: the later components it has arcs to, and the
        bitset of components it reaches (itself included)."""
        following = [None] * len(self.components)
        bits = [0] * len(self.components)
        # components are topologically sorted, so every target is done first
        for c in reversed(range(len(self.components))):
            targets = {
                self.component_of[w] for u in self.components[c] for w in self.succ[u]
            }
            targets.discard(c)
            reached = 1 << c
            for d in targets:
                reached |= bits[d]
            following[c] = targets
            bits[c] = reached
        return following, bits


def is_good(graph, machine):
    """Decide goodness; a bad verdict carries a reconstructed witness.

    Cycling semantics: bad iff some product vertex lies on a closed walk
    of length at least 1.  General semantics: bad iff some (v,s) reaches
    (v,t) for a bad pair (s,t); reachability is reflexive, which is
    harmless because bad pairs are off the diagonal.  Witnesses are the
    shortest ones through the first qualifying product vertex.
    """
    return _decide(graph, machine)[0]


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


def _decide(graph, machine):
    """The goodness verdict with the product and strong components behind it."""
    _require_same_k(graph, machine)
    require_valid(machine, _semantics(machine))
    product = _Product(graph, machine)
    walk = _bad_walk(product)
    if walk is None:
        return GoodnessVerdict(True), product
    return GoodnessVerdict(False, _witness(product, walk)), product


def _bad_walk(product):
    """Shortest bad product walk through the first qualifying node, or None."""
    graph, machine, succ = product.graph, product.machine, product.succ
    components, component_of = product.components, product.component_of
    if machine.is_cycling:
        for node in range(len(succ)):
            if len(components[component_of[node]]) == 1 and node not in succ[node]:
                continue
            # every node the BFS reaches with an arc back to node lies in
            # its component; the nearest ones close shortest closed walks,
            # and ties go to the arc that comes first in the product
            parent, nearest = bfs(succ, node, lambda u: node in succ[u])
            last = min(nearest, key=lambda u: _first_arc(product, u, node))
            return _walk_to(parent, node, last) + [node]
        return None
    _, reach = product.condensation
    width = product.width
    for v in range(len(graph.vertices)):
        for s, t in machine.numbered_bad:
            source, target = v * width + s, v * width + t
            if reach[component_of[source]] >> component_of[target] & 1:
                parent, _ = bfs(succ, source, lambda u: u == target)
                return _walk_to(parent, source, target)
    return None


def validate_witness(graph, machine, witness):
    """Replay a claimed bad-cycle witness against the definitions."""
    violations = []
    cycle = witness.cycle
    if cycle.graph != graph:
        violations.append("witness cycle lives on a different hypergraph")
        return CheckResult(False, tuple(violations))
    states = tuple(witness.states)
    if len(states) != cycle.length + 1:
        violations.append(
            f"state sequence has {len(states)} entries for a cycle of"
            f" length {cycle.length}"
        )
        return CheckResult(False, tuple(violations))
    for m in range(1, len(states)):
        i, j = cycle.trace(m)
        if states[m] not in machine.targets(states[m - 1], i, j):
            violations.append(
                f"step {m}: {states[m]!r} is not a ({i},{j})-successor"
                f" of {states[m - 1]!r}"
            )
    pair = (states[0], states[-1])
    if tuple(witness.bad_pair) != pair:
        violations.append("bad pair must be the first and last states")
    if pair not in machine.bad:
        violations.append(f"pair {pair!r} is not a bad pair")
    if machine.is_cycling and cycle.length == 0:
        violations.append("cycling semantics only counts cycles of length >= 1")
    return CheckResult(not violations, tuple(violations))


def induced_order_system_coloring(graph, machine):
    """Color each vertex by the order system its product states induce.

    Same strong component gives same class, condensation reachability
    gives the strict order, and a fixed topological order of the
    condensation (least product vertex first among the ready components)
    gives the linear order.  Requires the hypergraph to be good.
    """
    verdict, product = _decide(graph, machine)
    if not verdict.good:
        raise NotGoodError("hypergraph is not good for this machine", verdict.witness)
    following, reach = product.condensation
    # components list their members in ascending node order
    order = least_first_order(following, [comp[0] for comp in product.components])
    rank = {c: n for n, c in enumerate(order)}
    coloring = {}
    width = product.width
    for n, v in enumerate(graph.vertices):
        groups = {}
        for m, s in enumerate(machine.states):
            c = product.component_of[n * width + m]
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
