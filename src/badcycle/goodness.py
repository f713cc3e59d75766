"""Goodness decisions on the product digraph, witnesses, induced systems.

A hypergraph is good for a machine when no cycle admits an accepting
state sequence ending in a bad pair.  The decision runs on the product
digraph over vertex-state pairs: a step of a cycle together with a
machine transition becomes one arc.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .digraph import WeightedDigraph, strong_components
from .errors import BudgetError, InputError, NotGoodError
from .hypergraph import HyperCycle, path_digraph
from .machine import require_valid
from .orders import CheckResult, OrderSystem


@dataclass(frozen=True)
class AuxiliaryDigraph:
    """Product digraph on vertex-state pairs with per-arc provenance.

    An arc ((a,s),(b,t)) exists exactly when some edge holds a at
    position i and b at position j with t reachable from s under (i,j).
    ``provenance`` maps each arc to the sorted tuple of (edge_index, i, j)
    triples that generate it.
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


def build_auxiliary(graph, machine):
    """Product digraph of a hypergraph and a machine."""
    _require_same_k(graph, machine)
    nodes = [(v, s) for v in graph.vertices for s in machine.states]
    atoms = list(machine.transition_atoms())
    tags = {}
    arcs = []
    for edge_index, edge in enumerate(graph.edges):
        for s, i, j, t in atoms:
            arc = ((edge[i - 1], s), (edge[j - 1], t))
            if arc not in tags:
                tags[arc] = []
                arcs.append(arc)
            tags[arc].append((edge_index, i, j))
    weighted = WeightedDigraph(nodes, [(u, v, 0) for u, v in arcs])
    provenance = {arc: tuple(sorted(found)) for arc, found in tags.items()}
    return AuxiliaryDigraph(weighted, provenance)


def _bfs(graph, source):
    dist = {source: 0}
    parent = {}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def _walk_to(parent, source, target):
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _witness_from_walk(graph, aux, walk):
    base = walk[0][0]
    steps = []
    states = [walk[0][1]]
    for prev, nxt in zip(walk, walk[1:]):
        edge_index, _, _ = aux.provenance[(prev, nxt)][0]
        steps.append((edge_index, nxt[0]))
        states.append(nxt[1])
    cycle = HyperCycle(graph, base, steps)
    return BadCycleWitness(cycle, tuple(states), (states[0], states[-1]))


def _component_reachability(result):
    # condensation pairs (a, b) are sorted with a < b, so every pair out of
    # b is folded in before any pair into b
    reach = [{c} for c in range(len(result.components))]
    for a, b in reversed(result.condensation):
        reach[a] |= reach[b]
    return reach


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
    """The goodness verdict with the product digraph and SCCs behind it."""
    _require_same_k(graph, machine)
    require_valid(machine, _semantics(machine))
    aux = build_auxiliary(graph, machine)
    result = strong_components(aux.graph)
    walk = _bad_walk(graph, machine, aux, result)
    if walk is None:
        return GoodnessVerdict(True), aux, result
    return GoodnessVerdict(False, _witness_from_walk(graph, aux, walk)), aux, result


def _bad_walk(graph, machine, aux, result):
    """Shortest bad product walk through the first qualifying vertex, or None."""
    if machine.is_cycling:
        for node in aux.graph.vertices:
            internal = result.internal_arcs[result.component_of[node]]
            if not internal:
                continue
            # the whole component is reachable from node, so the nearest
            # in-component predecessor closes a shortest closed walk
            dist, parent = _bfs(aux.graph, node)
            best = None
            for u, v, _ in internal:
                if v == node and (best is None or dist[u] < dist[best]):
                    best = u
            return _walk_to(parent, node, best) + [node]
        return None
    reach = _component_reachability(result)
    for v in graph.vertices:
        for s, t in machine.bad_rows():
            if result.component_of[(v, t)] in reach[result.component_of[(v, s)]]:
                _, parent = _bfs(aux.graph, (v, s))
                return _walk_to(parent, (v, s), (v, t))
    return None


def _accepting_run(machine, cycle):
    """First state sequence accepting the cycle into a bad pair, or None."""
    traces = cycle.traces()
    bad = set(machine.bad_rows())
    for s0 in machine.states:
        layers = [{s0}]
        for i, j in traces:
            here = set()
            for s in layers[-1]:
                here |= machine.targets(s, i, j)
            layers.append(here)
        final = None
        for t in machine.states:
            if t in layers[-1] and (s0, t) in bad:
                final = t
                break
        if final is None:
            continue
        seq = [final]
        at = final
        for m in reversed(range(len(traces))):
            i, j = traces[m]
            for s in machine.states:
                if s in layers[m] and at in machine.targets(s, i, j):
                    seq.append(s)
                    at = s
                    break
        seq.reverse()
        return tuple(seq)
    return None


def _anchored_cycles(graph, base, length):
    # every cycle of exactly this length based at this vertex, in
    # (edge index, coordinate) step order; unlike enumerate_cycles this
    # does not identify rotations, because a rotation of a bad cycle
    # need not be bad (the state run is read from the base)
    steps = []

    def walk(at, remaining):
        if remaining == 0:
            if at == base:
                yield HyperCycle(graph, base, list(steps))
            return
        for edge_index in graph.incident_edges(at):
            edge = graph.edges[edge_index]
            for nxt in edge:
                steps.append((edge_index, nxt))
                yield from walk(nxt, remaining - 1)
                steps.pop()

    yield from walk(base, int(length))


def brute_force_is_good(graph, machine, max_len):
    """Oracle: enumerate anchored cycles up to max_len and all state runs.

    A shortest bad product walk never revisits a product vertex except at
    its endpoints, so max_len >= |V| * |S| makes a clean sweep conclusive;
    below that threshold a clean sweep raises BudgetError instead of
    claiming goodness.
    """
    _require_same_k(graph, machine)
    semantics = _semantics(machine)
    require_valid(machine, semantics)
    max_len = int(max_len)
    for length in range(max_len + 1):
        if semantics == "cycling" and length == 0:
            continue
        for base in graph.vertices:
            for cycle in _anchored_cycles(graph, base, length):
                run = _accepting_run(machine, cycle)
                if run is not None:
                    witness = BadCycleWitness(cycle, run, (run[0], run[-1]))
                    return GoodnessVerdict(False, witness)
    if max_len >= len(graph.vertices) * len(machine.states):
        return GoodnessVerdict(True)
    raise BudgetError(
        f"cycle length budget {max_len} cannot certify goodness"
        f" (needs {len(graph.vertices) * len(machine.states)})"
    )


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
    verdict, aux, result = _decide(graph, machine)
    if not verdict.good:
        raise NotGoodError("hypergraph is not good for this machine", verdict.witness)
    reach = _component_reachability(result)
    count = len(result.components)
    # components list their members in product-vertex order
    key = [aux.graph.index_of(comp[0]) for comp in result.components]
    succ = [[] for _ in range(count)]
    indeg = [0] * count
    for a, b in result.condensation:
        succ[a].append(b)
        indeg[b] += 1
    heap = [(key[c], c) for c in range(count) if indeg[c] == 0]
    heapq.heapify(heap)
    rank = {}
    while heap:
        _, c = heapq.heappop(heap)
        rank[c] = len(rank)
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, (key[d], d))
    coloring = {}
    for v in graph.vertices:
        groups = {}
        for s in machine.states:
            c = result.component_of[(v, s)]
            groups.setdefault(c, []).append(s)
        comps = sorted(groups, key=lambda c: rank[c])
        classes = [frozenset(groups[c]) for c in comps]
        partial = {
            (a, b)
            for a in range(len(comps))
            for b in range(len(comps))
            if a != b and comps[b] in reach[comps[a]]
        }
        coloring[v] = OrderSystem(classes, partial)
    return coloring
