"""Reference checks: the definitions answered directly, and the cross-checks.

Goodness reduces to reachability in the product digraph, and 2-balance
to goodness for the counter machines.  The routines here answer the
definitions without those reductions: the brute-force sweep walks every
anchored cycle, carrying the state runs along it, so the test suite and
``badcycle oracle`` compare the fast deciders against them in one way.
"""
from __future__ import annotations

from dataclasses import dataclass

from .balance import _require_digraph, is_alpha_balanced
from .checks import BadCycleWitness, validate_witness
from .errors import BudgetError, require_int
from .generators import gen_counter_machine
from .goodness import GoodnessVerdict, is_good
from .goodness import _require_same_k, _semantics
from .hypergraph import HyperCycle
from .machine import require_valid

# the most walk steps a brute-force sweep may enumerate
SWEEP_STEPS = 200000


def _accepting_run(machine, cycle):
    """First state sequence accepting the cycle into a bad pair, or None."""
    traces = cycle.traces()
    states = machine.states
    for s0 in states:
        layers = [{s0}]
        for i, j in traces:
            here = set()
            for s in layers[-1]:
                here |= machine.targets(s, i, j)
            layers.append(here)
        final = [t for t in states if t in layers[-1] and (s0, t) in machine.bad]
        if not final:
            continue
        # walk back, taking each layer's first state that steps to the next
        seq = final[:1]
        for m in reversed(range(len(traces))):
            i, j = traces[m]
            back = (s for s in states if s in layers[m] and seq[-1] in machine.targets(s, i, j))
            seq.append(next(back))
        return tuple(reversed(seq))
    return None


def _bad_cycle(graph, machine, base, length):
    # first cycle of this length at base with a bad run, depth first in
    # (edge index, coordinate) order; rotations are not identified, as the
    # run is read from the base.  A prefix carries the (start, current)
    # state pairs of its runs; a step that leaves none is not taken.
    steps = []

    def walk(at, runs, remaining):
        if remaining == 0:
            return at == base and not machine.bad.isdisjoint(runs)
        for edge_index in graph.incident_edges(at):
            edge = graph.edges[edge_index]
            i = edge.index(at) + 1
            for j, nxt in enumerate(edge, 1):
                after = {(s0, t) for s0, s in runs for t in machine.targets(s, i, j)}
                steps.append((edge_index, nxt))
                if after and walk(nxt, after, remaining - 1):
                    return True
                steps.pop()
        return False

    if walk(base, {(s, s) for s in machine.states}, length):
        return HyperCycle(graph, base, steps)
    return None


def brute_force_is_good(graph, machine, max_len):
    """Oracle: search the anchored cycles up to max_len for a bad state run.

    Cycles go by length (from 1 for a cycling machine), base and step
    order; only the first bad one is built, and its state run replayed.  A
    shortest bad product walk never revisits a product vertex except at
    its endpoints, so max_len >= |V| * |S| makes a clean sweep conclusive;
    below that a clean sweep raises BudgetError instead of claiming goodness.
    """
    _require_same_k(graph, machine)
    semantics = _semantics(machine)
    require_valid(machine, semantics)
    max_len = require_int(max_len, "max_len")
    for length in range(1 if semantics == "cycling" else 0, max_len + 1):
        for base in graph.vertices:
            cycle = _bad_cycle(graph, machine, base, length)
            if cycle is not None:
                run = _accepting_run(machine, cycle)
                return GoodnessVerdict(False, BadCycleWitness(cycle, run, (run[0], run[-1])))
    if max_len >= len(graph.vertices) * len(machine.states):
        return GoodnessVerdict(True)
    raise BudgetError(
        f"cycle length budget {max_len} cannot certify goodness"
        f" (needs {len(graph.vertices) * len(machine.states)})"
    )


def sweep_cap(graph, want):
    """Deepest brute-force sweep, at most ``want``, that stays enumerable.

    A sweep to length L walks at most |V| * b^L steps, where b is the
    most edge coordinates at one vertex; the cap is the largest such L
    within SWEEP_STEPS.
    """
    if not graph.vertices:
        return want
    branch = max(1, graph.k * max(map(len, graph.incidence)))
    cap = 0
    while cap < want and len(graph.vertices) * branch ** (cap + 1) <= SWEEP_STEPS:
        cap += 1
    return cap


@dataclass(frozen=True)
class GoodnessCheck:
    """``is_good`` on one instance, checked against the oracles.

    ``conclusive`` says whether a brute-force sweep within the cap could
    settle the verdict; ``problems`` lists every disagreement found.
    """

    verdict: GoodnessVerdict
    conclusive: bool
    problems: tuple


def cross_check_goodness(graph, machine):
    """Decide goodness and check the verdict against the definitions.

    A bad verdict's witness must replay; when a sweep up to the witness
    length fits the cap, brute force must find a bad cycle too, and its
    witness must replay.  A good verdict must survive a sweep to |V| * |S|
    when that fits the cap; otherwise the deepest sweep that fits must
    raise BudgetError rather than claim goodness.
    """
    verdict = is_good(graph, machine)
    if not verdict.good:
        problems = validate_witness(graph, machine, verdict.witness).violations
        length = len(verdict.witness.states) - 1
        if problems or sweep_cap(graph, length) < length:
            return GoodnessCheck(verdict, False, problems)
        brute = brute_force_is_good(graph, machine, length)
        if brute.good:
            problems = (f"brute force finds no bad cycle up to length {length}",)
        else:
            problems = validate_witness(graph, machine, brute.witness).violations
        return GoodnessCheck(verdict, True, problems)
    limit = len(graph.vertices) * len(machine.states)
    cap = sweep_cap(graph, limit)
    try:
        brute = brute_force_is_good(graph, machine, cap)
    except BudgetError:
        brute = "BudgetError"
    # a clean sweep certifies goodness at the limit and raises below it
    expected = GoodnessVerdict(True) if cap >= limit else "BudgetError"
    problems = () if brute == expected else (f"sweep to {cap} of {limit} gives {brute}",)
    return GoodnessCheck(verdict, cap >= limit, problems)


def check_two_balanced_equivalence(graph, n_max=None):
    """Compare 2-balance with goodness for every counter machine up to n_max.

    Returns True when the two judgements agree on this graph.  The default
    budget n_max = 2|E|+2 is heuristic; the counter machines only ever
    refute goodness for some finite n, so a disagreement at any n_max is
    always worth reporting.
    """
    _require_digraph(graph)
    if n_max is None:
        n_max = 2 * len(graph.edges) + 2
    n_max = require_int(n_max, "n_max")
    balanced = is_alpha_balanced(graph, 2).balanced
    good_all = all(is_good(graph, gen_counter_machine(n)).good for n in range(1, n_max + 1))
    return balanced == good_all
