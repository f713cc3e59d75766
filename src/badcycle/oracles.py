"""Reference checks: the definitions answered directly, and the cross-checks.

Goodness reduces to reachability in the product digraph, and 2-balance
to goodness for the counter machines.  The routines here answer the
definitions without those reductions, so the test suite and ``badcycle
oracle`` compare the fast deciders against them in one way.
"""
from __future__ import annotations

from dataclasses import dataclass

from .balance import _require_digraph, is_alpha_balanced
from .errors import BudgetError
from .generators import gen_counter_machine
from .goodness import BadCycleWitness, GoodnessVerdict, is_good, validate_witness
from .goodness import _require_same_k, _semantics
from .hypergraph import HyperCycle
from .machine import require_valid

# the most walk steps a brute-force sweep may enumerate
SWEEP_STEPS = 200000


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


def sweep_cap(graph, want):
    """Deepest brute-force sweep, at most ``want``, that stays enumerable.

    A sweep to length L walks at most |V| * b^L steps, where b is the
    most edge coordinates at one vertex; the cap is the largest such L
    within SWEEP_STEPS.
    """
    if not graph.vertices:
        return want
    branch = max(sum(graph.k for e in graph.edges if v in e) for v in graph.vertices)
    branch = max(branch, 1)
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
    n_max = int(n_max)
    balanced = is_alpha_balanced(graph, 2).balanced
    good_all = True
    for n in range(1, n_max + 1):
        if not is_good(graph, gen_counter_machine(n)).good:
            good_all = False
            break
    return balanced == good_all
