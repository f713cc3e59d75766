"""Instance sets of the three workloads, each instance with its own check.

Each workload function takes the imported ``badcycle`` module, a
``random.Random`` seeded from the workload seed, the call wrapper and a
``tiny`` flag, and returns a list of ``Case`` objects.  The library only ever sees the
generated instances.  ``Case.decide(call)`` answers one instance through
the public API, routing each library call through ``call(name, fn,
*args)`` so that a traced run can record it as a span.
``Case.review(answer)`` checks the answer without reusing the call it
checks and returns ``(problems, canon, counts)``: a list of failed
checks, the canonical text of the answer for the fingerprint, and the
exact counts the answer contributes.
"""
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sat_pool.json")

# shift(20) builds a product of 70,680 arcs; rounds stay at a few seconds
# so that a run decides every instance several times
GOODNESS_SHIFTS = (12, 16, 20)
# 12-vertex digraphs at edge probability 0.3, nearly all bad
GOODNESS_DIGRAPHS = 150
# (counter machine n, ground set m) for gen_cycling_construction; each
# takes several times longer than any of the digraphs, so the tail falls
# on the least of these eleven seed-independent decisions
GOODNESS_CONSTRUCTIONS = (
    (1, 20), (1, 22), (2, 14), (2, 15), (2, 16), (3, 13), (3, 14), (3, 15)
)

# chi(shift 16) alone takes about 10 s and chi(shift 17) minutes; stopping
# at 15 (about 2 s) lets a run decide every instance several times
COLORING_SHIFTS = tuple(range(2, 16))
COLORING_CONSTRUCTIONS = ((1, 10), (2, 10), (2, 11), (2, 12), (2, 13), (3, 11), (3, 12), (3, 13))
# 6-vertex digraphs at edge probability 0.15: about half are balanced
COLORING_DIGRAPHS = 200
ALPHAS = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))

# 3-SAT formulas per round by effort class (see catalog.py): light ones
# and the 2-machines set the median; hard ones, drawn from the slower half
# of the hard class, set the total.  Each of those takes longer than the
# all-patterns formula and nothing else does, so with ten of them the
# tail lands on that fixed exhaustive search instead of on a seeded draw.
SAT_LIGHT = 300
SAT_HARD = 10
CYCLING_MACHINES = 1500
GENERAL_MACHINES = 400


@dataclass
class Case:
    id: str
    decide: object
    review: object


def _drawn(draw, keep):
    """First draw() that keep() accepts.

    The corpus generators pick a size uniformly up to their maximum; the
    benchmark holds each family at one size so that its median does not
    hop between sizes from seed to seed.
    """
    while True:
        instance = draw()
        if keep(instance):
            return instance


def _digraph(bc, rng, vertices, edge_prob):
    return _drawn(
        lambda: bc.random_digraph(rng, max_vertices=vertices, edge_prob=edge_prob),
        lambda g: len(g.vertices) == vertices,
    )


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- goodness --------------------------------------------------------------


def build_goodness(bc, rng, call, tiny):
    alternating = call(
        "relations.gen_alternating_machine", bc.gen_alternating_machine
    ).machine
    cases = []
    for m in (6, 8) if tiny else GOODNESS_SHIFTS:
        graph = call("generators.gen_shift_digraph", bc.gen_shift_digraph, m)
        cases.append(_goodness_case(bc, f"shift-{m}", graph, alternating, None))
    for n in range(20 if tiny else GOODNESS_DIGRAPHS):
        graph = _digraph(bc, rng, 12, 0.3)
        cases.append(_goodness_case(bc, f"digraph-{n}", graph, alternating, None))
    for n, m in ((1, 6), (2, 8)) if tiny else GOODNESS_CONSTRUCTIONS:
        machine = bc.gen_counter_machine(n)
        graph = call(
            "generators.gen_cycling_construction",
            bc.gen_cycling_construction,
            machine,
            bc.counter_machine_order(n),
            m,
        )
        cases.append(_goodness_case(bc, f"construction-{n}-{m}", graph, machine, True))
    return cases


def _goodness_case(bc, case_id, graph, machine, expect_good):
    """``expect_good`` None means: good exactly when no odd alternating cycle."""

    def decide(call):
        if call.traced:
            aux = call("goodness.build_auxiliary", bc.build_auxiliary, graph, machine)
            scc = call(
                "digraph.strong_components", bc.digraph.strong_components, aux.graph
            )
            call.count("goodness.product_nodes", len(aux.graph.vertices))
            call.count("goodness.product_arcs", len(aux.graph.arcs))
            call.count("digraph.components", len(scc.components))
            del aux, scc
        return call("goodness.is_good", bc.is_good, graph, machine)

    def review(verdict):
        expected = expect_good
        if expected is None:
            expected = bc.detect_odd_alternating_cycle(graph) is None
        problems = []
        if verdict.good != expected:
            problems.append(f"verdict good={verdict.good}, expected {expected}")
        if verdict.good:
            return problems, "good", {}
        check = bc.validate_witness(graph, machine, verdict.witness)
        problems.extend(check.violations)
        steps = verdict.witness.cycle.length
        counts = {"goodness.bad_verdicts": 1, "goodness.witness_steps": steps}
        return problems, _canon(bc.witness_to_obj(verdict.witness)), counts

    return Case(case_id, decide, review)


# -- coloring --------------------------------------------------------------


def build_coloring(bc, rng, call, tiny):
    cases = []
    for m in range(2, 10) if tiny else COLORING_SHIFTS:
        graph = call("generators.gen_shift_digraph", bc.gen_shift_digraph, m)
        # ceil(log2 m), computed without floating point
        cases.append(_chromatic_case(bc, f"shift-{m}", graph, (m - 1).bit_length()))
    for n, m in ((2, 8),) if tiny else COLORING_CONSTRUCTIONS:
        graph = call(
            "generators.gen_cycling_construction",
            bc.gen_cycling_construction,
            bc.gen_counter_machine(n),
            bc.counter_machine_order(n),
            m,
        )
        cases.append(_chromatic_case(bc, f"construction-{n}-{m}", graph, None))
    for n in range(10 if tiny else COLORING_DIGRAPHS):
        graph = _digraph(bc, rng, 6, 0.15)
        for alpha in ALPHAS:
            cases.append(_balance_case(bc, f"balance-{n}-{alpha}", graph, alpha))
    return cases


def _chromatic_case(bc, case_id, graph, expected):
    def decide(call):
        result = call(
            "hypergraph.chromatic_number_exact", bc.chromatic_number_exact, graph
        )
        greedy = call(
            "hypergraph.chromatic_upper_greedy", bc.chromatic_upper_greedy, graph
        )
        return result, greedy

    def review(answer):
        result, greedy = answer
        problems = []
        if expected is not None and result.number != expected:
            problems.append(f"chi {result.number}, expected {expected}")
        if not bc.is_proper_coloring(graph, result.coloring):
            problems.append("chi coloring is not proper")
        if len(set(result.coloring.values())) > result.number:
            problems.append(f"chi coloring uses more than {result.number} colors")
        if greedy < result.number:
            problems.append(f"greedy bound {greedy} is below chi {result.number}")
        coloring = sorted(result.coloring.items())
        canon = _canon([result.number, greedy, coloring])
        return problems, canon, {"hypergraph.chi_sum": result.number}

    return Case(case_id, decide, review)


def _balance_case(bc, case_id, graph, alpha):
    def decide(call):
        verdict = call("balance.is_alpha_balanced", bc.is_alpha_balanced, graph, alpha)
        if not verdict.balanced:
            return verdict, None
        coloring = call("balance.balanced_coloring", bc.balanced_coloring, graph, alpha)
        return verdict, coloring

    def review(answer):
        verdict, coloring = answer
        if not verdict.balanced:
            problems = _unbalance_problems(verdict.witness, alpha)
            return problems, _canon(["unbalanced", verdict.witness]), {}
        ceiling = -(-alpha.numerator // alpha.denominator)
        problems = []
        if not bc.is_proper_coloring(graph, coloring.colors):
            problems.append("balanced coloring is not proper")
        if len(set(coloring.colors.values())) > ceiling + 1:
            problems.append(f"balanced coloring uses more than {ceiling + 1} colors")
        for a, b in graph.edges:
            pa, pb = coloring.potentials[a], coloring.potentials[b]
            if not pa + 1 <= pb <= pa + ceiling:
                problems.append(f"potentials {pa}, {pb} out of bounds on edge {a}->{b}")
        colors = sorted(coloring.colors.items())
        return problems, _canon(["balanced", colors]), {"balance.colorings": 1}

    return Case(case_id, decide, review)


def _unbalance_problems(witness, alpha):
    """A closed traversal with at least alpha backward steps per forward one."""
    if not witness:
        return ["unbalanced verdict without a traversal"]
    ends = []
    for (a, b), direction in witness:
        ends.append((a, b) if direction == "forward" else (b, a))
    problems = []
    for (_, here), (there, _) in zip(ends, ends[1:] + ends[:1]):
        if here != there:
            problems.append(f"traversal breaks between {here} and {there}")
    forward = sum(1 for _, direction in witness if direction == "forward")
    if len(witness) - forward < alpha * forward:
        problems.append("traversal has fewer than alpha backward steps per forward step")
    return problems


# -- orders ----------------------------------------------------------------


def pool_texts(bc, seed, size):
    """DIMACS text of the first ``size`` formulas random_cnf draws from ``seed``."""
    rng = bc.default_rng(seed)
    return [
        bc.cnf_to_dimacs(bc.CnfInstance(*bc.random_cnf(rng, max_vars=6, max_clauses=8)))
        for _ in range(size)
    ]


def pool_digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def load_sat_pool(bc):
    """Pool formulas as DIMACS text and pool indices by effort class."""
    with open(CATALOG) as f:
        catalog = json.load(f)
    texts = pool_texts(bc, catalog["pool_seed"], catalog["pool_size"])
    if pool_digest(texts) != catalog["digest"]:
        raise RuntimeError(
            "random_cnf no longer draws the catalogued pool;"
            " rebuild it with python3 perfbench/catalog.py"
        )
    listed = {i for i, _ in catalog["hard"]} | set(catalog["over"])
    light = [i for i in range(len(texts)) if i not in listed]
    hard = [i for _, i in sorted((_work(nodes, texts[i]), i) for i, nodes in catalog["hard"])]
    return texts, light, hard


def _work(nodes, text):
    """Prefix nodes times variables times clauses.

    Each node's cycle check walks a graph on the clause machine's
    state-position pairs, 2 * variables * 3 * clauses of them, so this
    ranks the hard formulas by search time far better than nodes alone.
    """
    variables, clauses = (int(x) for x in text.split(None, 4)[2:4])
    return nodes * variables * clauses


def build_orders(bc, rng, call, tiny):
    texts, light, hard = load_sat_pool(bc)
    picked = rng.sample(light, 20 if tiny else SAT_LIGHT)
    # one formula from each of SAT_HARD equal strata of search work, so
    # every seed gets the same spread of effort
    slower = hard[len(hard) // 2 :]
    strata = 1 if tiny else SAT_HARD
    for n in range(strata):
        stratum = slower[n * len(slower) // strata : (n + 1) * len(slower) // strata]
        picked.append(rng.choice(stratum))
    cases = [_sat_case(bc, f"sat-{i}", texts[i]) for i in sorted(picked)]
    cases.append(_sat_case(bc, "sat-all-patterns", _all_patterns_dimacs()))
    for n in range(50 if tiny else CYCLING_MACHINES):
        machine = _drawn(lambda: bc.random_cycling_machine(rng, k=2), lambda m: len(m.states) == 3)
        cases.append(_cycling2_case(bc, f"cycling2-{n}", machine))
    for n in range(20 if tiny else GENERAL_MACHINES):
        machine = _drawn(lambda: bc.random_machine(rng, k=2), lambda m: len(m.states) == 3)
        cases.append(_system_case(bc, f"general-{n}", machine))
    return cases


def _all_patterns_dimacs():
    """The eight clauses on x1..x3 with every sign pattern: unsatisfiable."""
    lines = ["p cnf 3 8"]
    for signs in itertools.product((1, -1), repeat=3):
        lines.append(" ".join(str(s * v) for s, v in zip(signs, (1, 2, 3))) + " 0")
    return "\n".join(lines) + "\n"


def _sat_case(bc, case_id, text):
    def decide(call):
        cnf = call("sat.cnf_from_dimacs", bc.cnf_from_dimacs, text)
        machine = call("sat.sat_to_machine", bc.sat_to_machine, cnf)
        order = call("orders.find_compatible_order", bc.find_compatible_order, machine)
        if order is None:
            return cnf, machine, None, None
        assignment = call("sat.order_to_assignment", bc.order_to_assignment, order, cnf)
        return cnf, machine, order, assignment

    def review(answer):
        cnf, machine, order, assignment = answer
        satisfiable = any(
            bc.evaluate_cnf(cnf, dict(zip(cnf.variables, bits)))
            for bits in itertools.product((False, True), repeat=len(cnf.variables))
        )
        problems = []
        if satisfiable != (order is not None):
            problems.append(f"order found: {order is not None}, truth table: {satisfiable}")
        if order is None:
            return problems, "none", {"orders.no_order": 1}
        problems.extend(bc.verify_compatible_order(machine, order).violations)
        if not bc.evaluate_cnf(cnf, assignment):
            problems.append("assignment read off the order falsifies the formula")
        counts = {"orders.orders_found": 1, "sat.satisfiable": 1}
        return problems, _canon([order, sorted(assignment.items())]), counts

    return Case(case_id, decide, review)


def _cycling2_case(bc, case_id, machine):
    def decide(call):
        fast = call(
            "orders.decide_cycling_2machine", bc.decide_cycling_2machine, machine
        )
        order = call("orders.find_compatible_order", bc.find_compatible_order, machine)
        return fast, order

    def review(answer):
        fast, order = answer
        problems = []
        if fast != (order is not None):
            problems.append(f"decide_cycling_2machine says {fast}, search disagrees")
        if order is None:
            return problems, _canon([fast, None]), {"orders.no_order": 1}
        problems.extend(bc.verify_compatible_order(machine, order).violations)
        return problems, _canon([fast, order]), {"orders.orders_found": 1}

    return Case(case_id, decide, review)


def _system_case(bc, case_id, machine):
    def decide(call):
        return call("orders.find_order_system", bc.find_order_system, machine)

    def review(system):
        if system is None:
            return [], "none", {"orders.no_order": 1}
        problems = list(bc.verify_order_system(machine, system).violations)
        return problems, repr(system), {"orders.orders_found": 1}

    return Case(case_id, decide, review)


WORKLOADS = {
    "goodness": build_goodness,
    "coloring": build_coloring,
    "orders": build_orders,
}
