"""Command-line frontend for batch experiments and reproduction scripts.

Exit codes: 0 affirmative/success, 1 negative answer, 2 input error,
3 budget exhausted, 4 internal error or a closed stdout.  Every subcommand
is a deterministic function of its input files and flags; ``--format json``
swaps the human report for a machine-readable object on stdout, and ``-o``
writes payload files in the formats documented in :mod:`badcycle.fileio`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from itertools import islice

from .balance import balanced_coloring, is_alpha_balanced
from .checks import verify_compatible_order, verify_order_system
from .corpus import goodness_corpus
from .errors import BudgetError, InputError, PreconditionError, UnbalancedError
from .fileio import (
    _read_text,
    _write_json,
    load_hypergraph,
    load_machine,
    load_order,
    load_order_system,
    load_relation,
    order_system_to_obj,
    order_to_obj,
    relation_to_obj,
    save_hypergraph,
    save_machine,
    save_order,
    save_order_system,
    save_relation,
    witness_to_obj,
)
from .generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_cycling_construction,
    gen_example3_machine,
    gen_explicit_hasse_digraph,
    gen_hasse_machine,
    gen_incomparable_pairs_digraph,
    gen_shift_digraph,
    gen_unbalanced_machine,
    unbalanced_machine_order_system,
)
from .goodness import check_paths_good, is_good
from .hypergraph import chromatic_number_exact, chromatic_upper_greedy
from .oracles import brute_force_is_good, check_two_balanced_equivalence, cross_check_goodness
from .orders import (
    decide_cycling_2machine,
    find_compatible_order,
    iter_compatible_order_systems,
)
from .relations import (
    compose,
    gen_alternating_machine,
    gen_alternating_relation,
    is_pq_compatible,
    loop_lemma_exponent,
    reverse,
    semigroup_closure,
)
from .sat import cnf_from_dimacs, order_to_assignment, sat_to_machine

DEFAULT_SEED = 20251


def _budget(args):
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("BADCYCLE_BUDGET")
    if env is None or env == "":
        return None
    try:
        budget = int(env)
    except ValueError:
        raise InputError(f"BADCYCLE_BUDGET must be an integer, not {env!r}") from None
    if budget < 0:
        raise InputError(f"BADCYCLE_BUDGET must be non-negative, not {budget}")
    return budget


def _check_counts(args):
    for name in ("budget", "trials", "max_len", "n_max"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be non-negative, not {value}")


def _witness_lines(witness):
    cycle = witness.cycle
    lines = [
        f"bad pair: {witness.bad_pair[0]} -> {witness.bad_pair[1]}",
        f"base vertex: {cycle.base}",
    ]
    for n, (index, vertex) in enumerate(cycle.steps, 1):
        i, j = cycle.trace(n)
        lines.append(f"  step {n}: edge {index} to {vertex} (positions {i}->{j})")
    lines.append("states: " + " ".join(witness.states))
    return lines


def _bad_cycle(args, head, payload, witness):
    obj = witness_to_obj(witness)
    if args.output:
        _write_json(obj, args.output)
    return 1, {**payload, "witness": obj}, [head] + _witness_lines(witness)


def _system_lines(system):
    lines = []
    for idx, block in enumerate(system.classes):
        members = " ".join(f"{s}@{i}" for s, i in sorted(block))
        lines.append(f"  class {idx}: {members}")
    shown = " ".join(f"{a}<{b}" for a, b in sorted(system.partial))
    lines.append(f"  partial: {shown}" if shown else "  partial: (none)")
    return lines


def _order_line(order):
    return " ".join(f"{s}@{i}" for s, i in order)


# -- subcommand handlers ----------------------------------------------------


def _cmd_check_good(args):
    machine = load_machine(args.machine)
    graph = load_hypergraph(args.graph)
    verdict = is_good(graph, machine)
    if verdict.good:
        return 0, {"good": True}, ["good"]
    return _bad_cycle(args, "bad", {"good": False}, verdict.witness)


def _cmd_find_order(args):
    machine = load_machine(args.machine)
    order = find_compatible_order(machine, budget=_budget(args))
    if order is None:
        return 1, {"order": None}, ["no compatible order"]
    if args.output:
        save_order(order, args.output)
    return 0, {"order": order_to_obj(order)}, ["compatible order:", "  " + _order_line(order)]


def _cmd_find_order_system(args):
    machine = load_machine(args.machine)
    systems = iter_compatible_order_systems(machine, budget=_budget(args))
    systems = list(systems if args.all else islice(systems, 1))
    lines = [f"{len(systems)} compatible order system(s)"] if args.all else []
    for n, system in enumerate(systems):
        lines.append(f"system {n}:")
        lines.extend(_system_lines(system))
    if args.all:
        payload = {"systems": [order_system_to_obj(s) for s in systems]}
        if args.output:
            _write_json(payload["systems"], args.output)
        return (0 if systems else 1), payload, lines
    if not systems:
        return 1, {"system": None}, ["no compatible order system"]
    if args.output:
        save_order_system(systems[0], args.output)
    return 0, {"system": order_system_to_obj(systems[0])}, lines


def _verification(result, claim):
    payload = {"ok": result.ok, "violations": list(result.violations)}
    if result.ok:
        return 0, payload, [f"{claim} is compatible"]
    return 1, payload, [f"{claim} is not compatible:"] + [f"  {v}" for v in result.violations]


def _cmd_verify_order(args):
    machine = load_machine(args.machine)
    return _verification(verify_compatible_order(machine, load_order(args.order)), "order")


def _cmd_verify_order_system(args):
    machine = load_machine(args.machine)
    system = load_order_system(args.system)
    return _verification(verify_order_system(machine, system), "order system")


def _cmd_decide2(args):
    machine = load_machine(args.machine)
    answer = decide_cycling_2machine(machine)
    if answer:
        return 0, {"orderable": True}, ["a compatible order exists"]
    return 1, {"orderable": False}, ["no compatible order exists"]


def _cmd_paths_good(args):
    machine = load_machine(args.machine)
    hit = check_paths_good(machine, args.n_max)
    if hit is None:
        return 0, {"good_up_to": args.n_max}, [
            f"paths P_1..P_{args.n_max} are all good"
        ]
    n, witness = hit
    return _bad_cycle(args, f"path P_{n} is bad", {"bad_path": n}, witness)


def _cmd_chromatic(args):
    if args.greedy and args.output:
        raise InputError("--greedy gives a bound and no coloring, so it takes no -o")
    graph = load_hypergraph(args.graph)
    if args.greedy:
        upper = chromatic_upper_greedy(graph)
        return 0, {"upper": upper}, [str(upper)]
    result = chromatic_number_exact(graph, budget=_budget(args))
    payload = {"number": result.number}
    if args.output:
        _write_json({"number": result.number, "coloring": result.coloring}, args.output)
    return 0, payload, [str(result.number)]


def _exact_number(value):
    return int(value) if value == int(value) else str(value)


def _traversal(verdict):
    """Report lines and JSON steps of an unbalanced verdict's traversal."""
    lines = [f"  {a}->{b} {direction}" for (a, b), direction in verdict.witness]
    return lines, [[list(edge), direction] for edge, direction in verdict.witness]


def _cmd_color_balanced(args):
    graph = load_hypergraph(args.graph)
    try:
        result = balanced_coloring(graph, args.alpha)
    except UnbalancedError as err:
        lines, steps = _traversal(err.verdict)
        head = f"not {err.verdict.alpha}-balanced:"
        return 1, {"balanced": False, "witness": steps}, [head] + lines
    levels = {v: _exact_number(result.potentials[v]) for v in graph.vertices}
    lines = [f"ceiling: {result.alpha_ceiling}"]
    for v in sorted(graph.vertices):
        lines.append(f"{v}: level {levels[v]} color {result.colors[v]}")
    payload = {
        "alpha": str(result.alpha),
        "ceiling": result.alpha_ceiling,
        "levels": {v: levels[v] for v in sorted(graph.vertices)},
        "colors": {v: result.colors[v] for v in sorted(graph.vertices)},
    }
    if args.output:
        _write_json(payload, args.output)
    return 0, payload, lines


def _cmd_balance_check(args):
    graph = load_hypergraph(args.graph)
    verdict = is_alpha_balanced(graph, args.alpha)
    if verdict.balanced:
        return 0, {"balanced": True, "alpha": str(verdict.alpha)}, ["balanced"]
    lines, steps = _traversal(verdict)
    payload = {"balanced": False, "alpha": str(verdict.alpha), "witness": steps}
    return 1, payload, ["unbalanced:"] + lines


def _require_param(args, name, target):
    value = getattr(args, name)
    if value is None:
        raise InputError(f"gen {target} needs --{name}")
    return value


def _cycling_construction(n, m):
    return gen_cycling_construction(gen_counter_machine(n), counter_machine_order(n), m)


# name -> (required parameters, builder, writer)
_GENERATORS = {
    "hasse-machine": ((), gen_hasse_machine, save_machine),
    "example3-machine": ((), gen_example3_machine, save_machine),
    "counter-machine": (("n",), gen_counter_machine, save_machine),
    "counter-order": (("n",), counter_machine_order, save_order),
    "unbalanced-machine": (("k",), gen_unbalanced_machine, save_machine),
    "unbalanced-system": (("k",), unbalanced_machine_order_system, save_order_system),
    "explicit-hasse": (("n",), gen_explicit_hasse_digraph, save_hypergraph),
    "incomparable-pairs": (("m",), gen_incomparable_pairs_digraph, save_hypergraph),
    "shift": (("m",), gen_shift_digraph, save_hypergraph),
    "alternating-relation": ((), gen_alternating_relation, save_relation),
    "alternating-machine": ((), lambda: gen_alternating_machine().machine, save_machine),
    "cycling-construction": (("n", "m"), _cycling_construction, save_hypergraph),
}


def _cmd_gen(args):
    name = args.name
    params, build, save = _GENERATORS[name]
    save(build(*(_require_param(args, p, name) for p in params)), args.output)
    return 0, {"wrote": str(args.output)}, [f"wrote {name} to {args.output}"]


def _cmd_reduce_3sat(args):
    cnf = cnf_from_dimacs(_read_text(args.input))
    machine = sat_to_machine(cnf)
    lines = [
        f"{len(cnf.clauses)} clauses over {len(cnf.variables)} variables:"
        f" machine with {len(machine.states)} states"
    ]
    payload = {"states": len(machine.states), "k": machine.k}
    if args.output:
        save_machine(machine, args.output)
        lines.append(f"wrote machine to {args.output}")
    if not args.decide:
        return 0, payload, lines
    order = find_compatible_order(machine, budget=_budget(args))
    if order is None:
        payload["satisfiable"] = False
        return 1, payload, lines + ["unsatisfiable: no compatible order"]
    assignment = order_to_assignment(order, cnf)
    payload["satisfiable"] = True
    payload["assignment"] = {v: assignment[v] for v in cnf.variables}
    shown = " ".join(
        f"{v}={'true' if assignment[v] else 'false'}" for v in cnf.variables
    )
    return 0, payload, lines + ["satisfiable: " + shown]


def _relation_line(relation):
    pairs = " ".join(f"({a},{b})" for a, b in relation.pair_list())
    return pairs if pairs else "(empty)"


def _cmd_rel(args):
    op = args.rel_op
    if op in ("compose", "reverse"):
        result = (compose if op == "compose" else reverse)(
            *(load_relation(p) for p in args.files)
        )
        if args.output:
            save_relation(result, args.output)
        return 0, {"relation": relation_to_obj(result)}, [_relation_line(result)]
    if op == "closure":
        closure = semigroup_closure([load_relation(p) for p in args.files])
        lines = [f"closure size: {len(closure)}"]
        lines += [f"  {n}: {_relation_line(r)}" for n, r in enumerate(closure)]
        payload = {"relations": [relation_to_obj(r) for r in closure]}
        if args.output:
            _write_json(payload["relations"], args.output)
        return 0, payload, lines
    if op == "pq-check":
        members = list(dict.fromkeys(load_relation(p) for p in args.files))
        report = is_pq_compatible(members)
        index = {r: n for n, r in enumerate(members)}
        if report.compatible:
            top = max(j for _, _, j in report.witnesses)
            payload = {
                "compatible": True,
                "witnesses": [[index[p], index[q], j] for p, q, j in report.witnesses],
            }
            return 0, payload, ["compatible", f"max exponent j = {top}"]
        payload = {"compatible": False, "violations": list(report.violations)}
        return 1, payload, ["not compatible:"] + [f"  {v}" for v in report.violations]
    result = loop_lemma_exponent(load_relation(args.files[0]), args.k_max)
    payload = {
        "exponent": result.exponent,
        "tail": result.tail,
        "period": result.period,
    }
    if result.exponent is None:
        return 1, payload, [f"no exponent within k_max = {args.k_max}"]
    return 0, payload, [
        f"exponent: {result.exponent}",
        f"power cycle: tail {result.tail} period {result.period}",
    ]


def _cmd_oracle(args):
    mode = args.oracle_mode
    if mode == "good":
        machine = load_machine(args.machine)
        graph = load_hypergraph(args.graph)
        verdict = brute_force_is_good(graph, machine, args.max_len)
        if verdict.good:
            return 0, {"good": True}, [f"good (cycles up to length {args.max_len})"]
        return _bad_cycle(args, "bad", {"good": False}, verdict.witness)
    if mode == "balance2":
        graph = load_hypergraph(args.graph)
        agree = check_two_balanced_equivalence(graph, n_max=args.n_max)
        balanced = is_alpha_balanced(graph, 2).balanced
        payload = {"agree": agree, "balanced": balanced}
        if agree:
            return 0, payload, [f"routes agree (2-balanced: {balanced})"]
        return 1, payload, ["routes disagree"]
    checks = [
        cross_check_goodness(graph, machine)
        for graph, machine in goodness_corpus(args.seed, args.trials)
    ]
    conclusive = sum(check.conclusive for check in checks)
    disagreements = sum(bool(check.problems) for check in checks)
    payload = {
        "trials": args.trials,
        "conclusive": conclusive,
        "disagreements": disagreements,
    }
    lines = [
        f"{args.trials} trials, {conclusive} brute-force conclusive,"
        f" {disagreements} disagreements"
    ]
    return (0 if disagreements == 0 else 1), payload, lines


# -- parser -------------------------------------------------------------------


def _add_common(sub, *, output=False, budget=False):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if output:
        sub.add_argument("-o", "--output", default=None, help="payload file to write")
    if budget:
        sub.add_argument("--budget", type=int, default=None)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="badcycle",
        description="Decision procedures for machine-constrained cycles in"
        " directed hypergraphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check-good", help="decide goodness of a hypergraph")
    sub.add_argument("-m", "--machine", required=True)
    sub.add_argument("-g", "--graph", required=True)
    _add_common(sub, output=True)
    sub.set_defaults(handler=_cmd_check_good)

    sub = subs.add_parser("find-order", help="search for a compatible order")
    sub.add_argument("-m", "--machine", required=True)
    _add_common(sub, output=True, budget=True)
    sub.set_defaults(handler=_cmd_find_order)

    sub = subs.add_parser("find-order-system", help="search for an order system")
    sub.add_argument("-m", "--machine", required=True)
    sub.add_argument("--all", action="store_true", help="enumerate all systems")
    _add_common(sub, output=True, budget=True)
    sub.set_defaults(handler=_cmd_find_order_system)

    sub = subs.add_parser("verify-order", help="check a claimed compatible order")
    sub.add_argument("-m", "--machine", required=True)
    sub.add_argument("--order", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_order)

    sub = subs.add_parser("verify-order-system", help="check a claimed order system")
    sub.add_argument("-m", "--machine", required=True)
    sub.add_argument("--system", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_order_system)

    sub = subs.add_parser("decide2", help="fast order decision for 2-machines")
    sub.add_argument("-m", "--machine", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_decide2)

    sub = subs.add_parser("paths-good", help="scan directed paths for bad cycles")
    sub.add_argument("-m", "--machine", required=True)
    sub.add_argument("--n-max", type=int, required=True)
    _add_common(sub, output=True)
    sub.set_defaults(handler=_cmd_paths_good)

    sub = subs.add_parser("chromatic", help="chromatic number of a hypergraph")
    sub.add_argument("-g", "--graph", required=True)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", default=True)
    group.add_argument("--greedy", action="store_true")
    _add_common(sub, output=True, budget=True)
    sub.set_defaults(handler=_cmd_chromatic)

    sub = subs.add_parser("color-balanced", help="potential coloring of a balanced digraph")
    sub.add_argument("-g", "--graph", required=True)
    sub.add_argument("--alpha", required=True)
    _add_common(sub, output=True)
    sub.set_defaults(handler=_cmd_color_balanced)

    sub = subs.add_parser("balance-check", help="decide alpha-balance of a digraph")
    sub.add_argument("-g", "--graph", required=True)
    sub.add_argument("--alpha", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_balance_check)

    sub = subs.add_parser("gen", help="write a named construction to a file")
    sub.add_argument("name", choices=tuple(_GENERATORS))
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("-o", "--output", required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(handler=_cmd_gen)

    sub = subs.add_parser("reduce-3sat", help="compile DIMACS 3-CNF to a machine")
    sub.add_argument("-i", "--input", required=True)
    sub.add_argument("--decide", action="store_true", help="also decide satisfiability")
    _add_common(sub, output=True, budget=True)
    sub.set_defaults(handler=_cmd_reduce_3sat)

    sub = subs.add_parser("rel", help="relation algebra operations")
    rel_subs = sub.add_subparsers(dest="rel_op", required=True)
    for op, count in (("compose", 2), ("reverse", 1)):
        rsub = rel_subs.add_parser(op)
        rsub.add_argument("files", nargs=count, metavar="FILE")
        _add_common(rsub, output=True)
        rsub.set_defaults(handler=_cmd_rel)
    for op in ("closure", "pq-check"):
        rsub = rel_subs.add_parser(op)
        rsub.add_argument("files", nargs="+", metavar="FILE")
        _add_common(rsub, output=(op == "closure"))
        rsub.set_defaults(handler=_cmd_rel)
    rsub = rel_subs.add_parser("loop-k")
    rsub.add_argument("files", nargs=1, metavar="FILE")
    rsub.add_argument("--k-max", type=int, required=True)
    _add_common(rsub)
    rsub.set_defaults(handler=_cmd_rel)

    sub = subs.add_parser("oracle", help="slow reference implementations")
    oracle_subs = sub.add_subparsers(dest="oracle_mode", required=True)
    osub = oracle_subs.add_parser("good", help="brute-force cycle enumeration")
    osub.add_argument("-m", "--machine", required=True)
    osub.add_argument("-g", "--graph", required=True)
    osub.add_argument("--max-len", type=int, required=True)
    _add_common(osub, output=True)
    osub.set_defaults(handler=_cmd_oracle)
    osub = oracle_subs.add_parser("balance2", help="2-balance vs counter machines")
    osub.add_argument("-g", "--graph", required=True)
    osub.add_argument("--n-max", type=int, default=None)
    _add_common(osub)
    osub.set_defaults(handler=_cmd_oracle)
    osub = oracle_subs.add_parser("corpus", help="seeded goodness cross-check")
    osub.add_argument("--trials", type=int, default=50)
    osub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_common(osub)
    osub.set_defaults(handler=_cmd_oracle)

    return parser


def _emit(args, code, payload, lines):
    payload = {"command": args.command, "exit": code, **payload}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    sys.stdout.flush()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        code, payload, lines = args.handler(args)
    except PreconditionError as err:
        code = 2
        payload = {"error": str(err), "property": err.property}
        lines = [f"error: {err} [{err.property}]"]
    except BudgetError as err:
        code, payload, lines = 3, {"error": str(err)}, [f"budget exhausted: {err}"]
        if err.lower is not None or err.upper is not None:
            payload["lower"] = err.lower
            payload["upper"] = err.upper
            lines.append(f"bounds: lower={err.lower} upper={err.upper}")
    except InputError as err:
        code, payload, lines = 2, {"error": str(err)}, [f"error: {err}"]
    except Exception as err:
        # a crash must not read as exit 1, "negative answer"
        traceback.print_exc()
        message = f"internal error: {type(err).__name__}: {err}"
        code, payload, lines = 4, {"error": message}, [message]
    try:
        _emit(args, code, payload, lines)
    except BrokenPipeError:
        # the reader is gone: send the unflushed rest to the null device so
        # the flush at exit stays quiet, and report the run as not delivered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
