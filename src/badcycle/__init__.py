"""Chromatic numbers of directed hypergraphs whose cycles a machine polices.

The package decides whether a hypergraph has a "bad" cycle for a given
machine, searches for the state-position orders that make a cycling
machine harmless, colors balanced digraphs through walk potentials,
compiles 3-SAT into the order-existence question, and carries the
relation algebra behind a machine whose bad cycles defy every such
order-based explanation.
"""

import importlib as _importlib

__version__ = "0.1.0"

# every public name, once, under the module that defines it; the modules
# load eagerly in this order and each name is bound here and in __all__
_EXPORTS = {
    "balance": (
        "BalanceVerdict", "BalancedColoring", "balanced_coloring", "is_alpha_balanced",
    ),
    "checks": (
        "BadCycleWitness", "CheckResult", "OrderSystem",
        "compatible_order_to_order_system", "is_proper_coloring", "validate_witness",
        "verify_compatible_order", "verify_order_system",
    ),
    "corpus": (
        "default_rng", "random_cnf", "random_cycling_machine", "random_digraph",
        "random_hypergraph", "random_machine",
    ),
    "errors": (
        "BadCycleError", "BudgetError", "InputError", "NotGoodError",
        "PreconditionError", "UnbalancedError",
    ),
    "fileio": (
        "load_hypergraph", "load_machine", "load_order", "load_order_system",
        "load_relation", "save_hypergraph", "save_machine", "save_order",
        "save_order_system", "save_relation", "witness_from_obj", "witness_to_obj",
    ),
    "generators": (
        "counter_machine_order", "gen_counter_machine", "gen_cycling_construction",
        "gen_example3_machine", "gen_explicit_hasse_digraph", "gen_hasse_machine",
        "gen_incomparable_pairs_digraph", "gen_shift_digraph", "gen_unbalanced_machine",
        "unbalanced_machine_order_system",
    ),
    "goodness": (
        "AuxiliaryDigraph", "GoodnessVerdict", "build_auxiliary", "check_paths_good",
        "induced_order_system_coloring", "is_good",
    ),
    "hypergraph": (
        "ChromaticResult", "DirectedHypergraph", "HyperCycle", "chromatic_number_exact",
        "chromatic_upper_greedy", "path_digraph", "weak_components",
    ),
    "machine": ("Machine", "ValidationReport", "require_valid", "step", "validate_machine"),
    "oracles": ("brute_force_is_good", "check_two_balanced_equivalence"),
    "orders": (
        "count_order_systems", "decide_cycling_2machine", "find_compatible_order",
        "find_order_system", "iter_compatible_order_systems", "iter_order_systems",
    ),
    "relations": (
        "AlternatingCycleWitness", "LoopLemmaResult", "PqReport", "Relation",
        "RelationMachine", "build_relation_machine", "compose",
        "detect_odd_alternating_cycle", "diagonal_relation", "full_relation",
        "gen_alternating_machine", "gen_alternating_relation", "is_pq_compatible",
        "loop_lemma_exponent", "non_alternating_family", "relation_power", "reverse",
        "semigroup_closure",
    ),
    "sat": (
        "CnfInstance", "assignment_to_order", "cnf_from_dimacs", "cnf_to_dimacs",
        "evaluate_cnf", "order_to_assignment", "sat_to_machine",
    ),
}

__all__ = []
for _module, _names in _EXPORTS.items():
    _source = _importlib.import_module(f".{_module}", __name__)
    globals().update((_name, getattr(_source, _name)) for _name in _names)
    __all__ += _names
del _module, _names, _source
