"""Rebuild perfbench/sat_pool.json, the effort classes of the 3-SAT pool.

The orders workload samples its formulas from a fixed pool: the first
POOL_SIZE formulas that ``random_cnf(max_vars=6, max_clauses=8)`` draws
from ``default_rng(POOL_SEED)``.  Search effort on that family is heavy
tailed (most formulas need about ten prefix nodes, about one in a
hundred needs a thousand, a few need tens of thousands), so a plain
seeded sample would let one or two rare formulas decide a run's total.
This script sorts every pool formula into an effort class by the
prefix-node budget of ``find_compatible_order`` it completes within, and
finds the exact node count of each hard formula by bisecting the budget,
so that each seed draws the same number of formulas from every class
and its hard formulas from fixed effort strata.

Run from the repository root (takes a few minutes):

    python3 perfbench/catalog.py
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import badcycle  # noqa: E402
from workloads import CATALOG, pool_digest, pool_texts  # noqa: E402

POOL_SEED = 1806
POOL_SIZE = 6000
# largest prefix-node count of each effort class; formulas beyond HARD
# go to "over" and are never used, because one of them takes seconds to
# minutes, longer than a whole round
LIGHT = 100
HARD = 3000


def completes(machine, budget):
    try:
        badcycle.find_compatible_order(machine, budget=budget)
    except badcycle.BudgetError:
        return False
    return True


def effort(text):
    """Effort class, and the exact prefix-node count for a hard formula."""
    machine = badcycle.sat_to_machine(badcycle.cnf_from_dimacs(text))
    if completes(machine, LIGHT):
        return "light", None
    if completes(machine, HARD):
        low, high = LIGHT, HARD  # fails at low, completes at high
        while high - low > 1:
            mid = (low + high) // 2
            if completes(machine, mid):
                high = mid
            else:
                low = mid
        return "hard", high
    return "over", None


def main():
    texts = pool_texts(badcycle, POOL_SEED, POOL_SIZE)
    classes = {"hard": [], "over": []}
    for index, text in enumerate(texts):
        name, nodes = effort(text)
        if name == "hard":
            classes["hard"].append([index, nodes])
        elif name == "over":
            classes["over"].append(index)
    catalog = {
        "pool_seed": POOL_SEED,
        "pool_size": POOL_SIZE,
        "digest": pool_digest(texts),
        "limits": {"light": LIGHT, "hard": HARD},
        # light is every index not listed here; hard lists [index, nodes]
        **classes,
    }
    with open(CATALOG, "w") as f:
        json.dump(catalog, f)
        f.write("\n")


if __name__ == "__main__":
    main()
