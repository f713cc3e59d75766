"""Benchmark of the badcycle library on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload goodness --seed 1 --seconds 25 --trace 0

Workloads are ``goodness``, ``coloring`` and ``orders`` (see
perfbench/README.md).  Each round sets the workload up afresh (import
plus instance generation) and decides every instance of the set once;
rounds run while the next one still fits in ``--seconds``, and at least
one always runs.  Rounds alternate over the CPUs the process may use,
and an instance's time is its least over the rounds.
Every answer is checked after its decision, outside the timed region.
One process, one thread.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; the line before it reports the failed
share, the tail percentile with its sample count, and the answer
fingerprint.  With ``--trace 1`` the run instead decides one round of
every workload without tracing and one with a span around each library
call, prints the per-layer metrics and writes the spans, with self
times, to perfbench/out/.  ``--tiny`` shrinks every instance set for the
smoke test.
"""
import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

from workloads import WORKLOADS  # noqa: E402

TAIL_BEYOND = 10


class Direct:
    """Untraced call wrapper: calls straight through."""

    traced = False

    def __call__(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    """Records a span per call: name, start, end, parent span, instance id."""

    traced = True

    def __init__(self):
        self.spans = []
        self.open = []
        self.counts = Counter()
        self.instance = None

    def __call__(self, name, fn, *args):
        parent = self.open[-1] if self.open else None
        span = [name, time.perf_counter() - STARTED, None, parent, self.instance]
        self.spans.append(span)
        self.open.append(len(self.spans) - 1)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter() - STARTED
            self.open.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def totals(self):
        """Seconds per span name, summed over its spans."""
        seconds = Counter()
        for name, start, end, _, _ in self.spans:
            seconds[name] += end - start
        return seconds

    def records(self):
        """Spans as dicts, each with its self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "self": end - start - child[n],
                "parent": parent,
                "instance": instance,
            }
            for n, (name, start, end, parent, instance) in enumerate(self.spans)
        ]


def import_library():
    """Import badcycle afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "badcycle" or m.startswith("badcycle.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("badcycle")


def build(workload, seed, call, tiny):
    bc = import_library()
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](bc, rng, call, tiny)


class Ledger:
    """Per-instance outcomes: failures, canonical answers and counts."""

    def __init__(self, cases):
        self.ids = [case.id for case in cases]
        self.problems = [[] for _ in cases]
        self.canon = [None] * len(cases)
        self.counts = Counter()

    def record(self, n, case, answer, first):
        if isinstance(answer, Exception):
            self.problems[n].append(f"raised {type(answer).__name__}: {answer}")
            return
        problems, canon, counts = case.review(answer)
        self.problems[n].extend(problems)
        if first:
            self.canon[n] = canon
            self.counts.update(counts)
        elif canon != self.canon[n]:
            self.problems[n].append("answer differs from the first round")

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)

    def fingerprint(self):
        h = hashlib.sha256()
        for case_id, canon in zip(self.ids, self.canon):
            h.update(f"{case_id} {canon}\n".encode())
        return h.hexdigest()

    def first_problems(self, limit=5):
        return [f"{i}: {p[0]}" for i, p in zip(self.ids, self.problems) if p][:limit]


def decide_round(cases, call, ledger, times, first):
    """Decide every case once; only the library calls sit inside the timer.

    The instance set and the ledger are frozen out of the cycle collector
    for the round, so a collection inside a decision scans what the
    library allocated, not the thousands of objects the benchmark holds;
    otherwise the same decision pays a full collection in every round.
    """
    began = time.perf_counter()
    gc.collect()
    gc.freeze()
    for n, case in enumerate(cases):
        call.instance = case.id
        start = time.perf_counter()
        try:
            answer = call("decision", case.decide, call)
        except Exception as exc:  # a raising decision is a failed instance
            answer = exc
        times[n].append(time.perf_counter() - start)
        ledger.record(n, case, answer, first)
    gc.unfreeze()
    return time.perf_counter() - began


def tail(samples):
    """Value with TAIL_BEYOND samples beyond it, its percentile, sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seed, seconds, tiny):
    """Set up and decide the instance set round after round.

    Every round starts with a fresh set-up (import and generation), so that
    setup_s is a median over set-ups spread across the run, like the
    decision times.
    """
    setups = []
    times = None
    cpus = sorted(os.sched_getaffinity(0))
    began = time.perf_counter()
    while True:
        # alternate rounds over the CPUs the process may use: on a shared
        # host one CPU can be slowed for seconds while another is not,
        # and each instance keeps its least time over the rounds
        os.sched_setaffinity(0, {cpus[len(setups) % len(cpus)]})
        round_began = time.perf_counter()
        cases = build(workload, seed, Direct(), tiny)
        setups.append(time.perf_counter() - round_began)
        if times is None:
            ledger = Ledger(cases)
            times = [[] for _ in cases]
        decide_round(cases, Direct(), ledger, times, len(setups) == 1)
        last = time.perf_counter() - round_began
        if time.perf_counter() - began + last > seconds:
            break
    # interference from other processes only ever adds time, so an
    # instance's least time over the rounds is its steadiest estimate
    per_case = [min(t) for t in times]
    tail_s, percentile, samples = tail(per_case)
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(setups),
        "instances": len(cases),
        "failed_share": ledger.failed / len(cases),
        "decision_tail_percentile": percentile,
        "decision_samples": samples,
        "fingerprint": ledger.fingerprint(),
        "counts": dict(sorted(ledger.counts.items())),
        "problems": ledger.first_problems(),
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(per_case), "s"),
        "decision_p50_ms": (statistics.median(per_case) * 1e3, "ms"),
        "decision_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return report, len(cases), ledger.failed, metrics


PER_LAYER_SECONDS = (
    "goodness.build_auxiliary",
    "goodness.is_good",
    "digraph.strong_components",
    "relations.gen_alternating_machine",
    "generators.gen_shift_digraph",
    "generators.gen_cycling_construction",
    "hypergraph.chromatic_number_exact",
    "hypergraph.chromatic_upper_greedy",
    "balance.is_alpha_balanced",
    "balance.balanced_coloring",
    "orders.find_compatible_order",
    "orders.decide_cycling_2machine",
    "orders.find_order_system",
    "sat.cnf_from_dimacs",
    "sat.sat_to_machine",
    "sat.order_to_assignment",
)
PER_LAYER_COUNTS = (
    "goodness.product_nodes",
    "goodness.product_arcs",
    "goodness.bad_verdicts",
    "goodness.witness_steps",
    "digraph.components",
    "hypergraph.chi_sum",
    "balance.colorings",
    "orders.orders_found",
    "orders.no_order",
    "sat.satisfiable",
)


def run_traced(seed, tiny):
    """One untraced and one traced round of every workload."""
    tracer = Tracer()
    counts = Counter()
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    for workload in WORKLOADS:
        cases = build(workload, seed, Direct(), tiny)
        untraced_s += decide_round(
            cases, Direct(), Ledger(cases), [[] for _ in cases], True
        )
        tracer.instance = None
        cases = build(workload, seed, tracer, tiny)
        ledger = Ledger(cases)
        traced_s += decide_round(cases, tracer, ledger, [[] for _ in cases], True)
        counts.update(ledger.counts)
        attempted += len(cases)
        failed += ledger.failed
    counts.update(tracer.counts)
    totals = tracer.totals()
    metrics = {f"{name}_s": (totals[name], "s") for name in PER_LAYER_SECONDS}
    metrics.update({name: (counts[name], "count") for name in PER_LAYER_COUNTS})
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-seed{seed}.json")
    with open(path, "w") as f:
        json.dump(tracer.records(), f)
    report = {
        "seed": seed,
        "failed_share": failed / attempted,
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(path, ROOT),
        "overhead_s": traced_s - untraced_s,
    }
    return report, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "badcycle", "__init__.py")):
        sys.exit(f"no badcycle sources under {os.path.join(ROOT, 'src')}")
    if args.trace:
        report, attempted, failed, metrics = run_traced(args.seed, args.tiny)
    else:
        report, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds, args.tiny
        )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
