"""Smoke test of the benchmark itself, at a tiny size.

Run from anywhere:

    python3 perfbench/smoke.py

Checks that every workload prints every end-to-end metric named in
BENCHMARK.json with its unit, that a traced run prints every per-layer
metric, that a corrupted witness state and a corrupted chromatic number
each count as a failed instance, and that the benchmark refuses to run
without the library sources.  Exits 1 on the first failure.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def fail(message):
    sys.exit(f"smoke: FAIL {message}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(args, declared):
    done = bench(*args)
    if done.returncode != 0:
        fail(f"{args} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{args} reported failures: {done.stdout.strip()}")
    for metric in declared:
        shown = result["metrics"].get(metric["name"])
        if shown is None or shown["unit"] != metric["unit"]:
            fail(f"{args} does not print {metric['name']} in {metric['unit']}")
    return result


def failures_after(workload, corrupt):
    """Failed instances of a tiny workload whose first corruptible answer is corrupted."""
    cases = run.build(workload, 1, run.Direct(), tiny=True)
    done = []
    for case in cases:
        decide = case.decide

        def corrupted(call, decide=decide):
            answer = decide(call)
            if done:
                return answer
            changed = corrupt(answer)
            if changed is not None:
                done.append(True)
                return changed
            return answer

        case.decide = corrupted
    ledger = run.Ledger(cases)
    run.decide_round(cases, run.Direct(), ledger, [[] for _ in cases], True)
    if not done:
        fail(f"no {workload} answer could be corrupted")
    return ledger.failed


def changed_witness_state(verdict):
    if verdict.good:
        return None
    witness = verdict.witness
    states = list(witness.states)
    states[1] = f"{states[1]}'"
    return dataclasses.replace(
        verdict, witness=dataclasses.replace(witness, states=tuple(states))
    )


def wrong_chi(answer):
    if not hasattr(answer[0], "number"):
        return None
    result, greedy = answer
    return dataclasses.replace(result, number=result.number + 1), greedy


def refuses_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE,
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = bench("--workload", "goodness", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    return done.returncode != 0 and not done.stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for workload in declared["workloads"]:
        args = ("--workload", workload["name"], "--trace", "0", "--tiny")
        result_of(args, declared["end_to_end"])
    args = ("--workload", declared["workloads"][0]["name"], "--trace", "1", "--tiny")
    result_of(args, declared["per_layer"])
    if failures_after("goodness", changed_witness_state) != 1:
        fail("a changed witness state did not count as one failed instance")
    if failures_after("coloring", wrong_chi) != 1:
        fail("a wrong chromatic number did not count as one failed instance")
    if not refuses_without_sources():
        fail("the benchmark ran without the library sources")
    print("smoke: ok")


if __name__ == "__main__":
    main()
