"""The benchmark still runs on the library and gives the answers it pins.

The trace calls ``build_auxiliary``, ``digraph.strong_components`` and the
sizes of their results, which no decider uses; the traced test guards them
until the trace times the deciders' own phases.  The answers of every
workload are pinned by the run's fingerprint, a hash of every instance's
answer.
Each run works on a copy of the benchmark and the sources, so what it
writes stays out of the checkout.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tmp_path, *args):
    """The two JSON lines a run on a copy prints last: report, then metrics."""
    if not (tmp_path / "perfbench").exists():
        skip = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]


def test_traced_goodness_run_prints_every_per_layer_metric(tmp_path):
    _, result = run_bench(
        tmp_path, "--workload", "goodness", "--seed", "1", "--seconds", "1", "--trace", "1",
        "--tiny",
    )
    assert result["correct"] and not result["failed"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shown = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]}.items() <= shown.items()


def test_coloring_answers_keep_their_fingerprints(tmp_path):
    pinned = {
        7: "67504430c09bde92e60f941cd06be64d19eaef5ce27ca3547b5ba360e94a3647",
        43: "d1004d319c53c178c490e421e89ecfd61b7628087664d02ad0072c36fd082014",
    }
    for seed, fingerprint in pinned.items():
        report, result = run_bench(
            tmp_path, "--workload", "coloring", "--seed", str(seed), "--seconds", "1",
            "--trace", "0",
        )
        assert result["correct"] and not result["failed"]
        assert report["fingerprint"] == fingerprint


def test_goodness_and_orders_answers_keep_their_fingerprints(tmp_path):
    pinned = {
        "goodness": "0d2cf1f4c1ca3aedbfeccd1a2f30f10b4ad3795b483b37a0d70833c35cbaf388",
        "orders": "ae1512025e69c99964cba0d9004abc4baa71a3ea122bec0aa060e2dc5175046e",
    }
    for workload, fingerprint in pinned.items():
        report, result = run_bench(
            tmp_path, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
        )
        assert result["correct"] and not result["failed"]
        assert report["fingerprint"] == fingerprint
