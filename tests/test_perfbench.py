"""The benchmark's traced goodness run still finds every library name it calls.

The trace calls ``build_auxiliary``, ``digraph.strong_components`` and the
sizes of their results, which no decider uses; this guards them until the
trace times the deciders' own phases.  The run works on a copy of the
benchmark and the sources, so the trace file it writes stays out of the
checkout.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_goodness_run_prints_every_per_layer_metric(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goodness", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and not result["failed"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shown = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]}.items() <= shown.items()
