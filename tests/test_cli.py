"""End-to-end tests for the command-line frontend.

Each test drives badcycle.cli.main in process and checks the exit code,
the report text, and any payload files against the library routines.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import badcycle
from badcycle import cli
from badcycle.checks import validate_witness
from badcycle.cli import main
from badcycle.fileio import (
    load_hypergraph,
    load_machine,
    load_order,
    load_order_system,
    load_relation,
    save_hypergraph,
    save_machine,
    save_order,
    save_relation,
    witness_from_obj,
)
from badcycle.generators import (
    counter_machine_order,
    gen_counter_machine,
    gen_example3_machine,
    gen_explicit_hasse_digraph,
    gen_hasse_machine,
    gen_shift_digraph,
    gen_unbalanced_machine,
)
from badcycle.hypergraph import DirectedHypergraph
from badcycle.machine import Machine
from badcycle.relations import (
    Relation,
    compose,
    gen_alternating_machine,
    gen_alternating_relation,
    reverse,
)
from badcycle.sat import cnf_from_dimacs, cnf_to_dimacs, CnfInstance
from test_generators import reference_cycling_construction, reference_shift_digraph


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def defect_five_cycle():
    return DirectedHypergraph(
        2,
        ["u0", "u1", "u2", "u3", "u4"],
        [("u0", "u1"), ("u2", "u1"), ("u2", "u3"), ("u4", "u3"), ("u4", "u0")],
    )


def contradictory_machine():
    # wants (s,1) < (s,2) and (s,2) < (s,1) at once
    rows = [("s", 1, 2, ("s",)), ("s", 2, 1, ("s",))]
    return Machine(2, ["s"], rows, bad=[("s", "s")])


def test_check_good_both_verdicts(tmp_path, capsys):
    machine = tmp_path / "hasse.machine"
    graph = tmp_path / "h3.graph"
    save_machine(gen_hasse_machine(), machine)
    save_hypergraph(gen_explicit_hasse_digraph(3), graph)
    code, out = run(capsys, "check-good", "-m", str(machine), "-g", str(graph))
    assert code == 0
    assert out.strip() == "good"

    alt = tmp_path / "alt.machine"
    bad = tmp_path / "bad.graph"
    wit = tmp_path / "wit.json"
    save_machine(gen_alternating_machine().machine, alt)
    save_hypergraph(defect_five_cycle(), bad)
    code, out = run(
        capsys, "check-good", "-m", str(alt), "-g", str(bad), "-o", str(wit)
    )
    assert code == 1
    assert out.startswith("bad")
    assert "bad pair:" in out
    rebuilt = witness_from_obj(
        json.loads(wit.read_text()), defect_five_cycle()
    )
    check = validate_witness(
        defect_five_cycle(), gen_alternating_machine().machine, rebuilt
    )
    assert check.ok, check.violations


def test_find_order_and_verify(tmp_path, capsys):
    machine = tmp_path / "c2.machine"
    save_machine(gen_counter_machine(2), machine)
    found = tmp_path / "found.order"
    code, out = run(capsys, "find-order", "-m", str(machine), "-o", str(found))
    assert code == 0
    assert load_order(found) == counter_machine_order(2)

    code, out = run(
        capsys, "verify-order", "-m", str(machine), "--order", str(found)
    )
    assert code == 0
    assert "compatible" in out

    wrong = tmp_path / "wrong.order"
    order = list(counter_machine_order(2))
    order[0], order[-1] = order[-1], order[0]
    save_order(tuple(order), wrong)
    code, out = run(
        capsys, "verify-order", "-m", str(machine), "--order", str(wrong)
    )
    assert code == 1
    assert "not compatible" in out


def test_find_order_negative_and_decide2(tmp_path, capsys):
    machine = tmp_path / "no.machine"
    save_machine(contradictory_machine(), machine)
    code, out = run(capsys, "find-order", "-m", str(machine))
    assert code == 1
    assert "no compatible order" in out
    code, out = run(capsys, "decide2", "-m", str(machine))
    assert code == 1

    counter = tmp_path / "c1.machine"
    save_machine(gen_counter_machine(1), counter)
    code, out = run(capsys, "decide2", "-m", str(counter))
    assert code == 0


def test_find_order_system_all(tmp_path, capsys):
    machine = tmp_path / "ex3.machine"
    save_machine(gen_example3_machine(), machine)
    out_file = tmp_path / "all.json"
    code, out = run(
        capsys,
        "find-order-system",
        "-m",
        str(machine),
        "--all",
        "-o",
        str(out_file),
    )
    assert code == 0
    assert out.splitlines()[0] == "1 compatible order system(s)"
    assert sum(line.startswith("system ") for line in out.splitlines()) == 1
    assert len(json.loads(out_file.read_text())) == 1

    single = tmp_path / "one.system"
    code, out = run(
        capsys, "find-order-system", "-m", str(machine), "-o", str(single)
    )
    assert code == 0
    system = load_order_system(single)
    code, out = run(
        capsys, "verify-order-system", "-m", str(machine), "--system", str(single)
    )
    assert code == 0
    assert len(system.classes) == 3


def test_find_order_system_all_under_a_budget(tmp_path, capsys):
    # --all pays one unit per listed system beyond the search itself, and
    # a budget exit writes no payload file
    machine = tmp_path / "unbalanced.machine"
    listing = tmp_path / "all.json"
    code, _ = run(capsys, "gen", "unbalanced-machine", "--k", "1", "-o", str(machine))
    assert code == 0
    argv = ["find-order-system", "-m", str(machine), "--all", "-o", str(listing)]
    code, out = run(capsys, *argv, "--budget", "50")
    assert code == 3
    assert "budget exhausted" in out
    assert not listing.exists()
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "45 compatible order system(s)"
    assert len(json.loads(listing.read_text())) == 45

    forced = tmp_path / "forced.machine"
    save_machine(
        Machine(2, ["a", "b"], {("a", 1, 1): {"b"}, ("b", 1, 1): {"a"}}, bad=[("a", "b")]),
        forced,
    )
    code, out = run(capsys, "find-order-system", "-m", str(forced), "--all", "--format", "json")
    assert code == 1
    assert json.loads(out)["systems"] == []


def test_unbalanced_machine_system_chain(tmp_path, capsys):
    # the README construction end to end: generate, search, verify
    machine = tmp_path / "unbalanced.machine"
    system = tmp_path / "found.system"
    code, _ = run(capsys, "gen", "unbalanced-machine", "--k", "1", "-o", str(machine))
    assert code == 0
    code, out = run(
        capsys, "find-order-system", "-m", str(machine), "-o", str(system)
    )
    assert code == 0
    assert out.startswith("system 0:")
    code, out = run(
        capsys, "verify-order-system", "-m", str(machine), "--system", str(system)
    )
    assert code == 0
    assert out == "order system is compatible\n"


def test_paths_good(tmp_path, capsys):
    counter = tmp_path / "c2.machine"
    save_machine(gen_counter_machine(2), counter)
    code, out = run(capsys, "paths-good", "-m", str(counter), "--n-max", "5")
    assert code == 0
    assert "P_1..P_5" in out

    bad = tmp_path / "no.machine"
    save_machine(contradictory_machine(), bad)
    code, out = run(capsys, "paths-good", "-m", str(bad), "--n-max", "3")
    assert code == 1
    assert "path P_1 is bad" in out


def test_chromatic_exact_greedy_budget(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "s6.graph"
    save_hypergraph(gen_shift_digraph(6), graph)
    code, out = run(capsys, "chromatic", "-g", str(graph))
    assert (code, out.strip()) == (0, "3")

    code, out = run(capsys, "chromatic", "-g", str(graph), "--greedy")
    assert code == 0
    assert int(out.strip()) >= 3

    # the greedy bound has no coloring to write
    written = tmp_path / "greedy.json"
    for form in ("text", "json"):
        code, out = run(
            capsys, "chromatic", "-g", str(graph), "--greedy", "-o", str(written),
            "--format", form,
        )
        assert code == 2
        assert "--greedy" in out and "-o" in out
        assert not written.exists()

    code, out = run(
        capsys, "chromatic", "-g", str(graph), "--budget", "2", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["exit"] == 3
    assert payload["lower"] <= 3 <= payload["upper"]

    monkeypatch.setenv("BADCYCLE_BUDGET", "2")
    code, out = run(capsys, "chromatic", "-g", str(graph))
    assert code == 3
    monkeypatch.setenv("BADCYCLE_BUDGET", "not a number")
    code, out = run(capsys, "chromatic", "-g", str(graph))
    assert code == 2
    assert "BADCYCLE_BUDGET" in out


def test_color_balanced_and_check(tmp_path, capsys):
    graph = tmp_path / "h2.graph"
    save_hypergraph(gen_explicit_hasse_digraph(2), graph)
    code, out = run(
        capsys, "color-balanced", "-g", str(graph), "--alpha", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ceiling"] == 2
    assert sorted(payload["levels"]) == sorted(payload["colors"])
    code, out = run(capsys, "balance-check", "-g", str(graph), "--alpha", "2")
    assert (code, out.strip()) == (0, "balanced")

    two_cycle = tmp_path / "cyc.graph"
    save_hypergraph(
        DirectedHypergraph(2, "ab", [("a", "b"), ("b", "a")]), two_cycle
    )
    code, out = run(capsys, "balance-check", "-g", str(two_cycle), "--alpha", "2")
    assert code == 1
    assert "unbalanced" in out
    code, out = run(capsys, "color-balanced", "-g", str(two_cycle), "--alpha", "2")
    assert code == 1
    assert "not 2-balanced" in out


GEN_CASES = [
    (("hasse-machine",), load_machine),
    (("example3-machine",), load_machine),
    (("counter-machine", "--n", "2"), load_machine),
    (("counter-order", "--n", "2"), load_order),
    (("unbalanced-machine", "--k", "2"), load_machine),
    (("unbalanced-system", "--k", "2"), load_order_system),
    (("explicit-hasse", "--n", "3"), load_hypergraph),
    (("incomparable-pairs", "--m", "4"), load_hypergraph),
    (("shift", "--m", "6"), load_hypergraph),
    (("alternating-relation",), load_relation),
    (("alternating-machine",), load_machine),
    (("cycling-construction", "--n", "2", "--m", "6"), load_hypergraph),
]


@pytest.mark.parametrize("argv,loader", GEN_CASES, ids=[c[0][0] for c in GEN_CASES])
def test_gen_writes_loadable_files(tmp_path, capsys, argv, loader):
    target = tmp_path / "out.json"
    code, out = run(capsys, "gen", *argv, "-o", str(target))
    assert code == 0
    assert out.startswith(f"wrote {argv[0]} to ")
    loader(target)


def test_gen_missing_parameter(tmp_path, capsys):
    code, out = run(capsys, "gen", "shift", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "needs --m" in out


@pytest.mark.parametrize(
    "argv, reference",
    [
        (
            ("cycling-construction", "--n", "2", "--m", "8"),
            lambda: reference_cycling_construction(
                gen_counter_machine(2), counter_machine_order(2), 8
            ),
        ),
        (("shift", "--m", "9"), lambda: reference_shift_digraph(9)),
    ],
    ids=["cycling-construction", "shift"],
)
def test_gen_graph_files_match_reference_bytes(tmp_path, capsys, argv, reference):
    target = tmp_path / "out.json"
    expected = tmp_path / "reference.json"
    code, _ = run(capsys, "gen", *argv, "-o", str(target))
    assert code == 0
    save_hypergraph(reference(), expected)
    assert target.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "2", "--m", "5"), "error: need m >= 6 to fit an edge"),
        (("--n", "-1", "--m", "8"), "error: the counter needs n >= 0"),
    ],
)
def test_gen_cycling_construction_rejects_out_of_range(tmp_path, capsys, argv, message):
    target = tmp_path / "out.json"
    code, out = run(capsys, "gen", "cycling-construction", *argv, "-o", str(target))
    assert code == 2
    assert out.strip() == message
    assert not target.exists()


def test_reduce_3sat_decides_both_ways(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    out_machine = tmp_path / "sat.machine"
    code, out = run(
        capsys,
        "reduce-3sat",
        "-i",
        str(sat),
        "-o",
        str(out_machine),
        "--decide",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfiable"] is True
    cnf = cnf_from_dimacs(sat.read_text())
    assignment = payload["assignment"]
    for clause in cnf.clauses:
        assert any(assignment[v] is positive for v, positive in clause)
    assert load_machine(out_machine).k == 3 * len(cnf.clauses)

    unsat = tmp_path / "unsat.cnf"
    clauses = [
        (("x1", a), ("x2", b), ("x3", c))
        for a in (True, False)
        for b in (True, False)
        for c in (True, False)
    ]
    unsat.write_text(cnf_to_dimacs(CnfInstance(["x1", "x2", "x3"], clauses)))
    code, out = run(capsys, "reduce-3sat", "-i", str(unsat), "--decide")
    assert code == 1
    assert "unsatisfiable" in out


def test_rel_operations(tmp_path, capsys):
    seed = gen_alternating_relation()
    a = tmp_path / "a.rel"
    save_relation(seed, a)
    out_file = tmp_path / "out.rel"

    code, out = run(capsys, "rel", "compose", str(a), str(a), "-o", str(out_file))
    assert code == 0
    assert load_relation(out_file) == compose(seed, seed)

    code, out = run(capsys, "rel", "reverse", str(a), "-o", str(out_file))
    assert code == 0
    assert load_relation(out_file) == reverse(seed)

    code, out = run(capsys, "rel", "closure", str(a), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["relations"]) == 30

    diag = tmp_path / "diag.rel"
    save_relation(Relation(3, ((1, 1), (2, 2), (3, 3))), diag)
    code, out = run(capsys, "rel", "pq-check", str(diag))
    assert code == 0
    assert "max exponent j = 0" in out

    code, out = run(capsys, "rel", "pq-check", str(a))
    assert code == 1
    assert "not compatible" in out

    code, out = run(capsys, "rel", "loop-k", str(a), "--k-max", "4")
    assert code == 0
    assert out.splitlines()[0] == "exponent: 2"

    swap = tmp_path / "swap.rel"
    save_relation(Relation(2, ((1, 2), (2, 1))), swap)
    code, out = run(
        capsys, "rel", "loop-k", str(swap), "--k-max", "4", "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["property"] == "algebraic-length"


def test_oracle_modes(tmp_path, capsys):
    alt = tmp_path / "alt.machine"
    bad = tmp_path / "bad.graph"
    save_machine(gen_alternating_machine().machine, alt)
    save_hypergraph(defect_five_cycle(), bad)
    code, out = run(
        capsys, "oracle", "good", "-m", str(alt), "-g", str(bad), "--max-len", "5"
    )
    assert code == 1
    assert out.startswith("bad")

    good = tmp_path / "s6.graph"
    save_hypergraph(gen_shift_digraph(6), good)
    code, out = run(
        capsys, "oracle", "good", "-m", str(alt), "-g", str(good), "--max-len", "4"
    )
    assert code == 3
    assert "cannot certify" in out

    h2 = tmp_path / "h2.graph"
    save_hypergraph(gen_explicit_hasse_digraph(2), h2)
    code, out = run(capsys, "oracle", "balance2", "-g", str(h2))
    assert code == 0
    assert "agree" in out

    code, out = run(capsys, "oracle", "corpus", "--trials", "12", "--seed", "7")
    assert code == 0
    assert "12 trials" in out
    assert "0 disagreements" in out


@pytest.mark.parametrize("seed, conclusive", [(1, 44), (7, 47), (43, 48)])
def test_oracle_corpus_payloads_are_frozen(capsys, seed, conclusive):
    code, out = run(capsys, "oracle", "corpus", "--seed", str(seed), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "oracle",
        "conclusive": conclusive,
        "disagreements": 0,
        "exit": 0,
        "trials": 50,
    }


def test_negative_counts_are_input_errors(tmp_path, capsys, monkeypatch):
    alt = tmp_path / "alt.machine"
    graph = tmp_path / "s6.graph"
    save_machine(gen_alternating_machine().machine, alt)
    save_hypergraph(gen_shift_digraph(6), graph)
    for argv in (
        ["chromatic", "-g", str(graph), "--budget", "-5"],
        ["oracle", "corpus", "--trials", "-1"],
        ["oracle", "good", "-m", str(alt), "-g", str(graph), "--max-len", "-1"],
        ["oracle", "balance2", "-g", str(graph), "--n-max", "-1"],
        ["paths-good", "-m", str(alt), "--n-max", "-1"],
    ):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 2
        assert "must be non-negative" in json.loads(out)["error"]
    monkeypatch.setenv("BADCYCLE_BUDGET", "-5")
    code, out = run(capsys, "chromatic", "-g", str(graph))
    assert code == 2
    assert "BADCYCLE_BUDGET" in out


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_decide2", crash)
    machine = tmp_path / "c2.machine"
    save_machine(gen_counter_machine(2), machine)
    code, out = run(capsys, "decide2", "-m", str(machine), "--format", "json")
    assert code == 4
    assert json.loads(out) == {
        "command": "decide2",
        "error": "internal error: RuntimeError: boom",
        "exit": 4,
    }
    code, out = run(capsys, "decide2", "-m", str(machine))
    assert code == 4
    assert out.startswith("internal error: RuntimeError: boom")


def test_json_output_is_deterministic(tmp_path, capsys):
    graph = tmp_path / "s6.graph"
    save_hypergraph(gen_shift_digraph(6), graph)
    first = run(capsys, "chromatic", "-g", str(graph), "--format", "json")
    second = run(capsys, "chromatic", "-g", str(graph), "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert first[1].strip() == json.dumps(payload, indent=2, sort_keys=True)
    assert payload == {"command": "chromatic", "exit": 0, "number": 3}


def test_missing_file_is_an_input_error(capsys):
    code, out = run(capsys, "check-good", "-m", "no.machine", "-g", "no.graph")
    assert code == 2
    assert out.startswith("error:")
    code, out = run(capsys, "reduce-3sat", "-i", "no.cnf")
    assert code == 2
    assert out.startswith("error: cannot read no.cnf: ")


def test_gen_alternating_machine_file_is_frozen(tmp_path, capsys):
    target = tmp_path / "alt.machine"
    code, _ = run(capsys, "gen", "alternating-machine", "-o", str(target))
    assert code == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "9373418b938abba29f74712f5dba640376a2bd32b01730ae9b38b4e5e726b70a"


@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        # about 8 KB of report: print meets the closed pipe once a block fills
        (("find-order-system", "-m", "{machine}", "--all"), False),
        # one line, block-buffered: only the flush meets it
        (("decide2", "-m", "{machine}"), False),
        # one line, unbuffered: print meets it
        (("decide2", "-m", "{machine}"), True),
    ],
    ids=["long-report", "short-report", "short-report-unbuffered"],
)
def test_closed_stdout_pipe_exits_4_without_a_traceback(tmp_path, argv, unbuffered):
    machine = tmp_path / "u1.machine"
    save_machine(gen_unbalanced_machine(1), machine)
    argv = [a.format(machine=machine) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(badcycle.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "badcycle.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 4
    assert done.stderr == ""
