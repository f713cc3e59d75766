import pytest

from badcycle import machine as machine_module
from badcycle.errors import InputError
from badcycle.generators import gen_counter_machine, gen_hasse_machine
from badcycle.machine import Machine, require_valid, step, validate_machine
from badcycle.orders import decide_cycling_2machine, find_compatible_order


def hasse_machine():
    return Machine(
        2,
        ["s", "t", "u", "v"],
        {
            ("s", 1, 2): {"t"},
            ("t", 1, 2): {"t"},
            ("t", 2, 1): {"u"},
            ("u", 1, 2): {"v"},
        },
        bad=[("s", "t"), ("s", "v")],
    )


def test_construction_from_rows_matches_mapping():
    rows = [
        ("s", 1, 2, ["t"]),
        ("t", 1, 2, ["t"]),
        ("t", 2, 1, ["u"]),
        ("u", 1, 2, ["v"]),
    ]
    m = Machine(2, ["s", "t", "u", "v"], rows, bad=[("s", "t"), ("s", "v")])
    assert m == hasse_machine()
    assert hash(m) == hash(hasse_machine())


def test_empty_targets_dropped_and_duplicates_merged():
    m = Machine(
        2,
        ["a", "b"],
        [("a", 1, 2, []), ("a", 2, 1, ["a"]), ("a", 2, 1, ["b"])],
        bad=[("a", "a"), ("b", "b")],
    )
    assert m.targets("a", 1, 2) == frozenset()
    assert m.targets("a", 2, 1) == {"a", "b"}
    assert m.transition_rows() == (("a", 2, 1, ("a", "b")),)


def test_duplicate_state_names_rejected():
    with pytest.raises(InputError):
        Machine(2, ["a", "a"])


def test_canonical_rows_follow_declaration_order():
    m = Machine(
        2,
        ["z", "a"],
        [("a", 1, 2, ["z"]), ("z", 1, 2, ["a", "z"]), ("z", 1, 1, ["a"])],
        bad=[("a", "z"), ("z", "a")],
    )
    assert m.transition_rows() == (
        ("z", 1, 1, ("a",)),
        ("z", 1, 2, ("z", "a")),
        ("a", 1, 2, ("z",)),
    )
    assert m.bad_rows() == (("z", "a"), ("a", "z"))
    assert list(m.transition_atoms()) == [
        ("z", 1, 1, "a"),
        ("z", 1, 2, "z"),
        ("z", 1, 2, "a"),
        ("a", 1, 2, "z"),
    ]


def test_deterministic_and_cycling_tags():
    m = hasse_machine()
    assert m.is_deterministic
    assert not m.is_cycling
    cyc = Machine(2, ["a", "b"], [("a", 1, 2, ["b"])], bad=[("a", "a"), ("b", "b")])
    assert cyc.is_cycling
    nondet = Machine(2, ["a"], [("a", 1, 2, ["a"])], bad=[])
    assert nondet.is_deterministic
    wide = Machine(2, ["a", "b"], [("a", 1, 2, ["a", "b"])], bad=[])
    assert not wide.is_deterministic
    diag = Machine(2, ["a"], [("a", 1, 1, ["a"])], bad=[])
    assert not diag.is_deterministic


def test_step_hasse_machine_values():
    m = hasse_machine()
    assert step(m, "s", 1, 2) == {"t"}
    assert step(m, "t", 2, 1) == {"u"}
    assert step(m, "v", 1, 2) == frozenset()


def test_step_checks_arguments():
    m = hasse_machine()
    with pytest.raises(InputError):
        step(m, "x", 1, 2)
    with pytest.raises(InputError):
        step(m, "s", 0, 2)
    with pytest.raises(InputError):
        step(m, "s", 1, 3)


def test_step_stays_inside_state_set():
    m = Machine(
        3,
        ["a", "b", "c"],
        [("a", 1, 3, ["b", "c"]), ("b", 2, 2, ["a"])],
        bad=[("a", "b")],
    )
    for s in m.states:
        for i in m.positions:
            for j in m.positions:
                assert step(m, s, i, j) <= set(m.states)


def test_validate_hasse_machine():
    report = validate_machine(hasse_machine(), "general")
    assert report.ok
    assert report.deterministic
    assert not report.cycling


def test_validate_rejects_diagonal_bad_pair_under_general():
    m = Machine(2, ["s"], [], bad=[("s", "s")])
    report = validate_machine(m, "general")
    assert not report.ok
    assert any("diagonal bad pair" in v for v in report.violations)


def test_validate_rejects_cycling_machine_under_general():
    cyc = Machine(2, ["a", "b"], [("a", 1, 2, ["b"])], bad=[("a", "a"), ("b", "b")])
    assert validate_machine(cyc, "cycling").ok
    report = validate_machine(cyc, "general")
    assert not report.ok


def test_validate_cycling_requires_full_diagonal():
    partial = Machine(2, ["a", "b"], [], bad=[("a", "a")])
    report = validate_machine(partial, "cycling")
    assert not report.ok
    assert any("diagonal" in v for v in report.violations)


def test_validate_reports_unknown_names_and_positions():
    m = Machine(2, ["a"], [("a", 1, 3, ["q"]), ("r", 1, 2, ["a"])], bad=[("a", "q")])
    report = validate_machine(m, "general")
    texts = "\n".join(report.violations)
    assert "q" in texts
    assert "r" in texts
    assert "out of range" in texts


def test_validate_small_k_rejected():
    report = validate_machine(Machine(1, ["a"], [], bad=[]), "general")
    assert any("k must be at least 2" in v for v in report.violations)


def test_validate_deterministic_claim():
    wide = Machine(2, ["a", "b"], [("a", 1, 2, ["a", "b"])], bad=[])
    report = validate_machine(wide, "general", expect_deterministic=True)
    assert any("nondeterministic value" in v for v in report.violations)
    diag = Machine(2, ["a", "b"], [("a", 1, 1, ["b"])], bad=[])
    report = validate_machine(diag, "general", expect_deterministic=True)
    assert any(
        "diagonal position pair" in v and "deterministic" in v
        for v in report.violations
    )


def test_validate_unknown_semantics_raises():
    with pytest.raises(InputError):
        validate_machine(hasse_machine(), "strict")


def test_validate_sorts_names_that_do_not_compare():
    m = Machine(2, [1, "a"], [(1, 1, 2, ["a"])], bad=[(1, "a")])
    assert validate_machine(m, "general").ok
    odd = Machine(2, [1, "a"], [(1, 1, 2, ["b", 2])], bad=[(1, 1), ("a", "a")])
    assert validate_machine(odd, "general").violations == (
        "transition target 2 is not a declared state",
        "transition target 'b' is not a declared state",
        "diagonal bad pair (1,1) under general semantics",
        "diagonal bad pair ('a','a') under general semantics",
    )


def test_machine_is_validated_once(monkeypatch):
    calls = []
    validate = machine_module.validate_machine

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(machine_module, "validate_machine", counting)
    machine = gen_counter_machine(2)
    for _ in range(100):
        assert decide_cycling_2machine(machine)
        assert find_compatible_order(machine) is not None
    assert len(calls) == 1


def test_validation_cache_hides_nothing():
    invalid = Machine(2, ["p", "q"], [("p", 1, 3, ["q"])], bad=[("p", "p"), ("q", "q")])
    for _ in range(2):
        with pytest.raises(InputError, match="out of range"):
            find_compatible_order(invalid)
    # a cached passing report leaves a deterministic claim to be checked
    wide = Machine(2, ["a", "b"], [("a", 1, 2, ["a", "b"])], bad=[("a", "b")])
    require_valid(wide, "general")
    report = validate_machine(wide, "general", expect_deterministic=True)
    assert any("nondeterministic value" in v for v in report.violations)
    # each semantics keeps its own verdict, in either order
    cycling = gen_counter_machine(1)
    require_valid(cycling, "cycling")
    for _ in range(2):
        with pytest.raises(InputError, match="under general semantics"):
            require_valid(cycling, "general")
    general = gen_hasse_machine()
    for _ in range(2):
        with pytest.raises(InputError, match="under cycling semantics"):
            require_valid(general, "cycling")
    assert require_valid(general, "general").ok
