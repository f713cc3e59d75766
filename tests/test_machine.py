import hashlib
import json

import pytest

from badcycle import machine as machine_module
from badcycle.checks import verify_compatible_order
from badcycle.corpus import default_rng, random_cycling_machine, random_machine
from badcycle.errors import InputError
from badcycle.fileio import machine_to_obj, save_machine
from badcycle.generators import (
    gen_counter_machine,
    gen_example3_machine,
    gen_hasse_machine,
    gen_unbalanced_machine,
)
from badcycle.goodness import build_auxiliary, check_paths_good, is_good
from badcycle.hypergraph import path_digraph
from badcycle.machine import SEMANTICS, Machine, require_valid, step, validate_machine
from badcycle.orders import (
    decide_cycling_2machine,
    find_compatible_order,
    find_order_system,
)
from badcycle.relations import gen_alternating_machine
from named_table import bad_rows, transition_atoms, transition_rows


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
    assert transition_rows(m) == (("a", 2, 1, ("a", "b")),)


def test_duplicate_state_names_rejected():
    with pytest.raises(InputError):
        Machine(2, ["a", "a"])


def test_constructor_refuses_what_the_reader_refuses_as_an_integer():
    # k and each row's positions were truncated by int(): Machine(2.9, ...).k
    # was 2, and a row at position 1.7 or True read position 1
    row = ("a", 1, 2, ["a"])
    with pytest.raises(InputError, match="^machine k must be an integer$"):
        Machine(2.9, ["a"], [row])
    with pytest.raises(InputError, match="^machine k must be an integer$"):
        Machine(True, ["a"], [row])
    with pytest.raises(InputError, match="^machine k must be an integer$"):
        Machine("2", ["a"], [row])
    for i, j, name in ((1.7, 2, "i"), (True, 2, "i"), (1, 2.0, "j"), (1, False, "j"), (1, "2", "j")):
        message = f"^transition position {name} must be an integer$"
        with pytest.raises(InputError, match=message):
            Machine(2, ["a"], [("a", i, j, ["a"])])
        with pytest.raises(InputError, match=message):
            Machine(2, ["a"], {("a", i, j): ["a"]})
    # a position out of range is an int, so validation, not the constructor, reports it
    assert Machine(2, ["a"], [("a", 1, 3, ["a"])]).targets("a", 1, 3) == {"a"}


def test_canonical_rows_follow_declaration_order():
    m = Machine(
        2,
        ["z", "a"],
        [("a", 1, 2, ["z"]), ("z", 1, 2, ["a", "z"]), ("z", 1, 1, ["a"])],
        bad=[("a", "z"), ("z", "a")],
    )
    assert transition_rows(m) == (
        ("z", 1, 1, ("a",)),
        ("z", 1, 2, ("z", "a")),
        ("a", 1, 2, ("z",)),
    )
    assert bad_rows(m) == (("z", "a"), ("a", "z"))
    assert list(transition_atoms(m)) == [
        ("z", 1, 1, "a"),
        ("z", 1, 2, "z"),
        ("z", 1, 2, "a"),
        ("a", 1, 2, "z"),
    ]
    # the numbered views sort by state number, not by name
    assert m.numbered_atoms == ((0, 1, 1, 1), (0, 1, 2, 0), (0, 1, 2, 1), (1, 1, 2, 0))
    assert m.numbered_bad == ((0, 1), (1, 0))


def test_undeclared_states_sort_last_in_every_view(tmp_path):
    # "q" is undeclared: it sorts after the declared states in every
    # name-keyed view, and the writer refuses the machine
    def made():
        rows = [("a", 1, 2, ["q"]), ("z", 1, 2, ["a", "z"]), ("q", 2, 1, ["z"])]
        return Machine(2, ["z", "a"], rows, bad=[("q", "z"), ("z", "a"), ("a", "q")])

    m = made()
    assert transition_rows(m) == (
        ("z", 1, 2, ("z", "a")),
        ("a", 1, 2, ("q",)),
        ("q", 2, 1, ("z",)),
    )
    assert bad_rows(m) == (("z", "a"), ("a", "q"), ("q", "z"))
    assert transition_atoms(m) == (
        ("z", 1, 2, "z"),
        ("z", 1, 2, "a"),
        ("a", 1, 2, "q"),
        ("q", 2, 1, "z"),
    )
    # load_machine would reject the file, so save_machine raises and writes
    # none, for an undeclared state in the table or in a bad pair, whether or
    # not a view was read first
    cases = [
        (m, "'q'"),
        (made(), "'q'"),
        (Machine(2, ["a"], [("a", 1, 2, ["q"])]), "'q'"),
        (Machine(2, ["a"], [("a", 1, 2, ["a"])], bad=[("a", "ghost")]), "'ghost'"),
    ]
    for n, (machine, name) in enumerate(cases):
        with pytest.raises(InputError, match=f"undeclared state {name}"):
            save_machine(machine, tmp_path / f"{n}.json")
    assert list(tmp_path.iterdir()) == []


def test_writer_refuses_a_state_name_that_is_not_a_string(tmp_path):
    # load_machine reads the states as an array of strings, so save_machine
    # names the first state that is not one and writes no file
    cases = [
        (Machine(2, [1, "a"], [(1, 1, 2, ["a"])], bad=[(1, "a")]), "1"),
        (Machine(2, ["a", ("b",)], [("a", 1, 2, [("b",)])]), r"\('b',\)"),
    ]
    for n, (machine, name) in enumerate(cases):
        with pytest.raises(InputError, match=f"^machine state {name} is not a string$"):
            save_machine(machine, tmp_path / f"{n}.json")
    assert list(tmp_path.iterdir()) == []


# sha256 over the reprs of (numbered_atoms, numbered_bad, transition_rows,
# bad_rows, transition_atoms) of canonical_machines(), the last three now
# read through the named_table adapter: a change to any view's order or
# content changes it
CANONICAL_VIEWS_DIGEST = "eae14ba3f30f99ba867bbc27b23302d1a60f6a13d75cbd1645c36e1d7f0b8a22"


def canonical_machines():
    yield from (gen_hasse_machine(), gen_example3_machine(), gen_alternating_machine().machine)
    yield from (gen_counter_machine(n) for n in range(1, 5))
    yield from (gen_unbalanced_machine(k) for k in (2, 3))
    # every third draw has up to 11 states, named s1..s11, so that name
    # order and declaration order differ
    rng = default_rng(2026)
    for n in range(2000):
        draw = random_machine if n % 4 < 2 else random_cycling_machine
        yield draw(rng, k=2 + n % 2, max_states=11 if n % 3 == 0 else 3)


def test_canonical_views_match_their_pinned_digest():
    digest = hashlib.sha256()
    for m in canonical_machines():
        views = (m.numbered_atoms, m.numbered_bad, transition_rows(m), bad_rows(m),
                 transition_atoms(m))
        digest.update(repr(views).encode())
    assert digest.hexdigest() == CANONICAL_VIEWS_DIGEST


# sha256 over the bytes save_machine writes for each of canonical_machines();
# pinned while the writer still read the name-keyed rows
WRITER_DIGEST = "0a75f8f51814bfd269e6eef9872e9b86588d095aed93d493ddc3385f4b75f868"


def test_written_machines_match_their_pinned_digest():
    digest = hashlib.sha256()
    for m in canonical_machines():
        digest.update((json.dumps(machine_to_obj(m), indent=2, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == WRITER_DIGEST


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


def test_validate_pins_every_message_and_its_place():
    # every rule broken: rows come by (str(source), i, j), ties in table
    # order (1 before '1'), then bad pairs, then states by name, ties in
    # declaration order
    m = Machine(
        1,
        ["b", 1, "1", "a"],
        [
            ("z", 1, 2, ["q"]),
            (1, 1, 1, ["y", "x"]),
            ("1", 1, 1, ["a", "b"]),
            ("a", 0, 1, ["b"]),
        ],
        bad=[("b", "b"), (1, 1), ("1", "1"), ("a", "w"), ("v", "a")],
    )
    common = (
        "uniformity k must be at least 2, got 1",
        "transition target 'x' is not a declared state",
        "transition target 'y' is not a declared state",
        "nondeterministic value of size 2 at (1,1,1) in deterministic machine",
        "diagonal position pair (1,1) in deterministic machine",
        "nondeterministic value of size 2 at ('1',1,1) in deterministic machine",
        "diagonal position pair (1,1) in deterministic machine",
        "transition position i=0 out of range for ('a',0,1)",
        "transition source 'z' is not a declared state",
        "transition position j=2 out of range for ('z',1,2)",
        "transition target 'q' is not a declared state",
        "bad pair references unknown state 'w'",
        "bad pair references unknown state 'v'",
    )
    report = validate_machine(m, "cycling", expect_deterministic=True)
    assert report.violations == common + (
        "cycling semantics requires the bad set to equal the diagonal",
    )
    report = validate_machine(m, "general", expect_deterministic=True)
    assert report.violations == common + (
        "diagonal bad pair (1,1) under general semantics",
        "diagonal bad pair ('1','1') under general semantics",
        "diagonal bad pair ('b','b') under general semantics",
    )


def mutated(m, n):
    """An invalid variant of m, the n-th of a seeded run: by n % 6 an undeclared
    source or target, position 0 or k + 1, an unknown bad-pair state, k = 1,
    names that do not compare (odd-numbered states renamed to ints), or a
    diagonal position pair with two targets and a diagonal bad pair."""
    k, states = m.k, list(m.states)
    rows, bad = [list(row) for row in transition_rows(m)], list(bad_rows(m))
    s, t = states[n % len(states)], states[-1 - n % len(states)]
    kind = n % 6
    if kind == 0:
        rows.append(("ghost", 1, k, [t]) if n % 12 < 6 else (s, k, 1, ["ghost", t]))
    elif kind == 1:
        rows.append((s, 0, 1 + n % k, [t]) if n % 12 < 6 else (s, 1 + n % k, k + 1, [t]))
    elif kind == 2:
        bad.append((s, "ghost") if n % 12 < 6 else ("ghost", "ghost"))
    elif kind == 3:
        k = 1
    elif kind == 4:
        names = {x: p if p % 2 else x for p, x in enumerate(states)}
        states = [names[x] for x in states]
        rows = [(names[a], i, j, [names[b] for b in ts] + [len(states)] * (n % 12 < 6))
                for a, i, j, ts in rows]
        bad = [(names[a], names[b]) for a, b in bad] + [(names[s], names[s])]
    else:
        rows.append((t, 2, 2, [s, t]))
        bad.append((s, s))
    return Machine(k, states, rows, bad)


def validation_cases():
    """canonical_machines(), then a seeded invalid variant of every one."""
    machines = list(canonical_machines())
    yield from machines
    rng = default_rng(2028)
    for n, m in enumerate(machines):
        yield mutated(m, rng.randrange(1200) * 6 + n % 6)


# sha256 over the reprs of (violations, deterministic, cycling) of the
# validate_machine reports of validation_cases(), under both semantics with
# and without expect_deterministic; pinned before validation became one walk
VALIDATION_DIGEST = "075a6f476c5512711dd1d2aed170715ab9fc9af311c51e05d70167762b44c067"


def test_validation_reports_match_their_pinned_digest():
    digest = hashlib.sha256()
    for m in validation_cases():
        for semantics in SEMANTICS:
            for expect in (False, True):
                report = validate_machine(m, semantics, expect_deterministic=expect)
                digest.update(repr((report.violations, report.deterministic,
                                    report.cycling)).encode())
    assert digest.hexdigest() == VALIDATION_DIGEST


VIEWS = ("numbered_atoms", "numbered_bad", "live_atoms", "live_states", "live_local",
         "atom_groups", "is_cycling", "is_deterministic")


def read_views(m):
    """Every view of m, a KeyError as its type and key."""
    views = []
    for name in VIEWS:
        try:
            views.append(getattr(m, name))
        except KeyError as error:
            views.append(("KeyError", error.args))
    return views


def test_views_read_before_validation_equal_those_read_after():
    for read_first, validated_first in zip(validation_cases(), validation_cases()):
        before = read_views(read_first)
        reports = [validate_machine(m, semantics) for m in (read_first, validated_first)
                   for semantics in SEMANTICS]
        assert reports[:2] == reports[2:]
        assert read_views(validated_first) == before == read_views(read_first)
    # a state the table names but does not declare raises, it drops no atom
    undeclared = Machine(2, ["a"], [("a", 1, 2, ["a", "q"])], bad=[("a", "a")])
    with pytest.raises(KeyError):
        undeclared.numbered_atoms
    assert not validate_machine(undeclared, "cycling").ok
    with pytest.raises(KeyError):
        undeclared.numbered_atoms
    with pytest.raises(KeyError):
        build_auxiliary(path_digraph(2), undeclared)


def test_machine_is_validated_once(monkeypatch):
    calls, walked = [], []
    validate = machine_module.validate_machine

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    def counted(method):
        def run(machine):
            walked.append((method.__name__, machine))
            return method(machine)
        return run

    monkeypatch.setattr(machine_module, "validate_machine", counting)
    for method in (Machine._walk, Machine._find_live):
        monkeypatch.setattr(Machine, method.__name__, counted(method))
    machine = gen_counter_machine(2)
    for _ in range(100):
        assert decide_cycling_2machine(machine)
        assert find_compatible_order(machine) is not None
    assert len(calls) == 1
    assert walked == [("_walk", machine)]
    # the table is walked once per machine, and the live views found once,
    # whichever decider, checker or view reads them first and in whatever
    # order the rest follow
    views = [lambda m, name=name: getattr(m, name) for name in VIEWS]
    views += [
        lambda m: is_good(path_digraph(3), m),
        lambda m: build_auxiliary(path_digraph(2), m),
        lambda m: validate_machine(m, "general", expect_deterministic=True),
        lambda m: validate_machine(m, "cycling"),
    ]
    cycling = views + [
        decide_cycling_2machine,
        lambda m: verify_compatible_order(m, find_compatible_order(m)),
        lambda m: check_paths_good(m, 4),
    ]
    general = views + [find_order_system, lambda m: require_valid(m, "general")]
    rng = default_rng(2028)
    for n in range(60):
        machine = gen_counter_machine(1 + n % 3) if n % 2 else gen_hasse_machine()
        readers = list(cycling if n % 2 else general)
        rng.shuffle(readers)
        walked.clear()
        for read in readers:
            read(machine)
        assert sorted(name for name, _ in walked) == ["_find_live", "_walk"]
        assert all(seen is machine for _, seen in walked)


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


def test_live_atoms_are_those_on_walks_between_bad_pairs():
    alternating = gen_alternating_machine().machine
    assert alternating.live_states == (0, 1, 2, 4, 5, 9, 12)
    assert len(alternating.live_atoms) == 8
    assert len(alternating.numbered_atoms) == 62
    # the counter's forward step 0 -> 1 never comes back to 0; from n = 2 on
    # every state lies on one strong component
    counter = gen_counter_machine(1)
    assert counter.numbered_atoms == ((0, 1, 2, 1), (1, 1, 2, 1))
    assert counter.live_atoms == ((1, 1, 2, 1),)
    assert counter.live_states == (1,)
    for n in (2, 3):
        counter = gen_counter_machine(n)
        assert counter.live_atoms == counter.numbered_atoms
        assert counter.live_states == tuple(range(n + 1))
    # the pair's second state is not reachable from its first
    dead = Machine(2, ["a", "b", "c"], [("a", 1, 2, ["c"]), ("b", 1, 2, ["a"])], bad=[("a", "b")])
    assert dead.live_atoms == ()
    assert dead.live_states == ()
    # a general pair keeps only the walks from its first state to its second
    chain = Machine(2, ["a", "b", "c", "d"],
                    [("d", 1, 2, ["a"]), ("a", 1, 2, ["b"]), ("b", 2, 1, ["c"])],
                    bad=[("a", "b")])
    assert chain.live_atoms == ((0, 1, 2, 1),)
