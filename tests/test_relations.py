import pytest

from badcycle import relations
from badcycle.corpus import default_rng, random_digraph
from badcycle.errors import BudgetError, InputError, PreconditionError
from badcycle.generators import gen_shift_digraph
from badcycle.goodness import is_good
from badcycle.oracles import brute_force_is_good
from badcycle.hypergraph import DirectedHypergraph
from badcycle.relations import (
    Relation,
    build_relation_machine,
    compose,
    detect_odd_alternating_cycle,
    diagonal_relation,
    full_relation,
    gen_alternating_machine,
    gen_alternating_relation,
    is_pq_compatible,
    loop_lemma_exponent,
    non_alternating_family,
    relation_power,
    reverse,
    semigroup_closure,
)
from named_table import transition_rows

SEED = gen_alternating_relation()

# hand-checked by expanding the composition definition pair by pair
SEED_CUBED = (
    (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3),
)
SEED_CONJUGATE = (
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
)

# discovery orders: the closure lists generators, then reverses and
# composites as the breadth-first walk first meets them; the machine's
# states are the relations reachable from the diagonal in the same order
SEED_PAIR_CLOSURE = (
    "1-2,1-3,2-3,3-1",
    "1-3,2-1,3-1,3-2",
    "1-1,1-3,2-1,3-2,3-3",
    "1-1,2-2,2-3,3-2,3-3",
    "1-1,1-2,2-1,2-2,3-3",
    "1-1,1-2,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-2,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-3,3-1,3-2",
    "1-2,1-3,2-1,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-1,2-3,3-1,3-2,3-3",
    "1-2,1-3,2-2,2-3,3-1",
    "1-3,2-1,2-2,3-1,3-2",
    "1-2,1-3,2-1,3-1,3-2,3-3",
    "1-1,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,3-2,3-3",
    "1-1,1-3,2-1,2-3,3-1,3-2",
    "1-1,1-3,2-1,2-3,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-2,3-3",
    "1-1,1-2,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-3,2-1,2-2,3-1,3-2,3-3",
    "1-1,1-3,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,3-1,3-3",
    "1-1,1-2,1-3,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,2-1,2-3,3-1,3-3",
    "1-1,1-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-2",
    "1-2,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
)

ALTERNATING_MACHINE_STATES = (
    "1-1,2-2,3-3",
    "1-2,1-3,2-3,3-1",
    "1-3,2-1,3-1,3-2",
    "1-1,1-3,2-1,3-2,3-3",
    "1-1,1-2,2-1,2-2,3-3",
    "1-1,2-2,2-3,3-2,3-3",
    "1-1,1-2,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-2,2-3,3-1,3-3",
    "1-1,1-2,1-3,2-3,3-1,3-2",
    "1-2,1-3,2-2,2-3,3-1",
    "1-1,1-3,2-1,2-3,3-1,3-2",
    "1-2,1-3,2-1,2-3,3-1,3-3",
    "1-3,2-1,2-2,3-1,3-2",
    "1-2,1-3,2-1,3-1,3-2,3-3",
    "1-1,1-3,2-1,2-2,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,3-1,3-3",
    "1-1,1-3,2-1,2-3,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-3",
    "1-1,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,2-1,2-3,3-1,3-3",
    "1-1,1-3,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
    "1-1,1-2,1-3,2-1,2-2,2-3,3-1,3-2",
    "1-2,1-3,2-1,2-2,2-3,3-1,3-2,3-3",
)


def named(relation):
    return ",".join(f"{a}-{b}" for a, b in relation.pair_list())


def random_relation(rng, n):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return Relation(n, [p for p in pairs if rng.random() < 0.4])


def random_subdirect(rng, n):
    # a random permutation graph makes both projections onto
    image = rng.sample(range(1, n + 1), n)
    pairs = [(i, image[i - 1]) for i in range(1, n + 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if rng.random() < 0.3:
                pairs.append((a, b))
    return Relation(n, pairs)


def test_relation_validation():
    r = Relation(3, [(1, 2), (1, 2), (3, 1)])
    assert r.pair_list() == ((1, 2), (3, 1))
    assert not r.is_subdirect
    assert SEED.is_subdirect
    with pytest.raises(InputError, match="outside the ground set"):
        Relation(2, [(1, 3)])
    with pytest.raises(InputError, match="malformed relation pair"):
        Relation(2, [7])
    with pytest.raises(InputError, match="at least one element"):
        Relation(0)
    assert len({Relation(2, [(1, 1)]), Relation(2, [(1, 1)])}) == 1
    assert Relation(2, [(1, 1)]) != Relation(3, [(1, 1)])


def test_seed_relation_frozen():
    assert SEED.pair_list() == ((1, 2), (1, 3), (2, 3), (3, 1))
    assert reverse(SEED).pair_list() == ((1, 3), (2, 1), (3, 1), (3, 2))


def test_seed_cube_frozen():
    cube = compose(compose(SEED, SEED), SEED)
    assert cube.pair_list() == SEED_CUBED


def test_seed_conjugate_frozen():
    conj = compose(compose(compose(reverse(SEED), SEED), SEED), reverse(SEED))
    assert conj.pair_list() == SEED_CONJUGATE


def test_compose_rejects_mixed_ground_sets():
    with pytest.raises(InputError, match="size 2 and 3"):
        compose(Relation(2, [(1, 1)]), Relation(3, [(1, 1)]))


def test_diagonal_is_identity():
    rng = default_rng(811)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = random_relation(rng, n)
        d = diagonal_relation(n)
        assert compose(d, r) == r
        assert compose(r, d) == r


def test_compose_associative():
    rng = default_rng(812)
    for _ in range(60):
        n = rng.randint(1, 4)
        a, b, c = (random_relation(rng, n) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_preserves_subdirect():
    rng = default_rng(813)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = random_subdirect(rng, n)
        b = random_subdirect(rng, n)
        assert a.is_subdirect and b.is_subdirect
        assert compose(a, b).is_subdirect


def test_reverse_involution_and_antihomomorphism():
    rng = default_rng(814)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_relation(rng, n)
        b = random_relation(rng, n)
        assert reverse(reverse(a)) == a
        assert reverse(compose(a, b)) == compose(reverse(b), reverse(a))


def test_relation_power():
    assert relation_power(SEED, 0) == diagonal_relation(3)
    assert relation_power(SEED, 3) == compose(compose(SEED, SEED), SEED)
    with pytest.raises(InputError, match="nonnegative"):
        relation_power(SEED, -1)


def test_closure_of_diagonal_alone():
    d = diagonal_relation(3)
    assert semigroup_closure([d]) == (d,)


def test_closure_of_seed_pair():
    clo = semigroup_closure([SEED, reverse(SEED)])
    assert len(clo) == 30
    assert clo[0] == SEED and clo[1] == reverse(SEED)
    assert tuple(named(t) for t in clo) == SEED_PAIR_CLOSURE
    assert all(t.is_subdirect for t in clo)
    assert Relation(3, SEED_CUBED) in clo
    assert diagonal_relation(3) not in clo
    assert full_relation(3) in clo
    # closed under both operations
    members = set(clo)
    assert all(reverse(t) in members for t in clo)
    assert all(compose(s, t) in members for s in clo for t in clo)


def test_closure_rejects_bad_input():
    with pytest.raises(InputError, match="at least one generator"):
        semigroup_closure([])
    with pytest.raises(InputError, match="mixed ground set"):
        semigroup_closure([diagonal_relation(2), diagonal_relation(3)])


def test_non_alternating_family_frozen():
    fam = non_alternating_family(SEED)
    assert len(fam) == 27
    assert diagonal_relation(3) in fam
    assert SEED not in fam and reverse(SEED) not in fam
    assert Relation(3, SEED_CUBED) in fam
    assert Relation(3, SEED_CONJUGATE) in fam
    # values of odd alternating words stay outside the family
    flip = compose(reverse(SEED), SEED)
    word = SEED
    for _ in range(12):
        assert word not in fam
        word = compose(word, flip)


def test_family_members_contain_a_rotation():
    # each member contains some power of the cyclic permutation 1->2->3->1
    rotations = (
        diagonal_relation(3).pairs,
        frozenset({(1, 2), (2, 3), (3, 1)}),
        frozenset({(1, 3), (2, 1), (3, 2)}),
    )
    for member in non_alternating_family(SEED):
        assert any(rot <= member.pairs for rot in rotations)


def test_pq_compatible_diagonal():
    report = is_pq_compatible([diagonal_relation(3)])
    assert report
    assert report.witnesses == ((diagonal_relation(3), diagonal_relation(3), 0),)
    assert report.violations == ()


def test_pq_compatible_family():
    fam = sorted(non_alternating_family(SEED), key=Relation.pair_list)
    report = is_pq_compatible(fam)
    assert report
    assert len(report.witnesses) == 27 * 27
    assert max(j for _, _, j in report.witnesses) == 2
    diag = diagonal_relation(3).pairs
    for p, q, j in report.witnesses:
        t = p
        for step in range(j):
            assert not diag <= t.pairs  # j is least
            t = compose(t, compose(q, p))
        assert diag <= t.pairs


def test_pq_incompatible_lone_seed():
    report = is_pq_compatible([SEED])
    assert not report
    assert "reverse of member 0 is not in the family" in report.violations
    assert "composite of members 0 and 0 is not in the family" in report.violations
    assert report.witnesses == ()


def test_pq_compatible_rejects_bad_input():
    with pytest.raises(InputError, match="at least one relation"):
        is_pq_compatible([])
    with pytest.raises(InputError, match="mixed ground set"):
        is_pq_compatible([diagonal_relation(2), diagonal_relation(3)])


def test_alternating_machine_shape():
    rm = gen_alternating_machine()
    assert rm.machine.k == 2
    assert len(rm.machine.states) == 31
    assert rm.diagonal == "1-1,2-2,3-3"
    assert rm.machine.states[0] == rm.diagonal
    assert rm.machine.states == ALTERNATING_MACHINE_STATES
    assert len(rm.machine.bad) == 4
    assert all(a == rm.diagonal for a, _ in rm.machine.bad)
    assert rm.relations[rm.diagonal] == diagonal_relation(3)
    # deterministic: every row has a single target
    rows = transition_rows(rm.machine)
    assert len(rows) == 2 * 31
    assert all(len(targets) == 1 for _, _, _, targets in rows)
    # state names decode back to the relations they track
    fam = non_alternating_family(SEED)
    for name, rel in rm.relations.items():
        assert name == ",".join(f"{a}-{b}" for a, b in rel.pair_list())
    flagged = {b for _, b in rm.machine.bad}
    assert flagged == {n for n, rel in rm.relations.items() if rel not in fam}


def test_relation_machine_composes_each_step_once(monkeypatch):
    # each (state, projection) pair is composed once, in the state walk;
    # the rows read what the walk composed
    pairs = []

    def counted(r, s):
        pairs.append((r, s))
        return compose(r, s)

    monkeypatch.setattr(relations, "compose", counted)
    rm = gen_alternating_machine()
    assert len(pairs) <= 166
    assert rm.machine.states == ALTERNATING_MACHINE_STATES


def test_build_relation_machine_constant_diagonal():
    d = diagonal_relation(2)
    rm = build_relation_machine([d], {(1, 2): d, (2, 1): d})
    assert rm.machine.states == ("1-1,2-2",)
    assert rm.machine.bad == frozenset()


def test_build_relation_machine_rejects_bad_input():
    d = diagonal_relation(2)
    with pytest.raises(InputError, match="no relation assigned"):
        build_relation_machine([d], {(1, 2): d})
    with pytest.raises(InputError, match="diagonal relation must be allowed"):
        build_relation_machine([], {(1, 2): d, (2, 1): d})
    with pytest.raises(InputError, match="not an ordered pair"):
        build_relation_machine([d], {(1, 1): d})
    with pytest.raises(InputError, match="malformed position pair"):
        build_relation_machine([d], {"ab": d})
    with pytest.raises(InputError, match="no position pairs"):
        build_relation_machine([d], {})


def walk_endpoints(step):
    (a, b), direction = step
    return (a, b) if direction == "forward" else (b, a)


def assert_valid_alternating_witness(graph, witness):
    steps = witness.steps
    assert len(steps) % 2 == 1
    at = witness.anchor
    for edge, direction in steps:
        assert edge in graph.edges
        assert direction in ("forward", "backward")
        src, dst = walk_endpoints((edge, direction))
        assert src == at
        at = dst
    assert at == witness.anchor
    directions = [d for _, d in steps]
    for here, there in zip(directions, directions[1:]):
        assert here != there
    assert directions[0] == directions[-1]  # the one defect sits at the anchor


def test_detector_triangle_none():
    tri = DirectedHypergraph(2, "abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert detect_odd_alternating_cycle(tri) is None
    rm = gen_alternating_machine()
    assert is_good(tri, rm.machine)
    # cycle enumeration up to length 7 turns up nothing bad either, but is
    # far from the length needed to certify goodness by itself
    with pytest.raises(BudgetError):
        brute_force_is_good(tri, rm.machine, 7)


def test_detector_five_cycle_with_one_defect():
    graph = DirectedHypergraph(
        2,
        ["u0", "u1", "u2", "u3", "u4"],
        [("u0", "u1"), ("u2", "u1"), ("u2", "u3"), ("u4", "u3"), ("u4", "u0")],
    )
    witness = detect_odd_alternating_cycle(graph)
    assert witness is not None
    assert len(witness) == 5
    assert_valid_alternating_witness(graph, witness)
    rm = gen_alternating_machine()
    assert not is_good(graph, rm.machine)
    assert not brute_force_is_good(graph, rm.machine, 5)


def test_detector_shift_digraph():
    graph = gen_shift_digraph(6)
    assert detect_odd_alternating_cycle(graph) is None
    assert is_good(graph, gen_alternating_machine().machine)


def test_detector_rejects_wrong_arity():
    g3 = DirectedHypergraph(3, "abc", [("a", "b", "c")])
    with pytest.raises(InputError, match="digraph"):
        detect_odd_alternating_cycle(g3)


def test_detector_matches_machine_exhaustively():
    rm = gen_alternating_machine()
    vertices = ("a", "b", "c")
    pairs = [(a, b) for a in vertices for b in vertices if a != b]
    for mask in range(2 ** len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        graph = DirectedHypergraph(2, vertices, edges)
        witness = detect_odd_alternating_cycle(graph)
        assert bool(is_good(graph, rm.machine)) == (witness is None)
        if witness is not None:
            assert_valid_alternating_witness(graph, witness)


def test_detector_matches_machine_on_corpus():
    rng = default_rng(815)
    rm = gen_alternating_machine()
    hits = 0
    for _ in range(150):
        graph = random_digraph(rng, max_vertices=5, edge_prob=0.4)
        witness = detect_odd_alternating_cycle(graph)
        assert bool(is_good(graph, rm.machine)) == (witness is None)
        if witness is not None:
            assert_valid_alternating_witness(graph, witness)
            hits += 1
    assert hits >= 40
    assert hits <= 110


def test_loop_exponent_full_relation():
    result = loop_lemma_exponent(full_relation(2), 3)
    assert result.exponent == 1
    assert bool(result)


def test_loop_exponent_seed_relation():
    result = loop_lemma_exponent(SEED, 6)
    assert result.exponent == 2
    assert (result.tail, result.period) == (5, 1)
    # spot-check the defining identity on the window, and that 1 is too small
    full = full_relation(3)
    for l in range(2, 7):
        for m in range(2, 7):
            prod = compose(relation_power(SEED, l), relation_power(reverse(SEED), m))
            assert relation_power(prod, 2) == full
    assert compose(SEED, reverse(SEED)) != full
    assert loop_lemma_exponent(SEED, 1).exponent is None
    assert not loop_lemma_exponent(SEED, 1)


def test_loop_exponent_preconditions():
    with pytest.raises(PreconditionError) as err:
        loop_lemma_exponent(Relation(2, [(1, 2), (2, 1)]), 3)
    assert err.value.property == "algebraic-length"
    with pytest.raises(PreconditionError) as err:
        loop_lemma_exponent(Relation(2, [(1, 2)]), 3)
    assert err.value.property == "smooth"
    with pytest.raises(PreconditionError) as err:
        loop_lemma_exponent(Relation(2, [(1, 1), (2, 2)]), 3)
    assert err.value.property == "weakly-connected"
    with pytest.raises(InputError, match="at least 1"):
        loop_lemma_exponent(SEED, 0)


# -- references: the earlier constructions, transcribed ---------------------


def reference_orbit(t, step):
    seen = []
    while t not in seen:
        seen.append(t)
        t = step(t)
    return seen


def reference_non_alternating_family(generator):
    # every a o (x o x) o b with a, b over the generated monoid, then the
    # even alternating words (g o g~)^j and (g~ o g)^j
    g = generator
    h = reverse(g)
    monoid = [diagonal_relation(g.n)] + list(semigroup_closure([g, h]))
    family = set()
    for doubled in (compose(g, g), compose(h, h)):
        for a in monoid:
            left = compose(a, doubled)
            for b in monoid:
                family.add(compose(left, b))
    for base in (compose(g, h), compose(h, g)):
        family.update(reference_orbit(diagonal_relation(g.n), lambda t: compose(t, base)))
    return frozenset(family)


def reference_loop_lemma_exponent(r, k_max):
    # the window {r^l : l >= k} read through a modular power() index
    if k_max < 1:
        raise InputError("the exponent window must be at least 1")
    if not r.is_subdirect:
        raise PreconditionError("smooth", "some element has no successor or no predecessor")
    connected, imbalance = relations._label_potentials(r)
    if not connected:
        raise PreconditionError("weakly-connected", "not weakly connected")
    if imbalance != 1:
        raise PreconditionError("algebraic-length", "imbalances miss 1")
    powers = reference_orbit(r, lambda t: compose(t, r))
    tail = powers.index(compose(powers[-1], r))
    period = len(powers) - tail

    def power(l):
        if l <= len(powers):
            return powers[l - 1]
        return powers[tail + (l - 1 - tail) % period]

    full = full_relation(r.n)
    for k in range(1, k_max + 1):
        window = {power(l) for l in range(k, max(len(powers), k + period - 1) + 1)}
        if all(
            relation_power(compose(a, reverse(b)), k) == full
            for a in window
            for b in window
        ):
            return relations.LoopLemmaResult(k, k_max, tail + 1, period)
    return relations.LoopLemmaResult(None, k_max, tail + 1, period)


def loop_outcome(compute, r, k_max):
    try:
        return compute(r, k_max)
    except PreconditionError as err:
        return err.property
    except InputError:
        return "input"


# idempotent (r o r = r), so the power orbit has length 1, yet the least
# exponent is 2: the window must reach past the orbit's end
IDEMPOTENT_LATE = (
    Relation(3, [(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)]),
    Relation(3, [(1, 1), (2, 2), (3, 1), (3, 2), (3, 3)]),
)


def test_non_alternating_family_matches_the_monoid_reference():
    rng = default_rng(816)
    draws = [SEED, reverse(SEED)] + [
        random_relation(rng, rng.randint(1, 4)) for _ in range(60)
    ]
    for r in draws:
        assert non_alternating_family(r) == reference_non_alternating_family(r)


def test_loop_exponent_matches_the_modular_window_reference():
    for r in IDEMPOTENT_LATE:
        assert compose(r, r) == r
        assert loop_lemma_exponent(r, 3) == relations.LoopLemmaResult(2, 3, 1, 1)
    rng = default_rng(817)
    draws = [SEED, reverse(SEED), *IDEMPOTENT_LATE] + [
        random_subdirect(rng, rng.randint(1, 4)) for _ in range(300)
    ] + [random_relation(rng, rng.randint(1, 4)) for _ in range(60)]
    exponents = set()
    for r in draws:
        for k_max in (0, 1, 2, 3, 6):
            got = loop_outcome(loop_lemma_exponent, r, k_max)
            assert got == loop_outcome(reference_loop_lemma_exponent, r, k_max)
            exponents.add(getattr(got, "exponent", got))
    outcomes = {None, 1, 2, 3, "smooth", "weakly-connected", "algebraic-length", "input"}
    assert outcomes <= exponents


def test_relation_sizes_and_indices_refuse_a_float_or_a_bool():
    # int() read Relation(2.5, [(1.9, True)]) as Relation(2, [(1, 1)]),
    # relation_power(r, 2.5) as r squared and diagonal_relation(True) as n = 1
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(InputError, match="^relation n must be an integer$"):
            Relation(bad, [(1, 1)])
        with pytest.raises(InputError, match="^relation pair must be an integer$"):
            Relation(2, [(bad, 1)])
        with pytest.raises(InputError, match="^relation pair must be an integer$"):
            Relation(2, [(1, bad)])
        with pytest.raises(InputError, match="^relation n must be an integer$"):
            diagonal_relation(bad)
        with pytest.raises(InputError, match="^relation n must be an integer$"):
            full_relation(bad)
        with pytest.raises(InputError, match="^exponent must be an integer$"):
            relation_power(SEED, bad)
        with pytest.raises(InputError, match="^k_max must be an integer$"):
            loop_lemma_exponent(SEED, bad)
        with pytest.raises(
            InputError, match=r"^malformed position pair \(.*\): position must be an integer$"
        ):
            build_relation_machine([SEED], {(1, bad): SEED, (2, 1): SEED})
    assert Relation(2, [(1, 2)]).pair_list() == ((1, 2),)
    assert diagonal_relation(2) == Relation(2, [(1, 1), (2, 2)])
    assert relation_power(SEED, 1) == SEED
