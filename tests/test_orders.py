import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

from badcycle import orders as orders_module
from badcycle.corpus import (
    default_rng,
    random_cnf,
    random_cycling_machine,
    random_machine,
)
from badcycle.digraph import least_first_order
from badcycle.errors import Budget, BudgetError, InputError
from badcycle.generators import gen_counter_machine, gen_unbalanced_machine
from badcycle.goodness import check_paths_good, validate_witness
from badcycle.hypergraph import path_digraph
from badcycle.machine import Machine
from badcycle.orders import (
    OrderSystem,
    compatible_order_to_order_system,
    count_order_systems,
    decide_cycling_2machine,
    find_compatible_order,
    find_order_system,
    induced_on_position,
    iter_compatible_order_systems,
    iter_order_systems,
    verify_compatible_order,
    verify_order_system,
)
from badcycle.relations import gen_alternating_machine
from badcycle.sat import CnfInstance, evaluate_cnf, order_to_assignment, sat_to_machine
from named_rows import NamedRows
from named_table import bad_rows, transition_atoms, transition_rows


def counter_machine(n):
    # states 0..n; forward steps count up by one (capped at n), backward
    # steps count down by two (dropping off below zero); bad = diagonal
    states = [str(i) for i in range(n + 1)]
    rows = []
    for i in range(n + 1):
        rows.append((str(i), 1, 2, [str(min(i + 1, n))]))
        if i - 2 >= 0:
            rows.append((str(i), 2, 1, [str(i - 2)]))
    return Machine(2, states, rows, bad=[(s, s) for s in states])


def counter_order(n, slack=2):
    # both position chains run n..0; the merge puts (i,1) before (j,2)
    # exactly when i > j - slack
    firsts = [(str(i), 1) for i in range(n, -1, -1)]
    seconds = [(str(j), 2) for j in range(n, -1, -1)]
    merged = []
    while firsts and seconds:
        i = int(firsts[0][0])
        j = int(seconds[0][0])
        merged.append(firsts.pop(0) if i > j - slack else seconds.pop(0))
    return tuple(merged + firsts + seconds)


def two_state_example():
    return Machine(
        2,
        ["0", "1"],
        {("0", 1, 2): {"1"}, ("0", 2, 1): {"1"}, ("1", 1, 2): {"0"}},
        bad=[("0", "1")],
    )


def two_state_example_system():
    return OrderSystem(
        [{("0", 1)}, {("1", 1), ("0", 2)}, {("1", 2)}],
        [(0, 2)],
    )


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


def filter_order_systems(machine):
    # definitional oracle: enumerate every order system on the carrier and
    # keep the ones the verifier accepts
    carrier = [(s, i) for i in machine.positions for s in machine.states]
    return {
        system
        for system in iter_order_systems(carrier)
        if verify_order_system(machine, system).ok
    }


def closed_pair_sets_oracle(p):
    # independent transitivity check: pairwise scan instead of closure
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    found = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        chosen = {pr for pr, b in zip(pairs, bits) if b}
        if all(
            (a, d) in chosen
            for a, b in chosen
            for c, d in chosen
            if b == c
        ):
            found.append(chosen)
    return found


def test_order_system_construction_and_queries():
    system = OrderSystem([{"a"}, {"b", "c"}, {"d"}], [(0, 1), (1, 2)])
    assert system.partial == {(0, 1), (1, 2), (0, 2)}
    assert system.carrier == {"a", "b", "c", "d"}
    assert system.same_class("b", "c")
    assert system.below("a", "d")
    assert not system.below("a", "a")
    assert system.below_or_equal("b", "c")
    assert not system.below("b", "c")
    assert not system.below_or_equal("d", "a")
    with pytest.raises(InputError):
        system.class_index("z")


def test_order_system_rejects_bad_input():
    with pytest.raises(InputError):
        OrderSystem([{"a"}, set()])
    with pytest.raises(InputError):
        OrderSystem([{"a"}, {"a", "b"}])
    with pytest.raises(InputError):
        OrderSystem([{"a"}, {"b"}], [(0, 5)])
    with pytest.raises(InputError, match="listing order"):
        OrderSystem([{"a"}, {"b"}], [(1, 0)])
    with pytest.raises(InputError):
        OrderSystem([{"a"}, {"b"}, {"c"}], [(0, 1), (1, 0)])


def test_order_system_equality_and_hash():
    given_closed = OrderSystem([{"a"}, {"b"}, {"c"}], [(0, 1), (1, 2), (0, 2)])
    given_generators = OrderSystem([{"a"}, {"b"}, {"c"}], [(0, 1), (1, 2)])
    assert given_closed == given_generators
    assert len({given_closed, given_generators}) == 1
    assert given_closed != OrderSystem([{"a"}, {"b"}, {"c"}], [(0, 1)])
    assert given_closed != OrderSystem([{"b"}, {"a"}, {"c"}], [(0, 1), (1, 2)])


def test_iter_order_systems_counts():
    # n=2: the one-block partition gives 1; the two-singleton partition
    # gives 2 block orders x 2 partials = 4; total 5.  n=3: 1 block gives
    # 1, the three 2-block partitions give 2 x 2 = 4 each, the singleton
    # partition gives 6 block orders x 7 closed pair sets = 42; total 55.
    assert count_order_systems(0) == 1
    assert count_order_systems(1) == 1
    assert count_order_systems(2) == 5
    assert count_order_systems(3) == 55


def test_count_matches_independent_formula():
    t1 = len(closed_pair_sets_oracle(1))
    t2 = len(closed_pair_sets_oracle(2))
    t3 = len(closed_pair_sets_oracle(3))
    t4 = len(closed_pair_sets_oracle(4))
    assert (t1, t2, t3, t4) == (1, 2, 7, 40)
    # partitions of a 3-set by block count: 1, 3, 1
    assert count_order_systems(3) == 1 * 1 * t1 + 3 * 2 * t2 + 1 * 6 * t3
    # partitions of a 4-set by block count: 1, 7, 6, 1
    assert count_order_systems(4) == 1 * 1 * t1 + 7 * 2 * t2 + 6 * 6 * t3 + 1 * 24 * t4


def test_iter_order_systems_enumeration_order_and_distinctness():
    systems = list(iter_order_systems(["a", "b"]))
    assert len(systems) == 5
    assert len(set(systems)) == 5
    assert systems[0] == OrderSystem([{"a", "b"}])
    assert systems[-1] == OrderSystem([{"b"}, {"a"}], [(0, 1)])
    assert all(s.carrier == {"a", "b"} for s in systems)
    with pytest.raises(InputError):
        list(iter_order_systems(["a", "a"]))


def test_verify_compatible_order_accepts_counter_orders():
    assert counter_order(2) == (
        ("2", 1),
        ("1", 1),
        ("2", 2),
        ("0", 1),
        ("1", 2),
        ("0", 2),
    )
    for n in range(2, 5):
        result = verify_compatible_order(counter_machine(n), counter_order(n))
        assert result.ok
        assert result.violations == ()
        assert bool(result)


def test_verify_compatible_order_flags_broken_comparator():
    # weakening the merge rule by one puts (0,1) above (1,2), killing the
    # forward transition out of state 0
    result = verify_compatible_order(counter_machine(2), counter_order(2, slack=1))
    assert not result.ok
    assert any("0,(1,2)->1" in v for v in result.violations)


def test_verify_compatible_order_flags_restriction_disagreement():
    machine = Machine(2, ["s", "t"], [], bad=[("s", "s"), ("t", "t")])
    result = verify_compatible_order(
        machine, [("s", 1), ("t", 1), ("t", 2), ("s", 2)]
    )
    assert not result.ok
    assert any("position 2" in v for v in result.violations)


def test_verify_compatible_order_input_errors():
    machine = counter_machine(1)
    with pytest.raises(InputError):
        verify_compatible_order(machine, [("0", 1), ("1", 1), ("0", 2)])
    with pytest.raises(InputError):
        verify_compatible_order(
            machine, [("0", 1), ("0", 1), ("1", 1), ("1", 2)]
        )
    general = two_state_example()
    with pytest.raises(InputError):
        verify_compatible_order(general, [("0", 1), ("1", 1), ("0", 2), ("1", 2)])
    # a position must be an int: 1.7 no longer truncates to 1, and True is no 1
    forced = Machine(2, ["s"], [("s", 1, 2, ["s"])], bad=[("s", "s")])
    assert verify_compatible_order(forced, [("s", 1), ("s", 2)]).ok
    for position in (1.7, 1.0, True, "x", None):
        with pytest.raises(InputError, match="not an integer"):
            verify_compatible_order(forced, [("s", position), ("s", 2)])
        with pytest.raises(InputError, match="not an integer"):
            compatible_order_to_order_system([("s", position), ("s", 2)])


def test_verify_compatible_order_error_paths_and_messages():
    # one walk over the order: a shape error anywhere wins over a pair the
    # carrier does not hold, and the first unhashable state raises InputError
    # once every entry's shape passed
    machine = counter_machine(1)
    good = [("0", 1), ("1", 1), ("0", 2), ("1", 2)]
    assert verify_compatible_order(machine, good).ok
    assert verify_compatible_order(machine, iter(good)).ok
    not_total = "order is not a total order on the state-position pairs"
    for order in (
        good[:3] + [("0", 1)],  # a duplicate pair
        good[:3],  # a missing pair
        good + [("0", 1)],  # a duplicate beyond the carrier's size
        good[:3] + [("z", 2)],  # an unknown state
        [("0", 0)] + good[1:],  # position 0
        good[:3] + [("1", 3)],  # position k + 1
        [],
    ):
        with pytest.raises(InputError) as info:
            verify_compatible_order(machine, order)
        assert str(info.value) == not_total
    for tail, message in (
        (["bad"], "order entry 'bad' is not a (state, position) pair"),
        ([("1", 2, 3)], "order entry ('1', 2, 3) is not a (state, position) pair"),
        ([("1", 2.0)], "order entry ('1', 2.0) has a position that is not an integer"),
    ):
        for head in (good[:1] + good[:2], [("z", 1), (["x"], 1)]):  # duplicate; unknown, unhashable
            with pytest.raises(InputError) as info:
                verify_compatible_order(machine, head + tail)
            assert str(info.value) == message
    for order, state in (([(["0"], 1)] + good[1:], "['0']"), (good + [({}, 1)], "{}"),
                         ([("z", 1), (["0"], 1), ({}, 2)] + good, "['0']")):
        for check in (partial(verify_compatible_order, machine), compatible_order_to_order_system):
            with pytest.raises(InputError) as info:
                check(order)
            assert str(info.value) == f"order entry ({state}, 1) has a state that is not hashable"


def test_find_compatible_order_on_counter_machines():
    for n in range(1, 5):
        machine = counter_machine(n)
        order = find_compatible_order(machine)
        assert order is not None
        assert verify_compatible_order(machine, order).ok


def test_find_compatible_order_forced_and_missing():
    forced = Machine(2, ["s"], [("s", 1, 2, ["s"])], bad=[("s", "s")])
    assert find_compatible_order(forced) == (("s", 1), ("s", 2))
    stuck = Machine(
        2,
        ["s"],
        [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])],
        bad=[("s", "s")],
    )
    assert find_compatible_order(stuck) is None
    free = Machine(2, ["s", "t"], [], bad=[("s", "s"), ("t", "t")])
    assert find_compatible_order(free) == (("s", 1), ("t", 1), ("s", 2), ("t", 2))


def test_find_compatible_order_budget():
    machine = counter_machine(3)
    with pytest.raises(BudgetError):
        find_compatible_order(machine, budget=1)
    assert find_compatible_order(machine, budget=10**6) == find_compatible_order(machine)


def reference_order_search(machine):
    # the forced-arc search, transcribed: each prefix node builds the arcs
    # its prefix forces on the state-position pairs (transition arcs,
    # position chains, last placed below every unplaced) and runs a cycle
    # DFS; returns the first order and the number of prefix nodes visited
    states = machine.states
    positions = machine.positions
    trans = [((s, i), (t, j)) for s, i, j, t in transition_atoms(machine)]
    nodes = 0

    def forced_arcs(prefix, placed):
        arcs = list(trans)
        for i in positions:
            for a, b in zip(prefix, prefix[1:]):
                arcs.append(((a, i), (b, i)))
            if prefix:
                for u in states:
                    if u not in placed:
                        arcs.append(((prefix[-1], i), (u, i)))
        return arcs

    def has_cycle(arcs):
        out = {}
        for a, b in arcs:
            out.setdefault(a, []).append(b)
            out.setdefault(b, [])
        color = dict.fromkeys(out, 0)
        for root in out:
            if color[root]:
                continue
            color[root] = 1
            stack = [(root, iter(out[root]))]
            while stack:
                v, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    stack.pop()
                    color[v] = 2
                elif color[nxt] == 1:
                    return True
                elif color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(out[nxt])))
        return False

    def interleave(prefix):
        # repeatedly take the lowest-position ready pair, earliest in the
        # position-major listing
        listing = [(s, i) for i in positions for s in prefix]
        indeg = dict.fromkeys(listing, 0)
        out = {x: [] for x in listing}
        for a, b in forced_arcs(prefix, set(prefix)):
            out[a].append(b)
            indeg[b] += 1
        order = []
        taken = set()
        while len(order) < len(listing):
            ready = [x for x in listing if x not in taken and indeg[x] == 0]
            pick = min(ready, key=lambda x: x[1])
            order.append(pick)
            taken.add(pick)
            for y in out[pick]:
                indeg[y] -= 1
        return tuple(order)

    def extend(prefix, placed):
        nonlocal nodes
        nodes += 1
        if has_cycle(forced_arcs(prefix, placed)):
            return None
        if len(prefix) == len(states):
            return interleave(prefix)
        for s in states:
            if s not in placed:
                found = extend(prefix + [s], placed | {s})
                if found is not None:
                    return found
        return None

    return extend([], frozenset()), nodes


def reference_corpus():
    rng = default_rng(5)
    for _ in range(150):
        yield sat_to_machine(CnfInstance(*random_cnf(rng)))
    rng = default_rng(11)
    for n in range(300):
        yield random_cycling_machine(
            rng, k=2 + n % 3, max_states=5, density=(0.1, 0.2, 0.4)[n // 3 % 3]
        )
    for n in range(1, 4):
        yield gen_counter_machine(n)


def least_completing_budget(machine, high):
    # bisection: the search takes the same path under every budget, so it
    # completes exactly from its prefix-node count up; budget 0 never does
    # (the root is charged) and budget high does
    low = 0
    while high - low > 1:
        mid = (low + high) // 2
        try:
            find_compatible_order(machine, budget=mid)
            high = mid
        except BudgetError:
            low = mid
    return high


def test_find_compatible_order_matches_the_forced_arc_reference():
    # same first order; the dead-state memo skips subtrees the reference
    # searches again, so it never needs more prefix nodes, and needs fewer
    # over the corpus
    found = exhausted = spent = reference = 0
    for machine in reference_corpus():
        order, nodes = reference_order_search(machine)
        assert find_compatible_order(machine) == order
        assert find_compatible_order(machine, budget=nodes) == order
        least = least_completing_budget(machine, nodes)
        assert least <= nodes
        spent += least
        reference += nodes
        if order is None:
            exhausted += 1
        else:
            found += 1
    assert spent < reference
    assert found >= 200
    assert exhausted >= 150


def threshold_formulas():
    # five random 3-CNFs near the satisfiability threshold: 34 clauses on
    # 8 variables, three distinct variables per clause, each sign fair
    rng = random.Random(5)
    for _ in range(5):
        clauses = [
            [(f"x{v}", rng.random() < 0.5) for v in rng.sample(range(1, 9), 3)]
            for _ in range(34)
        ]
        yield CnfInstance([f"x{v}" for v in range(1, 9)], clauses)


def test_find_compatible_order_passes_the_3sat_wall():
    # without the dead-state memo each formula needs more than 50,000
    # prefix nodes; with it, at most 23,869
    for cnf in threshold_formulas():
        machine = sat_to_machine(cnf)
        order = find_compatible_order(machine, budget=30_000)
        assert verify_compatible_order(machine, order).ok
        assert evaluate_cnf(cnf, order_to_assignment(order, cnf))
        with pytest.raises(BudgetError):
            find_compatible_order(machine, budget=1)


def least_first_interleave(machine, prefix):
    # the leaf as least_first_order's heap merged it: node (i - 1) * p +
    # prefix rank, with the chain arcs x -> x + 1 and the transition arcs
    p = len(prefix)
    rank = {s: r for r, s in enumerate(prefix)}
    succ = [[x + 1] if (x + 1) % p else [] for x in range(machine.k * p)]
    for s, i, j, t in machine.numbered_atoms:
        succ[(i - 1) * p + rank[s]].append((j - 1) * p + rank[t])
    return tuple((machine.states[prefix[x % p]], x // p + 1) for x in least_first_order(succ))


def test_leaf_chain_merge_is_the_least_first_order():
    # a leaf's chain merge emits the head of the lowest ready position,
    # which is least_first_order's least ready node; taking the highest
    # ready position instead fails this test
    rng = default_rng(27)
    cases = [
        (k, random_cycling_machine(rng, k=k, max_states=5, density=(0.1, 0.2)[n % 2]))
        for n in range(150) for k in (2, 3, 4)
    ]
    rng = default_rng(1806)
    cases += [("sat", sat_to_machine(CnfInstance(*random_cnf(rng)))) for _ in range(20)]
    found = dict.fromkeys((2, 3, 4, "sat"), 0)
    for kind, machine in cases:
        order = find_compatible_order(machine)
        if order is not None:
            prefix = [machine._index[s] for s, i in order if i == 1]
            assert order == least_first_interleave(machine, prefix)
            found[kind] += 1
    assert min(found.values()) >= 20


ORDERS_ANSWERS_DIGEST = "fc90b24754d85c070c9d07659df443cf494b549cc9a5a21796de893587ed26f4"


def test_orders_answers_match_their_pinned_digest():
    # pinned before the leaf became a chain merge, the verifier one walk and
    # the 2-machine decision a sign-only Karp
    digest = hashlib.sha256()
    rng = default_rng(2027)
    for n in range(1500):
        machine = random_cycling_machine(rng, k=2 + n % 3, max_states=4, density=0.1 + n % 4 / 10)
        answers = (find_compatible_order(machine),)
        if machine.k == 2:
            answers += (decide_cycling_2machine(machine),)
        digest.update(repr(answers).encode())
    patterns = [[(v, sign) for v, sign in zip("xyz", signs)]
                for signs in itertools.product((True, False), repeat=3)]
    cnfs = [CnfInstance("xyz", patterns[:n] + patterns[n + 1:]) for n in range(9)]
    for cnf in cnfs + [CnfInstance(*random_cnf(rng)) for _ in range(80)]:
        order = find_compatible_order(sat_to_machine(cnf))
        answers = (order, order and sorted(order_to_assignment(order, cnf).items()))
        digest.update(repr(answers).encode())
    for n in range(300):
        digest.update(repr(find_order_system(random_machine(rng, k=2, max_states=3))).encode())
    assert digest.hexdigest() == ORDERS_ANSWERS_DIGEST


def all_one_state_cycling_machines():
    position_pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for bits in itertools.product([0, 1], repeat=4):
        rows = [
            ("s", i, j, ["s"])
            for (i, j), b in zip(position_pairs, bits)
            if b
        ]
        yield Machine(2, ["s"], rows, bad=[("s", "s")])


def test_decide2_matches_search_on_small_machines():
    for machine in all_one_state_cycling_machines():
        fast = decide_cycling_2machine(machine)
        assert fast == (find_compatible_order(machine) is not None)
    rng = default_rng(77)
    for _ in range(150):
        machine = random_cycling_machine(rng, k=2, max_states=2)
        assert decide_cycling_2machine(machine) == (
            find_compatible_order(machine) is not None
        )
    rng = default_rng(78)
    for _ in range(50):
        machine = random_cycling_machine(rng, k=2, max_states=3)
        assert decide_cycling_2machine(machine) == (
            find_compatible_order(machine) is not None
        )


def test_decide2_counter_and_self_loop_examples():
    for n in range(1, 6):
        assert decide_cycling_2machine(counter_machine(n))
    swing = Machine(
        2,
        ["s"],
        [("s", 1, 2, ["s"]), ("s", 2, 1, ["s"])],
        bad=[("s", "s")],
    )
    assert not decide_cycling_2machine(swing)
    # the reduction digraph for the 2-counter: up arcs weigh +1, the lone
    # down arc weighs -1; cycle means range from 1/3 (the long loop) to 1
    graph = NamedRows(
        ["0", "1", "2"],
        [("0", "1", 1), ("1", "2", 1), ("2", "2", 1), ("2", "0", -1)],
    )
    assert graph.cycle_mean(1) == Fraction(1, 3)
    assert graph.cycle_mean(-1) == Fraction(1)


def test_decide2_requires_cycling_k2():
    with pytest.raises(InputError):
        decide_cycling_2machine(two_state_example())
    wide = Machine(3, ["s"], [], bad=[("s", "s")])
    with pytest.raises(InputError):
        decide_cycling_2machine(wide)


def test_decide2_verdict_matches_path_goodness():
    # an order forces every closed run to carry nonzero total displacement,
    # so all paths stay good; with cycle means on both sides of zero a
    # zero-displacement run exists and fits on a short path
    rng = default_rng(91)
    orderless = 0
    ordered = 0
    for _ in range(80):
        machine = random_cycling_machine(rng, k=2, max_states=3)
        if decide_cycling_2machine(machine):
            ordered += 1
            assert check_paths_good(machine, 6) is None
        else:
            orderless += 1
            found = check_paths_good(machine, 40)
            assert found is not None
            n, witness = found
            assert validate_witness(path_digraph(n), machine, witness).ok
    assert ordered >= 8
    assert orderless >= 8


def test_check_paths_good_counter_machine():
    assert check_paths_good(counter_machine(2), 8) is None


def test_check_paths_good_input_errors():
    with pytest.raises(InputError):
        check_paths_good(two_state_example(), 4)
    wide = Machine(3, ["s"], [], bad=[("s", "s")])
    with pytest.raises(InputError):
        check_paths_good(wide, 4)


def test_verify_order_system_accepts_the_two_state_example():
    machine = two_state_example()
    system = two_state_example_system()
    result = verify_order_system(machine, system)
    assert result.ok
    discrete = OrderSystem([{"0"}, {"1"}])
    assert induced_on_position(system, 1) == discrete
    assert induced_on_position(system, 2) == discrete


def test_verify_order_system_flags_violations():
    machine = two_state_example()
    system = two_state_example_system()
    reflexive = Machine(
        2,
        ["0", "1"],
        {("0", 1, 2): {"1"}, ("0", 2, 1): {"1"}, ("1", 1, 2): {"0"}},
        bad=[("0", "1"), ("0", "0")],
    )
    result = verify_order_system(reflexive, system)
    assert not result.ok
    assert any("bad pair (0,0)" in v for v in result.violations)
    upside_down = OrderSystem(
        [{("1", 2)}, {("1", 1), ("0", 2)}, {("0", 1)}],
        [(0, 2)],
    )
    result = verify_order_system(machine, upside_down)
    assert not result.ok
    assert any("transition 0,(1,2)->1" in v for v in result.violations)
    plain = Machine(2, ["0", "1"], [], bad=[])
    split = OrderSystem(
        [{("0", 1)}, {("1", 1)}, {("1", 2)}, {("0", 2)}],
        [],
    )
    result = verify_order_system(plain, split)
    assert not result.ok
    assert any("position 2 induces a different system" in v for v in result.violations)


def test_verify_order_system_input_errors():
    machine = two_state_example()
    with pytest.raises(InputError):
        verify_order_system(machine, [("0", 1)])
    with pytest.raises(InputError):
        verify_order_system(machine, OrderSystem([{("0", 1)}]))


def test_verify_order_system_on_machines_it_does_not_validate():
    # the verifier checks the system against any machine: a transition off
    # the carrier is an input error, a cycling machine a violation
    system = OrderSystem([{("a", 1)}, {("a", 2)}])
    undeclared = Machine(2, ["a"], [("a", 1, 2, ["q"])])
    with pytest.raises(InputError):
        verify_order_system(undeclared, system)
    wide = Machine(2, ["a"], [("a", 1, 5, ["a"])])
    with pytest.raises(InputError):
        verify_order_system(wide, system)
    cycling = Machine(2, ["a"], [], bad=[("a", "a")])
    assert verify_order_system(cycling, system).violations == (
        "bad pair (a,a) is ordered upward by the induced system",
    )


def test_verify_order_system_names_an_undeclared_state():
    # the numbered views raise KeyError over an undeclared state, in the table
    # or in a bad pair; the verifier turns it into an InputError naming it
    system = OrderSystem([{("a", 1)}, {("a", 2)}])
    cases = [
        (Machine(2, ["a"], [("a", 1, 2, ["q"])]), "'q'"),
        (Machine(2, ["a"], [("a", 1, 2, ["a"])], bad=[("a", "ghost")]), "'ghost'"),
    ]
    for machine, name in cases:
        with pytest.raises(InputError, match=f"undeclared state {name}"):
            verify_order_system(machine, system)


def test_find_order_system_unique_on_the_two_state_example():
    machine = two_state_example()
    expected = two_state_example_system()
    assert find_order_system(machine) == expected
    assert list(iter_compatible_order_systems(machine)) == [expected]


def test_find_order_system_agrees_with_definitional_filter():
    rng = default_rng(92)
    nonempty = 0
    for _ in range(8):
        machine = random_machine(rng, k=2, max_states=2)
        found = list(iter_compatible_order_systems(machine))
        assert len(found) == len(set(found))
        assert set(found) == filter_order_systems(machine)
        first = find_order_system(machine)
        assert first == (found[0] if found else None)
        if found:
            nonempty += 1
    assert nonempty >= 2


def test_find_order_system_none_when_diagonals_force_a_bad_pair():
    machine = Machine(
        2,
        ["a", "b"],
        {("a", 1, 1): {"b"}, ("b", 1, 1): {"a"}},
        bad=[("a", "b")],
    )
    assert find_order_system(machine) is None
    assert list(iter_compatible_order_systems(machine)) == []
    assert filter_order_systems(machine) == set()


def test_find_order_system_budget_and_semantics():
    with pytest.raises(BudgetError):
        find_order_system(hasse_machine(), budget=2)
    with pytest.raises(InputError):
        find_order_system(counter_machine(2))


def test_find_order_system_budget_bounds_the_enumeration(monkeypatch):
    # each listed system costs one unit, so a budget of 2000 builds at most
    # 2000 systems; this machine has about 194k compatible systems, and the
    # enumeration once built 122,358 of them (9 s and 475 MB on a 2-vCPU
    # x86 host) before the budget ran out on stage-one systems and layout
    # prefixes alone
    built = []

    class CountingSystem(OrderSystem):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(orders_module, "OrderSystem", CountingSystem)
    rng = default_rng(2718)
    for _ in range(23):
        machine = random_machine(rng, k=3)
    with pytest.raises(BudgetError):
        list(iter_compatible_order_systems(machine, budget=2000))
    assert 0 < len(built) <= 2000


def test_find_order_system_on_the_hasse_machine():
    machine = hasse_machine()
    system = find_order_system(machine)
    assert system is not None
    assert verify_order_system(machine, system).ok


def test_find_order_system_on_the_unbalanced_machine():
    # the first system the search returned before its prefix cuts, after
    # 1.1M budget units (about 45 s); the cut search reaches it within 25k
    frozen = OrderSystem(
        [
            {("a-1", 2)},
            {("a-1", 1), ("a0", 2)},
            {("a0", 1), ("a1", 2)},
            {("a1", 1)},
            {("b0", 1)},
            {("b0", 2), ("b1", 1)},
            {("b1", 2)},
        ],
        [(2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
    )
    machine = gen_unbalanced_machine(1)
    assert find_order_system(machine, budget=25_000) == frozen
    assert verify_order_system(machine, frozen).ok


def test_partitions_cut_a_block_with_a_bad_pair_while_it_grows():
    # the cut listing is the full restricted-growth listing less the
    # partitions with a bad pair inside a block, in the same order
    rng = default_rng(31)
    for n in range(7):
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        for _ in range(6):
            bad = rng.sample(pairs, rng.randint(0, min(len(pairs), 4)))
            kept = [
                blocks
                for blocks in reference_partitions(range(n))
                if not any(s in b and t in b for s, t in bad for b in blocks)
            ]
            assert list(orders_module._partitions(range(n), bad)) == kept


def test_find_order_system_budget_bounds_stage_one():
    # 31 states and 4 bad pairs: almost every partition puts a bad pair in
    # one block, and a rejected partition charges no unit, so the budget
    # bounds stage one only if such partitions are cut while they grow
    with pytest.raises(BudgetError):
        find_order_system(gen_alternating_machine().machine, budget=3000)


def test_iter_compatible_order_systems_is_lazy():
    # the machine of test_find_order_system_budget_bounds_the_enumeration,
    # with about 194k compatible systems; a listing held in one list once
    # reached 475 MB at 122k systems
    rng = default_rng(2718)
    for _ in range(23):
        machine = random_machine(rng, k=3)
    systems = iter_compatible_order_systems(machine)
    tracemalloc.start()
    try:
        first = next(systems)
        seen = 1 + sum(1 for _ in itertools.islice(systems, 4999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == 5000
    assert peak < 5_000_000
    assert first == find_order_system(machine)


def test_compatible_order_to_order_system():
    order = counter_order(2)
    system = compatible_order_to_order_system(order)
    assert system.classes == tuple(frozenset([entry]) for entry in order)
    for a in range(len(order)):
        for b in range(len(order)):
            assert system.below_or_equal(order[a], order[b]) == (a <= b)
    relaxed = Machine(
        2,
        [str(i) for i in range(3)],
        transition_rows(counter_machine(2)),
        bad=[],
    )
    assert verify_order_system(relaxed, system).ok
    with pytest.raises(InputError):
        compatible_order_to_order_system([("a", 1), ("a", 1)])


# -- the order-system search before its prefix cuts, transcribed ----------
#
# Stage one walked every order system on the states and filtered each one
# after building it; stage two generated every merge layout of the
# position chains and checked a layout only once it was complete.  The
# budget counted every stage-one system and every complete layout.


class ReferenceCap(Exception):
    pass


def reference_partitions(elements):
    # restricted-growth strings in ascending lexicographic order
    def rec(rgs):
        if len(rgs) == len(elements):
            blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
            for x, c in zip(elements, rgs):
                blocks[c].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for c in range(max(rgs, default=-1) + 2):
            yield from rec(rgs + [c])

    return rec([])


def reference_closure(pairs, n):
    below = [set() for _ in range(n)]
    for a, b in pairs:
        below[a].add(b)
    for mid in range(n):
        for a in range(n):
            if mid in below[a]:
                below[a] |= below[mid]
    return {(a, b) for a in range(n) for b in below[a]}


def reference_iter_order_systems(carrier):
    # every closed pair set tried in ascending bitmask order
    for blocks in reference_partitions(tuple(carrier)):
        p = len(blocks)
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        for perm in itertools.permutations(range(p)):
            ordered = tuple(blocks[c] for c in perm)
            for mask in range(1 << len(pairs)):
                chosen = {pairs[n] for n in range(len(pairs)) if mask >> n & 1}
                if reference_closure(chosen, p) == chosen:
                    yield OrderSystem(ordered, chosen)


def reference_merges(p, k):
    # every merge of k copies of a p-chain into blocks, a block choosing
    # its positions in ascending bitmask order over the unfinished ones
    def rec(pos):
        if all(c == p for c in pos):
            yield ()
            return
        eligible = [i for i in range(k) if pos[i] < p]
        for mask in range(1, 1 << len(eligible)):
            chosen = [eligible[n] for n in range(len(eligible)) if mask >> n & 1]
            nxt = list(pos)
            for i in chosen:
                nxt[i] += 1
            for rest in rec(tuple(nxt)):
                yield (tuple((i + 1, pos[i]) for i in chosen),) + rest

    if p == 0:
        yield ()
    else:
        yield from rec((0,) * k)


def reference_lift(theta, k, cross, spend, enumerate_all):
    for layout in reference_merges(len(theta.classes), k):
        spend()
        n = len(layout)
        copyclass = [dict(part) for part in layout]
        block_of = {
            (s, i): b
            for b, part in enumerate(layout)
            for i, c in part
            for s in theta.classes[c]
        }
        required, forbidden = set(), set()
        for a in range(n):
            for b in range(a + 1, n):
                for i in copyclass[a].keys() & copyclass[b].keys():
                    if (copyclass[a][i], copyclass[b][i]) in theta.partial:
                        required.add((a, b))
                    else:
                        forbidden.add((a, b))
        upward = True
        for s, i, j, t in cross:
            a, b = block_of[(s, i)], block_of[(t, j)]
            if a > b:
                upward = False
            elif a < b:
                required.add((a, b))
        base = reference_closure(required, n)
        if not upward or base & forbidden:
            continue
        blocks = [
            frozenset((s, i) for i, c in part for s in theta.classes[c])
            for part in layout
        ]
        if not enumerate_all:
            yield OrderSystem(blocks, base)
            continue
        optional = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if (a, b) not in base and (a, b) not in forbidden
        ]
        for mask in range(1 << len(optional)):
            spend(0)
            extra = {optional[m] for m in range(len(optional)) if mask >> m & 1}
            if reference_closure(base | extra, n) == base | extra:
                yield OrderSystem(blocks, base | extra)


def reference_find_order_system(machine, enumerate_all=False, cap=None):
    # (answer, budget units); raises ReferenceCap after cap steps, a step
    # being a budget unit or one lifted pair mask
    units = steps = 0

    def spend(unit=1):
        nonlocal units, steps
        units += unit
        steps += 1
        if cap is not None and steps > cap:
            raise ReferenceCap

    atoms = list(transition_atoms(machine))
    diag = [(s, t) for s, i, j, t in atoms if i == j]
    cross = [(s, i, j, t) for s, i, j, t in atoms if i != j]
    found = []
    for theta in reference_iter_order_systems(machine.states):
        spend()
        if any(theta.below_or_equal(s, t) for s, t in bad_rows(machine)):
            continue
        if any(not theta.below_or_equal(s, t) for s, t in diag):
            continue
        for system in reference_lift(theta, machine.k, cross, spend, enumerate_all):
            if not enumerate_all:
                return system, units
            found.append(system)
    return (found if enumerate_all else None), units


def system_reference_corpus():
    yield two_state_example()
    yield hasse_machine()
    yield Machine(
        2, ["a", "b"], {("a", 1, 1): {"b"}, ("b", 1, 1): {"a"}}, bad=[("a", "b")]
    )
    rng = default_rng(92)
    for _ in range(8):
        yield random_machine(rng, k=2, max_states=2)
    rng = default_rng(5)
    for n in range(300):
        k, most = ((2, 4), (3, 3))[n % 2]
        yield random_machine(rng, k=k, max_states=most)


# A reference step takes about 50 us (2-vCPU x86 host, Python 3.11).  The
# corpus machines whose first answer takes the reference more than
# FIRST_STEPS steps (a quarter second; the thirteen below take 0.7 to 20 s)
# are keyed by corpus index, with the answer and budget units of one
# uncapped reference run.  Enumerations are compared where the reference
# lists them within ALL_STEPS steps.
FIRST_STEPS = 5_000
ALL_STEPS = 1_000
FROZEN_HEAVY = {
    56: (146420, None, None),
    65: (132803, None, None),
    80: (16954, None, None),
    113: (
        13316,
        [
            [("s1", 1)],
            [("s3", 1)],
            [("s1", 2)],
            [("s3", 2)],
            [("s2", 1)],
            [("s2", 2)],
            [("s4", 1)],
            [("s4", 2)],
        ],
        [(1, 2), (1, 7), (3, 4), (3, 6), (5, 6)],
    ),
    133: (25074, None, None),
    142: (49116, None, None),
    144: (370736, None, None),
    206: (
        34025,
        [
            [("s1", 1)],
            [("s1", 2)],
            [("s2", 2)],
            [("s2", 1), ("s3", 2)],
            [("s3", 1)],
            [("s1", 3)],
            [("s2", 3)],
            [("s3", 3)],
        ],
        [
            (2, 3), (2, 4), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (6, 7),
        ],
    ),
    208: (97768, None, None),
    232: (
        23898,
        [
            [("s1", 2)],
            [("s1", 3)],
            [("s2", 3)],
            [("s1", 1)],
            [("s2", 1), ("s2", 2)],
            [("s3", 1)],
            [("s3", 2)],
            [("s3", 3)],
        ],
        [
            (0, 6), (1, 3), (1, 5), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6),
            (2, 7), (3, 5), (4, 5), (4, 6),
        ],
    ),
    245: (17273, None, None),
    246: (321675, None, None),
    292: (80460, None, None),
}


def test_find_order_system_matches_the_reference(monkeypatch):
    # same first system and same enumeration as the search before the
    # prefix cuts, while the budget units fall; the new units are counted
    # by a Budget that records its charges
    charges = []

    class CountingBudget(Budget):
        def spend(self):
            charges.append(None)
            super().spend()

    monkeypatch.setattr(orders_module, "Budget", CountingBudget)
    old_units = new_units = listed = found = 0
    for n, machine in enumerate(system_reference_corpus()):
        if n in FROZEN_HEAVY:
            units, classes, partial = FROZEN_HEAVY[n]
            system = None if classes is None else OrderSystem(classes, partial)
        else:
            system, units = reference_find_order_system(machine, cap=FIRST_STEPS)
        charges.clear()
        assert find_order_system(machine) == system, n
        spent = len(charges)
        old_units += units
        new_units += spent
        found += system is not None
        assert find_order_system(machine, budget=spent) == system
        if spent:
            with pytest.raises(BudgetError):
                find_order_system(machine, budget=spent - 1)
        if units > ALL_STEPS:
            continue  # the enumeration takes every step the first answer took
        try:
            everything, _ = reference_find_order_system(machine, True, cap=ALL_STEPS)
        except ReferenceCap:
            continue
        assert list(iter_compatible_order_systems(machine)) == everything, n
        listed += 1
    assert found >= 100
    assert listed >= 200
    assert new_units * 10 < old_units
