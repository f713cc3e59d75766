"""Checkers for claimed answers: compatible orders and order systems for a
machine, bad-cycle witnesses for a hypergraph, and proper colorings.

Each replays a claim against the definitions and shares no code with the
search that found it, so this module loads only the errors and the machine
model; a witness's ``hypergraph.HyperCycle`` is read through its attributes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, require_int
from .machine import numbered_table, require_valid


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a verification: ok flag plus human-readable violations."""

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def _close_pairs(pairs, n):
    """Transitive closure of a set of index pairs over range(n)."""
    below = [set() for _ in range(n)]
    for a, b in pairs:
        below[a].add(b)
    for mid in range(n):
        for a in range(n):
            if mid in below[a]:
                below[a] |= below[mid]
    return {(a, b) for a in range(n) for b in below[a]}


class OrderSystem:
    """A partition into classes, linearly ordered, plus a strict partial order.

    ``classes`` lists the blocks from least to greatest under the linear
    order.  ``partial`` holds pairs (i, j) of class indices meaning block i
    is strictly below block j; it is kept transitively closed and must be
    consistent with the listing order (i < j), so the linear order always
    extends it.
    """

    def __init__(self, classes, partial=()):
        blocks = []
        index = {}
        for block in classes:
            members = frozenset(block)
            if not members:
                raise InputError("order system classes must be nonempty")
            for x in members:
                if x in index:
                    raise InputError(f"element {x!r} appears in two classes")
                index[x] = len(blocks)
            blocks.append(members)
        self.classes = tuple(blocks)
        self.carrier = frozenset(index)
        self._index = index
        n = len(blocks)
        pairs = set()
        for a, b in partial:
            # an exact int passes at the cost of two type tests, as in Machine
            if type(a) is not int or type(b) is not int:
                require_int(a, "partial pair index")
                require_int(b, "partial pair index")
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"class index pair ({a}, {b}) is out of range")
            pairs.add((a, b))
        closed = _close_pairs(pairs, n)
        for a, b in closed:
            if a == b:
                raise InputError("partial order on classes contains a cycle")
            if a > b:
                raise InputError(
                    f"partial pair ({a}, {b}) contradicts the class listing order"
                )
        self.partial = frozenset(closed)

    def class_index(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise InputError(f"{x!r} is not in the carrier") from None

    def same_class(self, x, y):
        return self.class_index(x) == self.class_index(y)

    def below(self, x, y):
        """Strictly below: the classes are distinct and partial-ordered."""
        return (self.class_index(x), self.class_index(y)) in self.partial

    def below_or_equal(self, x, y):
        a = self.class_index(x)
        b = self.class_index(y)
        return a == b or (a, b) in self.partial

    def __eq__(self, other):
        if not isinstance(other, OrderSystem):
            return NotImplemented
        return self.classes == other.classes and self.partial == other.partial

    def __hash__(self):
        return hash((self.classes, self.partial))

    def __repr__(self):
        shown = [sorted(block, key=repr) for block in self.classes]
        return f"OrderSystem({shown!r}, partial={sorted(self.partial)!r})"


def _as_pairs(order):
    # the order's (state, position) entries, each checked as it is reached
    try:
        entries = iter(order)
    except TypeError:
        raise InputError(f"order {order!r} is not an iterable of (state, position) pairs") from None
    for entry in entries:
        try:
            s, i = entry
        except (TypeError, ValueError):
            raise InputError(f"order entry {entry!r} is not a (state, position) pair")
        if isinstance(i, bool) or not isinstance(i, int):
            raise InputError(f"order entry {entry!r} has a position that is not an integer")
        yield s, i


def _unhashable(pair):
    return InputError(f"order entry {pair!r} has a state that is not hashable")


def verify_compatible_order(machine, order):
    """Check a claimed compatible order for a cycling machine.

    The order lists S x [k] as (state, position) pairs from least to
    greatest.  Violations cover disagreeing per-position restrictions and
    transitions that fail to go strictly upward.
    """
    require_valid(machine, "cycling")
    names, k, index = machine.states, machine.k, machine._index
    # one walk: pos[s*k + i - 1] is the place of (state number s, position
    # i); the order is total when it has one entry per place and they fill
    # every place, and a shape error anywhere wins over an unhashable state
    pos = [None] * (len(names) * k)
    restrictions = [[] for _ in range(k)]
    walked, unhashable = 0, None
    for walked, (s, i) in enumerate(_as_pairs(order), 1):
        try:
            number = index.get(s)
        except TypeError:
            number, unhashable = None, unhashable or (s, i)
        if number is not None and 0 < i <= k:
            pos[number * k + i - 1] = walked - 1
            restrictions[i - 1].append(s)
    if unhashable is not None:
        raise _unhashable(unhashable)
    if walked != len(pos) or None in pos:
        raise InputError("order is not a total order on the state-position pairs")
    violations = []
    first = restrictions[0]
    for copy, restriction in enumerate(restrictions[1:], 2):
        if restriction != first:
            violations.append(
                f"restriction to position {copy} orders the states {restriction}"
                f" but position 1 orders them {first}"
            )
    for s, i, j, t in machine.numbered_atoms:
        if pos[s * k + i - 1] >= pos[t * k + j - 1]:
            violations.append(
                f"transition {names[s]},({i},{j})->{names[t]} needs ({names[s]},{i}) strictly"
                f" below ({names[t]},{j})"
            )
    return CheckResult(not violations, tuple(violations))


def induced_on_position(system, position):
    """Project an order system on state-position pairs onto one position."""
    keep = []
    index_map = {}
    for n, block in enumerate(system.classes):
        members = frozenset(s for s, i in block if i == position)
        if members:
            index_map[n] = len(keep)
            keep.append(members)
    pairs = {
        (index_map[a], index_map[b])
        for a, b in system.partial
        if a in index_map and b in index_map
    }
    return OrderSystem(keep, pairs)


def verify_order_system(machine, system):
    """Check the three compatibility conditions for an order system.

    (1) every transition weakly increases on classes, (2) the systems
    induced on each position coincide, (3) no pair ordered upward by the
    induced system (including each state with itself) is a bad pair.
    Condition (3) is read off the position-1 induced system.  The machine is
    read unvalidated, through ``numbered_table`` and ``machine.states``, so an
    undeclared state or a position off the carrier raises InputError.
    """
    if not isinstance(system, OrderSystem):
        raise InputError("expected an OrderSystem")
    names = machine.states
    expected = {(s, i) for s in names for i in machine.positions}
    if system.carrier != expected:
        raise InputError(
            "order system carrier must be the state-position pairs of the machine"
        )
    atoms, bad = numbered_table(machine)
    violations = []
    for s, i, j, t in ((names[s], i, j, names[t]) for s, i, j, t in atoms):
        if not system.below_or_equal((s, i), (t, j)):
            violations.append(
                f"transition {s},({i},{j})->{t} needs the class of ({s},{i})"
                f" at or below the class of ({t},{j})"
            )
    induced = [induced_on_position(system, i) for i in machine.positions]
    for copy, proj in zip(machine.positions[1:], induced[1:]):
        if proj != induced[0]:
            violations.append(
                f"position {copy} induces a different system on the states"
                " than position 1"
            )
    base = induced[0]
    for s, t in ((names[a], names[b]) for a, b in bad):
        if base.below_or_equal(s, t):
            violations.append(
                f"bad pair ({s},{t}) is ordered upward by the induced system"
            )
    return CheckResult(not violations, tuple(violations))


def compatible_order_to_order_system(order):
    """View a total order as an order system with singleton classes.

    The partial order relates every earlier class to every later one, so
    the induced relation on the underlying states is the full order read
    off any one position.
    """
    listed, seen = list(_as_pairs(order)), set()
    for pair in listed:
        try:
            seen.add(pair)
        except TypeError:
            raise _unhashable(pair) from None
    if len(listed) != len(seen):
        raise InputError("order lists an element twice")
    classes = [frozenset([x]) for x in listed]
    pairs = {(a, b) for a in range(len(listed)) for b in range(a + 1, len(listed))}
    return OrderSystem(classes, pairs)


@dataclass(frozen=True)
class BadCycleWitness:
    """A cycle, a state sequence accepting it, and the bad endpoint pair."""

    cycle: HyperCycle
    states: tuple
    bad_pair: tuple


def validate_witness(graph, machine, witness):
    """Replay a claimed bad-cycle witness against the definitions."""
    violations = []
    cycle = witness.cycle
    if cycle.graph != graph:
        violations.append("witness cycle lives on a different hypergraph")
        return CheckResult(False, tuple(violations))
    states = tuple(witness.states)
    if len(states) != cycle.length + 1:
        violations.append(
            f"state sequence has {len(states)} entries for a cycle of"
            f" length {cycle.length}"
        )
        return CheckResult(False, tuple(violations))
    for m in range(1, len(states)):
        i, j = cycle.trace(m)
        if states[m] not in machine.targets(states[m - 1], i, j):
            violations.append(
                f"step {m}: {states[m]!r} is not a ({i},{j})-successor"
                f" of {states[m - 1]!r}"
            )
    pair = (states[0], states[-1])
    if tuple(witness.bad_pair) != pair:
        violations.append("bad pair must be the first and last states")
    if pair not in machine.bad:
        violations.append(f"pair {pair!r} is not a bad pair")
    if machine.is_cycling and cycle.length == 0:
        violations.append("cycling semantics only counts cycles of length >= 1")
    return CheckResult(not violations, tuple(violations))


def is_proper_coloring(graph, coloring):
    """True when every vertex is colored and no edge is monochromatic."""
    if any(v not in coloring for v in graph.vertices):
        return False
    return all(len({coloring[v] for v in edge}) > 1 for edge in graph.edges)
