"""Compatible orders and order systems: verify, pruned searches, fast 2-machine decision.

Listing, counting and searching the order systems on a set all walk them
through one generator, ``_systems_on``, in one canonical order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .digraph import has_zero_mean_span
from .errors import Budget, InputError
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
            a, b = int(a), int(b)
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


def _partitions(elements, bad):
    # restricted-growth order: each element joins every open block in
    # turn, then opens a new one; it skips a block holding a bad partner
    # (bad pairs join distinct elements), so no block gets a bad pair
    bad = set(bad) | {(t, s) for s, t in bad}
    blocks = []

    def rec(n):
        if n == len(elements):
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            if any((elements[n], x) in bad for x in b):
                continue
            b.append(elements[n])
            yield from rec(n + 1)
            b.pop()
        blocks.append([elements[n]])
        yield from rec(n + 1)
        blocks.pop()

    return rec(0)


def _closed_pair_sets(p, needed=frozenset(), banned=frozenset()):
    # the transitively closed sets of pairs (a, b), a < b < p, holding every
    # needed pair and no banned one, in ascending bitmask order over the
    # pairs listed lexicographically.  Pairs are decided from the last one
    # down, absent before present, which is that order.  Rows are decided
    # from the last row up and targets from the top down, so (a, b) may be
    # present exactly when row b already lies in row a, and leaving a pair
    # out never breaks closure: only a needed pair can end a branch
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)][::-1]
    rows = [0] * p

    def rec(n):
        if n == len(pairs):
            yield {(a, b) for a, b in pairs if rows[a] >> b & 1}
            return
        a, b = pairs[n]
        if (a, b) not in needed:
            yield from rec(n + 1)
        if (a, b) not in banned and not rows[b] & ~rows[a]:
            rows[a] |= 1 << b
            yield from rec(n + 1)
            rows[a] ^= 1 << b

    return rec(0)


def _systems_on(elements, bad=(), diag=()):
    # (ordered classes, closed partial) in iter_order_systems order, less
    # the partitions with a bad pair (s, t) inside a class (cut while they
    # grow), the class orders with a diag pair (s, t) ordered downward, and
    # the partials that miss a diag pair across classes or hold a bad pair
    for blocks in _partitions(elements, bad):
        cls = {s: c for c, block in enumerate(blocks) for s in block}
        for perm in permutations(range(len(blocks))):
            at = {s: perm.index(c) for s, c in cls.items()}
            if any(at[s] > at[t] for s, t in diag):
                continue
            needed = {(at[s], at[t]) for s, t in diag if at[s] < at[t]}
            banned = {(at[s], at[t]) for s, t in bad}
            ordered = tuple(blocks[c] for c in perm)
            for partial in _closed_pair_sets(len(blocks), needed, banned):
                yield ordered, partial


def iter_order_systems(carrier):
    """Every order system on the given elements, in a fixed enumeration order.

    Partitions come in restricted-growth order over the element listing,
    class orders in lexicographic order of the block permutation, and
    partial orders in ascending bitmask order (pairs (i, j), i < j, listed
    lexicographically).  This is the canonical order find_order_system
    keeps while it skips the systems its filters reject.
    """
    elements = tuple(carrier)
    if len(set(elements)) != len(elements):
        raise InputError("carrier has repeated elements")
    for ordered, partial in _systems_on(elements):
        yield OrderSystem(ordered, partial)


def count_order_systems(n):
    """Number of order systems on an n-element set."""
    return sum(1 for _ in _systems_on(range(int(n))))


def _as_pairs(order):
    # the order's (state, position) entries, each checked as it is reached
    for entry in order:
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


def find_compatible_order(machine, budget=None):
    """Search for a compatible order on a cycling machine.

    Backtracks over prefixes of the state order.  A prefix forces every
    transition arc, the position chains in prefix order, and every placed
    state below every unplaced one; it is abandoned as soon as these arcs
    close a directed cycle.  Such a cycle is a chain of transition atoms
    joined by stretches of one position's chain, so the check runs on the
    atoms: atom (s,i)->(t,j) leads on to every atom leaving (t,j) and,
    once t is placed, to every atom leaving position j at a state placed
    after t or not yet placed.  Each atom keeps the atoms it reaches as an
    int bitset.  Placing a state only adds follow-ons to the atoms landing
    on it, so along a branch the reach sets only grow, and a prefix is
    abandoned when an atom reaches itself.

    A subtree depends only on the placed states and the reach sets; the
    prefix's order fixes only a leaf's interleaving.  So a failed prefix
    is remembered by (placed-state bitmask, reach), not by the unplaced
    atoms, which miss the states no atom leaves, and fails at once when
    its key recurs.  Only failures are kept, so the answer is unchanged.

    Returns the first order in canonical enumeration order, or None when
    the space is exhausted.  States are tried in declaration order; a leaf
    merges its position chains, each in prefix order, emitting each time
    the head of the lowest position whose atom in-arcs all leave emitted
    pairs.  The budget counts prefix nodes, and so bounds the memo: it
    keeps at most one key per node.
    """
    require_valid(machine, "cycling")
    states = machine.states
    atoms = machine.numbered_atoms
    counter = Budget(budget, "compatible order search budget exhausted")
    # bitsets over the atoms leaving each state and each position;
    # landing[t][j] holds the atoms landing on (t,j) as a bitset and as
    # indices
    from_state = [0] * len(states)
    from_position = [0] * (machine.k + 1)
    landing = [{} for _ in states]
    for e, (s, i, j, t) in enumerate(atoms):
        bit = 1 << e
        from_state[s] |= bit
        from_position[i] |= bit
        group = landing[t].setdefault(j, [0, []])
        group[0] |= bit
        group[1].append(e)

    def land(t, reach, leaving):
        # reach sets once every atom landing on some (t,j) also leads on to
        # the atoms in leaving that leave position j, or None when an atom
        # then reaches itself; such an atom's old reach lies in its new one
        for j, (group, members) in landing[t].items():
            grown = rest = leaving & from_position[j]
            while rest:
                low = rest & -rest
                grown |= reach[low.bit_length() - 1]
                rest ^= low
            if grown & group:
                return None
            reach = [r | grown if r & group else r for r in reach]
            for e in members:
                reach[e] = grown
        return reach

    def interleave(prefix):
        # Kahn's least-first order on node (i - 1) * p + prefix rank: only a
        # chain's head can be ready, so the least ready node heads the lowest
        # position in the ready bitmask
        p, k = len(prefix), machine.k
        rank = [0] * p
        for r, s in enumerate(prefix):
            rank[s] = r
        out = [[] for _ in range(k * p)]
        unmet = [0] * (k * p)  # each node's atom in-arcs from nodes not yet emitted
        for s, i, j, t in atoms:
            y = (j - 1) * p + rank[t]
            out[(i - 1) * p + rank[s]].append(y)
            unmet[y] += 1
        head = [i * p for i in range(k)]
        ready = sum(1 << i for i, x in enumerate(head) if p and not unmet[x])
        order = []
        while ready:
            i = (ready & -ready).bit_length() - 1
            x = head[i]
            order.append((states[prefix[x - i * p]], i + 1))
            for y in out[x]:
                unmet[y] -= 1
                if not unmet[y] and head[y // p] == y:
                    ready |= 1 << y // p
            head[i] = x = x + 1
            if x == (i + 1) * p or unmet[x]:
                ready ^= 1 << i
        return tuple(order)

    dead = set()  # (placed bitmask, reach) of every subtree that failed

    def extend(prefix, placed, reach, unplaced):
        if len(prefix) == len(states):
            return interleave(prefix)
        key = (placed, tuple(reach))
        if key in dead:
            return None
        for s in range(len(states)):
            if not placed >> s & 1:
                counter.spend()
                # an atom landing on (s,j) now leads on to every atom
                # leaving position j at an unplaced state, s included
                grown = land(s, reach, unplaced)
                if grown is not None:
                    found = extend(prefix + [s], placed | 1 << s, grown, unplaced & ~from_state[s])
                    if found is not None:
                        return found
        dead.add(key)
        return None

    # with nothing placed, an atom landing on (t,j) leads on to the atoms
    # leaving (t,j)
    counter.spend()
    reach = [0] * len(atoms)
    for t in range(len(states)):
        reach = land(t, reach, from_state[t])
        if reach is None:
            return None
    return extend([], 0, reach, (1 << len(atoms)) - 1)


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


def _lift(machine, classes, partial, cross, counter):
    # lift a system on the state numbers to the full carrier: condition (2)
    # says each position reads it, so the global class sequence is a merge of k
    # copies of its class chain, and the global partial restricted to any
    # one position must reproduce it.  The merge grows one block at a time,
    # depth first, each block advancing a nonempty set of the unfinished
    # positions (ascending bitmask order) by one class.  A prefix is cut
    # once a cross atom lands in it from a copy not yet placed, or once the
    # closure of its required pairs (cross atoms, and two copies of one
    # position ordered by the partial) meets a forbidden pair (two copies
    # the partial leaves apart).  Required pairs point forward, so a
    # block's predecessors are final once it is placed, and every complete
    # layout reached is compatible.
    k, names, p = machine.k, machine.states, len(classes)
    cls = {s: c for c, block in enumerate(classes) for s in block}
    into = {}
    for s, i, j, t in cross:
        into.setdefault((j, cls[t]), []).append((i, cls[s]))
    where = [[] for _ in range(k + 1)]  # where[i][c]: the block holding (i, c)
    placed = []  # per block: its copies, closed predecessors and forbidden ones

    def place(part, b):
        # the closed predecessor and forbidden bitsets of block b, or None
        # when the prefix ending in it is cut; a copy not yet placed counts
        # as a later block
        req = ban = 0
        for i, c in part:
            for c2, a in enumerate(where[i][:c]):
                if (c2, c) in partial:
                    req |= 1 << a
                else:
                    ban |= 1 << a
            for i2, c2 in into.get((i, c), ()):
                a = where[i2][c2] if c2 < len(where[i2]) else b + 1
                if a > b:
                    return None
                if a < b:
                    req |= 1 << a
        closed = rest = req
        while rest:
            low = rest & -rest
            closed |= placed[low.bit_length() - 1][1]
            rest ^= low
        return None if closed & ban else (part, closed, ban)

    def complete():
        blocks, base, banned = [], set(), set()
        for b, (part, closed, ban) in enumerate(placed):
            blocks.append(frozenset((names[s], i) for i, c in part for s in classes[c]))
            base.update((a, b) for a in range(b) if closed >> a & 1)
            banned.update((a, b) for a in range(b) if ban >> a & 1)
        for pairs in _closed_pair_sets(len(blocks), base, banned):
            yield OrderSystem(blocks, pairs)

    def extend():
        unfinished = [i for i in range(1, k + 1) if len(where[i]) < p]
        if not unfinished:
            yield from complete()
            return
        for mask in range(1, 1 << len(unfinished)):
            counter.spend()
            part = [(i, len(where[i])) for n, i in enumerate(unfinished) if mask >> n & 1]
            for i, c in part:
                where[i].append(len(placed))
            block = place(part, len(placed))
            if block is not None:
                placed.append(block)
                yield from extend()
                placed.pop()
            for i, c in part:
                where[i].pop()

    return extend()


def iter_compatible_order_systems(machine, budget=None):
    """Yield every compatible order system, general semantics, in canonical order.

    Stage one walks the systems on the states in iter_order_systems order
    through ``_systems_on``: a bad pair inside one class rejects the
    partition, a same-position transition ordered downward the class order,
    and the partials are drawn closed, holding every same-position
    transition across classes and no bad pair.  Stage two lifts each
    survivor to S x [k] by merging the position chains one block at a time,
    cutting a prefix as soon as no completion of it is compatible, and yields
    each closed partial the complete layout admits, least first.  The budget
    counts stage-one survivors, stage-two layout prefixes and each yielded
    system, charged when the next one is asked for.
    """
    require_valid(machine, "general")
    counter = Budget(budget, "order system search budget exhausted")
    atoms = machine.numbered_atoms
    diag = [(s, t) for s, i, j, t in atoms if i == j]
    cross = [atom for atom in atoms if atom[1] != atom[2]]
    for ordered, partial in _systems_on(range(len(machine.states)), machine.numbered_bad, diag):
        counter.spend()
        for system in _lift(machine, ordered, partial, cross, counter):
            yield system
            counter.spend()


def find_order_system(machine, budget=None):
    """The first system iter_compatible_order_systems yields, or None, at its cost."""
    return next(iter_compatible_order_systems(machine, budget), None)


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


def decide_cycling_2machine(machine):
    """Decide compatible-order existence for a cycling 2-machine.

    Transitions become weighted arcs s -> t of weight j - i on the states.
    An order exists exactly when no strong component carries both a cycle
    of mean <= 0 and a cycle of mean >= 0 (equivalently, a closed walk of
    total weight zero).
    """
    require_valid(machine, "cycling")
    if machine.k != 2:
        raise InputError("the fast decision procedure needs k = 2")
    rows = [(s, t, j - i) for s, i, j, t in machine.numbered_atoms]
    return not has_zero_mean_span(len(machine.states), rows)
