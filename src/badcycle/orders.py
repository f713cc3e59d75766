"""Compatible orders and order systems: pruned searches, fast 2-machine decision.

Listing, counting and searching the order systems on a set all walk them
through one generator, ``_systems_on``, in one canonical order.
"""
from __future__ import annotations

from itertools import permutations

from .checks import OrderSystem
from .digraph import has_zero_mean_span
from .errors import Budget, InputError
from .machine import require_valid


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
