"""Named machine and digraph families with reproducible vertex naming.

Subset-valued vertices are named by joining their sorted elements with
dashes ("1-3-4"); pair-of-subset vertices join the two subset names with
a bar ("1-2|3").  All listings run in lexicographic order of the
underlying integer tuples so regenerated families are bit-identical.
"""
from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .errors import InputError
from .hypergraph import DirectedHypergraph
from .machine import Machine
from .orders import OrderSystem, verify_compatible_order


def gen_hasse_machine():
    """Four-state deterministic machine recognizing order-diagram defects.

    Its bad cycles in a 2-uniform graph are directed closed walks and
    shortcut edges, so a graph is good exactly when it is the diagram of
    the cover relation of a strict partial order.
    """
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


def gen_counter_machine(n):
    """Cycling machine on states 0..n counting up by one, down by two.

    Forward steps saturate at n; backward steps drop off below zero.
    """
    n = int(n)
    if n < 0:
        raise InputError("the counter needs n >= 0")
    states = [str(i) for i in range(n + 1)]
    rows = []
    for i in range(n + 1):
        rows.append((str(i), 1, 2, [str(min(i + 1, n))]))
        if i - 2 >= 0:
            rows.append((str(i), 2, 1, [str(i - 2)]))
    return Machine(2, states, rows, bad=[(s, s) for s in states])


def counter_machine_order(n):
    """The staircase order that makes gen_counter_machine(n) cycle-free.

    Both position restrictions list the states downward from n to 0, and
    (i, 1) sits below (j, 2) exactly when i > j - 2.  The key 3p - 2s
    realizes this as a single sort.
    """
    n = int(n)
    if n < 0:
        raise InputError("the counter needs n >= 0")
    pairs = [(str(s), p) for p in (1, 2) for s in range(n + 1)]
    return tuple(sorted(pairs, key=lambda x: 3 * x[1] - 2 * int(x[0])))


def gen_example3_machine():
    """Two-state machine with one bad pair and a unique order system."""
    return Machine(
        2,
        ["0", "1"],
        {("0", 1, 2): {"1"}, ("0", 2, 1): {"1"}, ("1", 1, 2): {"0"}},
        bad=[("0", "1")],
    )


def _a(i):
    return f"a{i}"


def _b(j):
    return f"b{j}"


def gen_unbalanced_machine(k):
    """Deterministic machine whose good digraphs are k-unbalanced.

    States a_-k..a_k form a two-way counter driven by forward/backward
    steps; reaching the top hands off to states b_0..b_k, which count the
    opposite way and absorb forward steps at b_0.  Every pair (a_0, x)
    with x != a_0 is bad.
    """
    k = int(k)
    if k < 1:
        raise InputError("the unbalanced machine needs k >= 1")
    states = [_a(i) for i in range(-k, k + 1)] + [_b(j) for j in range(k + 1)]
    rows = []
    for i in range(-k, k):
        rows.append((_a(i), 1, 2, [_a(i + 1)]))
    for i in range(-k + 1, k + 1):
        rows.append((_a(i), 2, 1, [_a(i - 1)]))
    rows.append((_a(k), 1, 2, [_b(0)]))
    for j in range(k):
        rows.append((_b(j), 2, 1, [_b(j + 1)]))
    for j in range(1, k + 1):
        rows.append((_b(j), 1, 2, [_b(j - 1)]))
    rows.append((_b(0), 1, 2, [_b(0)]))
    bad = [(_a(0), s) for s in states if s != _a(0)]
    return Machine(2, states, rows, bad=bad)


def unbalanced_machine_order_system(k):
    """The compatible order system shipped with gen_unbalanced_machine(k).

    The linear order interleaves the a-chain (each (a_i, 1) glued to
    (a_{i+1}, 2)) below the b-chain (each (b_j, 2) glued to (b_{j+1}, 1)).
    The partial order keeps the b-classes as a chain, leaves the a-classes
    an antichain, and puts an a-class below a b-class exactly when the
    index sum clears the machine size, so a_0 stays incomparable to every
    other state in the induced order.
    """
    k = int(k)
    if k < 1:
        raise InputError("the unbalanced machine needs k >= 1")
    classes = [{(_a(-k), 2)}]
    for i in range(-k, k):
        classes.append({(_a(i), 1), (_a(i + 1), 2)})
    classes.append({(_a(k), 1)})
    classes.append({(_b(0), 1)})
    for level in range(1, k + 1):
        classes.append({(_b(level - 1), 2), (_b(level), 1)})
    classes.append({(_b(k), 2)})
    first_b = 2 * k + 2
    last = len(classes) - 1
    pairs = set()
    for x in range(first_b, last + 1):
        for y in range(x + 1, last + 1):
            pairs.add((x, y))
    # a-class c sits below the b-class at level L exactly when
    # L >= 2k + 2 - c; both members of each class give the same rule
    for c in range(first_b):
        for level in range(k + 2):
            if level >= 2 * k + 2 - c:
                pairs.add((c, first_b + level))
    return OrderSystem(classes, pairs)


def gen_explicit_hasse_digraph(n):
    """Cover digraph of 2-subsets of [2^n] compared by max against min.

    {a,b} sits below {c,d} when max(a,b) <= min(c,d); edges are the cover
    pairs of that strict order.  Chromatic number grows linearly in n.
    """
    n = int(n)
    if not 1 <= n <= 4:
        raise InputError("supported range is 1 <= n <= 4")
    # the cover pairs of this order are exactly the shift digraph's edges
    # on [2^n], in the same vertex and edge order
    return gen_shift_digraph(2**n)


def _subset_names(m, size):
    """Each size-subset of [m], as an ascending tuple, mapped to its name."""
    return {c: "-".join(map(str, c)) for c in combinations(range(1, m + 1), size)}


def gen_cycling_construction(machine, order, m):
    """Hypergraph on |S|-subsets of [m] realizing a compatible order.

    Every (k * |S|)-subset of [m] contributes one edge: its elements are
    handed out, smallest first, to the (state, position) pairs in order,
    and coordinate i of the edge is the block of elements landing in
    position i.  Good whenever the order verifies compatible.  Vertex names
    come from one table of the |S|-subsets: a window is ascending, so each
    block is read through fixed slots and named by one lookup, and the
    edges hold the vertex name objects themselves.
    """
    result = verify_compatible_order(machine, order)
    if not result.ok:
        raise InputError(
            "the order is not compatible with the machine: " + result.violations[0]
        )
    m = int(m)
    size = len(machine.states)
    span = machine.k * size
    if m < span:
        raise InputError(f"need m >= {span} to fit an edge")
    names = _subset_names(m, size)
    name = names.__getitem__
    blocks = []
    for i in machine.positions:
        slots = [n for n, (_, p) in enumerate(order) if p == i]
        if size == 1:
            # itemgetter(n) alone reads a bare element; a slice reads a 1-tuple
            slots = [slice(slots[0], slots[0] + 1)]
        blocks.append(itemgetter(*slots))
    edges = [
        tuple([name(block(window)) for block in blocks])
        for window in combinations(range(1, m + 1), span)
    ]
    return DirectedHypergraph(machine.k, names.values(), edges)


def gen_incomparable_pairs_digraph(m):
    """Digraph on incomparable subset pairs chained by strict containment.

    Vertices are ordered pairs (A, B) of subsets of [m] with neither
    contained in the other; (A, B) points to (B, C) when A is properly
    contained in C.
    """
    m = int(m)
    if not 2 <= m <= 4:
        raise InputError("supported range is 2 <= m <= 4")
    subsets = {}
    for size in range(m + 1):
        subsets.update((frozenset(c), x) for c, x in _subset_names(m, size).items())
    pairs = {
        (x, y): f"{subsets[x]}|{subsets[y]}"
        for x in subsets
        for y in subsets
        if not (x <= y or y <= x)
    }
    edges = [
        (pairs[a, b], pairs[b2, c])
        for a, b in pairs
        for b2, c in pairs
        if b == b2 and a < c
    ]
    return DirectedHypergraph(2, pairs.values(), edges)


def gen_shift_digraph(m):
    """Digraph of increasing pairs (a, b), a < b <= m, with edges
    (a, b) -> (b, c).  Chromatic number is the log of m, rounded up."""
    m = int(m)
    if m < 2:
        raise InputError("needs m >= 2")
    names = _subset_names(m, 2)
    edges = [
        (names[a, b], names[b, c]) for a, b in names for c in range(b + 1, m + 1)
    ]
    return DirectedHypergraph(2, names.values(), edges)
