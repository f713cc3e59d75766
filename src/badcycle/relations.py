"""Binary relations on a finite ground set and the machines they induce.

A :class:`Relation` is a set of ordered pairs over ``{1..n}``.  Composing
relations along the steps of a walk multiplies out the walk's direction
word, so a family of relations that is closed under composition and
reversal gives a machine whose runs track exactly which relation the walk
realizes.  On digraphs the flagship instance flags the odd closed walks
that alternate between forward and backward steps everywhere except at a
single junction; :func:`detect_odd_alternating_cycle` finds those walks
directly, without the machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import InputError, PreconditionError
from .machine import Machine, require_valid


class Relation:
    """Immutable binary relation on the ground set ``{1..n}``."""

    def __init__(self, n, pairs=()):
        self.n = int(n)
        if self.n < 1:
            raise InputError("relation ground set must have at least one element")
        clean = set()
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise InputError(f"malformed relation pair {pair!r}") from None
            a, b = int(a), int(b)
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise InputError(
                    f"pair ({a}, {b}) is outside the ground set [1..{self.n}]"
                )
            clean.add((a, b))
        self.pairs = frozenset(clean)

    def pair_list(self):
        """Pairs as a sorted tuple, the canonical display order."""
        return tuple(sorted(self.pairs))

    @property
    def is_subdirect(self):
        """True when both coordinate projections cover the whole ground set."""
        full = set(range(1, self.n + 1))
        return {a for a, _ in self.pairs} == full and {b for _, b in self.pairs} == full

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"Relation({self.n}, {list(self.pair_list())})"


def diagonal_relation(n):
    return Relation(n, ((i, i) for i in range(1, int(n) + 1)))


def full_relation(n):
    n = int(n)
    return Relation(n, ((a, b) for a in range(1, n + 1) for b in range(1, n + 1)))


def compose(r, s):
    """Relational composition: pairs (a, c) with some b joining r to s."""
    if r.n != s.n:
        raise InputError(
            f"cannot compose relations on ground sets of size {r.n} and {s.n}"
        )
    targets = {}
    for b, c in s.pairs:
        targets.setdefault(b, []).append(c)
    return Relation(r.n, ((a, c) for a, b in r.pairs for c in targets.get(b, ())))


def reverse(r):
    return Relation(r.n, ((b, a) for a, b in r.pairs))


def relation_power(r, exponent):
    """Compose ``r`` with itself ``exponent`` times; exponent 0 is the diagonal."""
    exponent = int(exponent)
    if exponent < 0:
        raise InputError("relation powers need a nonnegative exponent")
    out = diagonal_relation(r.n)
    for _ in range(exponent):
        out = compose(out, r)
    return out


def semigroup_closure(generators):
    """Least family containing the generators, closed under compose and reverse.

    Returned in discovery order, generators first.  Finite because there are
    at most ``2**(n*n)`` relations on the ground set.
    """
    gens = list(generators)
    if not gens:
        raise InputError("closure needs at least one generator")
    _require_same_ground_set(gens)

    def successors(t, found):
        yield reverse(t)
        for u in found:
            yield compose(t, u)
            if u != t:
                yield compose(u, t)

    return tuple(_discover(gens, successors))


def _discover(start, successors):
    """Yield what ``start`` reaches, once each, in breadth-first discovery order.

    ``successors(t, found)`` runs only after ``t`` is yielded, so a caller that
    stops early skips it; ``found`` lists the items yielded so far, ``t`` last.
    """
    found = []
    queue = deque(dict.fromkeys(start))
    seen = set(queue)
    while queue:
        t = queue.popleft()
        found.append(t)
        yield t
        for u in successors(t, found):
            if u not in seen:
                seen.add(u)
                queue.append(u)


def _require_same_ground_set(relations):
    sizes = {r.n for r in relations}
    if len(sizes) > 1:
        raise InputError(f"mixed ground set sizes {sorted(sizes)}")


@dataclass(frozen=True)
class PqReport:
    """Outcome of the closure-and-absorption check for a relation family.

    ``witnesses`` holds one ``(p, q, j)`` triple per ordered pair of members:
    the least j such that ``p`` composed with j copies of ``(q o p)`` covers
    the diagonal.  ``violations`` lists the reasons the family failed.
    """

    compatible: bool
    witnesses: tuple
    violations: tuple

    def __bool__(self):
        return self.compatible


def is_pq_compatible(relations):
    """Check a family: closed under compose and reverse, and for every ordered
    pair (p, q) some power ``p o (q o p)^j`` contains the diagonal.

    The j-search is complete: iterates of ``p o (q o p)^j`` live in a finite
    semigroup, so revisiting a value without covering the diagonal rules out
    every larger j.
    """
    members = list(dict.fromkeys(relations))
    if not members:
        raise InputError("compatibility check needs at least one relation")
    _require_same_ground_set(members)
    family = set(members)
    violations = []
    for a, p in enumerate(members):
        if reverse(p) not in family:
            violations.append(f"reverse of member {a} is not in the family")
        for b, q in enumerate(members):
            if compose(p, q) not in family:
                violations.append(
                    f"composite of members {a} and {b} is not in the family"
                )
    if violations:
        return PqReport(False, (), tuple(violations))
    diag = diagonal_relation(members[0].n).pairs
    witnesses = []
    for a, p in enumerate(members):
        for b, q in enumerate(members):
            step = compose(q, p)
            for j, t in enumerate(_discover([p], lambda t, _: [compose(t, step)])):
                if diag <= t.pairs:
                    witnesses.append((p, q, j))
                    break
            else:
                violations.append(
                    f"no power of member {a} against member {b} covers the diagonal"
                )
    if violations:
        return PqReport(False, (), tuple(violations))
    return PqReport(True, tuple(witnesses), ())


def _relation_name(r):
    return ",".join(f"{a}-{b}" for a, b in r.pair_list())


@dataclass(frozen=True, eq=False)
class RelationMachine:
    """A deterministic machine whose states name relations.

    ``relations`` maps each state name back to its relation, in declaration
    order; ``diagonal`` is the start state's name.
    """

    machine: Machine
    relations: dict
    diagonal: str


def build_relation_machine(allowed, projections):
    """Build the machine that tracks the relation realized by a run.

    ``projections`` assigns a relation to every ordered position pair (i, j)
    with i != j; a run stepping through positions i then j composes that
    relation onto its state.  States are the relations reachable from the
    diagonal; a run is flagged exactly when it starts at the diagonal and
    realizes a relation outside ``allowed``.
    """
    table = {}
    for key, rel in dict(projections).items():
        try:
            i, j = key
            i, j = int(i), int(j)
        except (TypeError, ValueError):
            raise InputError(f"malformed position pair {key!r}") from None
        if i == j or i < 1 or j < 1:
            raise InputError(f"position pair ({i}, {j}) is not an ordered pair")
        table[(i, j)] = rel
    if not table:
        raise InputError("no position pairs assigned")
    k = max(max(i, j) for i, j in table)
    missing = [
        (i, j)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if i != j and (i, j) not in table
    ]
    if missing:
        raise InputError(f"position pair {missing[0]} has no relation assigned")
    allowed_set = set(allowed)
    _require_same_ground_set(list(table.values()) + list(allowed_set))
    n = next(iter(table.values())).n
    diag = diagonal_relation(n)
    if diag not in allowed_set:
        raise InputError(
            "the diagonal relation must be allowed; otherwise the empty run "
            "at the start state would already be flagged"
        )
    step = {}  # each state's successors by (i, j), composed once, in discovery order

    def expand(t, _):
        step[t] = {ij: compose(t, rel) for ij, rel in table.items()}
        return step[t].values()

    names = {t: _relation_name(t) for t in _discover([diag], expand)}
    rows = [(names[t], i, j, (names[step[t][i, j]],)) for t in names for i, j in sorted(table)]
    bad = [(names[diag], names[t]) for t in names if t not in allowed_set]
    machine = Machine(k, list(names.values()), rows, bad)
    require_valid(machine, "general")
    return RelationMachine(machine, {name: t for t, name in names.items()}, names[diag])


def gen_alternating_relation():
    """The 4-pair subdirect relation on 3 elements behind the alternating
    cycle machine: {(1,2), (1,3), (2,3), (3,1)}."""
    return Relation(3, ((1, 2), (1, 3), (2, 3), (3, 1)))


def non_alternating_family(generator):
    """Relation values of direction words that are not odd-and-alternating.

    Words over ``{generator, reverse(generator)}`` are flagged by the
    alternating-cycle machine only when they strictly alternate letters and
    have odd length.  Every other word either contains a doubled letter
    ``g o g`` or ``g~ o g~``, so its value lies in the two-sided ideal those
    two squares generate (discovered by composing a letter on either side),
    or is an even alternating word ``(g o g~)^j`` or ``(g~ o g)^j`` (the
    empty word contributes the diagonal).
    """
    g, h = generator, reverse(generator)

    def sides(t, _):
        return [compose(a, b) for x in (g, h) for a, b in ((x, t), (t, x))]

    family = set(_discover([compose(g, g), compose(h, h)], sides))
    for base in (compose(g, h), compose(h, g)):
        family.update(_discover([diagonal_relation(g.n)], lambda t, _: [compose(t, base)]))
    return frozenset(family)


def gen_alternating_machine():
    """Digraph machine flagging odd closed walks that alternate forward and
    backward steps except at one junction."""
    r = gen_alternating_relation()
    family = non_alternating_family(r)
    return build_relation_machine(family, {(1, 2): r, (2, 1): reverse(r)})


@dataclass(frozen=True)
class AlternatingCycleWitness:
    """An odd closed walk alternating everywhere except at the anchor.

    ``steps`` is a tuple of ``(edge, direction)`` pairs with direction
    "forward" or "backward"; the walk starts and ends at ``anchor`` and the
    two steps meeting there share a direction.
    """

    anchor: str
    steps: tuple

    def __len__(self):
        return len(self.steps)


def detect_odd_alternating_cycle(graph):
    """Find an odd alternating closed walk directly, or return None.

    Search is anchored at the single non-alternating junction: after fixing
    the anchor and the first direction, every later direction is forced, so
    a breadth-first walk over (vertex, steps-mod-2) states decides existence
    exactly and returns a shortest witness for the first anchor that has one.
    """
    if graph.k != 2:
        raise InputError("alternating cycle search needs a digraph (k = 2)")
    succ = {v: [] for v in graph.vertices}
    pred = {v: [] for v in graph.vertices}
    for e in graph.edges:
        succ[e[0]].append(e)
        pred[e[1]].append(e)
    for anchor in graph.vertices:
        for first in ("forward", "backward"):
            hit = _alternating_walk(anchor, first, succ, pred)
            if hit is not None:
                return AlternatingCycleWitness(anchor, hit)
    return None


def _alternating_walk(anchor, first, succ, pred):
    other = "backward" if first == "forward" else "forward"
    start = (anchor, 0)
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            u, parity = state
            direction = first if parity == 0 else other
            if direction == "forward":
                moves = [(e, e[1]) for e in succ[u]]
            else:
                moves = [(e, e[0]) for e in pred[u]]
            for e, w in moves:
                target = (w, (parity + 1) % 2)
                if target == (anchor, 1):
                    steps = [(e, direction)]
                    back = state
                    while parent[back] is not None:
                        back, edge, d = parent[back]
                        steps.append((edge, d))
                    return tuple(reversed(steps))
                if target not in parent:
                    parent[target] = (state, e, direction)
                    nxt.append(target)
        frontier = nxt
    return None


@dataclass(frozen=True)
class LoopLemmaResult:
    """Outcome of the stabilization-exponent search.

    ``exponent`` is the least k <= k_max such that for all l, m >= k the
    relation ``(r^l o (r~)^m)^k`` is the full relation, or None when no such
    k exists in the window.  Powers of r are eventually periodic; ``tail``
    is the first power index inside the cycle and ``period`` its length,
    which is what makes the all-l,m claim checkable on a finite window.
    """

    exponent: int | None
    k_max: int
    tail: int
    period: int

    def __bool__(self):
        return self.exponent is not None


def loop_lemma_exponent(r, k_max):
    """Least k <= k_max with ``(r^l o (r~)^m)^k`` full for all l, m >= k.

    Preconditions, each reported through :class:`PreconditionError` with the
    failed property named: ``smooth`` (every element has a predecessor and a
    successor), ``weakly-connected``, and ``algebraic-length`` (the closed
    walks of r, counting forward steps minus backward steps, generate all of
    the integers; computed as a gcd over a potential labeling).
    """
    k_max = int(k_max)
    if k_max < 1:
        raise InputError("the exponent window must be at least 1")
    if not r.is_subdirect:
        raise PreconditionError(
            "smooth", "some element has no successor or no predecessor"
        )
    connected, imbalance = _label_potentials(r)
    if not connected:
        raise PreconditionError(
            "weakly-connected", "the relation's digraph is not weakly connected"
        )
    if imbalance != 1:
        raise PreconditionError(
            "algebraic-length",
            "closed-walk imbalances do not generate all of the integers",
        )
    powers = list(_discover([r], lambda t, _: [compose(t, r)]))
    tail = powers.index(compose(powers[-1], r))
    period = len(powers) - tail
    full = full_relation(r.n)
    for k in range(1, k_max + 1):
        # powers[tail:] is the cycle, so it holds every r^l with l > len(powers)
        window = set(powers[min(k - 1, tail):])
        if all(
            relation_power(compose(a, reverse(b)), k) == full
            for a in window
            for b in window
        ):
            return LoopLemmaResult(k, k_max, tail + 1, period)
    return LoopLemmaResult(None, k_max, tail + 1, period)


def _label_potentials(r):
    """Weak connectivity and the gcd of closed-walk imbalances, in one DFS.

    A potential labeling spreads from element 1 along the pairs in both
    directions, so it reaches all n elements exactly when r is weakly
    connected; every non-tree step adds its imbalance to the gcd.
    """
    adj = {i: [] for i in range(1, r.n + 1)}
    for a, b in r.pairs:
        adj[a].append((b, 1))
        adj[b].append((a, -1))
    pot = {1: 0}
    stack = [1]
    g = 0
    while stack:
        u = stack.pop()
        for v, d in adj[u]:
            if v not in pot:
                pot[v] = pot[u] + d
                stack.append(v)
            else:
                g = gcd(g, abs(pot[u] + d - pot[v]))
    return len(pot) == r.n, g
