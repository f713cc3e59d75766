"""Finite state machines that read position-pair traces of hypergraph cycles.

A k-machine has a finite state set S, a sparse transition table
f : S x [k]^2 -> P(S) (absent keys denote the empty set) and a set B of
bad state pairs.  Two validation semantics exist: "cycling" machines
must have B equal to the diagonal of S, "general" machines must have B
disjoint from the diagonal.  A machine is immutable, so its first use is one
walk of its table and bad pairs: it numbers and sorts them (``numbered_atoms``,
``numbered_bad``), sets the tags and lists the problems ``validate_machine``
reports; ``require_valid`` keeps the report per semantics.  It also keeps,
once, the atoms that can lie on a bad walk (``live_atoms``).  Goodness builds
its products from ``atom_groups`` and ``live_local``: all atoms, and the live
ones on the live states' places, grouped by position pair.  Each view is an
attribute filled on first read.  The file writer and ``verify_order_system``
read the numbered views through ``numbered_table``, naming states by ``states``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InputError, require_int

SEMANTICS = ("cycling", "general")


class Machine:
    """Immutable k-machine over named states.

    ``transitions`` may be a mapping ``{(state, i, j): targets}`` or an
    iterable of ``(state, i, j, targets)`` rows.  Empty target sets are
    dropped; duplicate keys are merged.  State declaration order is the
    canonical enumeration order everywhere.
    """

    def __init__(self, k, states, transitions=(), bad=()):
        self.k = require_int(k, "machine k")
        self.states = tuple(states)
        self._index = {s: n for n, s in enumerate(self.states)}
        if len(self._index) != len(self.states):
            raise InputError("duplicate state names")
        table: dict[tuple[str, int, int], frozenset[str]] = {}
        if isinstance(transitions, Mapping):
            rows: Iterable = (
                (s, i, j, targets) for (s, i, j), targets in transitions.items()
            )
        else:
            rows = transitions
        for s, i, j, targets in rows:
            # an exact int passes at the cost of two type tests, the rest as the readers check
            if type(i) is not int or type(j) is not int:
                require_int(i, "transition position i")
                require_int(j, "transition position j")
            key = (s, i, j)
            tset = frozenset(targets)
            if not tset:
                continue
            table[key] = table.get(key, frozenset()) | tset
        self._table = table
        self.bad = frozenset((a, b) for a, b in bad)
        self._reports = {}
        # views filled on first read, as DirectedHypergraph.components is
        self._walked = self._live = self._groups = None

    # -- canonical views -------------------------------------------------

    def _walk(self):
        """The one walk of the table and the bad pairs, on first use: the sorted
        ``numbered_atoms`` and ``numbered_bad`` (None over an undeclared state),
        the deterministic and cycling tags, and the table and bad-pair problems
        as ``validate_machine`` lists them, (sort key, message) each."""
        index, k = self._index, self.k
        atoms, pairs, problems = [], [], []
        named = paired = deterministic = diagonal = True
        for n, ((s, i, j), targets) in enumerate(self._table.items()):
            u = index.get(s)
            if u is None:
                named = False
                problems.append(((1, str(s), i, j, n, 0),
                                 f"transition source {s!r} is not a declared state"))
            if not (0 < i <= k and 0 < j <= k):
                problems.extend(((1, str(s), i, j, n, 0), f"transition position {name}={pos}"
                                 f" out of range for ({s!r},{i},{j})")
                                for pos, name in ((i, "i"), (j, "j")) if not 0 < pos <= k)
            if i == j or len(targets) > 1:
                deterministic = False
            for t in targets:
                v = index.get(t)
                if v is None:
                    named = False
                    problems.append(((1, str(s), i, j, n, 1, str(t)),
                                     f"transition target {t!r} is not a declared state"))
                atoms.append((u, i, j, v))
        for a, b in self.bad:
            x, y = index.get(a), index.get(b)
            if x is None or y is None:
                paired = False
                problems.extend(((2, str(a), str(b)), f"bad pair references unknown state {z!r}")
                                for z in (a, b) if z not in index)
            elif x != y:
                diagonal = False
            pairs.append((x, y))
        self._walked = (tuple(sorted(atoms)) if named else None,
                        tuple(sorted(pairs)) if paired else None, deterministic,
                        paired and diagonal and len(pairs) == len(index), tuple(problems))
        return self._walked

    @property
    def numbered_atoms(self):
        """The table's (s, i, j, t) atoms on state numbers, sorted; read only once
        validated: a state the table names but does not declare raises KeyError."""
        atoms = (self._walked or self._walk())[0]
        if atoms is None:
            raise KeyError(next(x for (s, _, _), ts in self._table.items()
                                for x in (s, *ts) if x not in self._index))
        return atoms

    @property
    def numbered_bad(self):
        """The bad pairs on state numbers, sorted; read only once validated."""
        pairs = (self._walked or self._walk())[1]
        if pairs is None:
            raise KeyError(next(x for pair in self.bad for x in pair if x not in self._index))
        return pairs

    def _find_live(self):
        """``live_atoms``, ``live_states`` and ``live_local``, found together."""
        atoms = self.numbered_atoms
        succ = [set() for _ in self.states]
        pred = [set() for _ in self.states]
        for s, _, _, t in atoms:
            succ[s].add(t)
            pred[t].add(s)
        seconds = {}
        for a, b in self.numbered_bad:
            seconds.setdefault(a, []).append(b)
        spans = [(_closure([a], succ), _closure(bs, pred)) for a, bs in seconds.items()]
        live = tuple(atom for atom in atoms
                     if any(atom[0] in after and atom[3] in before for after, before in spans))
        states = tuple(sorted({s for atom in live for s in (atom[0], atom[3])}))
        local = {s: m for m, s in enumerate(states)}
        groups = _groups([(local[s], i, j, local[t]) for s, i, j, t in live])
        pairs = tuple((local[s], local[t]) for s, t in self.numbered_bad
                      if s in local and t in local)
        self._live = (live, states, (groups, pairs))
        return self._live

    @property
    def live_atoms(self):
        """The ``numbered_atoms`` that can lie on a bad walk; read only once validated.

        A bad walk runs from a bad pair's first state a to its second b, so an
        atom (s, i, j, t) is kept when some bad pair (a, b) has a reaching s and
        t reaching b in the state graph, an arc s -> t per atom with positions
        ignored.  On a cycling machine, whose bad pairs are the diagonal, that
        is when t reaches s: s and t share a strong component.
        """
        return (self._live or self._find_live())[0]

    @property
    def live_states(self):
        """The state numbers on ``live_atoms``, ascending."""
        return (self._live or self._find_live())[1]

    @property
    def live_local(self):
        """``live_atoms`` grouped as ``atom_groups`` are, and the bad pairs with
        both states live, on each state's place in ``live_states``."""
        return (self._live or self._find_live())[2]

    @property
    def atom_groups(self):
        """``numbered_atoms`` grouped by position pair (see ``_groups``)."""
        if self._groups is None:
            self._groups = _groups(self.numbered_atoms)
        return self._groups

    # -- derived tags ----------------------------------------------------

    @property
    def is_deterministic(self):
        return (self._walked or self._walk())[2]

    @property
    def is_cycling(self):
        return (self._walked or self._walk())[3]

    @property
    def positions(self):
        return range(1, self.k + 1)

    def targets(self, s, i, j):
        """Raw table lookup without argument checking."""
        return self._table.get((s, i, j), frozenset())

    def __eq__(self, other):
        if not isinstance(other, Machine):
            return NotImplemented
        return (
            self.k == other.k
            and self.states == other.states
            and self._table == other._table
            and self.bad == other.bad
        )

    def __hash__(self):
        return hash((self.k, self.states, frozenset(self._table.items()), self.bad))

    def __repr__(self):
        return (
            f"Machine(k={self.k}, states={len(self.states)}, "
            f"transitions={len(self._table)}, bad={len(self.bad)})"
        )


def _closure(starts, succ):
    """The states reachable from starts, starts included, along succ."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _groups(atoms):
    """(i, j, ((s, t), ...)) per position pair of (s, i, j, t) atoms, the
    positions from 0, pairs in sorted order, atoms in their given order."""
    groups = {}
    for s, i, j, t in sorted(atoms, key=lambda atom: atom[1:3]):
        groups.setdefault((i - 1, j - 1), []).append((s, t))
    return tuple((i, j, tuple(pairs)) for (i, j), pairs in groups.items())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_machine: violations plus derived flavor tags."""

    semantics: str
    violations: tuple[str, ...]
    deterministic: bool
    cycling: bool

    @property
    def ok(self):
        return not self.violations


def validate_machine(machine, semantics, expect_deterministic=False):
    """Check machine well-formedness under the given semantics.

    Returns a ValidationReport; never raises for content problems.  The
    semantics name itself must be valid.
    """
    if semantics not in SEMANTICS:
        raise InputError(f"unknown semantics {semantics!r}")
    # (sort key, message) in listing order; only the problems get sorted:
    # rows by (str(source), i, j), pairs and states by name, ties as listed
    _, _, deterministic, cycling, walked = machine._walked or machine._walk()
    problems = list(walked)
    if machine.k < 2:
        problems.append(((0,), f"uniformity k must be at least 2, got {machine.k}"))
    if expect_deterministic and not deterministic:
        for n, ((s, i, j), targets) in enumerate(machine._table.items()):
            key = (1, str(s), i, j, n, 2)
            if len(targets) > 1:
                problems.append((key, f"nondeterministic value of size {len(targets)}"
                                      f" at ({s!r},{i},{j}) in deterministic machine"))
            if i == j:
                problems.append((key, f"diagonal position pair ({i},{j}) in deterministic machine"))
    if semantics == "cycling" and not cycling:
        problems.append(((3,), "cycling semantics requires the bad set to equal the diagonal"))
    if semantics == "general":
        for s in machine.states:
            if (s, s) in machine.bad:
                message = f"diagonal bad pair ({s!r},{s!r}) under general semantics"
                problems.append(((4, str(s)), message))
    problems.sort(key=lambda problem: problem[0])
    return ValidationReport(
        semantics=semantics,
        violations=tuple(message for _, message in problems),
        deterministic=deterministic,
        cycling=cycling,
    )


def step(machine, s, i, j):
    """Transition targets from state s reading position pair (i, j)."""
    if s not in machine._index:
        raise InputError(f"unknown state {s!r}")
    for pos in (i, j):
        if not isinstance(pos, int) or not 1 <= pos <= machine.k:
            raise InputError(f"position {pos!r} out of range 1..{machine.k}")
    return machine.targets(s, i, j)


def require_valid(machine, semantics):
    """Raise InputError when validation fails; the report is kept per semantics."""
    report = machine._reports.get(semantics)
    if report is None:
        report = machine._reports[semantics] = validate_machine(machine, semantics)
    if not report.ok:
        raise InputError(
            f"invalid machine under {semantics} semantics: "
            + "; ".join(report.violations)
        )
    return report


def numbered_table(machine):
    """``numbered_atoms`` and ``numbered_bad`` of a machine read unvalidated;
    a state they name but the machine does not declare raises InputError."""
    try:
        return machine.numbered_atoms, machine.numbered_bad
    except KeyError as err:
        raise InputError(f"machine references undeclared state {err.args[0]!r}") from None
