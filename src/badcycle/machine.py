"""Finite state machines that read position-pair traces of hypergraph cycles.

A k-machine has a finite state set S, a sparse transition table
f : S x [k]^2 -> P(S) (absent keys denote the empty set) and a set B of
bad state pairs.  Two validation semantics exist: "cycling" machines
must have B equal to the diagonal of S, "general" machines must have B
disjoint from the diagonal.  A machine is immutable, so it numbers the
states of its transition atoms and bad pairs once, on first use by the
deciders, and keeps ``require_valid``'s report per semantics.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InputError

SEMANTICS = ("cycling", "general")


class Machine:
    """Immutable k-machine over named states.

    ``transitions`` may be a mapping ``{(state, i, j): targets}`` or an
    iterable of ``(state, i, j, targets)`` rows.  Empty target sets are
    dropped; duplicate keys are merged.  State declaration order is the
    canonical enumeration order everywhere.
    """

    def __init__(self, k, states, transitions=(), bad=()):
        self.k = int(k)
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
            key = (s, int(i), int(j))
            tset = frozenset(targets)
            if not tset:
                continue
            table[key] = table.get(key, frozenset()) | tset
        self._table = table
        self.bad = frozenset((a, b) for a, b in bad)
        self._reports = {}

    # -- canonical views -------------------------------------------------

    def _state_key(self, s):
        # undeclared states go last, by name, so an invalid machine sorts too
        return (self._index.get(s, len(self.states)), str(s))

    def transition_rows(self):
        """Transitions as sorted (state, i, j, sorted-target-tuple) rows."""
        key = self._state_key
        rows = [(s, i, j, tuple(sorted(ts, key=key))) for (s, i, j), ts in self._table.items()]
        return tuple(sorted(rows, key=lambda r: (key(r[0]), r[1], r[2])))

    def bad_rows(self):
        key = self._state_key
        return tuple(sorted(self.bad, key=lambda p: (key(p[0]), key(p[1]))))

    def transition_atoms(self):
        """Flattened (s, i, j, t) tuples, one per target, in canonical order."""
        return tuple((s, i, j, t) for s, i, j, ts in self.transition_rows() for t in ts)

    @cached_property
    def numbered_atoms(self):
        """``transition_atoms`` on state numbers; read only once validated."""
        index = self._index
        return tuple((index[s], i, j, index[t]) for s, i, j, t in self.transition_atoms())

    @cached_property
    def numbered_bad(self):
        """``bad_rows`` on state numbers; read only once validated."""
        return tuple((self._index[s], self._index[t]) for s, t in self.bad_rows())

    # -- derived tags ----------------------------------------------------

    @property
    def is_deterministic(self):
        return all(len(ts) == 1 and i != j for (_, i, j), ts in self._table.items())

    @property
    def is_cycling(self):
        return self.bad == frozenset((s, s) for s in self.states)

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
    problems = []
    if machine.k < 2:
        problems.append(f"uniformity k must be at least 2, got {machine.k}")
    known = set(machine.states)
    for (s, i, j), targets in sorted(
        machine._table.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])
    ):
        if s not in known:
            problems.append(f"transition source {s!r} is not a declared state")
        for pos, name in ((i, "i"), (j, "j")):
            if not 1 <= pos <= machine.k:
                problems.append(
                    f"transition position {name}={pos} out of range for ({s!r},{i},{j})"
                )
        for t in sorted(targets, key=str):
            if t not in known:
                problems.append(f"transition target {t!r} is not a declared state")
        if expect_deterministic:
            if len(targets) > 1:
                problems.append(
                    f"nondeterministic value of size {len(targets)} at ({s!r},{i},{j}) "
                    "in deterministic machine"
                )
            if i == j:
                problems.append(
                    f"diagonal position pair ({i},{j}) in deterministic machine"
                )
    for a, b in sorted(machine.bad, key=lambda p: (str(p[0]), str(p[1]))):
        for x in (a, b):
            if x not in known:
                problems.append(f"bad pair references unknown state {x!r}")
    diagonal = frozenset((s, s) for s in machine.states)
    if semantics == "cycling" and machine.bad != diagonal:
        problems.append("cycling semantics requires the bad set to equal the diagonal")
    if semantics == "general":
        for s in sorted(machine.states, key=str):
            if (s, s) in machine.bad:
                problems.append(f"diagonal bad pair ({s!r},{s!r}) under general semantics")
    return ValidationReport(
        semantics=semantics,
        violations=tuple(problems),
        deterministic=machine.is_deterministic,
        cycling=machine.is_cycling,
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
