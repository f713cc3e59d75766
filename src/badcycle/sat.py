"""3-CNF satisfiability encoded as compatible-order search.

Each formula becomes a cycling machine whose states are the literals and
whose uniformity is three positions per clause; the machine has a
compatible order exactly when the formula is satisfiable, and orders and
satisfying assignments translate into each other.
"""
from __future__ import annotations

from fractions import Fraction

from .checks import verify_compatible_order
from .errors import InputError
from .machine import Machine


def _literal_state(variable, positive):
    return variable if positive else "~" + variable


class CnfInstance:
    """A 3-CNF formula: variable names plus clauses of three literals.

    Clause literals may be given as (variable, sign) pairs or as strings,
    where a "~" prefix negates; they normalize to (variable, sign).
    """

    def __init__(self, variables, clauses):
        self.variables = tuple(variables)
        seen = set()
        for v in self.variables:
            if not isinstance(v, str) or not v or v.startswith("~"):
                raise InputError(f"bad variable name {v!r}")
            if v in seen:
                raise InputError(f"duplicate variable {v!r}")
            seen.add(v)
        normalized = []
        for clause in clauses:
            literals = tuple(self._literal(x) for x in clause)
            if len(literals) != 3:
                raise InputError(
                    f"every clause needs exactly three literals, got {len(literals)}"
                )
            normalized.append(literals)
        self.clauses = tuple(normalized)
        self._machine = None

    def _literal(self, raw):
        if isinstance(raw, str):
            variable, positive = (
                (raw[1:], False) if raw.startswith("~") else (raw, True)
            )
        else:
            try:
                variable, positive = raw
            except (TypeError, ValueError):
                raise InputError(f"cannot read literal {raw!r}") from None
        if variable not in self.variables:
            raise InputError(f"literal uses undeclared variable {variable!r}")
        return (variable, bool(positive))

    def __eq__(self, other):
        if not isinstance(other, CnfInstance):
            return NotImplemented
        return self.variables == other.variables and self.clauses == other.clauses

    def __hash__(self):
        return hash((self.variables, self.clauses))

    def __repr__(self):
        return f"CnfInstance(variables={len(self.variables)}, clauses={len(self.clauses)})"


def evaluate_cnf(cnf, assignment):
    """True when the assignment satisfies every clause."""
    for v in cnf.variables:
        if v not in assignment:
            raise InputError(f"assignment is missing variable {v!r}")
    return all(
        any(bool(assignment[variable]) == positive for variable, positive in clause)
        for clause in cnf.clauses
    )


def sat_to_machine(cnf):
    """Build the cycling machine whose compatible orders solve the formula.

    States are the literals, k = 3 per clause, and clause number n (from
    zero) owns positions 3n+1, 3n+2, 3n+3: each of its literals steps from
    its own slot to the next slot cyclically, landing on the negation of
    the literal there.  Every diagonal pair is bad.  The formula keeps
    the machine built first, so its validation and rows are reused.
    """
    if not cnf.clauses:
        raise InputError("the reduction needs at least one clause")
    if cnf._machine is not None:
        return cnf._machine
    states = []
    for v in cnf.variables:
        states.append(_literal_state(v, True))
        states.append(_literal_state(v, False))
    rows = []
    for n, clause in enumerate(cnf.clauses):
        for slot in range(3):
            here = _literal_state(*clause[slot])
            there, positive = clause[(slot + 1) % 3]
            rows.append(
                (
                    here,
                    3 * n + slot + 1,
                    3 * n + (slot + 1) % 3 + 1,
                    [_literal_state(there, not positive)],
                )
            )
    cnf._machine = Machine(3 * len(cnf.clauses), states, rows, bad=[(s, s) for s in states])
    return cnf._machine


def order_to_assignment(order, cnf):
    """Read a satisfying assignment off a compatible order.

    A variable is true when its positive literal comes before its negative
    literal within position 1; the verifier's restriction-agreement check
    makes every other position give the same reading.
    """
    result = verify_compatible_order(sat_to_machine(cnf), order)
    if not result.ok:
        raise InputError(
            "the order is not compatible with the clause machine: "
            + result.violations[0]
        )
    rank = {s: n for n, (s, i) in enumerate(order) if i == 1}
    return {
        v: rank[_literal_state(v, True)] < rank[_literal_state(v, False)]
        for v in cnf.variables
    }


def assignment_to_order(assignment, cnf):
    """Realize a satisfying assignment as a compatible order.

    States are ranked with each variable's satisfied literal just below
    its other literal.  Each clause then places its three positions on
    separate value bands: the slot of its first satisfied literal is
    split around that literal, dropping everything up to it below all
    other bands and lifting everything from its negation above them, so
    the three clause transitions climb strictly while every position
    still orders the states the same way.
    """
    if not cnf.clauses:
        raise InputError("the reduction needs at least one clause")
    rank = {}
    for v in cnf.variables:
        if v not in assignment:
            raise InputError(f"assignment is missing variable {v!r}")
        rank[_literal_state(v, bool(assignment[v]))] = len(rank)
        rank[_literal_state(v, not assignment[v])] = len(rank)
    value = {}
    for n, clause in enumerate(cnf.clauses):
        satisfied = [
            slot
            for slot in range(3)
            if bool(assignment[clause[slot][0]]) == clause[slot][1]
        ]
        if not satisfied:
            shown = ", ".join(
                _literal_state(variable, positive) for variable, positive in clause
            )
            raise InputError(f"the assignment falsifies the clause ({shown})")
        j = satisfied[0]
        pivot = rank[_literal_state(*clause[j])]
        positions = (3 * n + 1, 3 * n + 2, 3 * n + 3)
        for s, r in rank.items():
            base = Fraction(r + 1, len(rank) + 2)
            value[(s, positions[j])] = base + (-3 if r <= pivot else 3)
            value[(s, positions[(j + 1) % 3])] = base
            value[(s, positions[(j + 2) % 3])] = base + Fraction(3, 2)
    return tuple(sorted(value, key=lambda sp: (value[sp], sp[1])))


def cnf_from_dimacs(text):
    """Parse DIMACS cnf text; variables become "x1".."xn".

    Accepts "c" comment lines and one "p cnf <variables> <clauses>"
    header; clauses are whitespace-separated integer literals terminated
    by 0 and must hold exactly three literals each.
    """
    header = None
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise InputError("duplicate DIMACS header")
            parts = line.split()
            try:
                kind, counts = parts[1], [int(x) for x in parts[2:]]
            except (IndexError, ValueError):
                raise InputError(f"malformed DIMACS header {line!r}") from None
            if kind != "cnf" or len(counts) != 2 or min(counts) < 0:
                raise InputError(f"malformed DIMACS header {line!r}")
            header = counts
            continue
        tokens.extend(line.split())
    if header is None:
        raise InputError("missing DIMACS header")
    num_vars, num_clauses = header
    clauses = []
    current = []
    for token in tokens:
        try:
            lit = int(token)
        except ValueError:
            raise InputError(f"unexpected DIMACS token {token!r}") from None
        if lit == 0:
            clauses.append(tuple(current))
            current = []
            continue
        if abs(lit) > num_vars:
            raise InputError(
                f"literal {lit} exceeds the {num_vars} declared variables"
            )
        current.append((f"x{abs(lit)}", lit > 0))
    if current:
        raise InputError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise InputError(
            f"header declares {num_clauses} clauses but {len(clauses)} appear"
        )
    return CnfInstance([f"x{v}" for v in range(1, num_vars + 1)], clauses)


def cnf_to_dimacs(cnf):
    """Render as DIMACS cnf text, numbering variables in declaration order."""
    number = {v: n for n, v in enumerate(cnf.variables, start=1)}
    lines = [f"p cnf {len(cnf.variables)} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(
            " ".join(
                str(number[variable] if positive else -number[variable])
                for variable, positive in clause
            )
            + " 0"
        )
    return "\n".join(lines) + "\n"
