"""Name-keyed views of a machine's table for the tests that read one.

A ``Machine`` keeps one view of its table and bad pairs, the sorted
``numbered_atoms`` and ``numbered_bad`` on state numbers.  These are the
name-keyed views it once built on each call, transcribed unchanged except
that they read the machine through its ``states``, its table and its
``bad`` set: rows (state, i, j, sorted targets), bad pairs and flattened
(s, i, j, t) atoms, each sorted by state number.  With a state undeclared,
those sort last, by name, so an invalid machine sorts too.
"""


def _by_state(machine, build):
    index = {s: n for n, s in enumerate(machine.states)}
    try:
        return build(index.__getitem__)
    except KeyError:
        return build(lambda s: (index.get(s, len(index)), str(s)))


def transition_rows(machine):
    """Sorted (state, i, j, sorted-target-tuple) rows."""
    def build(key):
        rows = [(s, i, j, tuple(sorted(ts, key=key))) for (s, i, j), ts in machine._table.items()]
        return tuple(sorted(rows, key=lambda r: (key(r[0]), r[1], r[2])))
    return _by_state(machine, build)


def bad_rows(machine):
    """Bad pairs sorted by their states' numbers."""
    return _by_state(
        machine, lambda key: tuple(sorted(machine.bad, key=lambda p: (key(p[0]), key(p[1]))))
    )


def transition_atoms(machine):
    """Flattened (s, i, j, t) tuples, one per target, in row order."""
    return tuple((s, i, j, t) for s, i, j, ts in transition_rows(machine) for t in ts)
