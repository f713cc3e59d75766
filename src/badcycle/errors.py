"""Shared exception types.

CLI exit-code convention: 0 affirmative, 1 negative, 2 input error,
3 budget exhausted, 4 internal error (any other exception).
"""


class BadCycleError(Exception):
    """Base class for library errors."""


class InputError(BadCycleError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class BudgetError(BadCycleError):
    """Search budget exhausted before a definite answer (CLI exit code 3).

    For chromatic-number searches the best known bounds are attached.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class Budget:
    """The node budget of one search, shared by every exact search.

    ``spend`` charges one node; once ``budget`` nodes are charged, the
    next charge raises BudgetError with ``message``.  None never runs out.
    """

    def __init__(self, budget, message):
        self.left = None if budget is None else int(budget)
        self.message = message

    def spend(self):
        if self.left is None:
            return
        if self.left <= 0:
            raise BudgetError(self.message)
        self.left -= 1


class NotGoodError(BadCycleError):
    """An operation required a good hypergraph; carries the bad-cycle witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class UnbalancedError(BadCycleError):
    """An operation required a balanced digraph; carries the balance verdict."""

    def __init__(self, message, verdict):
        super().__init__(message)
        self.verdict = verdict


class PreconditionError(InputError):
    """A named structural precondition failed."""

    def __init__(self, prop, message):
        super().__init__(message)
        self.property = prop
