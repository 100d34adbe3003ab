"""Shared exception types and the resource caps, each defined here once.

Every size check calls ``check_budget`` before it builds what it counts.
Modules that read a cap at check time go through this module
(``errors.GRID_CELL_CAP``), so one patch of it reaches every check."""

DEFAULT_TERM_CAP = 10**6  # terms of one enumeration; u_pqr triples of the pool
DEFAULT_ELEMENT_CAP = 10**6  # elements of the search domain, atoms included
F_NODE_CAP = 2 * 10**6  # cells of one f-node grid; argument tuples of nfequal
GRID_CELL_CAP = 2 * 10**7  # cells the witness kernel and the corner lemma build
DEFAULT_CUBE_CAP = 10**6  # cubes of one cube subpower, generators included


class CommlabError(Exception):
    pass


class BudgetExceededError(CommlabError):
    """A configured resource cap (element count, term count, cube count) was hit."""


def check_budget(what: str, needed: int, cap: int, unit: str) -> None:
    """Raise BudgetExceededError if ``needed`` is above ``cap``."""
    if needed > cap:
        raise BudgetExceededError(f"{what} needs {needed} {unit}, above the cap of {cap} {unit}")


class InvalidTripleError(CommlabError, ValueError):
    """The (p, q, r) triple does not name a unary operation of the algebra."""


class DomainError(CommlabError, ValueError):
    """Arguments outside the domain of a partial operation."""


class ParseError(CommlabError, ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
