"""Exception types shared across the package."""

from __future__ import annotations


class KspendError(Exception):
    """Base class for all domain errors."""


class InvalidParameters(KspendError):
    """A closed-form or generator argument is out of its admissible range."""


class InvalidFaultySet(KspendError):
    """The faulty set is not a subset of any declared maximal faulty set."""


class SizeLimitExceeded(KspendError):
    """An exact search outgrew its configured budget.

    ``partial_maximum`` carries the best value found before the budget ran
    out (None when the search could not start at all). The inconsistency
    search also reports the faulty set behind it, ``best_faulty_set`` (None
    at 0), and its progress, ``faulty_sets_visited`` and ``units_spent``
    (the unit that overran the budget included); other searches leave them None.
    """

    def __init__(
        self,
        message: str,
        partial_maximum: int | None = None,
        *,
        best_faulty_set: frozenset[int] | None = None,
        faulty_sets_visited: int | None = None,
        units_spent: int | None = None,
    ):
        super().__init__(message)
        self.partial_maximum = partial_maximum
        self.best_faulty_set = best_faulty_set
        self.faulty_sets_visited = faulty_sets_visited
        self.units_spent = units_spent


class InvalidTransaction(KspendError):
    """A transfer request violates the issuing rules."""


class MalformedHistory(KspendError):
    """An operation requiring well-formed histories was handed a broken one."""


class NotVulnerable(KspendError):
    """No multi-spending attack exists for this trust model."""


class SchemaError(KspendError):
    """A model, scenario, or report file does not match its schema."""
