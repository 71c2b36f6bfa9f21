"""Exception types shared across the toolkit, and `check_size`, the one test
of what a size argument is: a context window, a length budget, a model
dimension, a beam size or a step count."""

import numbers


class RuleFstError(Exception):
    pass


class DataError(RuleFstError):
    """Malformed or inconsistent input data (rule files, corpora, vocab)."""


class TrainingError(RuleFstError):
    """Training diverged or could not proceed."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


def check_size(name: str, value, low: int = 1) -> None:
    """Raise DataError naming `name` unless `value` is an integer of at least
    `low`; a bool, or a float such as 64.0, is not one. A caller that runs
    once per example tests `type(value) is int and value >= low` inline and
    calls this only when that fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DataError(f"{name}={value!r} must be an integer of at least {low}")
