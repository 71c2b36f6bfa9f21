"""Exception types shared across the toolkit."""


class RuleFstError(Exception):
    pass


class DataError(RuleFstError):
    """Malformed or inconsistent input data (rule files, corpora, vocab)."""


class TrainingError(RuleFstError):
    """Training diverged or could not proceed."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
