"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: usage errors exit 1, data errors
exit 2, resource errors exit 3.
"""


class HksError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class UsageError(HksError):
    """Bad invocation: unknown flags, missing required arguments."""

    exit_code = 1


class DataError(HksError):
    """Malformed or contract-violating input data."""

    exit_code = 2


class ResourceError(HksError):
    """Environment problems: unreadable files, memory exhaustion."""

    exit_code = 3


class MixSpecError(UsageError, DataError):
    """A mix spec lacking alpha or a split budget, or budgeted in docs."""


class EmptyPoolError(DataError):
    """A knowledge pool with zero surviving elements cannot be used."""


class DegenerateDocumentError(DataError):
    """Document with zero tokens; excluded from scoring."""


class StratumExhaustedError(DataError):
    """A mixture stratum cannot supply the requested token mass."""

    def __init__(self, stratum: str, requested: int, available: int):
        self.stratum = stratum
        self.requested = requested
        self.available = available
        super().__init__(
            f"stratum {stratum!r} exhausted: requested {requested} tokens, "
            f"only {available} available"
        )
