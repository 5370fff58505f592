"""Exception hierarchy shared across the pipeline stages."""


class SoftMentionsError(Exception):
    """Base class for all pipeline errors."""


class FormatError(SoftMentionsError):
    """Input file violates its documented format (fatal)."""


class RowError(SoftMentionsError):
    """A single data row is malformed; skippable under lenient parsing."""

    def __init__(self, line_number: int, message: str, path=None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number


class ConsistencyError(SoftMentionsError):
    """Cross-artifact inconsistency, e.g. a pair referencing an unknown mention ID."""


class ValidationError(SoftMentionsError):
    """Configuration value violates its invariant."""


class ExternalServiceError(SoftMentionsError):
    """A remote lookup failed; carries the source name for reporting."""

    def __init__(self, source: str, message: str):
        super().__init__(f"{source}: {message}")
        self.source = source
