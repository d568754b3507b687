"""Exception types shared across the library."""


class FjumpError(Exception):
    """Base class for every error raised by this package."""


class RingMismatchError(FjumpError):
    """Operands belong to different rings or fields."""


class PolyParseError(FjumpError):
    """Bad polynomial text; ``offset`` is the 0-based position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class JobFileError(FjumpError):
    """Bad job file; carries 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class PreconditionError(FjumpError):
    """A documented precondition of an operation does not hold."""


class ResourceLimitError(FjumpError):
    """A configured work cap was exceeded; the computation was aborted,
    never answered wrongly."""
