"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap.

    `required` holds the cap that would have been needed to proceed.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class PostconditionError(RuntimeError):
    """A computed result contradicts an independently known value."""


class CycleNotationError(ValueError):
    """Malformed or out-of-range cycle notation."""


class PartitionFormatError(ValueError):
    """Malformed textual set partition."""


class GroupSpecError(ValueError):
    """Unrecognized or invalid group description string."""


class GeneratorFileError(ValueError):
    """Malformed generator file."""
