"""Shared exception types."""

# Longest input text an error message quotes whole.
_QUOTE_MAX = 40


def _quoted(text: str) -> str:
    """`text` quoted for an error message, cut to its first _QUOTE_MAX
    characters with its length named when it is longer."""
    if len(text) <= _QUOTE_MAX:
        return repr(text)
    return "%r... (%d characters)" % (text[:_QUOTE_MAX], len(text))


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
