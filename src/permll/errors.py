"""Exception hierarchy shared across the package."""


class PermllError(Exception):
    """Base class for all errors raised by permll."""


class SizeError(PermllError):
    """Board size out of range, or mismatched sizes between arguments."""


class ValidationError(PermllError):
    """Malformed input: not a permutation, not a partition, bad parameters."""


class ParseError(PermllError):
    """Malformed text input (counts files, partition strings)."""


class InvalidLambdaError(PermllError):
    """A lambda decomposition whose induced table does not normalize."""


class SupportMismatchError(PermllError):
    """Fitted probability zero on a cell with positive observed count."""


class InternalCheckError(PermllError):
    """Two redundant computation paths disagreed beyond numerical slack."""
