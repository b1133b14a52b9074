"""Exception types shared across the package."""


class ZipfestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZipfestError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UsageError(ZipfestError, ValueError):
    """The operation was invoked with an inconsistent or unsupported request."""


class InsufficientDataError(ZipfestError):
    """The input carries too little data for the requested estimate."""


class InputFormatError(ZipfestError, ValueError):
    """A file or stream is malformed.

    ``location`` identifies the offending position (line number for tabular
    inputs, byte offset for encoding failures).
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class AmbiguousRootError(ZipfestError):
    """Never raised; kept only for perfbench/replay.py's import until ROADMAP item 3 drops it."""
