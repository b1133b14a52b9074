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


class NoRootError(ZipfestError):
    """The implicit-estimator equation has no root on the search interval.

    Carries the growth-curve values at both interval endpoints so callers can
    see which side the statistic fell on.
    """

    def __init__(self, message, g_lo, g_hi, target):
        super().__init__(message)
        self.g_lo = g_lo
        self.g_hi = g_hi
        self.target = target


class AmbiguousRootError(ZipfestError):
    """The implicit-estimator equation has several roots; the caller must choose.

    ``roots`` lists every refined root in increasing order; ``target`` is
    the statistic value they solve for.
    """

    def __init__(self, message, roots, target):
        super().__init__(message)
        self.roots = list(roots)
        self.target = target
