"""Exception hierarchy shared across the package."""


class RefuelOptError(Exception):
    """Base class for all package errors."""


# --- telemetry ---------------------------------------------------------------

class EmptyTrace(RefuelOptError):
    pass


class NoLocationFix(RefuelOptError):
    pass


class InvalidProfile(RefuelOptError):
    pass


# --- file I/O ----------------------------------------------------------------

class SchemaError(RefuelOptError):
    pass


class ParseError(RefuelOptError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IoError(RefuelOptError):
    pass


# --- trip graph --------------------------------------------------------------

class InvalidFrequency(RefuelOptError):
    pass


class ObservationTooShort(RefuelOptError):
    pass


# --- mileage -----------------------------------------------------------------

class SeriesTooShort(RefuelOptError):
    pass


class LengthMismatch(RefuelOptError):
    pass


class ZeroWeekTotal(RefuelOptError):
    pass


class InsufficientHistory(RefuelOptError):
    pass


# --- routing / stations / optimizer -------------------------------------------

class Unreachable(RefuelOptError):
    pass


class EmptyHistory(RefuelOptError):
    pass


class EmptyDayGraph(RefuelOptError):
    pass


class NoCandidates(RefuelOptError):
    pass


class NoReachableStation(RefuelOptError):
    pass
