"""Exception hierarchy shared across the citefrac modules."""


class CitefracError(Exception):
    """Base class for all citefrac errors."""


# -- corpus / parsing ------------------------------------------------------

class ParseError(CitefracError):
    """A record in an input file could not be parsed.

    Carries the 1-based line number where the problem was detected.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingId(ParseError):
    pass


class MalformedField(ParseError):
    pass


class UnterminatedRecord(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class NonNumericCell(ParseError):
    pass


class NonPositiveP(ParseError):
    pass


# -- query language --------------------------------------------------------

class QuerySyntaxError(CitefracError):
    """Syntax error in an address query; carries the character position.

    For a query read from a units file, ``line`` is its 1-based line and
    ``position`` the 0-based offset within that line.
    """

    def __init__(self, message: str, position: int, line: int | None = None):
        self.message = message
        self.position = position
        self.line = line
        where = f"at position {position}"
        if line is not None:
            where = f"line {line}, column {position + 1}"
        super().__init__(f"{where}: {message}")


class MinusError(CitefracError):
    """A ``minus`` that cannot be resolved; ``unit`` names the definition
    whose ``minus`` list is at fault."""

    def __init__(self, message: str, unit: str):
        self.unit = unit
        super().__init__(message)


class UnknownUnitInMinus(MinusError):
    pass


class CyclicMinus(MinusError):
    pass


# -- counting --------------------------------------------------------------

class UnknownUnit(CitefracError):
    pass


# -- statistics ------------------------------------------------------------

class StatsError(CitefracError):
    pass


class LengthMismatch(StatsError):
    pass


class ConstantInput(StatsError):
    pass


class TooFewGroups(StatsError):
    pass


class AllValuesTied(StatsError):
    pass


class ConvergenceFailure(StatsError):
    """Root finding failed. The package raises it only when the
    studentized-range quantile cannot be bracketed."""


# -- reporting -------------------------------------------------------------

class UnitSetMismatch(CitefracError):
    pass


class IncompletePairCoverage(CitefracError):
    pass
