"""Exception types shared across the package."""


class TradeTopoError(Exception):
    """Base class for all package errors."""


# --- input / parsing ---

class ParseError(TradeTopoError):
    """Bad input data; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MalformedRow(ParseError):
    pass


class NegativeValue(ParseError):
    pass


class BadCountryCode(ParseError):
    pass


class NonPositiveGdp(ParseError):
    pass


class DuplicateKey(ParseError):
    pass


class MalformedDate(ParseError):
    pass


class StartAfterEnd(ParseError):
    pass


class EmptyYear(TradeTopoError):
    pass


# --- clustering / metrics ---

class TooFewCountries(TradeTopoError):
    pass


class TooFewItems(TradeTopoError):
    pass


class BadLabel(TradeTopoError):
    pass


class BadK(TradeTopoError):
    pass


class SizeMismatch(TradeTopoError):
    pass


class DegenerateVariance(TradeTopoError):
    pass


class MissingGdp(TradeTopoError):
    def __init__(self, countries):
        super().__init__(f"no GDP data for: {', '.join(sorted(countries))}")
        self.countries = sorted(countries)


# --- simulation ---

class UnknownEpicenter(TradeTopoError):
    pass


class NonFinite(TradeTopoError):
    pass


class NoConvergence(TradeTopoError):
    """Raised when max_steps is exhausted; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NotConverged(TradeTopoError):
    pass


class SingleCountryWorld(TradeTopoError):
    pass


class ZeroEpicenterChange(TradeTopoError):
    pass


class InsufficientPoints(TradeTopoError):
    pass


class NonPositiveResiduals(TradeTopoError):
    pass


# --- statistics ---

class EmptySample(TradeTopoError):
    pass


class MissingYear(TradeTopoError):
    def __init__(self, windows):
        labels = ", ".join(w.label for w in windows)
        super().__init__(f"CCC series does not cover window(s): {labels}")
        self.windows = list(windows)
