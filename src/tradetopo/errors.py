"""Exception types shared across the package, each mapped to one CLI exit
code in cli.main: 2 ParseError / MissingGdp, 3 Degenerate, 4 NoConvergence."""


class TradeTopoError(Exception):
    """Base class for all package errors."""


class ParseError(TradeTopoError):
    """Bad input data; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingGdp(TradeTopoError):
    def __init__(self, countries):
        super().__init__(f"no GDP data for: {', '.join(sorted(countries))}")
        self.countries = sorted(countries)


class Degenerate(TradeTopoError):
    """No usable data or an undefined result: an empty year, too few items,
    zero variance, an unknown epicenter."""


class NoConvergence(TradeTopoError):
    """Raised when max_steps is exhausted; the message starts with the
    phase that stopped ("shock" or "recovery")."""
