"""Exception types shared across the package: one class per CLI exit code
(2 ParseError / MissingGdp, 3 Degenerate / MissingYear, 4 NoConvergence),
mapped to its code in cli.main."""


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
    zero variance, an unknown epicenter, a trace that did not converge."""


class MissingYear(Degenerate):
    def __init__(self, windows):
        labels = ", ".join(w.label for w in windows)
        super().__init__(f"CCC series does not cover window(s): {labels}")
        self.windows = list(windows)


class NoConvergence(TradeTopoError):
    """Raised when max_steps is exhausted; carries the partial trace and
    the phase that stopped ("shock" or "recovery")."""

    def __init__(self, message, trace=None, phase=None):
        super().__init__(message)
        self.trace = trace
        self.phase = phase
