"""Recession shock propagation and recovery on the directed export
network.

Dynamics per step (time indices t-1, t, t+1):
  X_ij(t)   = X_ij(t-1) * Y_j(t) / Y_j(t-1)
  Y_i(t+1)  = Y_i(t) * (1 + P_i * (X_i(t)/X_i(t-1) - 1))
with X_i = sum_j X_ij and P_i frozen at its initial value X_i(0)/Y_i(0).
Countries with X_i(t-1) = 0 keep their GDP unchanged.

The update is unit-free: scaling every GDP and export by one factor
scales the whole trace by it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Degenerate, MissingGdp, NoConvergence

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EconomyState:
    countries: tuple[str, ...]
    y: np.ndarray  # GDP per country, USD
    x: np.ndarray  # directed exports, x[i, j] = exports i -> j
    p: np.ndarray  # export/GDP ratios, frozen at initialization

    @classmethod
    def from_exports(cls, countries, y, x) -> "EconomyState":
        """State whose P_i = X_i / Y_i is taken from these exports."""
        return cls(countries=tuple(countries), y=y, x=x, p=x.sum(axis=1) / y)

    def index(self, country) -> int:
        return _country_index(self.countries, country)


def _country_index(countries, country) -> int:
    try:
        return countries.index(country)
    except ValueError:
        raise Degenerate(f"{country!r} not in state") from None


@dataclass(frozen=True)
class ShockConfig:
    epicenter: str
    shock_fraction: float = 0.054
    tolerance: float = 1e-10
    max_steps: int = 100_000

    def __post_init__(self):
        if not 0 < self.shock_fraction < 1:
            raise ValueError(
                f"shock_fraction must be in (0, 1), got {self.shock_fraction}"
            )
        if not self.tolerance >= 0:
            raise ValueError(
                f"tolerance must be >= 0 and not NaN, got {self.tolerance}"
            )
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class SimulationTrace:
    countries: tuple[str, ...]
    steps: list[np.ndarray]  # GDP vector per time step, t = 0, 1, ...
    converged: bool
    final_state: EconomyState | None = field(default=None, repr=False)

    @property
    def world_gdp(self) -> np.ndarray:
        # each row's reduction is the pairwise sum that y.sum() takes
        return np.add.reduce(np.array(self.steps), axis=1)


@dataclass(frozen=True)
class RecoveryFit:
    lam: float  # decay rate per simulation step
    a: float
    y_inf: float


def year_state(year, countries, x, gdp: dict) -> EconomyState:
    """State from one year's directed export matrix x over countries plus
    the GDP table.

    Exports stay directional (no symmetrization); P_i is computed once
    and never updated.
    """
    missing = [c for c in countries if (year, c) not in gdp]
    if missing:
        raise MissingGdp(missing)
    y = np.array([gdp[(year, c)] for c in countries])
    state = EconomyState.from_exports(countries, y, x)
    high = [c for c, pi in zip(state.countries, state.p) if pi >= 1]
    if high:
        log.warning("year %d: export/GDP ratio >= 1 for: %s", year, ", ".join(high))
    return state


def apply_shock(state: EconomyState, config: ShockConfig) -> EconomyState:
    """Scale the epicenter's GDP down by the shock fraction."""
    i = state.index(config.epicenter)
    y = state.y.copy()
    y[i] *= 1.0 - config.shock_fraction
    return replace(state, y=y)


def step(x, ex, y_prev, y, p):
    """Advance one step from X(t-1) with row sums ex, Y(t-1) and Y(t);
    return X(t), its row sums, Y(t+1) and the max relative change
    max |Y(t+1) - Y(t)| / Y(t).

    Y(t) must be finite and > 0. Rows whose sum is <= 0 or NaN keep their
    GDP. When every row sum is > 0 the ratio is a plain divide and X(t)
    is not scanned for non-finite entries: one makes its row sum, and so
    that row of Y(t+1), NaN or inf, which the domain check rejects. The
    min/max domain check of Y(t+1) runs only when the change is not < 1:
    a change < 1 puts Y(t+1) in (0, 2 Y(t)), since rounding is monotone,
    and a NaN or inf in Y(t+1) makes the change NaN or inf.
    """
    x_t = x * (y / y_prev)
    ex_t = np.add.reduce(x_t, 1)
    # a NaN row sum fails this test; min and max are NaN if any entry is
    trades = np.minimum.reduce(ex) > 0
    if trades:
        y_next = ex_t / ex
    else:
        y_next = np.divide(ex_t, ex, out=np.ones_like(ex_t), where=ex > 0)
    # y * (1 + p * (ratio - 1)), in place, same bits
    y_next -= 1.0
    y_next *= p
    y_next += 1.0
    y_next *= y
    # the relative change |y_next - y| / y, in one temporary
    change = y_next - y
    np.absolute(change, out=change)
    change /= y
    delta = np.maximum.reduce(change)
    if not ((delta < 1 or (np.minimum.reduce(y_next) > 0
                           and np.maximum.reduce(y_next) < np.inf))
            and (trades or np.isfinite(x_t).all())):
        raise Degenerate("state left the finite positive domain")
    return x_t, ex_t, y_next, delta


def _iterate(prev: EconomyState, y: np.ndarray, config: ShockConfig,
             steps: list[np.ndarray], phase: str) -> SimulationTrace:
    """Iterate from prev, which holds X(t-1) and Y(t-1), and Y(t) = y,
    one step call per step, until the max relative change |Y(t+1) -
    Y(t)| / Y(t) that step returns is below the tolerance; the final
    state holds the last X(t) and Y(t+1). NoConvergence reports the last
    step's change. Y(t) must be finite and > 0 on entry, as step needs;
    every later Y(t) is a Y(t+1) that passed step's domain check."""
    if not (np.minimum.reduce(y) > 0 and np.maximum.reduce(y) < np.inf):
        raise Degenerate("GDP is not finite and > 0 at the start")
    x, y_prev, p = prev.x, prev.y, prev.p
    ex = np.add.reduce(x, 1)
    tol = config.tolerance
    converged = False
    for _ in range(config.max_steps):
        x, ex, y_next, delta = step(x, ex, y_prev, y, p)
        steps.append(y_next)
        converged = bool(delta < tol)
        y_prev, y = y, y_next
        if converged:
            break
    trace = SimulationTrace(prev.countries, steps, converged,
                            EconomyState(prev.countries, y, x, p))
    if not converged:
        raise NoConvergence(
            f"no steady state after {config.max_steps} steps: max relative"
            f" change {delta:.2g} >= tolerance {tol:g}", trace=trace,
            phase=phase,
        )
    return trace


def run_to_steady(initial: EconomyState, config: ShockConfig) -> SimulationTrace:
    """Shock the epicenter, then iterate the dynamics until the maximum
    relative per-step GDP change drops below the tolerance.

    The trace records every step, including t=0 (pre-shock) and t=1
    (post-shock, before any propagation).
    """
    shocked = apply_shock(initial, config)
    steps = [initial.y.copy(), shocked.y.copy()]
    return _iterate(initial, shocked.y, config, steps, "shock")


def run_recovery(steady: EconomyState, initial_y_epicenter: float,
                 config: ShockConfig) -> SimulationTrace:
    """Restore the epicenter's GDP to its pre-shock value and iterate the
    same dynamics until the world recovers to a steady state."""
    i = steady.index(config.epicenter)
    y = steady.y.copy()
    y[i] = initial_y_epicenter
    steps = [steady.y.copy(), y.copy()]
    return _iterate(steady, y, config, steps, "recovery")


def shock_and_recover(state: EconomyState, config: ShockConfig):
    """The fig4 scenario: run_to_steady from state, run_recovery to the
    epicenter's GDP in state, and fit_recovery. Returns (shock trace,
    recovery trace, RecoveryFit)."""
    initial_y = float(state.y[state.index(config.epicenter)])
    shock = run_to_steady(state, config)
    recovery = run_recovery(shock.final_state, initial_y, config)
    return shock, recovery, fit_recovery(recovery)


def world_gdp_change(trace: SimulationTrace) -> float:
    """Relative change of total world GDP between the first and last step."""
    if not trace.converged:
        raise Degenerate("trace did not reach steady state")
    w = trace.world_gdp
    return float((w[-1] - w[0]) / w[0])


def impact_ratio(trace: SimulationTrace, epicenter: str) -> float:
    """F = (% change of world GDP excluding the epicenter) / (% change of
    the epicenter's GDP), measured first-to-last step."""
    if not trace.converged:
        raise Degenerate("trace did not reach steady state")
    if len(trace.countries) < 2:
        raise Degenerate("impact ratio needs at least 2 countries")
    i = _country_index(trace.countries, epicenter)
    first, last = trace.steps[0], trace.steps[-1]
    epi_change = (last[i] - first[i]) / first[i]
    if epi_change == 0:
        raise Degenerate("epicenter GDP did not change")
    mask = np.arange(first.size) != i
    rest_first = first[mask].sum()
    rest_last = last[mask].sum()
    rest_change = (rest_last - rest_first) / rest_first
    return float(rest_change / epi_change)


def fit_recovery(trace: SimulationTrace) -> RecoveryFit:
    """Fit W(t) ~ y_inf - a * exp(-lam * t) to the world GDP series.

    A log-linear regression of ln(y_inf - W) on t seeds a nonlinear
    least-squares refinement in which y_inf is free; the refinement is
    what lets an exactly exponential series be recovered to machine
    precision despite the truncated tail. The refinement is MINPACK's
    lmdif called as scipy.optimize.curve_fit(..., maxfev=10_000) calls
    it, so the fit is curve_fit's to the bit. If lmdif stops without
    converging, the log-linear seed is returned; a non-finite point of W
    raises ValueError, as in curve_fit.
    """
    if not trace.converged:
        raise Degenerate("trace did not reach steady state")
    eps = 1e-12
    w = trace.world_gdp
    y_end = float(w[-1])
    resid = y_end - w
    if np.any(resid < -eps * abs(y_end)):
        raise Degenerate("series overshoots its final value")
    mask = resid > eps * abs(y_end)
    if mask.sum() < 3:
        raise Degenerate(
            f"only {int(mask.sum())} points below the final value"
        )
    t = np.arange(len(w), dtype=float)
    slope, intercept = np.polyfit(t[mask], np.log(resid[mask]), 1)
    lam0, a0 = -slope, float(np.exp(intercept))

    if not np.isfinite(w).all():  # curve_fit's input check
        raise ValueError("array must not contain infs or NaNs")

    def residuals(params):
        y_inf, a, lam = params.tolist()
        return (y_inf - a * np.exp(-lam * t)) - w

    # the arguments that curve_fit(..., maxfev=10_000) passes on through
    # leastsq: its default tolerances, step and factor
    p0 = np.array([y_end, a0, max(lam0, 1e-12)])
    params, info = _lmdif()(residuals, p0, (), 0, 1.49012e-08, 1.49012e-08,
                            0.0, 10_000, np.finfo(float).eps, 100, None)
    if info in (1, 2, 3, 4):
        y_inf, a, lam = (float(v) for v in params)
    else:
        y_inf, a, lam = y_end, a0, lam0
    return RecoveryFit(lam=lam, a=a, y_inf=y_inf)


@functools.cache
def _lmdif():
    """MINPACK's lmdif, which curve_fit reaches through leastsq, from the
    private extension scipy.optimize._minpack. Importing the scipy.optimize
    package costs ~0.3 s, and the extension alone links only libm and libc:
    unless scipy.optimize has loaded it, its file is loaded from scipy's
    directory without importing scipy (or, where no file is found,
    imported as usual). Tests pin the fit bit for bit against curve_fit."""
    name = "scipy.optimize._minpack"
    if name not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        for directory in spec.submodule_search_locations if spec else ():
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(directory, "optimize", "_minpack" + suffix)
                if os.path.isfile(path):
                    loader = importlib.machinery.ExtensionFileLoader(name, path)
                    module = importlib.util.module_from_spec(
                        importlib.util.spec_from_loader(name, loader))
                    loader.exec_module(module)
                    return module._lmdif
    return importlib.import_module(name)._lmdif
