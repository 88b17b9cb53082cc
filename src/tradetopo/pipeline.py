"""A trade panel's three results from one call: the yearly CCC series,
fig4's shock sensitivity and recovery, and the recession KS test. Every
layer is called through its module attribute (metrics.ccc_series, ...)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import ingest, metrics, shockprop, stats
from .errors import Degenerate, MissingGdp, NoConvergence, TradeTopoError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PanelRun:
    """run_panel's results, one field per output: the CccPoints, the
    (year, total trade) and (year, trade/GDP ratio) rows, the (CccPoint,
    scenario summary) of each fig4 year done and, per year skipped,
    whether it failed with NoConvergence, and the recessions_test.json
    record. A field whose inputs were not given is None."""

    series: list
    totals: list | None
    ratios: list | None
    fig4: list | None
    failures: list
    shift: dict | None


def scenario(state, config):
    """One year's shock scenario, shockprop.shock_and_recover. Returns the
    shock trace, the recovery trace and a summary: the world GDP change
    and impact ratio of the shock, and the recovery fit's lambda, a and
    y_inf."""
    shock, recovery, fit = shockprop.shock_and_recover(state, config)
    return shock, recovery, {
        "world_gdp_change": shockprop.world_gdp_change(shock),
        "impact_ratio": shockprop.impact_ratio(shock, config.epicenter),
        "lambda": fit.lam, "a": fit.a, "y_inf": fit.y_inf,
    }


def run_panel(panel, gdp=None, windows=None, years=None, config=None) -> PanelRun:
    """Every result of a TradePanel, in this order: each year in years, an
    inclusive (first, last) range (all if None), aggregated once, a year
    without rows or whose sums overflow skipped with a warning; the CCC
    series (Degenerate if empty); with gdp and config, Degenerate if the
    epicenter is in no year; with windows, the recession test; with gdp
    and config, every year's shock scenario, one that fails skipped with a
    warning; with gdp, each year's total trade and trade/GDP ratio. The
    panel is released after aggregation, so one that its caller holds by
    no name is freed before the CCC series."""
    flows, nets = {}, []
    for year in panel.years():
        if years is not None and not years[0] <= year <= years[1]:
            continue
        try:
            flows[year] = ingest.directed_flows(panel, year)
            nets.append(ingest.symmetrize(year, *flows[year]))
        except Degenerate as exc:
            log.warning("%s", exc)
    del panel
    series = metrics.ccc_series(nets)
    if not series:
        raise Degenerate("no year produced a CCC value")
    shocked = gdp is not None and config is not None
    # an epicenter absent from every year is a bad input, not a per-year skip
    if shocked and not any(config.epicenter in flows[p.year][0] for p in series):
        raise Degenerate(f"{config.epicenter!r} not in state")
    shift = stats.recession_ccc_shift(series, windows) if windows is not None else None
    fig4, failures = None, []
    if shocked:
        # neither fig4 nor the log record holds a failed year's error, whose
        # traceback keeps every GDP vector of the year's run alive
        fig4 = []
        for point in series:
            try:
                state = shockprop.year_state(point.year, *flows[point.year], gdp)
                fig4.append((point, scenario(state, config)[2]))
            except (TradeTopoError, ValueError) as exc:
                log.warning("year %d: shock scenario skipped: %s", point.year,
                            str(exc))
                failures.append(isinstance(exc, NoConvergence))
    totals = ratios = None
    if gdp is not None:
        totals, ratios = [], []
        for net in nets:
            totals.append((net.year, metrics.total_trade(net)))
            try:
                ratios.append((net.year, metrics.trade_gdp_ratio(net, gdp)))
            except MissingGdp as exc:
                log.warning("year %d: %s", net.year, exc)
    return PanelRun(series, totals, ratios, fig4, failures, shift)
