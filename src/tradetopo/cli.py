"""Command-line batch pipelines over trade/GDP/recession CSV inputs.

Exit codes, chosen in main() by the class of the error: 0 success,
2 input/parse error (ParseError, MissingGdp, a missing or unreadable
file, a bad option value; ImportError, before any write, when recover or
pipeline --gdp finds no scipy), 3 empty or degenerate result (Degenerate,
MissingYear), 4 non-convergence (NoConvergence; the partial trace is
still written). In pipeline a failed shock scenario skips its year; a
run in which every year fails exits 4 if each failure was NoConvergence,
3 otherwise. All floats in output files use 12 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile

from .errors import Degenerate, MissingGdp, NoConvergence, ParseError, TradeTopoError

# numpy loads OpenBLAS, which reads its thread count once, at load (no
# command loads scipy's copy: the recovery fit's MINPACK links no BLAS).
# Its worker threads spin CPU at start-up and buy nothing at this
# program's matrix sizes, so the CLI runs one thread unless the user has
# chosen a count (OpenBLAS reads these three).
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import hclust, ingest, metrics, shockprop, stats  # noqa: E402

log = logging.getLogger("tradetopo")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NO_CONVERGENCE = 4


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def round12(value: float) -> float:
    return float(f"{value:.12g}")


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(path, header, rows, fmt_name):
    """Write rows either as CSV or as a JSON list of row objects."""
    if fmt_name == "json":
        write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        lines = [",".join(header)]
        lines.extend(",".join(fmt(v) for v in row) for row in rows)
        atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    def clean(v):
        if isinstance(v, float):
            return round12(v)
        if isinstance(v, list):
            return [clean(x) for x in v]
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        return v

    atomic_write(path, json.dumps(clean(payload), indent=2) + "\n")


def table_path(out_dir, stem, fmt_name):
    ext = "json" if fmt_name == "json" else "csv"
    return os.path.join(out_dir, f"{stem}.{ext}")


# "utf-8-sig" skips a leading byte-order mark, as Excel's "CSV UTF-8" writes
def load_trade(path):
    with open(path, encoding="utf-8-sig") as fh:
        return ingest.parse_trade_csv(fh)


def load_gdp(path):
    with open(path, encoding="utf-8-sig") as fh:
        return ingest.parse_gdp_csv(fh)


def load_recessions(path):
    with open(path, encoding="utf-8-sig") as fh:
        return ingest.parse_recessions(fh)


def select_years(args, available):
    if args.year is not None:
        return [args.year]
    if args.years is not None:
        lo, hi = args.years
        return [y for y in available if lo <= y <= hi]
    return available


def ccc_stage(args, panel):
    """Directed flows, networks and CCC series of the selected years; each
    year is aggregated once, and a year without rows or whose trade sums
    overflow is skipped with a warning. Raises Degenerate if no CCC."""
    flows, nets = {}, []
    for year in select_years(args, panel.years()):
        try:
            flows[year] = ingest.directed_flows(panel, year)
            nets.append(ingest.symmetrize(year, *flows[year]))
        except Degenerate as exc:
            log.warning("%s", exc)
    series = metrics.ccc_series(nets)
    if not series:
        raise Degenerate("no year produced a CCC value")
    return flows, nets, series


def shock_config(args):
    return shockprop.ShockConfig(
        epicenter=args.epicenter,
        shock_fraction=args.shock,
        tolerance=args.tol,
        max_steps=args.max_steps,
    )


# --- commands ---
# Each command loads and validates every input it uses before it writes
# any output, so an input error (exit 2) leaves no partial results.


def _write_ccc_outputs(args, nets, series, gdp):
    write_table(
        table_path(args.out, "ccc_series", args.format),
        ["year", "ccc", "n_countries"],
        [(p.year, p.ccc, p.n_countries) for p in series],
        args.format,
    )
    if gdp is None:
        return
    ratio_rows, total_rows = [], []
    for net in nets:
        total_rows.append((net.year, metrics.total_trade(net)))
        try:
            ratio_rows.append((net.year, metrics.trade_gdp_ratio(net, gdp)))
        except MissingGdp as exc:
            log.warning("year %d: %s", net.year, exc)
    write_table(
        table_path(args.out, "trade_gdp_ratio", args.format),
        ["year", "ratio"], ratio_rows, args.format,
    )
    write_table(
        table_path(args.out, "total_trade", args.format),
        ["year", "total_trade"], total_rows, args.format,
    )


def cmd_ccc_series(args):
    panel = load_trade(args.trade)
    gdp = load_gdp(args.gdp) if args.gdp else None
    _, nets, series = ccc_stage(args, panel)
    _write_ccc_outputs(args, nets, series, gdp)
    return EXIT_OK


def cmd_dendrogram(args):
    net = ingest.build_network(load_trade(args.trade), args.year)
    dend = hclust.average_linkage(hclust.distances_from_network(net))
    atomic_write(
        os.path.join(args.out, f"tree_{net.year}.nwk"),
        hclust.to_newick(dend, net.countries) + "\n",
    )
    k = min(args.cut, net.n)
    if k != args.cut:
        log.warning("cut count %d clamped to %d countries", args.cut, net.n)
    assignment = hclust.cut_at_count(dend, k)
    write_table(
        table_path(args.out, f"clusters_{net.year}", args.format),
        ["country", "cluster"],
        list(zip(net.countries, assignment)),
        args.format,
    )
    return EXIT_OK


def cmd_share_matrix(args):
    net = ingest.build_network(load_trade(args.trade), args.year)
    dend = hclust.average_linkage(hclust.distances_from_network(net))
    share = metrics.ordered_share_matrix(net, dend)
    write_table(
        os.path.join(args.out, f"share_matrix_{net.year}.csv"),
        ["", *share.countries],
        [(country, *row) for country, row in zip(share.countries, share.s.tolist())],
        "csv",
    )
    return EXIT_OK


def _write_trace(path_stem, trace, args):
    rows = [
        (t, country, float(y[i]))
        for t, y in enumerate(trace.steps)
        for i, country in enumerate(trace.countries)
    ]
    write_table(
        table_path(args.out, path_stem, args.format),
        ["step", "country", "gdp"], rows, args.format,
    )


def cmd_scenario(args):
    """shock runs run_to_steady, recover the whole shock_and_recover
    scenario; each writes its last phase's trace, then a JSON summary."""
    panel, gdp = load_trade(args.trade), load_gdp(args.gdp)
    countries, x = ingest.directed_flows(panel, args.year)
    state = shockprop.year_state(args.year, countries, x, gdp)
    config = shock_config(args)
    recover = args.command == "recover"
    try:
        if recover:
            shockprop._lmdif()  # the recovery fit's scipy, loaded before any write
            shock, trace, fit = shockprop.shock_and_recover(state, config)
            fitted = {"lambda": fit.lam, "a": fit.a, "y_inf": fit.y_inf}
        else:
            shock = trace = shockprop.run_to_steady(state, config)
            fitted = {}
    except NoConvergence as exc:
        _write_trace(f"{exc.phase}_trace_{args.year}", exc.trace, args)
        raise
    phase = "recovery" if recover else "shock"
    _write_trace(f"{phase}_trace_{args.year}", trace, args)
    write_json(
        os.path.join(args.out, f"{phase}_summary_{args.year}.json"),
        {
            "world_gdp_change": shockprop.world_gdp_change(shock),
            "impact_ratio": shockprop.impact_ratio(shock, config.epicenter),
            **fitted,
            "steps": len(trace.steps),
            "converged": trace.converged,
        },
    )
    return EXIT_OK


def _write_recessions_test(args, shift):
    write_json(
        os.path.join(args.out, "recessions_test.json"),
        {
            "D": shift["two_sided"].d_statistic,
            "p": shift["two_sided"].p_value,
            "method": shift["two_sided"].method,
            "before": shift["before"],
            "after": shift["after"],
            "one_sided_p": shift["one_sided_p"],
        },
    )


def cmd_recessions_test(args):
    panel = load_trade(args.trade)
    windows = load_recessions(args.recessions)
    _, _, series = ccc_stage(args, panel)
    _write_recessions_test(args, stats.recession_ccc_shift(series, windows))
    return EXIT_OK


def _write_fig4(args, config, flows, series, gdp):
    """Shock and recovery of every year in the CCC series; a year whose
    scenario fails is skipped with a warning. When every year fails, no
    fig4 file is written and NoConvergence is raised if every failure was
    one, Degenerate otherwise."""
    fig4a_rows, fig4b_rows, failures = [], [], []
    for point in series:
        year = point.year
        try:
            state = shockprop.year_state(year, *flows[year], gdp)
            shock_trace, _, fit = shockprop.shock_and_recover(state, config)
        except (TradeTopoError, ValueError) as exc:
            log.warning("year %d: shock scenario skipped: %s", year, exc)
            failures.append(exc)
            continue
        fig4a_rows.append((
            year, point.ccc, shockprop.impact_ratio(shock_trace, config.epicenter),
        ))
        fig4b_rows.append((
            year, point.ccc, shockprop.world_gdp_change(shock_trace), fit.lam,
        ))
    if not fig4a_rows:
        error = (NoConvergence if all(isinstance(e, NoConvergence)
                                      for e in failures) else Degenerate)
        raise error(f"shock scenario failed in all {len(failures)} years")
    write_table(
        os.path.join(args.out, "fig4a.csv"),
        ["year", "ccc", "impact_ratio"], fig4a_rows, "csv",
    )
    write_table(
        os.path.join(args.out, "fig4b.csv"),
        ["year", "ccc", "world_gdp_change", "lambda"], fig4b_rows, "csv",
    )


def cmd_pipeline(args):
    panel = load_trade(args.trade)
    gdp = load_gdp(args.gdp) if args.gdp else None
    windows = load_recessions(args.recessions) if args.recessions else None
    config = shock_config(args)
    if gdp is not None:  # the recovery fit's scipy, loaded before any write
        shockprop._lmdif()
    flows, nets, series = ccc_stage(args, panel)
    del panel  # free the parsed rows before the shock and KS stages
    # an epicenter absent from every year is a bad option, not a per-year skip
    if gdp is not None and not any(
        args.epicenter in flows[point.year][0] for point in series
    ):
        raise Degenerate(f"{args.epicenter!r} not in state")
    # check the windows before the first write, so that windows the series
    # does not cover leave no partial outputs
    shift = None
    if windows is not None:
        shift = stats.recession_ccc_shift(series, windows)
    _write_ccc_outputs(args, nets, series, gdp)
    if shift is not None:  # before fig4, which raises if every year fails
        _write_recessions_test(args, shift)
    if gdp is None:
        log.warning("no GDP data; shock and recovery stages skipped")
    else:
        _write_fig4(args, config, flows, series, gdp)
    return EXIT_OK


# --- argument parsing ---


def _positive(convert, below=None):
    """An argparse type= that accepts only convert(text) > 0, and below
    the bound if one is given."""
    what = "positive" if below is None else f"in (0, {below:g})"

    def check(text):
        value = convert(text)
        if not (value > 0 and (below is None or value < below)):  # and not NaN
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    check.__name__ = convert.__name__  # argparse: "invalid float value"
    return check


def _year_range(text):
    """An argparse type= for "A:B", two integers with A <= B."""
    try:
        lo, hi = map(int, text.split(":"))
        if lo > hi:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be A:B with integers A <= B, got {text!r}") from None
    return lo, hi


def _parent(*flags, **kwargs):
    """A parser to pass as parents=, holding the option given, if any."""
    p = argparse.ArgumentParser(add_help=False)
    if flags:
        p.add_argument(*flags, **kwargs)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tradetopo",
        description="Hierarchy metrics and shock propagation for trade networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trade = _parent("--trade", required=True, help="trade flow CSV")
    out = _parent("--out", required=True, help="output directory")
    gdp = _parent("--gdp", help="GDP CSV")
    need_gdp = _parent("--gdp", required=True, help="GDP CSV")
    recessions = _parent("--recessions", help="recession windows CSV")
    need_recessions = _parent("--recessions", required=True,
                              help="recession windows CSV")
    year = _parent("--year", type=int, required=True)
    years = _parent()
    group = years.add_mutually_exclusive_group()
    group.add_argument("--year", type=int)
    group.add_argument("--years", metavar="A:B", type=_year_range,
                       help="inclusive year range")
    shock = _parent()
    # normalized like the country codes of the input files
    shock.add_argument("--epicenter", default="USA",
                       type=lambda code: code.strip().upper())
    shock.add_argument("--shock", type=_positive(float, below=1), default=0.054,
                       help="epicenter GDP shock fraction")
    shock.add_argument("--tol", type=_positive(float), default=1e-10)
    shock.add_argument("--max-steps", type=_positive(int), default=100_000)
    cut = _parent("--cut", type=_positive(int), default=6,
                  help="cluster count for cuts")
    table_format = _parent("--format", choices=("csv", "json"), default="csv")

    def add(name, func, *options):
        p = sub.add_parser(name, parents=[trade, *options, out])
        p.set_defaults(func=func)

    add("ccc-series", cmd_ccc_series, gdp, years, table_format)
    add("dendrogram", cmd_dendrogram, year, cut, table_format)
    add("share-matrix", cmd_share_matrix, year)
    add("shock", cmd_scenario, need_gdp, year, shock, table_format)
    add("recover", cmd_scenario, need_gdp, year, shock, table_format)
    add("recessions-test", cmd_recessions_test, need_recessions, years)
    add("pipeline", cmd_pipeline, gdp, recessions, years, shock, table_format)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ImportError, ParseError, MissingGdp, ValueError) as exc:
        error, code = exc, EXIT_INPUT
    except NoConvergence as exc:
        error, code = exc, EXIT_NO_CONVERGENCE
    except Degenerate as exc:
        error, code = exc, EXIT_EMPTY
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
