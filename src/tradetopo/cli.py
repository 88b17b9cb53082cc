"""Command-line batch pipelines over trade/GDP/recession CSV inputs:
dendrogram (one year's tree), recover (one year's shock and recovery,
from pipeline.scenario) and pipeline (every result of a panel, from
pipeline.run_panel). load(parse, path) reads every input file,
write_table writes every table as CSV and write_json every record as
JSON. Each command computes every result before its first write, so an
error leaves no partial output, with one exception: pipeline still
writes its CCC outputs and recessions_test.json when every year's shock
scenario fails. Exit codes, chosen in main() by the class of the error:
0 success, 2 input/parse error (ParseError, MissingGdp, a missing or
unreadable file, a bad option value, an empty --out; ImportError when
the recovery fit finds no scipy), 3 empty or degenerate result
(Degenerate), 4 non-convergence (NoConvergence). In pipeline a shock
scenario that fails at any point, its summary values included, skips
its year; a run in which every year fails exits 4 if each failure was
NoConvergence, 3 otherwise. All floats in output files use 12
significant digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import Degenerate, MissingGdp, NoConvergence, ParseError

# numpy loads OpenBLAS, which reads its thread count once, at load (no
# command loads scipy's copy: the recovery fit's MINPACK links no BLAS).
# Its worker threads spin CPU at start-up and buy nothing at this
# program's matrix sizes, so the CLI runs one thread unless the user has
# chosen a count (OpenBLAS reads these three).
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import hclust, ingest, metrics, pipeline, shockprop  # noqa: E402

log = logging.getLogger("tradetopo")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NO_CONVERGENCE = 4


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def atomic_write(path, text):
    """Write text as UTF-8, whatever the locale, through a temp file in
    path's directory and one rename. The temp file is created with mode
    0666 less the umask, as open() creates a file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(out_dir, stem, header, rows):
    """Write rows to out_dir as stem.csv."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    atomic_write(os.path.join(out_dir, f"{stem}.csv"), "\n".join(lines) + "\n")


def write_json(out_dir, stem, record):
    """Write a record of scalars and float lists to out_dir as stem.json."""
    def clean(v):
        if isinstance(v, float):
            return float(fmt(v))
        if isinstance(v, list):
            return [clean(x) for x in v]
        return v

    record = {k: clean(v) for k, v in record.items()}
    atomic_write(os.path.join(out_dir, f"{stem}.json"),
                 json.dumps(record, indent=2) + "\n")


# "utf-8-sig" skips a leading byte-order mark, as Excel's "CSV UTF-8" writes;
# a byte that is not UTF-8 reads as a lone surrogate, which fails its field's
# check on its own line
def load(parse, path):
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse(fh)


def load_trade(path):
    return load(ingest.parse_trade_csv, path)


def shock_config(args):
    return shockprop.ShockConfig(
        epicenter=args.epicenter,
        shock_fraction=args.shock,
        tolerance=args.tol,
        max_steps=args.max_steps,
    )


# --- commands ---


def cmd_dendrogram(args):
    """args.year's average-linkage tree as Newick, its cut into args.cut
    clusters and the share matrix in its leaf order, from one tree."""
    net = ingest.build_network(load_trade(args.trade), args.year)
    dend = hclust.average_linkage(hclust.distances_from_network(net))
    k = min(args.cut, net.n)
    if k != args.cut:
        log.warning("cut count %d clamped to %d countries", args.cut, net.n)
    assignment = hclust.cut_at_count(dend, k)
    newick = hclust.to_newick(dend, net.countries)
    share = metrics.ordered_share_matrix(net, dend)
    atomic_write(os.path.join(args.out, f"tree_{net.year}.nwk"), newick + "\n")
    write_table(args.out, f"clusters_{net.year}", ["country", "cluster"],
                list(zip(net.countries, assignment)))
    write_table(
        args.out, f"share_matrix_{net.year}", ["", *share.countries],
        [(country, *row) for country, row in zip(share.countries, share.s.tolist())],
    )
    return EXIT_OK


def cmd_recover(args):
    """args.year's shock scenario: the trace and summary of each phase,
    shock then recovery; the shock's summary holds only its two values."""
    panel, gdp = load_trade(args.trade), load(ingest.parse_gdp_csv, args.gdp)
    state = shockprop.year_state(args.year, *ingest.directed_flows(panel, args.year), gdp)
    shock, recovery, summary = pipeline.scenario(state, shock_config(args))
    shocked = {k: summary[k] for k in ("world_gdp_change", "impact_ratio")}
    for phase, trace, record in (("shock", shock, shocked),
                                 ("recovery", recovery, summary)):
        write_table(args.out, f"{phase}_trace_{args.year}", ["step", "country", "gdp"],
                    [(t, country, value) for t, y in enumerate(trace.steps)
                     for country, value in zip(trace.countries, y.tolist())])
        write_json(args.out, f"{phase}_summary_{args.year}",
                   {**record, "steps": len(trace.steps)})
    return EXIT_OK


def cmd_pipeline(args):
    # the trade file is parsed first, and no name here holds its rows, so
    # run_panel frees them before its CCC stage
    run = pipeline.run_panel(
        load_trade(args.trade),
        load(ingest.parse_gdp_csv, args.gdp) if args.gdp is not None else None,
        load(ingest.parse_recessions, args.recessions)
        if args.recessions is not None else None,
        args.years, shock_config(args))
    write_table(args.out, "ccc_series", ["year", "ccc", "n_countries"],
                [(p.year, p.ccc, p.n_countries) for p in run.series])
    if run.ratios is not None:
        write_table(args.out, "trade_gdp_ratio", ["year", "ratio"], run.ratios)
        write_table(args.out, "total_trade", ["year", "total_trade"], run.totals)
    if run.shift is not None:
        write_json(args.out, "recessions_test", run.shift)
    if run.fig4 is None:
        log.warning("no GDP data; shock and recovery stages skipped")
        return EXIT_OK
    if not run.fig4:
        error = NoConvergence if all(run.failures) else Degenerate
        raise error(f"shock scenario failed in all {len(run.failures)} years")
    write_table(args.out, "fig4a", ["year", "ccc", "impact_ratio"],
                [(p.year, p.ccc, s["impact_ratio"]) for p, s in run.fig4])
    write_table(args.out, "fig4b", ["year", "ccc", "world_gdp_change", "lambda"],
                [(p.year, p.ccc, s["world_gdp_change"], s["lambda"])
                 for p, s in run.fig4])
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


def _nonempty(text):
    """An argparse type= that refuses "" (as --out: the working directory)."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


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
    out = _parent("--out", required=True, type=_nonempty, help="output directory")
    gdp = _parent("--gdp", help="GDP CSV")
    need_gdp = _parent("--gdp", required=True, help="GDP CSV")
    recessions = _parent("--recessions", help="recession windows CSV")
    year = _parent("--year", type=int, required=True)
    years = _parent("--years", metavar="A:B", type=_year_range,
                    help="inclusive year range")
    shock = _parent()
    # normalized like the country codes of the input files, which are read as
    # UTF-8 whatever the locale: surrogate-escaped argv bytes are decoded again
    shock.add_argument("--epicenter", default="USA", type=lambda code: code.encode(
        "utf-8", "surrogateescape").decode("utf-8", "surrogateescape").strip().upper())
    defaults = shockprop.ShockConfig
    shock.add_argument("--shock", type=_positive(float, below=1),
                       default=defaults.shock_fraction,
                       help="epicenter GDP shock fraction")
    shock.add_argument("--tol", type=_positive(float), default=defaults.tolerance)
    shock.add_argument("--max-steps", type=_positive(int), default=defaults.max_steps)
    cut = _parent("--cut", type=_positive(int), default=6,
                  help="cluster count for cuts")

    # no abbreviations: each option has one spelling, and --year is not --years
    def add(name, func, *options):
        p = sub.add_parser(name, parents=[trade, *options, out], allow_abbrev=False)
        p.set_defaults(func=func)

    add("dendrogram", cmd_dendrogram, year, cut)
    add("recover", cmd_recover, need_gdp, year, shock)
    add("pipeline", cmd_pipeline, gdp, recessions, years, shock)
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
