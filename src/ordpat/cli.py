"""Command-line surface: encode, enumerate, analyze, simulate, emit.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical warning
escalated under --strict.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from ._kernels import MAX_PATTERN_LENGTH
from .dependence import KERNELS, DependenceReport, _analyze_pairs, _pair_indices, _score_slices
from .exceptions import DataFormatError, NumericalWarning
from .io import (
    _fmt,
    classify_peak,
    load_class_matrix,
    pair_record,
    pattern_label,
    pattern_labels,
    spatial_rows,
    write_csv,
    write_pairs_long,
    write_spatial_report,
    write_symmetric_matrix,
    PAIR_COLUMNS,
)
from .metric import SCHEMES, WeightScheme, get_scheme, scheme_for_length
from .patterns import TiePolicy, encode_pattern, encode_permutation, enumerate_patterns, fubini
from .simulate import IngarchSpec, simulate_ingarch, simulate_pairs
from .spatial import ClassMatrix, analyze_spatial


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _ModeFlag(argparse.Action):
    """``store``, noting in ``mode_flags`` a flag that one ``benchmark`` mode alone reads.

    ``const`` is True for the ``--data`` mode and False for the simulated
    one; the handler rejects a flag of the other mode, whatever its value.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.mode_flags = {**getattr(namespace, "mode_flags", {}), self.option_strings[0]: self.const}


def _resolve_scheme(name: str) -> Optional[WeightScheme]:
    """The ``--scheme`` choice; ``auto`` is None, the drivers' scheme by length."""
    return None if name == "auto" else get_scheme(name)


def _non_negative_int(text: str) -> int:
    """argparse type of ``--seed``: numpy takes only non-negative integer seeds."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _comma_list(kind: type, *, may_be_empty: bool = False) -> Callable[[str], tuple]:
    """argparse type of a comma list of ``kind`` values; empty text is the empty list if ``may_be_empty``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",")) if text or not may_be_empty else ()
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {kind.__name__} values, got {text!r}"
            ) from None
    return parse


_coefficients = _comma_list(float, may_be_empty=True)  # a process may have no feedback terms


def _tie_policy(name: str, seed: int) -> TiePolicy:
    if name == "randomize":
        return TiePolicy.randomize(seed)
    return TiePolicy(name)


def _pair_seed(master: int, label_a: str, label_b: str) -> int:
    digest = np.random.SeedSequence(
        [master, *(ord(c) for c in f"{label_a}|{label_b}")]
    )
    return int(digest.generate_state(1)[0])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run_pairwise(
    matrix: ClassMatrix, gauges: Sequence[str] = (), n: int = 4, stride: int = 1,
    scheme: Optional[WeightScheme] = None, level: float = 0.95, kernel: str = "bartlett",
    bandwidth: Optional[float] = None, block: Optional[int] = None, replicates: int = 1000,
    seed: int = 0,
) -> tuple[list[str], dict[str, np.ndarray], list[DependenceReport]]:
    """Analyze every unordered pair of ``gauges`` (default: all); symmetric matrices + long records.

    The settings are ``analyze_pair``'s. One estimator call at ``seed``
    covers all pairs: pair a|b gets the bootstrap intervals
    ``analyze_pair`` gives it at that seed, whatever other gauges are in
    the run.
    """
    labels = list(gauges or matrix.gauges)
    if len(labels) < 2:
        raise ValueError("pairwise analysis needs at least 2 gauges")
    reports, comparison = _analyze_pairs(
        matrix.subset_columns(labels).T, labels, n, stride, scheme or scheme_for_length(n),
        level, kernel, bandwidth, block, replicates, seed,
    )
    first, second = _pair_indices(len(labels))
    score, coefficient = np.ones((2, len(labels), len(labels)))
    score[first, second] = score[second, first] = [r.estimates.total_score for r in reports]
    coefficient[first, second] = coefficient[second, first] = [
        r.estimates.coefficient for r in reports
    ]
    matrices = {"score": score, "comparison": comparison, "coefficient": coefficient}
    return labels, matrices, reports


def run_benchmark(
    xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], seeds: Sequence[Sequence[int]],
    lengths: Sequence[int] = (4, 6), stride: int = 1, scheme: Optional[WeightScheme] = None,
) -> list[dict]:
    """Tie-handling comparison: total-score summaries per approach and length.

    ``seeds[k][i]`` seeds the randomized tie policy of pair (xs[k], ys[k])
    at pattern length ``lengths[i]``. All pairs must be equally long: each
    approach and length scores them slice by slice with ``_score_slices``
    and keeps only each pair's mean score, so no (pairs, windows) array
    is built.
    """
    if not len(xs) == len(ys) == len(seeds):
        raise ValueError(f"got {len(xs)} xs, {len(ys)} ys and {len(seeds)} seed rows: one each per pair")
    for k, row in enumerate(seeds):
        if len(row) != len(lengths):
            raise ValueError(f"seed row {k} holds {len(row)} seeds for {len(lengths)} pattern lengths")
    rows = []
    for i, n in enumerate(lengths):
        classical = scheme_for_length(n, classical=True)
        approaches = {
            "generalized": (scheme or scheme_for_length(n), None),
            "randomized": (classical, [TiePolicy.randomize(pair[i]) for pair in seeds]),
            "first_appearance": (classical, [TiePolicy.first_appearance()] * len(xs)),
        }
        for method, (weights, policies) in approaches.items():
            vals = np.concatenate([
                scores.mean(axis=1) for scores in _score_slices(xs, ys, n, stride, weights, policies)
            ])
            rows.append({
                "approach": method, "n": n,
                "mean": float(vals.mean()), "min": float(vals.min()), "max": float(vals.max()),
            })
    return rows


def run_benchmark_data(
    matrix: ClassMatrix, gauges: Sequence[str] = (), lengths: Sequence[int] = (4, 6),
    stride: int = 1, scheme: Optional[WeightScheme] = None, seed: int = 0,
) -> list[dict]:
    """Tie-handling comparison over all pairs of ``gauges`` (default: all) of a data matrix."""
    labels = list(gauges or matrix.gauges)
    if len(labels) < 2:
        raise ValueError("tie-handling benchmark on data needs at least 2 gauges")
    series = list(matrix.subset_columns(labels).T)
    first, second = _pair_indices(len(labels)).tolist()
    seeds = [[_pair_seed(seed, labels[i], labels[j])] * len(lengths) for i, j in zip(first, second)]
    return run_benchmark(
        [series[i] for i in first], [series[j] for j in second], seeds, lengths, stride, scheme
    )


def run_benchmark_simulated(
    spec: IngarchSpec, replications: int, lengths: Sequence[int] = (4, 6),
    stride: int = 1, scheme: Optional[WeightScheme] = None, seed: int = 0,
) -> list[dict]:
    """Tie-handling comparison over independent simulated stream pairs."""
    xs, ys = simulate_pairs(spec, replications)  # first: it rejects a count range() cannot take
    seeds = [[seed + 7919 * k + n for n in lengths] for k in range(replications)]
    return run_benchmark(xs, ys, seeds, lengths, stride, scheme)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    if not args.count_only:
        print("\n".join(pattern_labels(enumerate_patterns(args.n).codes)))
    elif not 1 <= args.n <= MAX_PATTERN_LENGTH:  # counting builds no table
        raise ValueError(f"pattern length for counting must be in 1..{MAX_PATTERN_LENGTH}, got {args.n}")
    print(f"patterns of length {args.n}: {fubini(args.n)}")
    return 0


def _cmd_encode(args) -> int:
    window = [float(v) for v in args.values]
    if args.tie_policy is None:
        print(pattern_label(encode_pattern(window)))
    else:
        perm = encode_permutation(window, _tie_policy(args.tie_policy, args.seed))
        print("absent" if perm is None else pattern_label(perm))
    return 0


def _cmd_pairwise(args) -> int:
    labels, matrices, reports = run_pairwise(
        load_class_matrix(args.data), args.gauges, args.n, args.stride, _resolve_scheme(args.scheme),
        args.level, args.kernel, args.bandwidth, args.block, args.replicates, args.seed,
    )
    if args.out:
        for name, values in matrices.items():
            write_symmetric_matrix(labels, values, f"{args.out}_{name}.csv")
        write_pairs_long(reports, f"{args.out}_pairs.csv")
        print(f"wrote {args.out}_{{score,comparison,coefficient,pairs}}.csv")
    if args.format == "matrix":
        print("total score matrix:")
        width = max(len(g) for g in labels) + 1
        print(" " * width + " ".join(f"{g:>8}" for g in labels))
        for g, row in zip(labels, matrices["score"]):
            print(f"{g:<{width}}" + " ".join(f"{v:8.4f}" for v in row))
    else:
        write_csv(sys.stdout, PAIR_COLUMNS, map(pair_record, reports))
    return 0


def _cmd_spatial(args) -> int:
    matrix = load_class_matrix(args.data)
    gauges = args.gauges or matrix.gauges
    report = analyze_spatial(
        matrix, gauges, alpha=args.alpha, include_zero_observed=args.include_zero
    )
    if args.out:
        write_spatial_report(report, args.out)
        print(f"wrote {args.out}")
    print(f"{report.num_events} events over gauges {','.join(report.gauges)}")
    print(f"{'pattern':<{3 * len(gauges) + 4}} {'observed%':>9} {'baseline%':>9} {'z':>7}  significant")
    for label, _, observed, baseline, z, significant, impossible in spatial_rows(report):
        z_text = "-" if math.isnan(z) else f"{z:7.2f}"
        note = " impossible-under-baseline" if impossible else ""
        flag = "yes" if significant else "no"
        print(
            f"{label:<{3 * len(gauges) + 4}} "
            f"{100 * observed:9.2f} {100 * baseline:9.2f} {z_text:>7}  {flag}{note}"
        )
    return 0


def _ingarch_spec(args) -> IngarchSpec:
    return IngarchSpec(
        beta0=args.beta0, beta=args.beta, alpha=args.alpha,
        length=args.length, seed=args.seed, burn_in=args.burn_in,
    )


def _cmd_benchmark(args) -> int:
    modes = getattr(args, "mode_flags", {})
    stray = [flag for flag, data_only in modes.items() if data_only != bool(args.data)]
    if stray:
        reason = "benchmark --data does not read it" if args.data else "benchmark reads it only with --data"
        raise argparse.ArgumentError(None, f"argument {stray[0]}: {reason}")
    if repeated := [n for i, n in enumerate(args.lengths) if n in args.lengths[:i]]:
        raise argparse.ArgumentError(None, f"argument --lengths: repeats the length {repeated[0]}")
    settings = (args.lengths, args.stride, _resolve_scheme(args.scheme), args.seed)
    if args.data:
        rows = run_benchmark_data(load_class_matrix(args.data), args.gauges, *settings)
    else:
        rows = run_benchmark_simulated(_ingarch_spec(args), args.replications, *settings)
    print(f"{'approach':<18} {'n':>2} {'mean%':>7} {'min%':>7} {'max%':>7}")
    for row in rows:
        print(
            f"{row['approach']:<18} {row['n']:>2} "
            f"{100 * row['mean']:7.1f} {100 * row['min']:7.1f} {100 * row['max']:7.1f}"
        )
    if args.out:
        columns = ["approach", "n", "mean", "min", "max"]
        write_csv(args.out, columns, (
            [row["approach"], row["n"], *(_fmt(row[c]) for c in columns[2:])]
            for row in rows
        ))
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    counts = simulate_ingarch(_ingarch_spec(args))
    if args.out:
        write_csv(args.out, ["index", "count"], enumerate(counts.tolist(), start=1))
        print(f"wrote {args.out} ({len(counts)} values)")
    else:
        print(" ".join(str(int(c)) for c in counts))
    return 0


def _cmd_classify(args) -> int:
    for p in args.probabilities:
        print(f"{p} -> class {classify_peak(float(p))}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Options shared by several subcommands; each subcommand declares the ones
# it reads.
_FLAGS = {
    "n": dict(type=int, default=4, help="pattern length (default 4)"),
    "stride": dict(type=int, default=1, help="window step (default 1)"),
    "scheme": dict(
        default="auto", choices=["auto", *sorted(SCHEMES)],
        help="weight scheme (default: auto by length)",
    ),
    "tie-policy": dict(
        choices=TiePolicy.KINDS, default=None,
        help="classical tie policy (baselines only)",
    ),
    "seed": dict(type=_non_negative_int, default=0, help="master seed"),
    "level": dict(type=float, default=0.95, help="confidence level"),
    "kernel": dict(
        default="bartlett", choices=KERNELS,
        help="long-run variance kernel",
    ),
    "bandwidth": dict(type=float, default=None, help="kernel bandwidth"),
    "block": dict(
        type=int, default=None,
        help="bootstrap block length in windows (default: ceil(windows^(1/3)))",
    ),
    "replicates": dict(type=int, default=1000, help="bootstrap replicates"),
    "gauges": dict(
        type=_comma_list(str, may_be_empty=True), default=(), help="comma-separated gauge subset"
    ),
    "format": dict(choices=["matrix", "long"], default="matrix", help="stdout layout"),
    # the count-process parameters of ``benchmark`` and ``simulate``
    "beta0": dict(type=float, default=2.0, help="count-process intercept (default 2.0)"),
    "beta": dict(type=_coefficients, default="0.3", help="comma list of count-feedback coefficients"),
    "alpha": dict(type=_coefficients, default="", help="comma list of mean-feedback coefficients"),
    "length": dict(type=int, default=1000, help="simulated series length"),
    "burn-in": dict(type=int, default=500, help="discarded initial draws (default 500)"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str, **settings) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name], **settings)


# parse_args leaves the parser as it is, so one tree serves every main call
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordpat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ordpat {__version__}")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit with status 3 if any numerical warning was raised",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all patterns of a length")
    _add_flags(p, "n")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("encode", help="encode one window")
    _add_flags(p, "tie-policy", "seed")
    p.add_argument("values", nargs="+", help="window values")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("pairwise", help="dependence for every gauge pair")
    _add_flags(
        p, "n", "stride", "scheme", "seed", "level", "kernel", "bandwidth", "block",
        "replicates", "gauges", "format",
    )
    p.add_argument("--data", required=True, help="class matrix CSV")
    p.add_argument("--out", default=None, help="output file prefix")
    p.set_defaults(func=_cmd_pairwise)

    p = sub.add_parser("spatial", help="cross-sectional pattern report")
    _add_flags(p, "gauges")
    p.add_argument("--data", required=True, help="class matrix CSV")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument("--include-zero", action="store_true", help="report non-observed patterns")
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(func=_cmd_spatial)

    p = sub.add_parser("benchmark", help="tie-handling comparison table")
    _add_flags(p, "stride", "scheme", "seed")
    _add_flags(p, "gauges", action=_ModeFlag, const=True)
    _add_flags(p, "beta0", "beta", "alpha", "length", "burn-in", action=_ModeFlag, const=False)
    p.add_argument("--data", default=None, help="class matrix CSV (else simulate)")
    p.add_argument("--lengths", type=_comma_list(int), default="4,6", help="pattern lengths (default 4,6)")
    p.add_argument("--replications", type=int, default=100, action=_ModeFlag, const=False)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("simulate", help="simulate a count process")
    _add_flags(p, "seed", "beta0", "beta", "alpha", "length", "burn-in")
    p.add_argument("--out", default=None, help="counts CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="flood class of non-exceedance probabilities")
    p.add_argument("probabilities", nargs="+", help="values in [0, 1]")
    p.set_defaults(func=_cmd_classify)

    return parser


def _discard_stdout() -> None:
    # point stdout at devnull so the interpreter's final flush of the
    # unwritten rest cannot raise again
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = args.func(args)
            sys.stdout.flush()
        except argparse.ArgumentError as exc:  # a flag that the run does not read
            parser.error(str(exc))
        except BrokenPipeError:
            # the reader closed the pipe (``ordpat ... | head``): stop quietly
            _discard_stdout()
            return 0
        except DataFormatError as exc:
            print(f"ordpat: data error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, KeyError, OSError) as exc:
            # str() of a KeyError is the repr of its message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"ordpat: error: {message}", file=sys.stderr)
            return 2
    numerical = [w for w in caught if issubclass(w.category, NumericalWarning)]
    for w in numerical:
        print(f"ordpat: warning: {w.message}", file=sys.stderr)
    if args.strict and numerical:
        print("ordpat: numerical warnings escalated (--strict)", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
