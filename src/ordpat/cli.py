"""Command-line surface: encode, enumerate, analyze, simulate, emit.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical warning
escalated under --strict.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .dependence import (
    ClassSeries,
    DependenceReport,
    analyze_pair,
    classical_total_score,
    score_comparison_value,
    total_score,
)
from .exceptions import DataFormatError, NumericalWarning
from .io import (
    AnalysisConfig,
    classify_peak,
    load_class_matrix,
    pair_record,
    pattern_label,
    pattern_labels,
    spatial_rows,
    write_pairs_long,
    write_plot_data,
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


def _resolve_scheme(name: str, n: int, classical: bool = False) -> WeightScheme:
    if name == "auto":
        return scheme_for_length(n, classical=classical)
    return get_scheme(name)


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
    matrix: ClassMatrix, config: AnalysisConfig
) -> tuple[list[str], dict[str, np.ndarray], list[DependenceReport]]:
    """Analyze every unordered gauge pair; symmetric matrices + long records.

    Per-pair seeds are derived from the master seed and the pair labels,
    so results do not depend on evaluation order.
    """
    labels = list(config.gauges) if config.gauges else list(matrix.gauges)
    if len(labels) < 2:
        raise ValueError("pairwise analysis needs at least 2 gauges")
    scheme = _resolve_scheme(config.scheme, config.n)
    series = {g: ClassSeries(c, g) for g, c in zip(labels, matrix.subset_columns(labels).T)}
    size = len(labels)
    score = np.ones((size, size))
    comparison = np.zeros((size, size))
    coefficient = np.ones((size, size))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]

    reports = [
        analyze_pair(
            series[labels[i]],
            series[labels[j]],
            config.n,
            stride=config.stride,
            scheme=scheme,
            level=config.level,
            kernel=config.kernel,
            bandwidth=config.bandwidth,
            block=config.block,
            replicates=config.replicates,
            seed=_pair_seed(config.seed, labels[i], labels[j]),
        )
        for i, j in pairs
    ]

    for (i, j), rep in zip(pairs, reports):
        est = rep.estimates
        score[i, j] = score[j, i] = est.total_score
        comparison[i, j] = comparison[j, i] = est.score_comparison
        coefficient[i, j] = coefficient[j, i] = est.coefficient
    for i, g in enumerate(labels):
        comparison[i, i] = score_comparison_value(
            series[g], series[g], config.n, config.stride, scheme
        )

    matrices = {"score": score, "comparison": comparison, "coefficient": coefficient}
    return labels, matrices, reports


BENCHMARK_APPROACHES = ("generalized", "randomized", "first_appearance")


BenchmarkPair = tuple[np.ndarray, np.ndarray, Callable[[int], int]]


def run_benchmark(
    pairs: Iterable[BenchmarkPair], config: AnalysisConfig, lengths: Sequence[int] = (4, 6)
) -> list[dict]:
    """Tie-handling comparison: total-score summaries per approach and length.

    Each pair is (x, y, randomize_seed), where ``randomize_seed(n)`` seeds
    the randomized tie policy of that pair at pattern length n.
    """
    pairs = list(pairs)
    rows = []
    for n in lengths:
        scheme = _resolve_scheme(config.scheme, n)
        classical = scheme_for_length(n, classical=True)
        per_method: dict[str, list[float]] = {m: [] for m in BENCHMARK_APPROACHES}
        for x, y, randomize_seed in pairs:
            per_method["generalized"].append(total_score(x, y, n, config.stride, scheme)[0])
            per_method["randomized"].append(classical_total_score(
                x, y, n, config.stride, TiePolicy.randomize(randomize_seed(n)), classical,
            )[0])
            per_method["first_appearance"].append(classical_total_score(
                x, y, n, config.stride, TiePolicy.first_appearance(), classical,
            )[0])
        for method in BENCHMARK_APPROACHES:
            vals = np.array(per_method[method])
            rows.append({
                "approach": method, "n": n,
                "mean": float(vals.mean()), "min": float(vals.min()), "max": float(vals.max()),
            })
    return rows


def run_benchmark_data(
    matrix: ClassMatrix, config: AnalysisConfig, lengths: Sequence[int] = (4, 6)
) -> list[dict]:
    """Tie-handling comparison over all gauge pairs of a data matrix."""
    labels = list(config.gauges) if config.gauges else list(matrix.gauges)
    if len(labels) < 2:
        raise ValueError("tie-handling benchmark on data needs at least 2 gauges")
    series = list(matrix.subset_columns(labels).T)
    pairs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            seed = _pair_seed(config.seed, labels[i], labels[j])
            pairs.append((series[i], series[j], lambda n, seed=seed: seed))
    return run_benchmark(pairs, config, lengths)


def run_benchmark_simulated(
    spec: IngarchSpec, config: AnalysisConfig,
    replications: int, lengths: Sequence[int] = (4, 6),
) -> list[dict]:
    """Tie-handling comparison over independent simulated stream pairs."""
    seeds = [lambda n, k=k: config.seed + 7919 * k + n for k in range(replications)]
    return run_benchmark(zip(*simulate_pairs(spec, replications), seeds), config, lengths)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    table = enumerate_patterns(args.n)
    if not args.count_only:
        print("\n".join(pattern_labels(table.codes)))
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


def _gauge_list(args) -> tuple[str, ...]:
    return tuple(args.gauges.split(",")) if args.gauges else ()


def _cmd_pairwise(args) -> int:
    matrix = load_class_matrix(args.data)
    config = AnalysisConfig(
        n=args.n,
        stride=args.stride,
        scheme=args.scheme,
        level=args.level,
        kernel=args.kernel,
        bandwidth=args.bandwidth,
        block=args.block,
        replicates=args.replicates,
        seed=args.seed,
        gauges=_gauge_list(args),
    )
    labels, matrices, reports = run_pairwise(matrix, config)
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
        print(",".join(PAIR_COLUMNS))
        for rep in reports:
            print(",".join(str(c) for c in pair_record(rep)))
    return 0


def _cmd_spatial(args) -> int:
    matrix = load_class_matrix(args.data)
    gauges = _gauge_list(args) or matrix.gauges
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
    def coefficients(text: str) -> tuple[float, ...]:
        return tuple(float(v) for v in text.split(",")) if text else ()

    return IngarchSpec(
        beta0=args.beta0, beta=coefficients(args.beta), alpha=coefficients(args.alpha),
        length=args.length, seed=args.seed, burn_in=args.burn_in,
    )


def _cmd_benchmark(args) -> int:
    config = AnalysisConfig(
        stride=args.stride, scheme=args.scheme, seed=args.seed, gauges=_gauge_list(args)
    )
    lengths = tuple(int(v) for v in args.lengths.split(","))
    if args.data:
        rows = run_benchmark_data(load_class_matrix(args.data), config, lengths)
    else:
        rows = run_benchmark_simulated(_ingarch_spec(args), config, args.replications, lengths)
    print(f"{'approach':<18} {'n':>2} {'mean%':>7} {'min%':>7} {'max%':>7}")
    for row in rows:
        print(
            f"{row['approach']:<18} {row['n']:>2} "
            f"{100 * row['mean']:7.1f} {100 * row['min']:7.1f} {100 * row['max']:7.1f}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["approach", "n", "mean", "min", "max"])
            for row in rows:
                writer.writerow([
                    row["approach"], row["n"],
                    format(row["mean"], ".10g"), format(row["min"], ".10g"),
                    format(row["max"], ".10g"),
                ])
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    counts = simulate_ingarch(_ingarch_spec(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "count"])
            for i, c in enumerate(counts, start=1):
                writer.writerow([i, int(c)])
        print(f"wrote {args.out} ({len(counts)} values)")
    else:
        print(" ".join(str(int(c)) for c in counts))
    return 0


def _cmd_classify(args) -> int:
    for p in args.probabilities:
        print(f"{p} -> class {classify_peak(float(p))}")
    return 0


def _cmd_plot_data(args) -> int:
    matrix = load_class_matrix(args.data)
    gauges = _gauge_list(args) or matrix.gauges
    write_plot_data(matrix, gauges, args.out)
    print(f"wrote {args.out} ({matrix.num_events} rows, {len(gauges)} gauges)")
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
        choices=["skip", "randomize", "first_appearance"], default=None,
        help="classical tie policy (baselines only)",
    ),
    "seed": dict(type=int, default=0, help="master seed"),
    "level": dict(type=float, default=0.95, help="confidence level"),
    "kernel": dict(
        default="bartlett", choices=["bartlett", "parzen", "truncated"],
        help="long-run variance kernel",
    ),
    "bandwidth": dict(type=float, default=None, help="kernel bandwidth"),
    "block": dict(
        type=int, default=None,
        help="bootstrap block length in windows (default: ceil(windows^(1/3)))",
    ),
    "replicates": dict(type=int, default=1000, help="bootstrap replicates"),
    "gauges": dict(default=None, help="comma-separated gauge subset"),
    "format": dict(choices=["matrix", "long"], default="matrix", help="stdout layout"),
    # the count-process parameters of ``benchmark`` and ``simulate``
    "beta0": dict(type=float, default=2.0, help="count-process intercept (default 2.0)"),
    "beta": dict(default="0.3", help="comma list of count-feedback coefficients"),
    "alpha": dict(default="", help="comma list of mean-feedback coefficients"),
    "length": dict(type=int, default=1000, help="simulated series length"),
    "burn-in": dict(type=int, default=500, help="discarded initial draws (default 500)"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


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
    _add_flags(
        p, "stride", "scheme", "seed", "gauges", "beta0", "beta", "alpha", "length", "burn-in"
    )
    p.add_argument("--data", default=None, help="class matrix CSV (else simulate)")
    p.add_argument("--lengths", default="4,6", help="pattern lengths (default 4,6)")
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("simulate", help="simulate a count process")
    _add_flags(p, "seed", "beta0", "beta", "alpha", "length", "burn-in")
    p.add_argument("--out", default=None, help="counts CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="flood class of non-exceedance probabilities")
    p.add_argument("probabilities", nargs="+", help="values in [0, 1]")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("plot-data", help="emit per-gauge series for plotting")
    _add_flags(p, "gauges")
    p.add_argument("--data", required=True, help="class matrix CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_plot_data)

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
