"""The benchmark workloads: inputs, operations and output checks.

``prepare`` runs in the harness process: it writes a workload's seeded
inputs and returns the plan a worker executes. ``operations`` and
``check`` run in the worker, after ``import ordpat``.

Four groups of operations, each stressing different layers:

* pairwise: ``ordpat pairwise`` on a 300x8 flood matrix; many small calls
  on short series, so per-call encoding and block-bootstrap overhead
  dominate.
* coherence: ``ordpat benchmark`` on 100 simulated stream pairs; the
  per-step simulator loop and the classical permutation pipeline.
* spatial: ``ordpat spatial`` twice; the exact-enumeration baseline
  branch on a 2000x20 flood matrix and the sampling branch on a 300x8
  count matrix.
* long: library estimates and ``analyze_pair`` on 1e5-long count series;
  bulk kernel throughput and the all-pairs pattern distances.

They run as two workloads. One workload per group gave runs of 6-9 s of
work; on a shared 2-core host, whose speed swings by up to 1.8x over
seconds to minutes, the run-to-run spread of wall time then reached the
benchmark's bound, and the time budget for a full set of runs leaves no
room for longer runs of four workloads. Pairing the groups by regime
doubles the work per run and keeps a workload that bypasses each layer:

* small-calls (pairwise + coherence): call overhead; no spatial work and
  no array larger than a few MB.
* bulk-arrays (spatial + long): large arrays and memory; no simulator,
  no classical pipeline, and a bootstrap of only 20 replicates.

Left out on purpose:

* n=6 on 5-class series of length 1e5: ``score_comparison_value`` asks
  for about 9 GiB there, so whether it fails or swaps depends on the
  host. It belongs in the change that bounds that memory.
* ``--jobs``: the flag is due for removal, so the operations pass only
  flags that stay (``--data``, ``--n``, ``--replicates``, ``--seed``,
  ``--out``, ``--gauges``, ``--lengths``, ``--replications``).
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs

WORKLOADS = {"small-calls": ("pairwise", "coherence"), "bulk-arrays": ("spatial", "long")}

PAIRWISE_EVENTS, PAIRWISE_GAUGES, PAIRWISE_N, PAIRWISE_REPLICATES = 300, 8, 4, 200
SPATIAL_EVENTS, SPATIAL_GAUGES, SPATIAL_SUBSET = 2000, 20, 8
COUNT_EVENTS, COUNT_GAUGES, COUNT_MEAN = 300, 8, 8.0
LONG_LENGTH, LONG_REPLICATES = 100_000, 20
ORACLE_SLICE = 2000
COHERENCE_REPLICATIONS, COHERENCE_LENGTHS = 100, (4, 6)

PROBABILITIES = (
    "coincidence", "comparison", "anti_coincidence", "anti_comparison",
    "total_score", "score_comparison",
)
ORACLE_FIELDS = ("coincidence", "comparison", "anti_coincidence", "anti_comparison", "total_score")
PAIR_INTERVALS = ("coincidence_ci", "score_ci", "comparison_ci", "coefficient_ci")


# ---------------------------------------------------------------------------
# harness side: inputs and plans
# ---------------------------------------------------------------------------

def _program_seed(seed: int) -> int:
    return seed % 2**32


def prepare(workload: str, seed: int, directory: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; return (plan, input records)."""
    directory.mkdir(parents=True, exist_ok=True)
    records: dict[str, dict] = {}
    series: dict[str, str] = {}
    ops: list[dict] = []

    def save_csv(name: str, data: bytes) -> str:
        path = directory / name
        path.write_bytes(data)
        records[name] = inputs.describe(data)
        return str(path)

    def save_array(name: str, data: np.ndarray) -> str:
        path = directory / f"{name}.npy"
        np.save(path, data)
        records[name] = inputs.describe(data)
        return str(path)

    cli_seed = str(_program_seed(seed))
    for group in WORKLOADS[workload]:
        if group == "pairwise":
            data = save_csv(
                "flood_300x8.csv",
                inputs.flood_matrix_csv(seed, PAIRWISE_EVENTS, PAIRWISE_GAUGES),
            )
            ops.append({
                "name": "pairwise", "kind": "pairwise", "data": data, "prefix": "pairwise",
                "n": PAIRWISE_N, "gauges": PAIRWISE_GAUGES,
                "argv": ["pairwise", "--data", data, "--n", str(PAIRWISE_N),
                         "--replicates", str(PAIRWISE_REPLICATES), "--seed", cli_seed,
                         "--out", "pairwise"],
            })
        elif group == "coherence":
            lengths = ",".join(str(n) for n in COHERENCE_LENGTHS)
            ops.append({
                "name": "coherence", "kind": "coherence", "out": "coherence.csv",
                "lengths": list(COHERENCE_LENGTHS),
                "argv": ["benchmark", "--replications", str(COHERENCE_REPLICATIONS),
                         "--lengths", lengths, "--seed", cli_seed, "--out", "coherence.csv"],
            })
            records["simulation"] = {"seed": int(cli_seed)}  # the CLI simulates its own input
        elif group == "spatial":
            flood = save_csv(
                "flood_2000x20.csv",
                inputs.flood_matrix_csv(seed, SPATIAL_EVENTS, SPATIAL_GAUGES),
            )
            subset = inputs.gauge_subset(seed, SPATIAL_GAUGES, SPATIAL_SUBSET)
            records["gauge_subset"] = {"gauges": subset}
            counts = save_csv(
                "counts_300x8.csv",
                inputs.count_matrix_csv(seed, COUNT_EVENTS, COUNT_GAUGES, COUNT_MEAN),
            )
            ops += [
                {"name": "spatial-flood", "kind": "spatial", "events": SPATIAL_EVENTS,
                 "out": "spatial_flood.csv",
                 "argv": ["spatial", "--data", flood, "--gauges", ",".join(subset),
                          "--out", "spatial_flood.csv"]},
                {"name": "spatial-counts", "kind": "spatial", "events": COUNT_EVENTS,
                 "out": "spatial_counts.csv",
                 "argv": ["spatial", "--data", counts, "--out", "spatial_counts.csv"]},
            ]
        else:
            x, y = inputs.long_counts(seed, LONG_LENGTH)
            series.update({
                "x": save_array("x", x),
                "y": save_array("y", y),
                "alert_x": save_array("alert_x", inputs.alert_levels(x)),
                "alert_y": save_array("alert_y", inputs.alert_levels(y)),
            })
            ops += [
                {"name": "estimates-n4", "kind": "estimates", "pair": ["x", "y"], "n": 4},
                {"name": "estimates-n5", "kind": "estimates", "pair": ["x", "y"], "n": 5},
                {"name": "estimates-alert-n6", "kind": "estimates",
                 "pair": ["alert_x", "alert_y"], "n": 6},
                {"name": "analyze-pair-n4", "kind": "report", "pair": ["x", "y"], "n": 4,
                 "replicates": LONG_REPLICATES, "seed": _program_seed(seed)},
            ]
    return {"workload": workload, "seed": seed, "series": series, "ops": ops}, records


# ---------------------------------------------------------------------------
# worker side: operations
# ---------------------------------------------------------------------------

def _cli_call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def operations(plan: dict, ordpat) -> list[tuple[str, object]]:
    """(name, zero-argument callable) per operation, in run order.

    Every call looks its target up on the module at call time, so the
    tracer's wrappers are used when they are installed.
    """
    import ordpat.cli as cli

    series = {k: np.load(v) for k, v in plan["series"].items()}
    ops = []
    for op in plan["ops"]:
        if "argv" in op:
            ops.append((op["name"], lambda argv=op["argv"]: _cli_call(cli, argv)))
        elif op["kind"] == "estimates":
            x, y = (series[k] for k in op["pair"])
            ops.append((op["name"], lambda x=x, y=y, n=op["n"]: ordpat.dependence_estimates(x, y, n)))
        else:
            x, y = (series[k] for k in op["pair"])
            ops.append((op["name"], lambda x=x, y=y, op=op: ordpat.analyze_pair(
                x, y, op["n"], replicates=op["replicates"], seed=op["seed"])))
    return ops


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _output_files(op: dict) -> list[str]:
    if op["kind"] == "pairwise":
        return [f"{op['prefix']}_{name}.csv" for name in ("score", "comparison", "coefficient", "pairs")]
    return [op["out"]]


def digests(plan: dict, outputs: dict) -> dict[str, dict[str, str]]:
    """SHA-256 of everything each operation produced, keyed by operation."""
    result = {}
    for op in plan["ops"]:
        if op["name"] not in outputs:
            continue
        out = outputs[op["name"]]
        if "argv" in op:
            entry = {"stdout": _sha(out["stdout"].encode()), "stderr": _sha(out["stderr"].encode())}
            for name in _output_files(op):
                path = Path(name)
                entry[name] = _sha(path.read_bytes()) if path.is_file() else "missing"
        else:
            entry = {"result": _sha(repr(out).encode())}
        result[op["name"]] = entry
    return result


# ---------------------------------------------------------------------------
# worker side: output checks
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _read_series(path: str) -> dict[str, list[int]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(c) for c in row[1:]] for row in reader if row]
    return {g: [r[j] for r in rows] for j, g in enumerate(header[1:])}


def _in_range(problems: list, label: str, value: float, low: float, high: float) -> None:
    if not low <= value <= high:
        problems.append(f"{label}={value!r} outside [{low}, {high}]")


def _ordered(problems: list, label: str, low: float, high: float) -> None:
    if not low <= high:
        problems.append(f"{label} interval low {low!r} > high {high!r}")


def _check_pairwise(op: dict, out: dict, ctx: dict) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(f"{op['prefix']}_pairs.csv")
    pairs = op["gauges"] * (op["gauges"] - 1) // 2
    if len(rows) != pairs:
        problems.append(f"{len(rows)} pair rows, expected {pairs}")
    series = _read_series(op["data"])
    for row in rows:
        label = f"{row['gauge_a']}|{row['gauge_b']}"
        for field in PROBABILITIES:
            _in_range(problems, f"{label} {field}", float(row[field]), 0.0, 1.0)
        _in_range(problems, f"{label} coefficient", float(row["coefficient"]), -1.0, 1.0)
        for name in PAIR_INTERVALS:
            _ordered(problems, f"{label} {name}", float(row[f"{name}_low"]), float(row[f"{name}_high"]))
        weights = dict(ctx["ordpat"].get_scheme(row["scheme"]).mapping)
        expected = ctx["oracle"].oracle_estimates(
            series[row["gauge_a"]], series[row["gauge_b"]], op["n"], 1, weights
        )
        for field in ORACLE_FIELDS:
            if format(expected[field], ".10g") != row[field]:
                problems.append(f"{label} {field}={row[field]} but oracle gives {expected[field]!r}")
    for name in ("score", "comparison", "coefficient"):
        with open(f"{op['prefix']}_{name}.csv", encoding="utf-8", newline="") as handle:
            cells = [row[1:] for row in list(csv.reader(handle))[1:]]
        if len(cells) != op["gauges"] or any(
            cells[i][j] != cells[j][i] for i in range(len(cells)) for j in range(len(cells))
        ):
            problems.append(f"{name} matrix is not a symmetric {op['gauges']}x{op['gauges']} table")
    return problems


def _check_spatial(op: dict, out: dict, ctx: dict) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(op["out"])
    if not rows:
        return ["empty spatial report"]
    total = sum(int(r["count"]) for r in rows)
    if total != op["events"]:
        problems.append(f"observed counts sum to {total}, expected {op['events']}")
    for r in rows:
        observed, baseline = float(r["observed_pct"]), float(r["baseline_pct"])
        _in_range(problems, f"{r['pattern']} observed_pct", observed, 0.0, 100.0)
        _in_range(problems, f"{r['pattern']} baseline_pct", baseline, 0.0, 100.0)
        if abs(observed - 100.0 * int(r["count"]) / op["events"]) > 1e-6:
            problems.append(f"{r['pattern']} observed_pct {observed} disagrees with its count")
    return problems


def _check_coherence(op: dict, out: dict, ctx: dict) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(op["out"])
    expected = {(a, n) for a in ("generalized", "randomized", "first_appearance") for n in op["lengths"]}
    if {(r["approach"], int(r["n"])) for r in rows} != expected or len(rows) != len(expected):
        problems.append(f"coherence table rows {[(r['approach'], r['n']) for r in rows]}")
    for r in rows:
        low, mean, high = float(r["min"]), float(r["mean"]), float(r["max"])
        label = f"{r['approach']} n={r['n']}"
        if not 0.0 <= low <= mean <= high <= 1.0:
            problems.append(f"{label}: not 0 <= min {low} <= mean {mean} <= max {high} <= 1")
    return problems


def _check_estimates_values(problems: list, label: str, est, length: int, n: int) -> None:
    for field in PROBABILITIES:
        _in_range(problems, f"{label} {field}", getattr(est, field), 0.0, 1.0)
    _in_range(problems, f"{label} coefficient", est.coefficient, -1.0, 1.0)
    if est.num_windows != length - n + 1:
        problems.append(f"{label} num_windows {est.num_windows}, expected {length - n + 1}")


def _check_oracle_slice(problems: list, op: dict, ctx: dict) -> None:
    # exact agreement with the pure-Python oracle on a fixed leading slice
    x, y = (ctx["series"][k][:ORACLE_SLICE] for k in op["pair"])
    ordpat = ctx["ordpat"]
    got = ordpat.dependence_estimates(x, y, op["n"])
    weights = dict(ordpat.scheme_for_length(op["n"]).mapping)
    expected = ctx["oracle"].oracle_estimates(x.tolist(), y.tolist(), op["n"], 1, weights)
    for field in ORACLE_FIELDS:
        if getattr(got, field) != expected[field]:
            problems.append(
                f"slice {field}={getattr(got, field)!r} but oracle gives {expected[field]!r}"
            )


def _check_estimates(op: dict, out, ctx: dict) -> list[str]:
    problems: list[str] = []
    length = ctx["series"][op["pair"][0]].shape[0]
    _check_estimates_values(problems, op["name"], out, length, op["n"])
    _check_oracle_slice(problems, op, ctx)
    return problems


def _check_report(op: dict, out, ctx: dict) -> list[str]:
    problems: list[str] = []
    length = ctx["series"][op["pair"][0]].shape[0]
    _check_estimates_values(problems, op["name"], out.estimates, length, op["n"])
    for name, var in (("coincidence", out.coincidence_variance), ("score", out.score_variance)):
        if var.sigma2 < 0.0:
            problems.append(f"{name} long-run variance {var.sigma2!r} is negative")
        _ordered(problems, f"{name}_ci", var.ci_low, var.ci_high)
    _ordered(problems, "comparison_ci", *out.comparison_ci)
    _ordered(problems, "coefficient_ci", *out.coefficient_ci)
    same = ctx["outputs"].get(f"estimates-n{op['n']}")
    if same is not None and same != out.estimates:
        problems.append("report estimates differ from the standalone estimates")
    return problems


CHECKS = {
    "pairwise": _check_pairwise,
    "spatial": _check_spatial,
    "coherence": _check_coherence,
    "estimates": _check_estimates,
    "report": _check_report,
}


def check(plan: dict, ordpat, oracle, outputs: dict, errors: dict) -> dict[str, list[str]]:
    """Problems found per operation; an operation with none passed."""
    ctx = {
        "ordpat": ordpat,
        "oracle": oracle,
        "outputs": outputs,
        "series": {k: np.load(v) for k, v in plan["series"].items()},
    }
    found = {}
    for op in plan["ops"]:
        name = op["name"]
        if name in errors:
            found[name] = [f"raised: {errors[name]}"]
            continue
        out = outputs[name]
        if "argv" in op and out["status"] != 0:
            found[name] = [f"exit status {out['status']}: {out['stderr'][-500:]}"]
            continue
        try:
            found[name] = CHECKS[op["kind"]](op, out, ctx)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            found[name] = [f"check raised {type(exc).__name__}: {exc}"]
    return found
