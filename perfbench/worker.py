"""One measured pass of a workload, in a fresh interpreter.

The harness (``run.py``) starts this script once per pass. It times
``import ordpat`` before anything else is imported, runs the workload's
operations, stops the clock, and only then checks the outputs and hashes
them. With ``--trace 1`` the layer tracer is installed around the
operations and its per-layer metrics and spans are written too.

    python3 perfbench/worker.py --src SRC --plan PLAN.json --outdir DIR --result OUT.json [--trace 1]
    python3 perfbench/worker.py --src SRC --import-only
"""

import sys
import time


def _import_ordpat() -> float:
    start = time.perf_counter()
    import ordpat  # noqa: F401

    return time.perf_counter() - start


def main() -> int:
    setup_s = _import_ordpat()

    import argparse
    import importlib.util
    import json
    import os
    import resource
    import traceback
    from pathlib import Path

    import ordpat

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory the package must come from")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--plan")
    parser.add_argument("--outdir")
    parser.add_argument("--result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="pass")
    args = parser.parse_args()

    package = Path(ordpat.__file__).resolve()
    if not package.is_relative_to(Path(args.src).resolve()):
        print(f"worker: ordpat imported from {package}, not from {args.src}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import ordpat.cli  # noqa: F401  (every module loaded before the tracer patches them)

    import spans
    import workloads

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    ops = workloads.operations(plan, ordpat)
    os.chdir(args.outdir)

    tracer = spans.Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracer.install()
    outputs, errors = {}, {}
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, call in ops:
        try:
            outputs[name] = call()
        except Exception:  # an operation that raises is counted as failed; the run goes on
            errors[name] = traceback.format_exc(limit=-3)
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    problems = workloads.check(plan, ordpat, oracle, outputs, errors)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mib": after.ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": sum(1 for found in problems.values() if found),
        "problems": {name: found for name, found in problems.items() if found},
        "digests": workloads.digests(plan, outputs),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write(Path(args.outdir) / "spans.csv")
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
