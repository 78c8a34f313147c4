"""Benchmark harness for ordpat: one workload, one seed, one result line.

    python3 perfbench/run.py --workload small-calls --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and the output checks use ``tests/oracles.py``.

A run generates the workload's inputs from ``--seed``, outside any timed
region, then starts fresh single-threaded interpreters (``worker.py``):

* passes run all of the workload's operations once each. The first pass
  always runs; another starts only if the measured time of all passes is
  expected to stay within ``--seconds``. ``wall_s``, ``cpu_s`` and
  ``peak_rss_mib`` are medians over the untraced passes;
* every pass first times ``import ordpat``; after the passes,
  ``IMPORT_PROBES`` interpreters time only the import. ``setup_s`` is the
  median of all these import times.

With ``--trace 1`` each round is an untraced pass followed by a traced
one. The result then holds the per-layer metrics (medians over the
traced passes) and ``trace.overhead_s``, the traced minus the untraced
median ``wall_s``. Every pass must produce byte-identical outputs,
traced or not, or the run is marked incorrect.

The full record (environment, input shapes and SHA-256, output digests,
every pass) is written to ``perfbench/.work/<workload>-seed<seed>-trace<t>/record.json``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata, util
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 2
PASS_TIMEOUT_S = 150
MAX_ROUNDS = 50
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"), *args]
    done = subprocess.run(
        cmd, env=_child_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise HarnessError(f"worker {' '.join(args)} exited {done.returncode}: {done.stderr[-2000:]}")
    return done


def _import_probe() -> float:
    return json.loads(_worker(["--import-only"]).stdout.strip().splitlines()[-1])["setup_s"]


def _run_pass(plan_path: Path, workdir: Path, index: int, trace: int) -> dict:
    outdir = workdir / f"pass{index:02d}-trace{trace}"
    outdir.mkdir()
    result_path = outdir / "result.json"
    _worker([
        "--plan", str(plan_path), "--outdir", str(outdir), "--result", str(result_path),
        "--trace", str(trace), "--run-id", f"{workdir.name}-pass{index:02d}",
    ])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["trace"] = trace
    return result


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    # read .git directly: the checkout may not be a repository, and a git
    # command would search the parent directories
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    env = _child_env()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "ORDPAT_NO_NUMBA": os.environ.get("ORDPAT_NO_NUMBA"),
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    workdir = HERE / ".work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan, input_records = workloads.prepare(workload, seed, workdir / "inputs")
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    passes: list[dict] = []
    modes = (0, 1) if trace else (0,)
    for rounds in range(1, MAX_ROUNDS + 1):
        for mode in modes:
            passes.append(_run_pass(plan_path, workdir, len(passes), mode))
        measured = sum(p["wall_s"] for p in passes)
        if measured + measured / rounds > seconds:
            break

    plain = [p for p in passes if p["trace"] == 0]
    traced = [p for p in passes if p["trace"] == 1]
    # the first pass has filled the byte-code and file caches by now
    setup_samples = [p["setup_s"] for p in plain] + [_import_probe() for _ in range(IMPORT_PROBES)]
    reference = passes[0]["digests"]
    mismatched = [i for i, p in enumerate(passes) if p["digests"] != reference]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    median = statistics.median
    if trace:
        metrics = {
            name: {"value": median([p["layers"][name] for p in traced]), "unit": unit}
            for name, unit in spans.metric_units().items()
        }
        overhead = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"setup_s": median(setup_samples)}
        for name in ("wall_s", "cpu_s", "peak_rss_mib"):
            values[name] = median([p[name] for p in plain])
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}

    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": input_records,
        "plan": plan,
        "error_rate": failed / attempted,
        "digests_mismatched_passes": mismatched,
        "digests": reference,
        "setup_samples_s": setup_samples,
        "passes": passes,
        "result": result,
        "record_path": str(workdir / "record.json"),
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(workdir / "inputs")  # reproducible from the seed; the record keeps their digests
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/ordpat/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = record["passes"]
    print(f"record: {record['record_path']}")
    print(f"passes: {len(passes)} (traced {sum(p['trace'] for p in passes)}); "
          f"error_rate {record['error_rate']:.4g}; digests consistent: "
          f"{not record['digests_mismatched_passes']}")
    for p in passes:
        for op, found in p["problems"].items():
            print(f"check failed: {op}: {'; '.join(found)[:1000]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
