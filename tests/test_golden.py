"""Output digests that must hold across versions for a fixed ``--seed``.

Each digest is the SHA-256 of a CLI output on a seeded synthetic input.
The bootstrap-interval columns of ``pairwise`` (``comparison_ci_*`` and
``coefficient_ci_*``) are left out: they moved once, in a documented
stream change, when all gauge pairs of a run began to share one
moving-block bootstrap. Regenerate a digest only with a documented
output change.
"""

import csv
import hashlib
import io

import numpy as np

from ordpat.cli import main
from ordpat.io import PAIR_COLUMNS, save_class_matrix
from ordpat.spatial import ClassMatrix

BOOTSTRAP_COLUMNS = (
    "comparison_ci_low", "comparison_ci_high", "coefficient_ci_low", "coefficient_ci_high",
)

GOLDEN = {
    "pairwise_score.csv":
        "68c84d3c909bf58b71f958b2bb8e1cae74dbe613bfd6fe3a75dfeb64a9b5afda",
    "pairwise_comparison.csv":
        "67a4a7f3898dc8d43ad5c11b06a0d253f6e2f0b9beedae4dbbb348839422e1c7",
    "pairwise_coefficient.csv":
        "ee924841271496d552e03c7ad28c6bd58338e07eaac9c8ded7c95233bed1b011",
    "pairwise_pairs.csv without bootstrap columns":
        "a6957bf537039087e3565c5d95b21f96a3278bd24a5330f9499571327f99a7c6",
    "benchmark simulated stdout":
        "4e378d5201782f76e45f1cdc63bb51cc6a84ec3ec450f6a7433bc0e920713d85",
    "benchmark data stdout":
        "3804e28938dd072c34ec0f439ef6a9dad1735eeef10148a3c607341f3b4aef7a",
}


def flood_matrix(events=240, gauges=6, seed=2024) -> ClassMatrix:
    """Flood-like classes -1..4 over a shared basin signal."""
    rng = np.random.default_rng(seed)
    base = rng.choice(6, p=[0.1, 0.45, 0.2, 0.12, 0.08, 0.05], size=events) - 1
    bumps = rng.choice([-1, 0, 1], p=[0.2, 0.6, 0.2], size=(events, gauges))
    return ClassMatrix(
        classes=np.clip(base[:, None] + bumps, -1, 4),
        gauges=tuple(f"g{i}" for i in range(gauges)),
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(capsys, argv) -> bytes:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def output_digests(tmp_path, capsys) -> dict:
    data = tmp_path / "flood.csv"
    save_class_matrix(flood_matrix(), data)
    prefix = tmp_path / "pairwise"
    _stdout(capsys, [
        "pairwise", "--data", str(data), "--n", "4", "--replicates", "50", "--seed", "11",
        "--out", str(prefix),
    ])
    digests = {
        f"pairwise_{name}.csv": _sha((tmp_path / f"pairwise_{name}.csv").read_bytes())
        for name in ("score", "comparison", "coefficient")
    }
    with open(tmp_path / "pairwise_pairs.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == PAIR_COLUMNS
    keep = [j for j, name in enumerate(PAIR_COLUMNS) if name not in BOOTSTRAP_COLUMNS]
    kept = io.StringIO()
    csv.writer(kept, lineterminator="\n").writerows([row[j] for j in keep] for row in rows)
    digests["pairwise_pairs.csv without bootstrap columns"] = _sha(kept.getvalue().encode())
    digests["benchmark simulated stdout"] = _sha(_stdout(capsys, [
        "benchmark", "--replications", "20", "--lengths", "4,6", "--seed", "3",
    ]))
    digests["benchmark data stdout"] = _sha(_stdout(capsys, ["benchmark", "--data", str(data)]))
    return digests


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert output_digests(tmp_path, capsys) == GOLDEN
