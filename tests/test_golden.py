"""Output digests that must hold across versions for a fixed ``--seed``.

Each digest is the SHA-256 of an output on a seeded synthetic input: the
``pairwise`` CSVs, the ``spatial`` report CSV and table with and without
``--include-zero`` (the whole-table baseline), the ``benchmark`` tables
and ``--out`` CSVs (the tables round the means to one decimal, the CSVs
keep ten significant digits), the ``repr`` of n=6 point estimates on a
5,000-long 5-class pair, whose score table is built in many slices, and
of the classical
estimates on that tied pair (first-appearance and randomize at n=4 and
6, skip at n=4), the estimator core on
a 20,000-long dependent 6-class pair (point estimates at n=3, 4, 5, 7,
the score comparison value at n=5) and on ten 500-long pairs (the bytes
of the per-window scores at n=4 and 6, tie-aware and classical under
first-appearance and randomize), and the ``repr`` of ``analyze_pair`` on
two 100,000-long Poisson(4) series, whose bootstrap takes one replicate
per budget-sized chunk. The bootstrap-interval
columns of ``pairwise`` (``comparison_ci_*`` and ``coefficient_ci_*``)
have their own digest: they moved once, in a documented stream change,
when all gauge pairs of a run began to share one moving-block bootstrap,
and have held since. Regenerate a digest only with a documented output
change.
"""

import csv
import hashlib
import io

import numpy as np

from conftest import save_class_matrix
from ordpat.cli import main
from ordpat.dependence import _score_slices, analyze_pair, classical_dependence, dependence_estimates
from ordpat.io import PAIR_COLUMNS
from ordpat.metric import scheme_for_length
from ordpat.patterns import TiePolicy
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
    "pairwise_pairs.csv bootstrap columns":
        "c99ca62e2f7d2e9fccd6e3b025af83fc9e2a5a5873b2d9198bd4454fcfb9a622",
    "spatial csv":
        "08a3fedd217c69070462ff71b00ad66a2a0058baf5e84b94693ab0ae9c7af3f2",
    "spatial stdout":
        "30a71914cf78b046495ca62b6cfa7be3ee1ca83ab57583b7736e3a45bc8db949",
    "spatial --include-zero csv":
        "4bef426e060c3bf95809e212af90d56ea7d222e3a94030cd73dee04d5475c7da",
    "spatial --include-zero stdout":
        "a398c56efccf613f2fd4a348db474d67abdba283b8ebf734c896894ce672b391",
    "benchmark simulated stdout":
        "4e378d5201782f76e45f1cdc63bb51cc6a84ec3ec450f6a7433bc0e920713d85",
    "benchmark data stdout":
        "3804e28938dd072c34ec0f439ef6a9dad1735eeef10148a3c607341f3b4aef7a",
    "benchmark simulated csv":
        "120297584a59908c0d5e1faeca6246cbe1df97549ca7b816185be21eb39ab8dd",
    "benchmark data csv":
        "653332704d40f5833c21abb3c638dca6d64c0c89f86923ddf538815c9f23568a",
    "dependence_estimates n=6, length 5000":
        "9688e929992d5a3b27298ca4918f839187995b6469466e171d6871171939f63f",
    "classical_dependence first_appearance n=4, length 5000":
        "e898849dd86f1308968fa62575c64cb4c6a113a860a7b4fd20bc226bc5e8732a",
    "classical_dependence first_appearance n=6, length 5000":
        "ab2734cd4e9d1518a3bfdff39f20a72879ba0855e07fac97e86eda85da680060",
    "classical_dependence skip n=4, length 5000":
        "3555f1cb3c408ff359ef508b2f35591b8eb433e999c5e2c4c91e0c66870d5be7",
    "classical_dependence randomize n=4, length 5000":
        "7a2135acc9be7c9e5168f033c9ecb9507a6b435d412a0ea7b1ee4c91854a9b8a",
    "classical_dependence randomize n=6, length 5000":
        "a66c18a61aea21f68c8f1284207c2f2fa5d310d6ea56e0bedcf13ced3bb1302a",
    "dependence_estimates n=3, length 20000":
        "0ef2fb95e810949385deec3ba4b9fcf5aeccbeed81e864ece392c5f81a0d330d",
    "dependence_estimates n=4, length 20000":
        "fee3c04778a7bf67e7353a76d1202d9a19d94a25b40538ecd2a6a03bca587433",
    "dependence_estimates n=5, length 20000":
        "32ce14539be636526b17f33f8dc42bb5399e28bef16d7db2eb747c6bcde1e024",
    "dependence_estimates n=7, length 20000":
        "b06859e74392755feea8690362acd4fc99dd2cfe364f6b7629d805695c6e417d",
    "score_comparison_value n=5, length 20000":
        "8cc17a6e1c42b93a1b49387fd6a7de3e084113dda89b7410109cc5f8762947d5",
    "_row_scores n=4, 10 pairs of length 500":
        "afec0f37e4f1e44c517fd9e930c05efd837440cc3c07051a70fb9a2d9a86bb38",
    "_row_scores n=6, 10 pairs of length 500":
        "7a48775492e811b1a00b3257c3254c2b4295cdae0dd7b43ceac285cbc515e0a5",
    "_row_scores first_appearance n=4, 10 pairs of length 500":
        "bb8153ff69980a4614f16dec123e3e7fe1b52878bcb190108215d2f2c1767ead",
    "_row_scores randomize n=4, 10 pairs of length 500":
        "9300d1674e24718709fc12eb910e47403d7f4fc4e8d38200fd80d7f3d1a40ccf",
    "_row_scores first_appearance n=6, 10 pairs of length 500":
        "052f688c65536dcc89f660bf8452259e41dee128aecb590036878772ba2398c7",
    "_row_scores randomize n=6, 10 pairs of length 500":
        "0ba9308ef52513ccc24feafe957a00983301ca29db44d85e69fde2084ef513d3",
    "analyze_pair n=4, 20 replicates, length 100000":
        "c859860806676dc995b8a6411a085d7b1bf495e70ceb623e9b1f5a0dc592416f",
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
    boot = [j for j, name in enumerate(PAIR_COLUMNS) if name in BOOTSTRAP_COLUMNS]
    kept = io.StringIO()
    csv.writer(kept, lineterminator="\n").writerows([row[j] for j in boot] for row in rows)
    digests["pairwise_pairs.csv bootstrap columns"] = _sha(kept.getvalue().encode())
    for flags in ([], ["--include-zero"]):
        name = " ".join(["spatial", *flags])
        out = tmp_path / "spatial.csv"
        stdout = _stdout(capsys, ["spatial", "--data", str(data), *flags, "--out", str(out)])
        digests[f"{name} csv"] = _sha(out.read_bytes())
        digests[f"{name} stdout"] = _sha(stdout.replace(str(out).encode(), b"OUT"))
    out = tmp_path / "benchmark.csv"
    for mode, flags in (
        ("simulated", ["--replications", "20", "--lengths", "4,6", "--seed", "3"]),
        ("data", ["--data", str(data)]),
    ):
        stdout = _stdout(capsys, ["benchmark", *flags, "--out", str(out)])
        digests[f"benchmark {mode} stdout"] = _sha(stdout.replace(f"wrote {out}\n".encode(), b""))
        digests[f"benchmark {mode} csv"] = _sha(out.read_bytes())
    rng = np.random.default_rng(5)
    x, y = rng.integers(0, 5, size=(2, 5000))
    digests["dependence_estimates n=6, length 5000"] = _sha(
        repr(dependence_estimates(x, y, 6)).encode()
    )
    for policy, n in (
        (TiePolicy.first_appearance(), 4), (TiePolicy.first_appearance(), 6), (TiePolicy.skip(), 4),
        (TiePolicy.randomize(13), 4), (TiePolicy.randomize(13), 6),
    ):
        digests[f"classical_dependence {policy.kind} n={n}, length 5000"] = _sha(
            repr(classical_dependence(x, y, n, policy=policy)).encode()
        )
    x, y = class_pair()
    for n in (3, 4, 5, 7):
        digests[f"dependence_estimates n={n}, length 20000"] = _sha(
            repr(dependence_estimates(x, y, n)).encode()
        )
    digests["score_comparison_value n=5, length 20000"] = _sha(
        repr(dependence_estimates(x, y, 5).score_comparison).encode()
    )
    xs, ys = np.random.default_rng(8).integers(0, 5, size=(2, 10, 500))
    for n in (4, 6):
        digests[f"_row_scores n={n}, 10 pairs of length 500"] = _sha(
            np.concatenate(list(_score_slices(xs, ys, n, 1, scheme_for_length(n)))).tobytes()
        )
        classical = scheme_for_length(n, classical=True)
        for policies in ([TiePolicy.first_appearance()] * 10, [TiePolicy.randomize(40 + k) for k in range(10)]):
            digests[f"_row_scores {policies[0].kind} n={n}, 10 pairs of length 500"] = _sha(
                np.concatenate(list(_score_slices(xs, ys, n, 1, classical, policies))).tobytes()
            )
    x, y = np.random.default_rng(81).poisson(4.0, size=(2, 100_000))
    digests["analyze_pair n=4, 20 replicates, length 100000"] = _sha(
        repr(analyze_pair(x, y, 4, replicates=20, seed=3)).encode()
    )
    return digests


def class_pair(length=20000, seed=14) -> tuple[np.ndarray, np.ndarray]:
    """Two gauges that each move off a persistent 6-class basin signal by one class."""
    rng = np.random.default_rng(seed)
    moves = rng.choice([-1, 0, 1], p=[0.25, 0.5, 0.25], size=length)
    base = np.abs((np.cumsum(moves) + 5) % 10 - 5) - 1
    bumps = rng.choice([-1, 0, 1], p=[0.15, 0.7, 0.15], size=(2, length))
    x, y = np.clip(base + bumps, -1, 4)
    return x, y


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert output_digests(tmp_path, capsys) == GOLDEN
