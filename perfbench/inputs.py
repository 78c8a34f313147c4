"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns the exact bytes or
arrays the program receives, so the same seed gives the same inputs on
any machine. The generators use numpy and the standard library only;
they never call into ``ordpat``, so a change to the package cannot
change its own benchmark inputs.
"""

from __future__ import annotations

import hashlib
import io
from statistics import NormalDist

import numpy as np

# Lower non-exceedance bounds of flood classes 1..4; a gauge below
# ABSENT_BELOW records no flood (-1) for the event.
CLASS_BOUNDS = (0.5, 0.8, 0.933, 0.966)
ABSENT_BELOW = 0.3

# Stream tags keep the generators' random streams apart for one seed.
_FLOOD, _SUBSET, _COUNTS, _LONG = 1, 2, 3, 4


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed % 2**63])


def _csv_bytes(classes: np.ndarray, prefix: str, id_prefix: str) -> bytes:
    out = io.StringIO()
    gauges = [f"{prefix}{j + 1:02d}" for j in range(classes.shape[1])]
    out.write(",".join(["event", *gauges]) + "\n")
    for i, row in enumerate(classes):
        out.write(f"{id_prefix}{i + 1:05d}," + ",".join(str(int(v)) for v in row) + "\n")
    return out.getvalue().encode("utf-8")


def flood_classes(seed: int, events: int, gauges: int) -> np.ndarray:
    """Event x gauge flood classes in -1..4 driven by a shared severity.

    Each gauge sees the event's latent severity through its own loading
    plus independent noise, so gauges are dependent. A gauge below the
    absence level records -1; an event below it everywhere floods at its
    highest gauge with class 0, so every event floods somewhere.
    """
    rng = _rng(seed, _FLOOD)
    normal = NormalDist()
    absent = normal.inv_cdf(ABSENT_BELOW)
    bounds = np.array([normal.inv_cdf(p) for p in CLASS_BOUNDS])
    severity = rng.standard_normal(events)
    loading = rng.uniform(0.55, 0.85, size=gauges)
    noise = rng.standard_normal((events, gauges))
    latent = severity[:, None] * loading + noise * np.sqrt(1.0 - loading**2)
    classes = np.searchsorted(bounds, latent, side="right").astype(np.int64)
    classes[latent < absent] = -1
    dry = np.all(classes < 0, axis=1)
    classes[dry, np.argmax(latent[dry], axis=1)] = 0
    return classes


def flood_matrix_csv(seed: int, events: int, gauges: int) -> bytes:
    """The flood class matrix in the ``ordpat`` class-matrix CSV format."""
    return _csv_bytes(flood_classes(seed, events, gauges), "G", "E")


def gauge_subset(seed: int, gauges: int, size: int) -> list[str]:
    """A seeded subset of gauge labels, in column order."""
    picked = np.sort(_rng(seed, _SUBSET).choice(gauges, size=size, replace=False))
    return [f"G{j + 1:02d}" for j in picked]


def count_matrix_csv(seed: int, events: int, gauges: int, mean: float) -> bytes:
    """Independent Poisson counts per event and gauge, as a class matrix."""
    counts = _rng(seed, _COUNTS).poisson(mean, size=(events, gauges)).astype(np.int64)
    return _csv_bytes(counts, "C", "E")


def long_counts(
    seed: int,
    length: int,
    beta0: float = 2.0,
    own: float = 0.3,
    cross: float = 0.2,
    burn_in: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Two cross-dependent count series from a bivariate INGARCH recursion.

    nu_x(t) = beta0 + own * X(t-1) + cross * Y(t-1), and symmetrically for
    Y; X(t), Y(t) are Poisson with those means. own + cross < 1 keeps the
    pair stationary; the first ``burn_in`` steps are dropped.
    """
    rng = _rng(seed, _LONG)
    total = burn_in + length
    out = np.empty((total, 2), dtype=np.int64)
    px = py = beta0 / (1.0 - own - cross)
    for t in range(total):
        draw = rng.poisson((beta0 + own * px + cross * py, beta0 + own * py + cross * px))
        out[t] = draw
        px, py = float(draw[0]), float(draw[1])
    return out[burn_in:, 0].copy(), out[burn_in:, 1].copy()


def alert_levels(counts: np.ndarray, edges: tuple[int, ...] = (3, 6)) -> np.ndarray:
    """Coarsen counts to alert levels 0..len(edges): level k below edges[k]."""
    return np.searchsorted(np.asarray(edges), counts, side="right").astype(np.int64)


def describe(data) -> dict:
    """Shape and SHA-256 of an input, as the program receives it."""
    if isinstance(data, bytes):
        text = data.decode("utf-8")
        rows = text.count("\n") - 1
        cols = text.split("\n", 1)[0].count(",")
        return {"shape": [rows, cols], "sha256": hashlib.sha256(data).hexdigest()}
    arr = np.ascontiguousarray(data)
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }
