"""Datasets: CSV loading, feature scaling, synthetic blobs, and query sets.

The CSV format is one sample per line: d comma-separated features then one
integer label; a non-numeric header line is ignored.  Features are
min-max scaled to [0, 2pi] per column before encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,)
    k: int
    name: str = ""

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DatasetError(f"features must be (N, d), got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DatasetError("labels length does not match feature rows")
        if not np.all(np.isfinite(features)):
            raise DatasetError("features contain NaN or Inf")
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise DatasetError(f"labels outside 0..{self.k - 1}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class QuerySet:
    features: np.ndarray  # (M, d)
    provenance: tuple

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if not np.all(np.isfinite(features)):
            raise DatasetError("query features contain NaN or Inf")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _parse_rows(path, width: int):
    """(line number, values) of each data line; a non-numeric first
    non-blank line is a header and is skipped."""
    rows, first = [], True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if first:
                first = False
                try:
                    float(parts[0])
                except ValueError:
                    continue  # header
            if len(parts) != width:
                raise DatasetError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append((lineno, [float(p) for p in parts]))
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return rows


def load_csv(path, d: int) -> LabeledDataset:
    """Parse d features + 1 integer label per line; labels are remapped
    densely to 0..k-1 in order of first appearance."""
    rows = _parse_rows(path, d + 1)
    for lineno, r in rows:
        if not r[d].is_integer():
            raise DatasetError(f"{path}:{lineno}: label {r[d]!r} is not an integer")
    features = np.array([r[:d] for _, r in rows], dtype=np.float64)
    raw = [int(r[d]) for _, r in rows]
    mapping: dict[int, int] = {}
    for value in raw:
        if value not in mapping:
            mapping[value] = len(mapping)
    labels = np.array([mapping[v] for v in raw], dtype=np.int64)
    return LabeledDataset(features, labels, k=len(mapping), name=Path(path).stem)


# ---------------------------------------------------------------------------
# scaling and splitting
# ---------------------------------------------------------------------------

def scale_features(ds: LabeledDataset) -> LabeledDataset:
    """Min-max map each column onto [0, 2pi]; constant columns map to pi."""
    if ds.n < 2:
        raise DatasetError("scaling needs at least 2 samples")
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    span = hi - lo
    scaled = np.empty_like(ds.features)
    constant = span == 0
    nonconst = ~constant
    scaled[:, nonconst] = (ds.features[:, nonconst] - lo[nonconst]) / span[nonconst] * TWO_PI
    scaled[:, constant] = np.pi
    return replace(ds, features=scaled)


def train_test_split(
    ds: LabeledDataset, seed: int, train_fraction: float = 0.7, train_size: int | None = None
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then first `train_size` (or fraction) rows train."""
    order = np.random.default_rng(seed).permutation(ds.n)
    cut = train_size if train_size is not None else int(ds.n * train_fraction)
    if not 0 < cut < ds.n:
        raise DatasetError(f"train size {cut} leaves no test data for {ds.n} samples")
    tr, te = order[:cut], order[cut:]
    return (
        replace(ds, features=ds.features[tr], labels=ds.labels[tr]),
        replace(ds, features=ds.features[te], labels=ds.labels[te]),
    )


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def make_blobs(k: int, d: int, n_per_class: int, separation: float, seed: int) -> LabeledDataset:
    """Unit-variance Gaussian clusters whose closest pair of means sits
    `separation` apart; features come back scaled to [0, 2pi].

    Class means form a staggered grid: on each coordinate the k classes
    occupy k equally spaced positions, cyclically shifted by a seeded
    per-coordinate offset.  After scaling, every class pair therefore
    lands in well-separated angle bands on several coordinates, which
    keeps the classes distinguishable through a periodic angle encoding
    (a shared rotation would let the 0 and 2pi ends of the scale fold
    onto each other).
    """
    if k < 1 or d < 1 or n_per_class < 1:
        raise DatasetError("k, d, n_per_class must all be >= 1")
    rng = np.random.default_rng(seed)
    shifts = rng.integers(0, k, size=d)
    grid = (np.arange(k)[:, None] + shifts[None, :]) % k  # (k, d) band indices
    means = grid.astype(np.float64)
    if k > 1 and separation > 0:
        diffs = means[:, None, :] - means[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=-1))
        closest = dists[np.triu_indices(k, 1)].min()
        if closest == 0:  # all shifts identical collapses no pair; guard anyway
            closest = 1.0
        means *= separation / closest
    else:
        means *= 0.0
    features = np.concatenate(
        [means[c] + rng.normal(size=(n_per_class, d)) for c in range(k)]
    )
    labels = np.repeat(np.arange(k), n_per_class)
    order = rng.permutation(k * n_per_class)
    ds = LabeledDataset(features[order], labels[order], k=k, name=f"blobs-k{k}-d{d}-s{seed}")
    return scale_features(ds)


def make_npd_sources(k: int, d: int, n_per_class: int, separation: float, base_seed: int) -> list[LabeledDataset]:
    """Non-problem-domain stand-ins: three blob datasets of genuinely
    different tasks, with unrelated seeds and neighboring class counts.

    Varying the class count moves each source's angle bands to different
    positions, so the mixed query pool covers the feature space much more
    densely than any single task's clusters would.
    """
    ks = [kk for kk in (k - 1, k + 1, k + 2, k - 2, k + 3) if kk >= 2][:3]
    return [make_blobs(kk, d, n_per_class, separation, base_seed + 1001 + i) for i, kk in enumerate(ks)]


# ---------------------------------------------------------------------------
# query sets
# ---------------------------------------------------------------------------

def mixed_query_set(sources: list[LabeledDataset], m: int, seed: int) -> QuerySet:
    """Equal shares from each source (remainder to earlier ones), shuffled."""
    if not sources:
        raise DatasetError("mixed query set needs at least one source")
    if m < 1:
        raise DatasetError("query set size must be >= 1")
    dims = {s.d for s in sources}
    if len(dims) != 1:
        raise DatasetError(f"sources disagree on feature dimension: {sorted(dims)}")
    base, extra = divmod(m, len(sources))
    shares = [base + (1 if i < extra else 0) for i in range(len(sources))]
    rng = np.random.default_rng(seed)
    chunks = []
    for source, share in zip(sources, shares):
        replace_rows = share > source.n
        idx = rng.choice(source.n, size=share, replace=replace_rows)
        chunks.append(source.features[idx])
    features = np.concatenate(chunks)
    features = features[rng.permutation(m)]
    names = tuple(s.name for s in sources)
    return QuerySet(features, ("mixed", *names))


def random_query_set(m: int, d: int, seed: int) -> QuerySet:
    """i.i.d. Uniform[0, 2pi]^d queries."""
    if m < 1 or d < 1:
        raise DatasetError("query set size and dimension must be >= 1")
    features = np.random.default_rng(seed).uniform(0.0, TWO_PI, size=(m, d))
    return QuerySet(features, ("random",))
