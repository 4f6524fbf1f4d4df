"""Dataset ingestion, deterministic splitting, and synthetic data generation."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .scores import sigmoid

__all__ = [
    "Dataset",
    "SplitIndices",
    "SyntheticSpec",
    "CsvSpec",
    "load_csv",
    "split",
    "gen_synthetic_full",
]


class DataError(ValueError):
    """Raised for malformed input data or invalid ingestion config."""


_UNWRITABLE_ID = re.compile('[,"\r\n]')     # what harness._write_csv cannot write raw


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and bookkeeping names."""

    features: np.ndarray  # (N, d) float64
    labels: np.ndarray    # (N,) int, values in {0, 1}
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y.astype(np.int64))
        if X.ndim != 2 or X.shape[0] < 1:
            raise DataError("features must be a non-empty 2-D matrix")
        if y.shape != (X.shape[0],):
            raise DataError("labels length must match number of rows")
        if not np.isin(y, (0, 1)).all():
            raise DataError("labels must be 0/1")
        if not np.isfinite(X).all():
            raise DataError("non-finite feature values")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("feature_names length mismatch")
        if len(self.sample_ids) != X.shape[0]:
            raise DataError("sample_ids length mismatch")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/calibration/test index lists covering 0..N-1."""

    train: np.ndarray
    calibration: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("train", "calibration", "test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def check_partition(self, n: int) -> None:
        allidx = np.concatenate([self.train, self.calibration, self.test])
        if len(np.unique(allidx)) != len(allidx):
            raise DataError("split indices overlap")
        if len(allidx) != n or allidx.min() < 0 or allidx.max() != n - 1:
            raise DataError("split indices do not cover the dataset")


@dataclass(frozen=True)
class SyntheticSpec:
    """Heterogeneous-subpopulation generator settings.

    Each subpopulation lives in a separated region of feature space, has its
    own base positive rate, and carries a logit-shift miscalibration applied
    to the synthetic model scores (not to the labels).
    """

    n_subpops: int
    samples_per_subpop: int
    d: int = 2
    base_rates: tuple[float, ...] = (0.3, 0.7)
    miscal_offsets: tuple[float, ...] = (0.0, 0.0)
    noise: float = 1.0
    separation: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_subpops < 1 or self.samples_per_subpop < 1 or self.d < 1:
            raise DataError("counts must be >= 1")
        if len(self.base_rates) != self.n_subpops or len(self.miscal_offsets) != self.n_subpops:
            raise DataError("per-subpop arrays must have length n_subpops")
        if not all(0.0 < r < 1.0 for r in self.base_rates):
            raise DataError("base rates must be in (0, 1)")


@dataclass(frozen=True)
class CsvSpec:
    """A headered CSV and how ``load_csv`` reads it: ``label_map`` recodes
    labels, ``category_maps`` codes string-valued columns as ints, and rows
    with non-finite values are dropped (``impute="reject"``) or mean-imputed."""

    path: str
    label_column: str
    id_column: str | None = None
    label_map: dict | None = None
    impute: str = "reject"
    category_maps: dict | None = None

    def __post_init__(self):
        if self.impute not in ("reject", "mean"):
            raise DataError(f"unknown impute mode {self.impute!r}")


def load_csv(spec: CsvSpec) -> Dataset:
    """Read the CSV that ``spec`` describes into a Dataset; feature columns
    keep file order, excluding the label and id columns. A sample id may not
    hold a comma, quote or line break, which the artifact CSVs write raw."""
    path, label_column, label_map = spec.path, spec.label_column, spec.label_map
    category_maps = spec.category_maps or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if label_column not in header:
        raise DataError(f"{path}: missing label column {label_column!r}")
    label_j = header.index(label_column)
    id_j = header.index(spec.id_column) if spec.id_column is not None else None
    feat_js = [j for j in range(len(header)) if j != label_j and j != id_j]
    feature_names = tuple(header[j] for j in feat_js)
    if not rows:
        raise DataError(f"{path}: no data rows")

    def parse_label(raw, i):
        v = raw.strip()
        if label_map is not None and v in label_map:
            v = label_map[v]
        try:
            fv = float(v)
        except (TypeError, ValueError):
            raise DataError(f"{path}: row {i + 2}, column {label_column!r}: "
                            f"unparseable label {raw!r}") from None
        if fv not in (0.0, 1.0):
            raise DataError(f"{path}: row {i + 2}: label {raw!r} not in {{0,1}}")
        return int(fv)

    X = np.empty((len(rows), len(feat_js)))
    y = np.empty(len(rows), dtype=np.int64)
    ids = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        y[i] = parse_label(row[label_j], i)
        ids.append(row[id_j] if id_j is not None else str(i))
        if _UNWRITABLE_ID.search(ids[-1]):
            raise DataError(f"{path}: row {i + 2}, column {spec.id_column!r}: sample id "
                            f"{ids[-1]!r} holds a comma, quote or line break")
        for k, j in enumerate(feat_js):
            cell = row[j].strip()
            cmap = category_maps.get(header[j])
            if cmap is not None and cell in cmap:
                X[i, k] = float(cmap[cell])
                continue
            try:
                X[i, k] = float(cell) if cell else math.nan
            except ValueError:
                raise DataError(f"{path}: row {i + 2}, column {header[j]!r}: "
                                f"unparseable cell {cell!r}") from None

    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        if spec.impute == "mean":
            col_mean = np.nanmean(np.where(np.isfinite(X), X, np.nan), axis=0)
            col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
            idx = np.where(~np.isfinite(X))
            X[idx] = col_mean[idx[1]]
        else:
            keep = ~bad
            if not keep.any():
                raise DataError(f"{path}: all rows contain non-finite values")
            X, y = X[keep], y[keep]
            ids = [s for s, k in zip(ids, keep) if k]
    return Dataset(X, y, feature_names, tuple(ids))


def _ratios(ratios) -> tuple:
    """``ratios`` as three floats, when they are positive and sum to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataError("need three positive ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios sum to {sum(ratios)}, expected 1")
    return ratios


def split(ds: Dataset, ratios, seed: int = 0, stratify: bool = True) -> SplitIndices:
    """Deterministic (optionally label-stratified) train/calibration/test split."""
    ratios = _ratios(ratios)
    rng = np.random.default_rng(seed)

    def carve(idx):
        idx = rng.permutation(idx)
        n = len(idx)
        n_tr = int(round(ratios[0] * n))
        n_cal = int(round(ratios[1] * n))
        n_cal = min(n_cal, n - n_tr)
        return idx[:n_tr], idx[n_tr:n_tr + n_cal], idx[n_tr + n_cal:]

    if stratify:
        parts = [[], [], []]
        for lab in (0, 1):
            sub = np.flatnonzero(ds.labels == lab)
            for p, chunk in zip(parts, carve(sub)):
                p.append(chunk)
        tr, cal, te = (np.sort(np.concatenate(p)) for p in parts)
        if len(tr) == 0 or len(cal) == 0 or len(te) == 0:
            raise DataError("a split received zero samples")
        for part, name in ((tr, "train"), (cal, "calibration"), (te, "test")):
            labs = ds.labels[part]
            if len(part) and (labs == labs[0]).all() and len(np.unique(ds.labels)) == 2:
                raise DataError(f"stratified split left the {name} set single-class")
    else:
        tr, cal, te = (np.sort(c) for c in carve(np.arange(ds.n)))
    out = SplitIndices(tr, cal, te, seed)
    out.check_partition(ds.n)
    return out


def gen_synthetic_full(spec: SyntheticSpec):
    """Generate a heterogeneous dataset plus synthetic model scores.

    Returns ``(dataset, margins, subpop_ids)``. Per sample in subpop ``c`` the
    true positive probability is ``sigmoid(logit(rate_c) + u)`` with
    ``u ~ N(0, noise)``; the label is drawn from it and the reported model
    margin is the true logit shifted by the subpop's miscalibration offset.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_subpops * spec.samples_per_subpop
    centers = np.zeros((spec.n_subpops, spec.d))
    # Place subpop centers on separated axis-aligned positions.
    for c in range(spec.n_subpops):
        centers[c, c % spec.d] = spec.separation * (1 + c // spec.d)
        centers[c] += spec.separation * 0.1 * c
    sub = np.repeat(np.arange(spec.n_subpops), spec.samples_per_subpop)
    X = centers[sub] + rng.normal(size=(n, spec.d))
    base_logit = np.array([math.log(r / (1 - r)) for r in spec.base_rates])
    u = rng.normal(scale=spec.noise, size=n)
    true_logit = base_logit[sub] + u
    p_true = sigmoid(true_logit)
    y = (rng.random(n) < p_true).astype(np.int64)
    margins = true_logit + np.asarray(spec.miscal_offsets)[sub]
    ds = Dataset(X, y,
                 tuple(f"f{j}" for j in range(spec.d)),
                 tuple(str(i) for i in range(n)))
    return ds, margins, sub
