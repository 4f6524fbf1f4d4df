"""Input files (one CSV reader), deterministic splitting, and synthetic data."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .metrics import _probabilities
from .scores import PROB_CLIP_EPS, ScoreSet, sigmoid

__all__ = [
    "Dataset",
    "SplitIndices",
    "SyntheticSpec",
    "CsvSpec",
    "load_csv",
    "load_external_scores",
    "load_vectors",
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


def _read_csv(path, has_header=lambda first: True):
    """``(header, rows)``: the cells of the CSV at ``path``, with ``header``
    None when ``has_header(first row)`` is false. Every row, a blank one too,
    has as many cells as the first; a header names each column once."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read the file: {exc}") from None
    if not rows or not rows[0]:
        raise DataError(f"{path}: row 1 is blank" if rows else f"{path}: empty file")
    width = len(rows[0])
    for n, row in enumerate(rows, 1):
        if len(row) != width:
            raise DataError(f"{path}: row {n} has {len(row)} cells, expected {width}")
    if not has_header(rows[0]):
        return None, rows
    repeated = next((c for j, c in enumerate(rows[0]) if c in rows[0][:j]), None)
    if repeated is not None:
        raise DataError(f"{path}: column {repeated!r} appears twice in the header")
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")
    return rows[0], rows[1:]


def _cell_error(path, header, i, j, cell) -> DataError:
    row, column = (i + 1, j + 1) if header is None else (i + 2, header[j])
    return DataError(f"{path}: row {row}, column {column!r}: unparseable cell {cell!r}")


def _numbers(path, header, rows, columns) -> np.ndarray:
    """The cells of ``rows`` in ``columns`` as a float matrix."""
    out = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows):
        for k, j in enumerate(columns):
            try:
                out[i, k] = float(row[j])
            except ValueError:
                raise _cell_error(path, header, i, j, row[j]) from None
    return out


def _check_ids(path, ids, expected_ids) -> None:
    if expected_ids is not None and list(expected_ids) != ids:
        raise DataError(f"{path}: sample ids do not match the dataset")


def load_csv(spec: CsvSpec) -> Dataset:
    """Read the CSV that ``spec`` describes into a Dataset; feature columns
    keep file order, excluding the label and id columns. A sample id may not
    hold a comma, quote or line break, which the artifact CSVs write raw."""
    path, label_column, label_map = spec.path, spec.label_column, spec.label_map
    category_maps = spec.category_maps or {}
    header, rows = _read_csv(path)
    for role, column in (("label", label_column), ("id", spec.id_column)):
        if column is not None and column not in header:
            raise DataError(f"{path}: missing {role} column {column!r}")
    if spec.id_column == label_column:
        raise DataError(f"{path}: id column {label_column!r} is the label column")
    label_j = header.index(label_column)
    id_j = header.index(spec.id_column) if spec.id_column is not None else None
    feat_js = [j for j in range(len(header)) if j != label_j and j != id_j]
    feature_names = tuple(header[j] for j in feat_js)
    unknown = next((c for c in category_maps if c not in feature_names), None)
    if unknown is not None:
        raise DataError(f"{path}: category_maps names {unknown!r}, not a feature column")

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
                raise _cell_error(path, header, i, j, cell) from None

    finite = np.isfinite(X)
    bad = ~finite.all(axis=1)
    if bad.any():
        if spec.impute == "mean":
            empty = ~finite.any(axis=0)
            if empty.any():
                raise DataError(f"{path}: column {feature_names[empty.argmax()]!r} has no "
                                f"finite value to impute from")
            col_mean = np.nanmean(np.where(finite, X, np.nan), axis=0)
            idx = np.where(~finite)
            X[idx] = col_mean[idx[1]]
        else:
            keep = ~bad
            if not keep.any():
                raise DataError(f"{path}: all rows contain non-finite values")
            X, y = X[keep], y[keep]
            ids = [s for s, k in zip(ids, keep) if k]
    return Dataset(X, y, feature_names, tuple(ids))


def load_external_scores(path, expected_ids=None) -> ScoreSet:
    """Read a score CSV with columns sample_id and margin and/or probability.

    Probabilities must be in [0, 1] and are clipped by ``PROB_CLIP_EPS``;
    when only they are present, margins are recovered via the clipped logit.
    ``expected_ids`` cross-checks row identity and order.
    """
    header, rows = _read_csv(path)
    cols = [c for c in ("margin", "probability") if c in header]
    if not cols:
        raise DataError(f"{path}: need a margin or probability column")
    values = dict(zip(cols, _numbers(path, header, rows, list(map(header.index, cols))).T.copy()))
    ids = ([row[header.index("sample_id")] for row in rows] if "sample_id" in header
           else [str(i) for i in range(len(rows))])
    _check_ids(path, ids, expected_ids)
    margins = values.get("margin")
    if margins is not None and not np.isfinite(margins).all():
        raise DataError(f"{path}: margins must be finite")
    if "probability" not in values:
        return ScoreSet.from_margins(margins)
    p = _probabilities(values["probability"], f"{path}: probabilities")
    if margins is None:
        return ScoreSet.from_probabilities(p)
    return ScoreSet(margins, np.clip(p, PROB_CLIP_EPS, 1 - PROB_CLIP_EPS))


def load_vectors(path, sample_ids) -> np.ndarray:
    """The rows of an embedding CSV: a headerless one is matched to the data by
    position; one whose first cell is ``sample_id`` (the ``embed`` command's
    ``embedding.csv``) must list the data's sample ids in order."""
    header, rows = _read_csv(path, lambda first: first[0] == "sample_id")
    if header is not None:
        _check_ids(path, [row[0] for row in rows], sample_ids)
    return _numbers(path, header, rows, range(header is not None, len(rows[0])))


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
