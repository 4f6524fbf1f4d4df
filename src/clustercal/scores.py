"""Model score containers and external score ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .metrics import _probabilities

__all__ = ["ScoreSet", "load_external_scores", "sigmoid", "logit"]

PROB_CLIP_EPS = 1e-6


def sigmoid(x):
    """1 / (1 + exp(-x)) as a new float64 array, built in one buffer.

    exp overflows to inf for x < -709.78, which correctly gives 0.0; callers
    that can pass such x run this under ``np.errstate(over="ignore")``.
    """
    s = np.array(x, dtype=np.float64)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


@dataclass(frozen=True)
class ScoreSet:
    """Per-sample margins (logits) and probabilities in (0, 1)."""

    margins: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.margins, dtype=np.float64)
        p = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "margins", m)
        object.__setattr__(self, "probabilities", p)
        if m.shape != p.shape:
            raise ValueError("margins/probabilities length mismatch")
        if not np.isfinite(m).all():
            raise ValueError("margins must be finite")
        if not ((p > 0) & (p < 1)).all():  # also false for NaN
            raise ValueError("probabilities must lie strictly in (0, 1)")

    def __len__(self) -> int:
        return len(self.probabilities)

    @classmethod
    def from_margins(cls, margins) -> "ScoreSet":
        m = np.asarray(margins, dtype=np.float64)
        # sigmoid rounds to exactly 1.0 at margins >= 37 and to 0.0 below -709.78
        with np.errstate(over="ignore"):
            p = np.clip(sigmoid(m), np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        return cls(m, p)

    @classmethod
    def from_probabilities(cls, probabilities) -> "ScoreSet":
        p = np.clip(np.asarray(probabilities, dtype=np.float64), PROB_CLIP_EPS, 1 - PROB_CLIP_EPS)
        return cls(logit(p), p)

    def take(self, idx) -> "ScoreSet":
        return ScoreSet(self.margins[idx], self.probabilities[idx])


def load_external_scores(path, expected_ids=None) -> ScoreSet:
    """Read a score CSV with columns sample_id and margin and/or probability.

    Every score column present holds a value on every row. Probabilities
    must lie in [0, 1] and are clipped by ``PROB_CLIP_EPS``. When only they
    are present, margins are recovered via the clipped logit.
    ``expected_ids`` cross-checks row identity and order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        cols = [c for c in ("margin", "probability") if c in reader.fieldnames]
        if not cols:
            raise ValueError(f"{path}: need a margin or probability column")
        ids, values = [], {c: [] for c in cols}
        for row in reader:
            ids.append(row.get("sample_id", str(len(ids))))
            for c in cols:
                try:
                    values[c].append(float(row[c]))
                except (TypeError, ValueError):  # a blank cell, a word, None for a short row
                    raise ValueError(f"{path}: line {reader.line_num} has no {c} number: "
                                     f"{row[c]!r}") from None
    if expected_ids is not None:
        if list(expected_ids) != ids:
            raise ValueError(f"{path}: sample ids do not match the dataset")
    margins = values.get("margin")
    if margins is not None and not np.isfinite(margins).all():
        raise ValueError(f"{path}: margins must be finite")
    if "probability" not in values:
        return ScoreSet.from_margins(np.asarray(margins))
    p = _probabilities(values["probability"], f"{path}: probabilities")
    if margins is None:
        return ScoreSet.from_probabilities(p)
    return ScoreSet(np.asarray(margins), np.clip(p, PROB_CLIP_EPS, 1 - PROB_CLIP_EPS))
