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

    margins: np.ndarray | None
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", p)
        if self.margins is not None:
            object.__setattr__(self, "margins", np.asarray(self.margins, dtype=np.float64))
            if self.margins.shape != p.shape:
                raise ValueError("margins/probabilities length mismatch")
            if not np.isfinite(self.margins).all():
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
        m = None if self.margins is None else self.margins[idx]
        return ScoreSet(m, self.probabilities[idx])


def load_external_scores(path, expected_ids=None) -> ScoreSet:
    """Read a score CSV with columns sample_id and margin and/or probability.

    Probabilities must lie in [0, 1] and are clipped by ``PROB_CLIP_EPS``. When
    only they are present, margins are recovered via the clipped logit.
    ``expected_ids`` cross-checks row identity and order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        cols = set(reader.fieldnames)
        if "margin" not in cols and "probability" not in cols:
            raise ValueError(f"{path}: need a margin or probability column")
        ids, margins, probs = [], [], []
        for row in reader:
            ids.append(row.get("sample_id", str(len(ids))))
            if "margin" in cols and row["margin"] != "":
                margins.append(float(row["margin"]))
            if "probability" in cols and row["probability"] != "":
                probs.append(float(row["probability"]))
    if expected_ids is not None:
        if list(expected_ids) != ids:
            raise ValueError(f"{path}: sample ids do not match the dataset")
    if margins and probs and len(margins) != len(probs):
        raise ValueError(f"{path}: ragged margin/probability columns")
    if not probs:
        return ScoreSet.from_margins(np.asarray(margins))
    p = _probabilities(probs, f"{path}: probabilities")
    if not margins:
        return ScoreSet.from_probabilities(p)
    return ScoreSet(np.asarray(margins), np.clip(p, PROB_CLIP_EPS, 1 - PROB_CLIP_EPS))
