"""Threshold calibration, binary classification and evaluation metrics.

A local threshold is mean + standard deviation of the training
reconstruction errors. A detector is one threshold, a float: a sample
whose error is strictly above it is classified as an attack. A report
names where its threshold came from by the run's mode: SOURCE_CENTRALIZED,
the one local threshold of a centralized run, or SOURCE_ROUND_MIN, the
least local threshold over a federated run's (round, client) pairs.
Metrics with a zero denominator are reported as None (never silently 0)
so "no positives predicted" stays visible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ShapeError

SOURCE_CENTRALIZED = "centralized"
SOURCE_ROUND_MIN = "round_min"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn)


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation metrics; None marks an undefined (0/0) value."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f_measure: float | None
    fp_rate: float | None


def compute_threshold(errors: np.ndarray, use_sample_std: bool = False) -> float:
    """mean(errors) + std(errors), population std by default."""
    if errors.size == 0:
        raise DataError("cannot compute a threshold from no errors")
    if not np.isfinite(errors).all():
        raise NumericError("reconstruction errors contain non-finite values")
    ddof = 1 if (use_sample_std and errors.size > 1) else 0
    return float(np.mean(errors) + np.std(errors, ddof=ddof))


def classify(threshold: float, errors: np.ndarray) -> np.ndarray:
    """Boolean attack decisions: error strictly above `threshold`."""
    return errors > threshold


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Count boolean decisions against boolean ground truth with attack as
    positive."""
    if pred.shape != truth.shape:
        raise ShapeError(
            f"prediction length {pred.shape[0]} != truth length {truth.shape[0]}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return ConfusionMatrix(tp, fp, tn, fn)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, precision, recall, F-measure and false-positive rate."""
    if cm.total == 0:
        raise DataError("cannot compute metrics on an empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0.0:
        f_measure = None
    else:
        f_measure = 2.0 * precision * recall / (precision + recall)
    fp_rate = _ratio(cm.fp, cm.fp + cm.tn)
    return MetricsReport(accuracy, precision, recall, f_measure, fp_rate)
