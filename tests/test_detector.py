"""Unit tests for threshold calibration, classification and metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedanom.detector import (
    ConfusionMatrix,
    classify,
    compute_threshold,
    confusion,
    metrics,
)
from fedanom.errors import DataError, NumericError, ShapeError


class TestComputeThreshold:
    def test_zero_variance(self):
        assert compute_threshold(np.array([5.0, 5.0, 5.0])) == 5.0

    def test_mean_plus_population_std(self):
        expected = 2.0 + math.sqrt(2.0 / 3.0)
        assert compute_threshold(np.array([1.0, 2.0, 3.0])) == pytest.approx(
            expected, abs=1e-12)

    def test_single_sample(self):
        assert compute_threshold(np.array([0.0])) == 0.0

    def test_sample_std_flag(self):
        errors = np.array([1.0, 2.0, 3.0])
        assert compute_threshold(errors, use_sample_std=True) == pytest.approx(
            2.0 + 1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compute_threshold(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            compute_threshold(np.array([1.0, np.inf]))

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
           st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_translation_and_scale_covariance(self, values, c):
        errors = np.array(values)
        base = compute_threshold(errors)
        assert compute_threshold(errors + c) == pytest.approx(base + c,
                                                              rel=1e-9, abs=1e-9)
        assert compute_threshold(c * errors) == pytest.approx(c * base,
                                                              rel=1e-9, abs=1e-9)


class TestClassify:
    def test_rule_application(self):
        np.testing.assert_array_equal(
            classify(2.8165, np.array([0.1, 3.0])), [False, True])

    def test_boundary_is_normal(self):
        assert classify(1.5, np.array([1.5]))[0] == False  # noqa: E712

    def test_empty_errors(self):
        assert classify(1.0, np.array([])).size == 0

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
           st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, values, t_low, t_high):
        lo, hi = sorted((t_low, t_high))
        errors = np.array(values)
        above_low = classify(lo, errors)
        above_high = classify(hi, errors)
        # raising the threshold never turns a Normal into an Attack
        assert not np.any(above_high & ~above_low)


class TestConfusion:
    def test_all_attack_correct(self):
        cm = confusion(np.ones(4, bool), np.ones(4, bool))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (4, 0, 0, 0)

    def test_hand_count(self):
        pred = np.array([1, 1, 0, 0, 0, 1], bool)
        truth = np.array([1, 1, 0, 0, 0, 0], bool)
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 3, 0)

    def test_complement_prediction(self):
        truth = np.array([1, 0, 1, 0], bool)
        cm = confusion(~truth, truth)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 2 and cm.fn == 2

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(np.ones(3, bool), np.ones(4, bool))

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_samples(self, pairs):
        pred = np.array([p for p, _ in pairs], bool)
        truth = np.array([t for _, t in pairs], bool)
        assert confusion(pred, truth).total == len(pairs)


class TestMetrics:
    def test_hand_arithmetic(self):
        m = metrics(ConfusionMatrix(tp=2, fp=1, tn=3, fn=0))
        assert m.accuracy == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert m.precision == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.recall == 1.0
        assert m.f_measure == pytest.approx(0.8, abs=1e-12)
        assert m.fp_rate == pytest.approx(0.25, abs=1e-12)

    def test_perfect_prediction(self):
        m = metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
        assert (m.accuracy, m.precision, m.recall, m.f_measure) == (1, 1, 1, 1)
        assert m.fp_rate == 0.0

    def test_undefined_precision_marker(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=3, fn=2))
        assert m.precision is None
        assert m.f_measure is None
        assert m.recall == 0.0

    def test_undefined_fp_rate(self):
        m = metrics(ConfusionMatrix(tp=2, fp=0, tn=0, fn=0))
        assert m.fp_rate is None

    def test_zero_total_rejected(self):
        with pytest.raises(DataError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_zero_precision_and_recall_f_undefined(self):
        m = metrics(ConfusionMatrix(tp=0, fp=2, tn=1, fn=3))
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.f_measure is None

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_f_le_max(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))
        for value in (m.accuracy, m.precision, m.recall, m.f_measure, m.fp_rate):
            if value is not None:
                assert 0.0 <= value <= 1.0
        if m.f_measure is not None:
            assert m.f_measure <= max(m.precision, m.recall) + 1e-12

    def test_pooling_adds_counts(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(5, 6, 7, 8)
        combined = a + b
        assert (combined.tp, combined.fp, combined.tn, combined.fn) == (6, 8, 10, 12)
