import math

import numpy as np
import pytest

from tekit.demand import GravityState, gravity_tm, mh_step
from tekit.model import TrafficMatrix
from tekit.predict import (InsufficientHistoryError, LengthMismatchError,
                           PredictorConfig, choose_window, predict_next,
                           prediction_error_report)

HOSTS = ("a", "b")


def series_tms(values):
    """One-pair series: demand a->b follows ``values``."""
    out = []
    for v in values:
        out.append(TrafficMatrix(HOSTS, np.array([[0.0, float(v)], [0.0, 0.0]])))
    return out


ALL_KINDS = [
    PredictorConfig("linear", window=4),
    PredictorConfig("ridge", window=4, ridge_lambda=2.5),
    PredictorConfig("polyfit", window=4, degree=2),
    PredictorConfig("fftfit", window=4, num_coeffs=2),
]


@pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: c.kind)
def test_constant_series_predicts_constant(cfg):
    history = series_tms([7.0] * 8)
    pred = predict_next(history, cfg)
    assert pred.get("a", "b") == pytest.approx(7.0, abs=1e-9)


def test_linear_extrapolates_arithmetic_series():
    history = series_tms([1, 2, 3, 4, 5])
    pred = predict_next(history, PredictorConfig("linear", window=4))
    assert pred.get("a", "b") == pytest.approx(6.0, abs=1e-6)


def test_polyfit_extrapolates_quadratic():
    history = series_tms([t * t for t in range(6)])
    pred = predict_next(history, PredictorConfig("polyfit", window=6, degree=2))
    assert pred.get("a", "b") == pytest.approx(36.0, abs=1e-6)


def test_fftfit_recovers_sinusoid():
    # 16 samples per period, offset keeps demands nonnegative
    vals = [10.0 + 5.0 * math.sin(2 * math.pi * t / 16) for t in range(16)]
    history = series_tms(vals)
    pred = predict_next(history, PredictorConfig("fftfit", window=16,
                                                 num_coeffs=2))
    expected = 10.0 + 5.0 * math.sin(2 * math.pi * 16 / 16)
    assert pred.get("a", "b") == pytest.approx(expected, abs=1e-6)


def test_ridge_zero_lambda_equals_linear():
    rng = np.random.default_rng(4)
    history = series_tms(rng.uniform(1, 9, size=12))
    a = predict_next(history, PredictorConfig("linear", window=8))
    b = predict_next(history, PredictorConfig("ridge", window=8,
                                              ridge_lambda=0.0))
    assert a.get("a", "b") == pytest.approx(b.get("a", "b"), abs=1e-9)


def test_polyfit_irls_tracks_outlier_series_better():
    # one wild outlier: the absolute-difference refinement should hug the
    # underlying line more closely than plain least squares
    vals = [float(t) for t in range(10)]
    vals[4] = 100.0
    history = series_tms(vals)
    plain = predict_next(history, PredictorConfig("polyfit", window=10,
                                                  degree=1))
    refined = predict_next(history, PredictorConfig("polyfit", window=10,
                                                    degree=1, l1_refine=True))
    assert abs(refined.get("a", "b") - 10.0) < abs(plain.get("a", "b") - 10.0)


def test_predictions_clamped_nonnegative():
    history = series_tms([50, 40, 30, 20, 10, 1])
    pred = predict_next(history, PredictorConfig("linear", window=6))
    assert pred.get("a", "b") >= 0.0


def test_insufficient_history():
    with pytest.raises(InsufficientHistoryError):
        predict_next(series_tms([1, 2]), PredictorConfig("linear", window=4))


def test_config_invariants():
    with pytest.raises(ValueError):
        PredictorConfig("linear", window=1)
    with pytest.raises(ValueError):
        PredictorConfig("polyfit", window=3, degree=3)
    with pytest.raises(ValueError):
        PredictorConfig("fftfit", window=3, num_coeffs=2)
    with pytest.raises(ValueError):
        PredictorConfig("lasso", window=4)


def test_predictors_are_pair_local():
    rng = np.random.default_rng(8)
    hosts = ("a", "b", "c")
    seq1, seq2 = [], []
    target = rng.uniform(1, 5, size=10)
    other1 = rng.uniform(1, 5, size=10)
    other2 = rng.uniform(1, 5, size=10)
    for t in range(10):
        r1 = np.zeros((3, 3))
        r2 = np.zeros((3, 3))
        r1[0, 1] = r2[0, 1] = target[t]
        r1[1, 2] = other1[t]
        r2[1, 2] = other2[t]  # different history on an unrelated pair
        seq1.append(TrafficMatrix(hosts, r1))
        seq2.append(TrafficMatrix(hosts, r2))
    cfg = PredictorConfig("ridge", window=6, ridge_lambda=1.0)
    p1 = predict_next(seq1, cfg)
    p2 = predict_next(seq2, cfg)
    assert p1.get("a", "b") == p2.get("a", "b")


def test_predictors_deterministic():
    rng = np.random.default_rng(2)
    history = series_tms(rng.uniform(0, 10, size=20))
    for cfg in ALL_KINDS:
        a = predict_next(history, cfg)
        b = predict_next(history, cfg)
        assert np.array_equal(a.rates, b.rates)


# -- window selection ---------------------------------------------------------

def test_choose_window_single_candidate():
    history = series_tms(range(1, 11))
    cfg = choose_window(history, "linear", [4])
    assert cfg.window == 4


def test_choose_window_argmin_property():
    history = series_tms([2.0 * t + 1.0 for t in range(12)])
    cfg = choose_window(history, "linear", [2, 8])

    def mae(window):
        c = PredictorConfig("linear", window=window)
        errs = []
        for t in range(window, 12):
            p = predict_next(history[:t], c)
            errs.append(abs(p.get("a", "b") - history[t].get("a", "b")))
        return np.mean(errs[-5:])

    assert mae(cfg.window) <= mae(2) + 1e-12
    assert mae(cfg.window) <= mae(8) + 1e-12


def test_choose_window_insufficient():
    with pytest.raises(InsufficientHistoryError):
        choose_window(series_tms([1, 2]), "linear", [8, 16])


def test_choose_window_rejects_nonpositive_folds():
    tms = series_tms([float(t) for t in range(30)])
    with pytest.raises(ValueError, match="cv_folds must be >= 1") as info:
        choose_window(tms, "ridge", [4, 8], cv_folds=0)
    assert not isinstance(info.value, InsufficientHistoryError)


def test_choose_window_on_evolving_gravity(abilene):
    state = GravityState.initial(abilene.hosts, seed=6)
    tms = []
    for _ in range(60):
        tms.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    candidates = [2, 4, 8, 16]
    cfg = choose_window(tms, "ridge", candidates, cv_folds=5)
    assert cfg.window in candidates

    def cv_mae(window):
        c = PredictorConfig("ridge", window=window)
        errs = []
        for t in range(window, 60):
            p = predict_next(tms[:t], c)
            errs.append(float(np.abs(p.rates - tms[t].rates).mean()))
        return np.mean(errs[-5:])

    worst = max(cv_mae(w) for w in candidates)
    assert cv_mae(cfg.window) <= worst + 1e-9


# -- error report ---------------------------------------------------------------

def test_report_zero_when_exact():
    actual = series_tms([3, 4, 5])
    rep = prediction_error_report(actual, actual)
    assert rep.global_mae == 0.0
    assert rep.global_relative == 0.0


def test_report_ten_percent_inflation():
    actual = series_tms([10, 20, 40])
    predicted = [tm.scaled(1.1) for tm in actual]
    rep = prediction_error_report(actual, predicted)
    assert rep.global_relative == pytest.approx(0.1, abs=1e-12)
    assert rep.per_pair_relative[("a", "b")] == pytest.approx(0.1, abs=1e-12)
    assert rep.median_relative == pytest.approx(0.1, abs=1e-9)


def test_report_length_mismatch():
    with pytest.raises(LengthMismatchError):
        prediction_error_report(series_tms([1]), series_tms([1, 2]))


def test_report_csv_layout():
    actual = series_tms([10, 20])
    rep = prediction_error_report(actual, [tm.scaled(1.2) for tm in actual])
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "src,dst,mae,relative_error"
    assert any(l.startswith("a,b,") for l in lines)
    assert lines[-1].startswith("__all__,__all__,")


def test_ridge_benchmark_on_evolving_gravity(abilene):
    """Seeded benchmark: one-step-ahead ridge prediction on the weight-walk
    demand model.  The typical (median) entry errs by well under 25%; the
    demand-weighted mean sits near the walk's innovation noise, frozen here
    at an empirical 35% envelope."""
    for seed in (1, 2, 3):
        state = GravityState.initial(abilene.hosts, seed=seed)
        tms = []
        for _ in range(100):
            tms.append(gravity_tm(state, 1e9))
            state = mh_step(state)
        cfg = choose_window(tms[:50], "ridge", [2, 4, 8, 16])
        preds, acts = [], []
        for t in range(50, 100):
            preds.append(predict_next(tms[:t], cfg))
            acts.append(tms[t])
        rep = prediction_error_report(acts, preds)
        assert rep.median_relative < 0.25
        assert rep.global_relative < 0.35
