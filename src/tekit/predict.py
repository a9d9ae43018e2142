"""Sliding-window next-matrix predictors.

Each host pair's demand series is predicted independently from its last
``window`` observations.  Four model families are provided:

* ``linear`` — regress each value on its predecessor (one raw lag feature,
  with intercept) over the window's consecutive pairs and evaluate at the
  latest value.
* ``ridge``  — the same regression with an L2 penalty on the slope;
  lambda = 0 reproduces ``linear`` exactly.
* ``polyfit`` — bounded-degree polynomial in time.  The absolute-difference
  objective is approximated by least squares (documented flag); optional
  iteratively-reweighted refinement tightens toward L1.
* ``fftfit`` — keep the largest-magnitude Fourier coefficients of the
  window and evaluate the sparse reconstruction one step ahead (one full
  period, by the basis's periodicity).

Predictors contain no randomness, never look at other pairs, and clamp
negative outputs to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import TrafficMatrix

KINDS = ("linear", "ridge", "polyfit", "fftfit")


class InsufficientHistoryError(ValueError):
    """Not enough observed matrices for the requested window."""


class LengthMismatchError(ValueError):
    """Actual and predicted sequences have different lengths."""


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "linear"
    window: int = 10
    ridge_lambda: float = 0.0
    degree: int = 2
    num_coeffs: int = 2
    l1_refine: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind in ("linear", "ridge") and self.window < 2:
            raise ValueError("window must be >= 2 for lag regression")
        if self.kind == "polyfit" and self.window <= self.degree:
            raise ValueError("window must exceed the polynomial degree")
        if self.kind == "fftfit" and self.window < 2 * self.num_coeffs:
            raise ValueError("window must be >= 2 * num_coeffs")
        if self.kind == "ridge" and self.ridge_lambda < 0:
            raise ValueError("ridge lambda must be >= 0")
        if self.kind == "fftfit" and self.num_coeffs < 1:
            raise ValueError("num_coeffs must be >= 1")


def _lag_regression(series: np.ndarray, lam: float) -> np.ndarray:
    """Vectorized y_{t+1} = a + b*y_t fit per column; predict one ahead.

    ``series`` has shape (window, n_pairs).  A zero-variance column gets
    slope 0 and predicts the column mean.
    """
    x = series[:-1]
    y = series[1:]
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    sxx = ((x - xm) ** 2).sum(axis=0)
    sxy = ((x - xm) * (y - ym)).sum(axis=0)
    denom = sxx + lam
    b = np.divide(sxy, denom, out=np.zeros_like(sxy), where=denom > 0)
    a = ym - b * xm
    return a + b * series[-1]


def _poly_fit(series: np.ndarray, degree: int, l1_refine: bool) -> np.ndarray:
    w = series.shape[0]
    t = np.arange(w, dtype=float)
    vand = np.vander(t, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, series, rcond=None)
    if l1_refine:
        # a few IRLS rounds toward the absolute-difference objective
        for _ in range(8):
            resid = np.abs(series - vand @ coef)
            wts = 1.0 / np.sqrt(np.maximum(resid, 1e-9))
            coef_new = np.empty_like(coef)
            for j in range(series.shape[1]):
                aw = vand * wts[:, j:j + 1]
                bw = series[:, j] * wts[:, j]
                coef_new[:, j] = np.linalg.lstsq(aw, bw, rcond=None)[0]
            coef = coef_new
    horizon = np.array([float(w) ** k for k in range(degree + 1)])
    return horizon @ coef


def _fft_fit(series: np.ndarray, num_coeffs: int) -> np.ndarray:
    spectrum = np.fft.rfft(series, axis=0)
    if spectrum.shape[0] > num_coeffs:
        mags = np.abs(spectrum)
        # keep the num_coeffs largest bins per column (ties -> lower bin)
        order = np.argsort(-mags, axis=0, kind="stable")
        mask = np.zeros_like(mags, dtype=bool)
        cols = np.arange(series.shape[1])
        for r in range(num_coeffs):
            mask[order[r], cols] = True
        spectrum = np.where(mask, spectrum, 0.0)
    rebuilt = np.fft.irfft(spectrum, n=series.shape[0], axis=0)
    return rebuilt[0]  # one step ahead == one full period ahead


def predict_next(history: Sequence[TrafficMatrix], cfg: PredictorConfig
                 ) -> TrafficMatrix:
    """Predict the next matrix from the trailing window of observations."""
    if len(history) < cfg.window:
        raise InsufficientHistoryError(
            f"need {cfg.window} observed matrices, have {len(history)}")
    hosts = history[0].hosts
    n = len(hosts)
    window = np.stack([tm.rates.ravel() for tm in history[-cfg.window:]])
    if cfg.kind == "linear":
        flat = _lag_regression(window, 0.0)
    elif cfg.kind == "ridge":
        flat = _lag_regression(window, cfg.ridge_lambda)
    elif cfg.kind == "polyfit":
        flat = _poly_fit(window, cfg.degree, cfg.l1_refine)
    else:
        flat = _fft_fit(window, cfg.num_coeffs)
    rates = np.maximum(flat, 0.0).reshape(n, n)
    np.fill_diagonal(rates, 0.0)
    return TrafficMatrix(hosts, rates)


def choose_window(history: Sequence[TrafficMatrix], kind: str,
                  candidates: Sequence[int], cv_folds: int = 5,
                  **kwargs) -> PredictorConfig:
    """Pick the window minimizing one-step-ahead MAE by rolling-origin CV.

    The evaluation origins are the last ``cv_folds`` indices that leave a
    full window of history before them.  Ties resolve to the smallest
    window; candidates that never fit are skipped.
    """
    if cv_folds < 1:
        raise ValueError("cv_folds must be >= 1")
    best: tuple[float, int] | None = None
    for window in sorted(set(candidates)):
        try:
            cfg = PredictorConfig(kind=kind, window=window, **kwargs)
        except ValueError:
            continue
        origins = [t for t in range(window, len(history))][-cv_folds:]
        if not origins:
            continue
        errs = []
        for t in origins:
            pred = predict_next(history[:t], cfg)
            errs.append(float(np.abs(pred.rates - history[t].rates).mean()))
        mae = float(np.mean(errs))
        if best is None or mae < best[0]:
            best = (mae, window)
    if best is None:
        raise InsufficientHistoryError(
            f"no candidate window fits a history of {len(history)} matrices")
    return PredictorConfig(kind=kind, window=best[1], **kwargs)


@dataclass(frozen=True)
class ErrorReport:
    """Per-pair and global prediction error summary.

    Mean relative errors are ratio-of-sums (sum |err| / sum actual), which
    stays defined when single observations are zero; ``median_relative`` is
    the median over individual nonzero observations, the robust "typical
    entry" statistic.
    """

    per_pair_mae: dict[tuple[str, str], float]
    per_pair_relative: dict[tuple[str, str], float]
    global_mae: float
    global_relative: float
    median_relative: float

    def to_csv(self) -> str:
        lines = ["src,dst,mae,relative_error"]
        for pair in sorted(self.per_pair_mae):
            lines.append(f"{pair[0]},{pair[1]},{self.per_pair_mae[pair]!r},"
                         f"{self.per_pair_relative[pair]!r}")
        lines.append(f"__all__,__all__,{self.global_mae!r},{self.global_relative!r}")
        return "\n".join(lines) + "\n"


def prediction_error_report(actual: Sequence[TrafficMatrix],
                            predicted: Sequence[TrafficMatrix]) -> ErrorReport:
    if len(actual) != len(predicted):
        raise LengthMismatchError(
            f"{len(actual)} actual vs {len(predicted)} predicted matrices")
    if not actual:
        raise LengthMismatchError("empty sequences")
    hosts = actual[0].hosts
    a = np.stack([tm.rates for tm in actual])
    p = np.stack([tm.rates for tm in predicted])
    err = np.abs(p - a)
    per_mae: dict[tuple[str, str], float] = {}
    per_rel: dict[tuple[str, str], float] = {}
    for i, s in enumerate(hosts):
        for j, d in enumerate(hosts):
            if s == d:
                continue
            per_mae[(s, d)] = float(err[:, i, j].mean())
            denom = float(a[:, i, j].sum())
            per_rel[(s, d)] = float(err[:, i, j].sum() / denom) if denom > 0 else 0.0
    total = float(a.sum())
    global_rel = float(err.sum() / total) if total > 0 else 0.0
    off_diag = ~np.eye(len(hosts), dtype=bool)
    global_mae = float(err[:, off_diag].mean()) if len(hosts) > 1 else 0.0
    nz = a > 0
    median_rel = float(np.median(err[nz] / a[nz])) if nz.any() else 0.0
    return ErrorReport(per_mae, per_rel, global_mae, global_rel, median_rel)
