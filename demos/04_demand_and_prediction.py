#!/usr/bin/env python3
"""Synthetic demand generation and next-matrix prediction.

Walks the weight chain to produce an evolving demand sequence, spices one
matrix with a flash burst, then fits the bundled predictors and reports
their one-step-ahead accuracy.
"""

from tekit import load_bundled_topology
from tekit.demand import (GravityState, diurnal_scale, flash_burst,
                          flash_sink, gravity_tm, mh_step,
                          perturb_for_prediction)
from tekit.predict import choose_window, predict_next, prediction_error_report

topo = load_bundled_topology("abilene")
state = GravityState.initial(topo.hosts, seed=4)

print("weight chain (first three hosts):")
for step in range(5):
    w = ", ".join(f"{x:.2f}" for x in state.weights[:3])
    print(f"  step {step}: [{w}, ...] total demand x{diurnal_scale(step, 4):.3f}")
    state = mh_step(state)

tms = []
state = GravityState.initial(topo.hosts, seed=4)
for _ in range(80):
    tms.append(gravity_tm(state, 1e9))
    state = mh_step(state)

burst = flash_burst(tms[0], 2.0, 0, flash_sink(tms[0], 4, 0))
extra = burst.total() - tms[0].total()
print(f"\nflash burst adds {extra:.3g} bits/s toward one sink "
      f"({100 * extra / tms[0].total():.0f}% of total)")

noisy = perturb_for_prediction(state, 0.4, seed=4)
print("prediction-error twin: weights multiplied by 1 +/- 0.4, e.g. "
      f"{state.weights[0]:.2f} -> {noisy.weights[0]:.2f}")

print("\none-step-ahead prediction over the last 30 matrices:")
for kind, kwargs in (("linear", {}), ("ridge", {"ridge_lambda": 1.0}),
                     ("polyfit", {"degree": 2}), ("fftfit", {"num_coeffs": 3})):
    cfg = choose_window(tms[:50], kind, [2, 4, 8, 16], **kwargs)
    preds = [predict_next(tms[:t], cfg) for t in range(50, 80)]
    rep = prediction_error_report(tms[50:80], preds)
    print(f"  {kind:8s} window={cfg.window:2d}: median entry error "
          f"{100 * rep.median_relative:.1f}%, demand-weighted "
          f"{100 * rep.global_relative:.1f}%")
