"""Synthetic traffic generation.

Demands follow a gravity model: each host carries a positive weight and the
rate from i to j is proportional to w_i * w_j.  Weights start as samples
from a heavy-tailed Pareto distribution and evolve over time through a
Metropolis-Hastings random walk whose stationary density is that same
Pareto, so long sequences stay statistically calibrated while varying step
to step.  On top sit: a weekly rescaling template for diurnal variation,
single-sink flash bursts with hyperbolic decay, the scale factor that pins
the first matrix's optimal congestion, and the weight perturbation used to
manufacture noisy "predicted" sequences.

All randomness is derived from numpy SeedSequences keyed by (seed, step,
purpose), so a (seed, arguments) pair always reproduces the same
byte-identical sequence regardless of call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .mcf import MwConfig, mcf_mw
from .model import Topology, TrafficMatrix

# rng stream tags, mixed into seed sequences
_INIT, _STEP, _PERTURB, _SINK, _DIURNAL = 11, 12, 13, 14, 15

#: minutes per traffic-matrix interval, for the weekly template
TM_MINUTES = 5.0
#: shape and scale of the stationary Pareto density of the host weights
PARETO_SHAPE = 1.5
PARETO_SCALE = 1.0
#: simulator steps after which a flash burst has decayed to half its peak
FLASH_HALF_LIFE_STEPS = 30
#: optimal congestion of the first matrix per unit of demand scale S
CONGESTION_PER_SCALE = 0.4
#: relative amplitude of the seeded noise on the weekly template's sinusoids
DIURNAL_NOISE = 0.05


class NoEligibleSinkError(RuntimeError):
    """No host receives any traffic, so no flash sink can be drawn."""


class ZeroDemandError(ValueError):
    """The first matrix of a sequence is all-zero and cannot be scaled."""


class ArgumentError(ValueError):
    """A generator argument outside its domain; ``argument`` names it."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


@dataclass(frozen=True)
class GravityState:
    """Host weights of the gravity model.

    ``step`` counts Metropolis-Hastings updates applied so far; together
    with ``seed`` it fully determines the randomness of the next update.
    """

    hosts: tuple[str, ...]
    weights: tuple[float, ...]
    seed: int = 0
    step: int = 0

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")

    @staticmethod
    def initial(hosts: Sequence[str], seed: int = 0) -> "GravityState":
        """Draw initial weights from the stationary Pareto distribution."""
        if seed < 0:
            raise ArgumentError("seed", "seed must be >= 0")
        hosts = tuple(sorted(hosts))
        rng = np.random.default_rng([seed, _INIT])
        w = PARETO_SCALE * (1.0 + rng.pareto(PARETO_SHAPE, size=len(hosts)))
        return GravityState(hosts, tuple(float(x) for x in w), seed, 0)


def gravity_tm(state: GravityState, total: float) -> TrafficMatrix:
    """Distribute ``total`` bits/s over host pairs proportional to w_i*w_j."""
    if len(state.hosts) < 2:
        raise ValueError("gravity model needs at least 2 hosts")
    if total < 0:
        raise ValueError("total must be non-negative")
    w = np.array(state.weights)
    prod = np.outer(w, w)
    np.fill_diagonal(prod, 0.0)
    denom = prod.sum()
    return TrafficMatrix(state.hosts, total * prod / denom)


def _pareto_logpdf(x: float) -> float:
    if x < PARETO_SCALE:
        return -math.inf
    return (math.log(PARETO_SHAPE) + PARETO_SHAPE * math.log(PARETO_SCALE)
            - (PARETO_SHAPE + 1.0) * math.log(x))


def mh_step(state: GravityState) -> GravityState:
    """One Metropolis-Hastings update of every host weight.

    The additive proposal mixes gradual moves with rare jumps: with
    probability 99% it is N(0, w^2/4), with probability 1% it is uniform on
    [-w, -0.8w] union [0.8w, w].  Both branches carry the full Hastings
    correction — the proposal scales with the current weight, so without it
    the chain drifts off the Pareto stationary density (the jump branch's
    reverse density is zero when the jump cannot be undone).  Rejected or
    non-positive proposals keep the current weight.
    """
    rng = np.random.default_rng([state.seed, _STEP, state.step])
    new_weights = []
    for w in state.weights:
        if rng.random() < 0.99:
            delta = rng.normal(0.0, w / 2.0)
            w2 = w + delta
            if w2 <= 0:
                new_weights.append(w)
                continue
            # q(x | y) = Normal(x - y; 0, (y/2)^2)
            log_q_fwd = -delta * delta / (2 * (w / 2.0) ** 2) - math.log(w / 2.0)
            log_q_rev = -delta * delta / (2 * (w2 / 2.0) ** 2) - math.log(w2 / 2.0)
            log_q_ratio = log_q_rev - log_q_fwd
        else:
            mag = rng.uniform(0.8 * w, w)
            delta = mag if rng.random() < 0.5 else -mag
            w2 = w + delta
            if w2 <= 0:
                new_weights.append(w)
                continue
            # reverse jump must land |delta| inside [0.8*w2, w2]
            if 0.8 * w2 <= abs(delta) <= w2:
                log_q_ratio = math.log(0.4 * w) - math.log(0.4 * w2)
            else:
                log_q_ratio = -math.inf
        log_alpha = _pareto_logpdf(w2) - _pareto_logpdf(w) + log_q_ratio
        if log_alpha >= 0 or rng.random() < math.exp(log_alpha):
            new_weights.append(w2)
        else:
            new_weights.append(w)
    return replace(state, weights=tuple(new_weights), step=state.step + 1)


def diurnal_scale(step: int, seed: int = 0) -> float:
    """Weekly traffic-intensity template evaluated at a step.

    The template is 1 plus three sinusoids at daily, half-daily and weekly
    periods (in ``TM_MINUTES``-minute steps), whose amplitudes are
    perturbed once per seed by Gaussian noise of relative amplitude
    ``DIURNAL_NOISE`` (clipped to +-20% so the constant offset always
    dominates and the factor stays positive).  The mean over a full week is 1 up to the
    perturbation.
    """
    steps_per_day = 24 * 60 / TM_MINUTES
    periods = (steps_per_day, steps_per_day / 2, 7 * steps_per_day)
    amplitudes = np.array([0.25, 0.10, 0.15])
    phases = (0.0, 1.0, 2.0)
    rng = np.random.default_rng([seed, _DIURNAL])
    jitter = np.clip(DIURNAL_NOISE * rng.normal(size=3), -0.2, 0.2)
    amplitudes = amplitudes * (1.0 + jitter)
    f = 1.0
    for amp, period, phase in zip(amplitudes, periods, phases):
        f += amp * math.sin(2.0 * math.pi * step / period + phase)
    return f


def flash_sink(tm: TrafficMatrix, seed: int, tm_index: int) -> str:
    """Seeded choice of the burst sink among hosts that receive traffic."""
    col = tm.rates.sum(axis=0)
    eligible = [h for h, c in zip(tm.hosts, col) if c > 0]
    if not eligible:
        raise NoEligibleSinkError("no host receives any traffic")
    rng = np.random.default_rng([seed, _SINK, tm_index])
    return eligible[int(rng.integers(len(eligible)))]


def flash_burst(tm: TrafficMatrix, beta: float, elapsed: int,
                sink: str) -> TrafficMatrix:
    """Add a flash burst of size ``beta`` toward the sink, decayed by
    elapsed steps.

    The peak burst from host h to sink s is
    beta * (total demand / n_hosts) * d(h,s)/sum_i d(i,s), scaled by
    decay(t) = H/(H+t) so that one half-life halves the burst and the tail
    stays heavy.  Entries outside column s are unchanged; beta = 0 returns
    an equal matrix.
    """
    return TrafficMatrix(tm.hosts,
                         flash_burst_rates(tm, beta, [elapsed], sink)[0])


def flash_burst_rates(tm: TrafficMatrix, beta: float, elapsed: Sequence[int],
                      sink: str) -> np.ndarray:
    """The rates of ``flash_burst`` for each step count in ``elapsed``, as
    one (len(elapsed), n_hosts, n_hosts) block; each row is computed by the
    same elementwise operations as a single burst."""
    si = tm.hosts.index(sink)
    col = tm.rates[:, si]
    col_sum = col.sum()
    if col_sum <= 0:
        raise NoEligibleSinkError(f"sink {sink} receives no traffic")
    decay = FLASH_HALF_LIFE_STEPS / (FLASH_HALF_LIFE_STEPS
                                     + np.asarray(elapsed, dtype=float))
    scale = beta * tm.total() / len(tm.hosts)
    rates = np.repeat(tm.rates[None], len(decay), axis=0)
    rates[:, :, si] = col + decay[:, None] * scale * (col / col_sum)
    rates[:, si, si] = 0.0
    return rates


def perturb_for_prediction(state: GravityState, epsilon: float,
                           seed: int = 0) -> GravityState:
    """Multiply each weight by (1+eps) or (1-eps) with a fair seeded coin.

    This manufactures the noisy weight vector behind a "predicted" matrix;
    epsilon = 0 returns an identical state.
    """
    if not (0.0 <= epsilon < 1.0):
        raise ArgumentError("epsilon", "epsilon must lie in [0, 1)")
    if epsilon == 0.0:
        return state
    rng = np.random.default_rng([seed, _PERTURB, state.step])
    signs = rng.integers(0, 2, size=len(state.weights)) * 2 - 1
    new = tuple(w * (1.0 + epsilon * s) for w, s in zip(state.weights, signs))
    return replace(state, weights=new)


def scale_factor(topo: Topology, first: TrafficMatrix, scale: float,
                 cfg: MwConfig = MwConfig()) -> float:
    """Scalar making the first matrix's optimal congestion equal
    ``CONGESTION_PER_SCALE`` * S.

    Relies on the solver's exact homogeneity in demand: the scalar is
    ``CONGESTION_PER_SCALE`` * S / max_congestion(first).
    """
    if first.total() == 0:
        raise ZeroDemandError("first traffic matrix is all-zero")
    base = mcf_mw(topo, first, cfg).max_congestion
    return CONGESTION_PER_SCALE * scale / base


def generate_sequences(topo: Topology, num_tms: int, seed: int = 0,
                       epsilon: float = 0.0, scale: float | None = None,
                       diurnal: bool = False,
                       ) -> tuple[list[TrafficMatrix], list[TrafficMatrix]]:
    """Full generator pipeline: (actual, predicted) matrix sequences.

    The actual sequence follows the Metropolis-Hastings weight walk; the
    predicted sequence applies the epsilon weight perturbation to each
    step's state before evaluating the gravity model.  With ``scale`` set,
    both sequences are jointly rescaled so the first actual matrix's optimal
    congestion equals ``CONGESTION_PER_SCALE`` * scale.
    """
    state = GravityState.initial(topo.hosts, seed)
    actual: list[TrafficMatrix] = []
    predicted: list[TrafficMatrix] = []
    for t in range(num_tms):
        total = diurnal_scale(t, seed) if diurnal else 1.0
        actual.append(gravity_tm(state, total))
        predicted.append(gravity_tm(perturb_for_prediction(state, epsilon, seed),
                                    total))
        state = mh_step(state)
    if scale is not None:
        factor = scale_factor(topo, actual[0], scale)
        try:
            actual = [tm.scaled(factor) for tm in actual]
            predicted = [tm.scaled(factor) for tm in predicted]
        except ValueError as exc:
            raise ArgumentError("scale", f"scaled {exc}") from exc
    return actual, predicted
