"""Uniform driver over every routing algorithm.

``SchemeDriver`` owns the per-run state machine the simulator needs:
oblivious algorithms build one scheme from the topology and never touch it;
fixed-path adaptive algorithms build a base path set once and re-balance its
weights per traffic matrix; conscious algorithms recompute paths and weights
every matrix; the omniscient baseline recomputes on the live (possibly
failure-reduced) topology from the actual demands.  Budgets prune oblivious
schemes and adaptive bases once, and conscious schemes on every recompute.

Solve wall-clock times and any solver phase-limit events are recorded on the
driver for reporting; the simulator routes its recovery and flash re-balances
through the same record.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import baseline, raecke
from .mcf import (MwConfig, PhaseLimitError, mcf_mw, semi_mcf, semi_mcf_env,
                  semi_mcf_ft_env)
from .model import (OBLIVIOUS_TAGS, AlgorithmKind, Scheme, Topology,
                    TrafficMatrix, prune_to_budget)
from .raecke import RaeckeConfig


@dataclass(frozen=True)
class BuildConfig:
    budget: int | None = None
    mw: MwConfig = MwConfig()
    seed: int = 0


def oblivious_scheme(tag: str, topo: Topology, cfg: BuildConfig) -> Scheme:
    """Build one of the demand-independent schemes."""
    if tag == "spf":
        return baseline.spf(topo)
    if tag == "ecmp":
        return baseline.ecmp(topo)
    if tag == "ksp":
        return baseline.ksp(topo)
    if tag == "vlb":
        return baseline.vlb(topo)
    if tag == "raecke":
        dist = raecke.raecke_distribution(topo, RaeckeConfig(seed=cfg.seed))
        return raecke.paths_from_distribution(dist, topo)
    raise ValueError(f"not an oblivious algorithm: {tag}")


def reweight(topo: Topology, base: Scheme, tm: TrafficMatrix,
             mw: MwConfig = MwConfig()) -> Scheme:
    """Re-balance rates over fixed paths, tolerating stranded pairs.

    Pairs without a path (e.g. every path crossed a failed link) keep an
    empty entry and have their demand ignored by the solver — the simulator
    accounts it as failure loss.  If the solver stops without a certificate,
    the PhaseLimitError propagates with the best-so-far scheme, stranded
    pairs included, attached as ``.solution.scheme``.
    """
    routed = np.array([[bool(base.get((s, d))) for d in tm.hosts]
                       for s in tm.hosts])
    routable = TrafficMatrix(tm.hosts, np.where(routed, tm.rates, 0.0))
    return semi_mcf(topo, routable, base, mw).scheme


class SchemeDriver:
    """Per-run algorithm state: installed paths plus the update rule.

    ``base`` holds the paths an oblivious or semi-oblivious kind keeps for
    the whole run (None for conscious kinds, which solve per matrix).
    """

    def __init__(self, topo: Topology, kind: AlgorithmKind,
                 predicted_tms: Sequence[TrafficMatrix], cfg: BuildConfig):
        self.topo = topo
        self.kind = kind
        self.cfg = cfg
        self.solve_times: list[tuple[str, float]] = []
        self.phase_limit_events: list[str] = []
        self.base: Scheme | None = None
        self.installed: Scheme = {}

        name, tag = kind.name, kind.tag
        label = f"{name} base"
        if kind.category == "oblivious":
            label = f"{name} build"
            builder = lambda: oblivious_scheme(tag, topo, cfg)
        elif kind.base in OBLIVIOUS_TAGS:
            builder = lambda: oblivious_scheme(kind.base, topo, cfg)
        elif kind.base is not None:  # a base solved from the predictions
            if not predicted_tms:
                raise ValueError(f"{name} needs a predicted matrix")
            tms = list(predicted_tms)
            builder = {
                "mcf": lambda: mcf_mw(topo, tms[0], cfg.mw).scheme,
                "mcfenv": lambda: semi_mcf_env(topo, tms, cfg.mw),
                "mcfftenv": lambda: semi_mcf_ft_env(topo, tms, None, cfg.mw),
            }[kind.base]
        else:  # conscious kinds (mcf, mw, optimalmcf) build per matrix
            return
        self.base = self._budgeted(self.timed(label, builder))
        self.installed = self.base

    def timed(self, label: str, fn):
        """Run one solve, recording its wall time and, if the solver hit
        its phase limit, the event; the best-so-far scheme is returned."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except PhaseLimitError as exc:
            self.phase_limit_events.append(f"{label}: {exc}")
            result = exc.solution.scheme
        self.solve_times.append((label, time.perf_counter() - t0))
        return result

    def _budgeted(self, scheme: Scheme) -> Scheme:
        if self.cfg.budget is None:
            return scheme
        return prune_to_budget(scheme, self.cfg.budget)

    def scheme_for(self, t: int, predicted: TrafficMatrix,
                   actual: TrafficMatrix, topo_current: Topology) -> Scheme:
        """The scheme to install for matrix index t, before failure
        recovery.  Updates ``installed`` for churn accounting."""
        kind = self.kind
        if kind.category == "oblivious":
            return self.base
        if kind.category == "semi-oblivious":
            self.installed = self.base
            return self.timed(f"{kind.name} reweight tm{t}",
                              lambda: reweight(self.topo, self.base,
                                               predicted, self.cfg.mw))
        if kind.tag == "optimalmcf":
            topo, tm = topo_current, actual
        else:  # mcf / mw
            topo, tm = self.topo, predicted
        self.installed = self.solve_conscious(topo, tm,
                                              f"{kind.name} solve tm{t}")
        return self.installed

    def reweight_source(self, current: Scheme) -> Scheme:
        """What local recovery should prune: the kept base for oblivious
        and semi-oblivious kinds, the current scheme otherwise."""
        return self.base if self.base is not None else current

    def solve_conscious(self, topo_current: Topology, tm: TrafficMatrix,
                        label: str) -> Scheme:
        """Paths and rates solved afresh for ``tm`` on ``topo_current``,
        budgeted, and timed under ``label``."""
        return self._budgeted(self.timed(
            label, lambda: mcf_mw(topo_current, tm, self.cfg.mw).scheme))


def make_scheme(name: str, topo: Topology, tm: TrafficMatrix | None = None,
                cfg: BuildConfig = BuildConfig()) -> Scheme:
    """One-shot scheme construction for demos and quick experiments.

    A solve that stops at its phase limit still yields its best-so-far
    scheme; each such event is emitted as a RuntimeWarning.
    """
    kind = AlgorithmKind.parse(name)
    tms = [tm] if tm is not None else []
    driver = SchemeDriver(topo, kind, tms, cfg)
    if kind.category == "oblivious":
        scheme = driver.base
    elif tm is None:
        raise ValueError(f"{name} needs a traffic matrix")
    else:
        scheme = driver.scheme_for(0, tm, tm, topo)
    for event in driver.phase_limit_events:
        warnings.warn(f"phase limit: {event}", RuntimeWarning, stacklevel=2)
    return scheme
