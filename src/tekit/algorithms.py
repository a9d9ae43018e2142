"""Uniform driver over every routing algorithm.

``SchemeDriver`` owns the per-run state machine the simulator needs:
oblivious algorithms build one scheme from the topology and never touch it;
fixed-path adaptive algorithms build a base path set once and re-balance its
weights per traffic matrix; conscious algorithms recompute paths and weights
every matrix; the omniscient baseline recomputes on the live (possibly
failure-reduced) topology from the actual demands.  Oblivious builders take
the budget themselves and cut each switch pair before the host stubs go
on; bases solved from predictions are pruned once, and conscious schemes
on every recompute.

Every solve leaves one ``Solve`` record on ``SchemeDriver.solves``: its
label, wall time and, if the solver stopped at its phase limit, the limit's
message.  The simulator routes its recovery and flash re-balances through
the same list, and ``limit_events`` renders the phase-limit reports from it.

A driver chains its per-matrix solves: it keeps one ``mcf.WarmStart`` per
solver, so each ``mcf_mw`` or ``semi_mcf`` solve (the simulator's recovery
and flash re-balances included) starts from the weights of the previous
certified one when both saw the same usable switch edges.  Base builds
start uniform.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import baseline, raecke
from .mcf import (MwConfig, PhaseLimitError, WarmStart, demand_envelope,
                  mcf_mw, semi_mcf, semi_mcf_ft_env)
from .model import (OBLIVIOUS_TAGS, AlgorithmKind, Scheme, Topology,
                    TrafficMatrix, prune_to_budget)


@dataclass(frozen=True)
class BuildConfig:
    budget: int | None = None
    mw: MwConfig = MwConfig()
    seed: int = 0

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Solve:
    """One solve: its label, wall time in seconds and, if the solver
    stopped at its phase limit, the PhaseLimitError message."""

    label: str
    seconds: float
    limit: str | None = None


def limit_events(solves: Sequence[Solve]) -> list[str]:
    """``label: message`` for every solve that stopped at its phase limit."""
    return [f"{s.label}: {s.limit}" for s in solves if s.limit is not None]


def oblivious_scheme(tag: str, topo: Topology, cfg: BuildConfig) -> Scheme:
    """Build one of the demand-independent schemes, cut to ``cfg.budget``
    paths per pair."""
    if tag == "spf":
        return baseline.spf(topo)
    if tag == "ecmp":
        return baseline.ecmp(topo, cfg.budget)
    if tag == "ksp":
        return baseline.ksp(topo, budget=cfg.budget)
    if tag == "vlb":
        return baseline.vlb(topo, cfg.budget)
    if tag == "raecke":
        dist = raecke.raecke_distribution(topo, cfg.seed)
        return raecke.paths_from_distribution(dist, topo, cfg.budget)
    raise ValueError(f"not an oblivious algorithm: {tag}")


def reweight(topo: Topology, base: Scheme, tm: TrafficMatrix,
             mw: MwConfig = MwConfig(), warm: WarmStart | None = None
             ) -> Scheme:
    """Re-balance rates over fixed paths, tolerating stranded pairs.

    Pairs without a path (e.g. every path crossed a failed link) keep an
    empty entry and have their demand ignored by the solver — the simulator
    accounts it as failure loss.  If the solver stops without a certificate,
    the PhaseLimitError propagates with the best-so-far scheme, stranded
    pairs included, attached as ``.solution.scheme``.  ``warm`` chains
    the solve as ``semi_mcf`` does.
    """
    routed = np.array([[bool(base.get((s, d))) for d in tm.hosts]
                       for s in tm.hosts])
    routable = TrafficMatrix(tm.hosts, np.where(routed, tm.rates, 0.0))
    return semi_mcf(topo, routable, base, mw, warm).scheme


class SchemeDriver:
    """Per-run algorithm state: kept paths, update rule and solve records.

    ``base`` holds the paths an oblivious or semi-oblivious kind keeps for
    the whole run (None for conscious kinds, which solve per matrix).
    ``mcf_warm`` and ``semi_warm`` chain the run's ``mcf_mw`` and
    ``semi_mcf`` solves.
    """

    def __init__(self, topo: Topology, kind: AlgorithmKind,
                 predicted_tms: Sequence[TrafficMatrix], cfg: BuildConfig):
        self.topo = topo
        self.kind = kind
        self.cfg = cfg
        self.solves: list[Solve] = []
        self.base: Scheme | None = None
        self.mcf_warm = WarmStart()
        self.semi_warm = WarmStart()

        name, tag = kind.name, kind.tag
        if kind.category == "oblivious":
            self.base = self.timed(f"{name} build",
                                   lambda: oblivious_scheme(tag, topo, cfg))
        elif kind.base in OBLIVIOUS_TAGS:
            self.base = self.timed(
                f"{name} base", lambda: oblivious_scheme(kind.base, topo, cfg))
        elif kind.base is not None:  # a base solved from the predictions
            if not predicted_tms:
                raise ValueError(f"{name} needs a predicted matrix")
            tms = list(predicted_tms)
            builder = {
                "mcf": lambda: mcf_mw(topo, tms[0], cfg.mw).scheme,
                "mcfenv": lambda: mcf_mw(topo, demand_envelope(tms),
                                         cfg.mw).scheme,
                "mcfftenv": lambda: semi_mcf_ft_env(topo, tms, cfg.mw),
            }[kind.base]
            self.base = self._budgeted(self.timed(f"{name} base", builder))
        # conscious kinds (mcf, optimalmcf) build per matrix

    def timed(self, label: str, fn):
        """Run one solve and append its ``Solve`` record; a solve stopped
        at its phase limit returns its best-so-far scheme."""
        t0 = time.perf_counter()
        limit = None
        try:
            result = fn()
        except PhaseLimitError as exc:
            limit = str(exc)
            result = exc.solution.scheme
        self.solves.append(Solve(label, time.perf_counter() - t0, limit))
        return result

    def _budgeted(self, scheme: Scheme) -> Scheme:
        if self.cfg.budget is None:
            return scheme
        return prune_to_budget(scheme, self.cfg.budget)

    def scheme_for(self, t: int, predicted: TrafficMatrix,
                   actual: TrafficMatrix, topo_current: Topology) -> Scheme:
        """The scheme to install for matrix index t, before failure
        recovery."""
        kind = self.kind
        if kind.category == "oblivious":
            return self.base
        if kind.category == "semi-oblivious":
            return self.timed(f"{kind.name} reweight tm{t}",
                              lambda: reweight(self.topo, self.base,
                                               predicted, self.cfg.mw,
                                               self.semi_warm))
        if kind.tag == "optimalmcf":
            topo, tm = topo_current, actual
        else:  # mcf
            topo, tm = self.topo, predicted
        return self.solve_conscious(topo, tm, f"{kind.name} solve tm{t}")

    def solve_conscious(self, topo_current: Topology, tm: TrafficMatrix,
                        label: str) -> Scheme:
        """Paths and rates solved afresh for ``tm`` on ``topo_current``,
        budgeted, and timed under ``label``."""
        return self._budgeted(self.timed(
            label, lambda: mcf_mw(topo_current, tm, self.cfg.mw,
                                  self.mcf_warm).scheme))


def make_scheme(name: str, topo: Topology, tm: TrafficMatrix | None = None,
                cfg: BuildConfig = BuildConfig()) -> Scheme:
    """One-shot scheme construction for demos and quick experiments.

    A solve that stops at its phase limit still yields its best-so-far
    scheme; each such event is emitted as a RuntimeWarning.
    """
    kind = AlgorithmKind.parse(name)
    if tm is None and kind.category != "oblivious":
        raise ValueError(f"{name} needs a traffic matrix")
    driver = SchemeDriver(topo, kind, [tm] if tm is not None else [], cfg)
    scheme = driver.scheme_for(0, tm, tm, topo)
    for event in limit_events(driver.solves):
        warnings.warn(f"phase limit: {event}", RuntimeWarning, stacklevel=2)
    return scheme
