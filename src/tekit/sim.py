"""Discrete-step traffic replay with failures, bursts and recovery.

The engine replays a sequence of traffic matrices against a routing
algorithm.  Per matrix it refreshes the algorithm's scheme from the
*predicted* demands (conscious algorithms recompute paths and weights,
fixed-path adaptive ones re-balance weights over their installed base,
oblivious ones never change), applies the path budget, injects link
failures per the failure model, and then pushes the *actual* demands
through the network for a configurable number of steps.

Traffic is fluid: each step, every path requests demand * probability on
every link it crosses, each link divides its capacity by max-min fair
sharing, and a path delivers the minimum of its per-link allocations.  The
surplus above the bottleneck is congestion loss; traffic on paths through a
failed link (or on pairs left with no path) is failure loss.  Loss is data,
never an error: ``demand_total`` is defined as delivered + congestion loss
+ failure loss, so conservation holds bit-exactly at every step.

Latency is propagation-only (sum of latency weights along the path),
recorded as a delivered-bits histogram.  Solver wall-clock times are kept
out of the canonical serialization so identical seeded runs are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import algorithms
from .baseline import spf
from .demand import FlashConfig, flash_burst, flash_sink
from .mcf import MwConfig, evaluate_scheme
from .model import (AlgorithmKind, Path, Scheme, Topology, TopologyError,
                    TrafficMatrix, both_directions, churn, normalized,
                    path_edges)

_FAIL = 21  # rng stream tag


class InfeasibleFailureError(RuntimeError):
    """No connected failure scenario could be drawn."""


@dataclass(frozen=True)
class SimConfig(algorithms.BuildConfig):
    """Replay settings on top of the scheme-build ones (``budget``, ``mw``,
    ``seed``)."""

    steps_per_tm: int = 1000
    phi: int = 0
    recovery: str = "none"  # none | local | global
    flash: FlashConfig | None = None
    flash_lag: int = 8
    flash_recovery_period: int = 200
    #: optional per-TM override of failed links (used by case studies)
    explicit_failures: tuple | None = None

    def __post_init__(self):
        if self.phi < 0:
            raise ValueError("phi must be >= 0")
        if self.flash_lag < 0:
            raise ValueError("flash lag must be >= 0")
        if self.recovery not in ("none", "local", "global"):
            raise ValueError("recovery must be none, local or global")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class StepMetrics:
    per_edge_congestion: dict[tuple[str, str], float]
    delivered: float
    congestion_loss: float
    failure_loss: float
    latency_samples: dict[float, float]
    demand_total: float


@dataclass
class SimReport:
    algorithm: str
    topology: str
    num_tms: int
    steps_per_tm: int
    steps: list[list[StepMetrics]]          # [tm][step]
    failures: list[tuple[tuple[str, str], ...]]
    churn_timeline: list[int]               # installed-path churn per TM
    installed_paths: list[int]              # installed path count per TM
    solver_times: list[tuple[str, float]] = field(default_factory=list)
    phase_limit_events: list[str] = field(default_factory=list)

    def serialize(self) -> str:
        """Canonical text form, excluding wall-clock timings."""
        lines = [f"algorithm {self.algorithm}", f"topology {self.topology}",
                 f"tms {self.num_tms} steps {self.steps_per_tm}"]
        for t, steps in enumerate(self.steps):
            fails = ",".join(f"{a}-{b}" for (a, b) in self.failures[t]) or "-"
            lines.append(f"tm {t} failed {fails} churn {self.churn_timeline[t]} "
                         f"paths {self.installed_paths[t]}")
            for i, m in enumerate(steps):
                util = ";".join(f"{u}-{v}:{m.per_edge_congestion[(u, v)]!r}"
                                for (u, v) in sorted(m.per_edge_congestion))
                lat = ";".join(f"{k!r}:{v!r}"
                               for k, v in sorted(m.latency_samples.items()))
                lines.append(f"  step {i} delivered {m.delivered!r} "
                             f"closs {m.congestion_loss!r} "
                             f"floss {m.failure_loss!r} "
                             f"demand {m.demand_total!r} util {util} lat {lat}")
        return "\n".join(lines) + "\n"


def max_min_allocate(link_capacity: float,
                     requests: Mapping[object, float]) -> dict:
    """Water-filling: flows at or below the fair share keep their request;
    the residual capacity is re-divided among the rest.  The result is
    max-min optimal and never exceeds the capacity."""
    if not link_capacity > 0:
        raise ValueError("capacity must be positive")
    order = sorted(requests.items(), key=lambda kv: (kv[1], str(kv[0])))
    alloc = {}
    remaining = link_capacity
    n = len(order)
    for i, (key, req) in enumerate(order):
        share = remaining / (n - i)
        give = min(max(req, 0.0), share)
        alloc[key] = give
        remaining -= give
    return alloc


def failure_schedule(topo: Topology, phi: int, num_tms: int, seed: int,
                     tm0: TrafficMatrix | None = None,
                     ) -> list[tuple[tuple[str, str], ...]]:
    """Per-TM sets of failed links.

    phi = 0: nothing fails.  phi = 1: a deterministic sweep — links sorted
    by their utilization under the shortest-path scheme on the first matrix
    (descending, name tie-break), failing link floor(t * L / num_tms) at
    matrix t, so 24 links over 24 matrices fail each link once and 24 links
    over 12 matrices fail alternate links.  phi >= 2: seeded random
    phi-subsets, redrawn until removal keeps the network connected.
    """
    links = topo.links()
    if phi == 0:
        return [() for _ in range(num_tms)]
    if phi == 1:
        if tm0 is None:
            raise ValueError("phi=1 schedule needs the first traffic matrix")
        _, util = evaluate_scheme(topo, spf(topo), tm0)
        load = {lk: max(util[lk], util[(lk[1], lk[0])]) for lk in links}
        ranked = sorted(links, key=lambda lk: (-load[lk], lk))
        n = len(ranked)
        return [(ranked[(t * n) // num_tms],) for t in range(num_tms)]
    out = []
    for t in range(num_tms):
        rng = np.random.default_rng([seed, _FAIL, t])
        for _ in range(1000):
            picks = rng.choice(len(links), size=phi, replace=False)
            chosen = tuple(sorted(links[i] for i in picks))
            try:
                topo.without_links(chosen)
            except TopologyError:
                continue
            out.append(chosen)
            break
        else:
            raise InfeasibleFailureError(
                f"no connected {phi}-link failure found for tm {t}")
    return out


def _surviving(scheme: Scheme, dead: frozenset) -> Scheme:
    out: Scheme = {}
    for pair, dist in scheme.items():
        out[pair] = {p: w for p, w in dist.items()
                     if not any(h in dead for h in path_edges(p))}
    return out


def recover_local(scheme: Scheme, failed, kind: AlgorithmKind, topo: Topology,
                  tm_lagged: TrafficMatrix, mw: MwConfig = MwConfig()) -> Scheme:
    """Edge-local failure response: drop paths through failed links, then
    re-balance.  Adaptive-weight kinds re-solve their rates over the
    surviving paths with the freshest demands available; everything else
    just renormalizes.  Pairs left with no surviving path keep an empty
    entry — their traffic becomes failure loss downstream, never an error.
    """
    dead = both_directions(failed)
    survived = _surviving(scheme, dead)
    if kind.category == "semi-oblivious":
        return algorithms.reweight(topo, survived, tm_lagged, mw)
    return {pair: normalized(dist) for pair, dist in survived.items()}


def recover_global(kind: AlgorithmKind, topo_minus_failed: Topology,
                   predicted_tm: TrafficMatrix, cfg: SimConfig,
                   phase_limit_events: list[str] | None = None) -> Scheme:
    """Recompute the whole algorithm on the reduced topology.  The
    recomputation's phase-limit events are appended to
    ``phase_limit_events`` when it is given."""
    driver = algorithms.SchemeDriver(topo_minus_failed, kind, [predicted_tm],
                                     cfg)
    scheme = driver.scheme_for(0, predicted_tm, predicted_tm, topo_minus_failed)
    if phase_limit_events is not None:
        phase_limit_events.extend(f"global recovery: {ev}"
                                  for ev in driver.phase_limit_events)
    return scheme


def _propagate(topo: Topology, scheme: Scheme, tm: TrafficMatrix,
               dead: frozenset) -> StepMetrics:
    """One fluid step: route, allocate per link, account losses exactly."""
    flows: list[tuple[Path, float]] = []  # live paths
    delivered_total = 0.0
    failure_total = 0.0
    for pair in sorted(tm.pairs()):
        demand = tm.get(*pair)
        if demand == 0:
            continue
        dist = scheme.get(pair)
        if not dist:
            failure_total += demand
            continue
        for path, prob in sorted(dist.items()):
            flow = demand * prob
            if any(h in dead for h in path_edges(path)):
                failure_total += flow
            else:
                flows.append((path, flow))

    requests: dict[tuple[str, str], dict[int, float]] = {}
    for idx, (path, flow) in enumerate(flows):
        for hop in path_edges(path):
            requests.setdefault(hop, {})[idx] = flow
    alloc: dict[tuple[str, str], dict[int, float]] = {}
    for hop, reqs in requests.items():
        alloc[hop] = max_min_allocate(topo.edges[hop].capacity, reqs)

    congestion_total = 0.0
    latency: dict[float, float] = {}
    for idx, (path, flow) in enumerate(flows):
        got = min(alloc[hop][idx] for hop in path_edges(path))
        delivered_total += got
        congestion_total += flow - got
        if got > 0:
            lat = topo.path_weight(path)
            latency[lat] = latency.get(lat, 0.0) + got

    util = {k: 0.0 for k in topo.edges}
    for hop, a in alloc.items():
        util[hop] = sum(a.values()) / topo.edges[hop].capacity
    # demand_total is the sum of its parts, making conservation bit-exact
    demand_total = delivered_total + congestion_total + failure_total
    return StepMetrics(util, delivered_total, congestion_total, failure_total,
                       latency, demand_total)


def simulate(topo: Topology, scheme_source: AlgorithmKind | str,
             actual_tms: Sequence[TrafficMatrix],
             predicted_tms: Sequence[TrafficMatrix],
             cfg: SimConfig = SimConfig()) -> SimReport:
    """Replay a matrix sequence against one routing algorithm.

    Failures follow the phi schedule (or ``cfg.explicit_failures``).  With
    ``recovery="local"`` failed paths are dropped and rates re-balanced;
    with ``"global"`` the scheme is recomputed on the reduced topology
    (falling back to local if a removal would disconnect it).  The
    omniscient baseline recomputes on the reduced topology from the actual
    matrix regardless.  Flash bursts, when configured, are injected into the
    actual demands each step; every flash_recovery_period steps
    weight-adaptive algorithms re-balance using the burst as observed
    flash_lag steps earlier.
    """
    kind = (AlgorithmKind.parse(scheme_source)
            if isinstance(scheme_source, str) else scheme_source)
    if len(actual_tms) != len(predicted_tms):
        raise ValueError("actual and predicted sequences differ in length")
    num_tms = len(actual_tms)
    if cfg.explicit_failures is not None:
        failures = [tuple(f) for f in cfg.explicit_failures]
        if len(failures) != num_tms:
            raise ValueError("explicit failure schedule length mismatch")
    else:
        failures = failure_schedule(topo, cfg.phi, num_tms, cfg.seed,
                                    actual_tms[0] if actual_tms else None)

    driver = algorithms.SchemeDriver(topo, kind, list(predicted_tms), cfg)

    steps_out: list[list[StepMetrics]] = []
    churn_tl: list[int] = []
    paths_tl: list[int] = []
    prev_installed: Scheme | None = None
    flash_on = cfg.flash is not None and cfg.flash.beta > 0

    for t in range(num_tms):
        atm, ptm = actual_tms[t], predicted_tms[t]
        failed = failures[t]
        dead = both_directions(failed)
        topo_t = topo
        if failed:
            try:
                topo_t = topo.without_links(failed)
            except TopologyError:
                topo_t = None  # disconnected; global recovery degrades to local

        scheme = driver.scheme_for(t, ptm, atm, topo_t or topo)
        installed = driver.installed
        churn_tl.append(0 if prev_installed is None
                        else churn(prev_installed, installed))
        paths_tl.append(sum(len(d) for d in installed.values()))
        prev_installed = installed

        if failed and kind.tag != "optimalmcf" and cfg.recovery != "none":
            label = f"{kind.name} {cfg.recovery} recovery tm{t}"
            if cfg.recovery == "global" and topo_t is not None:
                scheme = driver.timed(label, lambda: recover_global(
                    kind, topo_t, ptm, cfg, driver.phase_limit_events))
            else:
                base = driver.reweight_source(scheme)
                scheme = driver.timed(label, lambda: recover_local(
                    base, failed, kind, topo, ptm, cfg.mw))

        if not flash_on:
            metrics = _propagate(topo, scheme, atm, dead)
            steps_out.append([metrics] * cfg.steps_per_tm)
            continue

        sink = flash_sink(atm, cfg.flash, t)
        step_scheme = scheme
        tm_steps: list[StepMetrics] = []
        for step in range(cfg.steps_per_tm):
            if (cfg.recovery != "none" and step > 0
                    and step % cfg.flash_recovery_period == 0):
                if kind.tag == "optimalmcf":
                    current = flash_burst(atm, cfg.flash, step, sink)
                    step_scheme = driver.solve_conscious(
                        topo_t or topo, current, f"{kind.name} flash solve")
                elif kind.category != "oblivious":
                    lag = max(0, step - cfg.flash_lag)
                    observed = flash_burst(atm, cfg.flash, lag, sink)
                    live = _surviving(driver.reweight_source(scheme), dead)
                    step_scheme = driver.timed(
                        f"{kind.name} flash reweight tm{t} step{step}",
                        lambda: algorithms.reweight(topo, live, observed,
                                                    cfg.mw))
            demand = flash_burst(atm, cfg.flash, step, sink)
            tm_steps.append(_propagate(topo, step_scheme, demand, dead))
        steps_out.append(tm_steps)

    return SimReport(kind.name, topo.name, num_tms, cfg.steps_per_tm,
                     steps_out, failures, churn_tl, paths_tl,
                     driver.solve_times, driver.phase_limit_events)


@dataclass
class Summary:
    algorithm: str
    topology: str
    throughput_fraction: float
    congestion_loss_fraction: float
    failure_loss_fraction: float
    mean_max_congestion: float
    peak_congestion: float
    latency_cdf: tuple[tuple[float, float], ...]
    total_churn: int
    mean_paths_per_tm: float
    solver_time_total: float
    per_tm: list[dict]

    def latency_percentile(self, q: float) -> float:
        """Smallest latency whose cumulative delivered fraction >= q."""
        for lat, frac in self.latency_cdf:
            if frac >= q:
                return lat
        return self.latency_cdf[-1][0] if self.latency_cdf else 0.0


def metrics_rollup(report: SimReport) -> Summary:
    """Aggregate a run: fractions of demand delivered/lost, congestion
    statistics, the delivered-bits latency CDF, churn and solver totals.
    A run with zero demand counts as throughput fraction 1."""
    delivered = closs = floss = demand = 0.0
    max_cong_per_tm = []
    latency: dict[float, float] = {}
    per_tm = []
    for t, steps in enumerate(report.steps):
        d = cl = fl = dt = 0.0
        mc = 0.0
        for m in steps:
            d += m.delivered
            cl += m.congestion_loss
            fl += m.failure_loss
            dt += m.demand_total
            if m.per_edge_congestion:
                mc = max(mc, max(m.per_edge_congestion.values()))
            for lat, bits in m.latency_samples.items():
                latency[lat] = latency.get(lat, 0.0) + bits
        delivered += d
        closs += cl
        floss += fl
        demand += dt
        max_cong_per_tm.append(mc)
        per_tm.append({
            "tm": t,
            "throughput_fraction": d / dt if dt > 0 else 1.0,
            "congestion_loss_fraction": cl / dt if dt > 0 else 0.0,
            "failure_loss_fraction": fl / dt if dt > 0 else 0.0,
            "max_congestion": mc,
            "churn": report.churn_timeline[t],
            "installed_paths": report.installed_paths[t],
            "failed_links": ";".join(f"{a}-{b}" for (a, b) in report.failures[t]),
        })
    total_bits = sum(latency.values())
    cdf = []
    acc = 0.0
    for lat in sorted(latency):
        acc += latency[lat]
        cdf.append((lat, acc / total_bits))
    return Summary(
        algorithm=report.algorithm,
        topology=report.topology,
        throughput_fraction=delivered / demand if demand > 0 else 1.0,
        congestion_loss_fraction=closs / demand if demand > 0 else 0.0,
        failure_loss_fraction=floss / demand if demand > 0 else 0.0,
        mean_max_congestion=(sum(max_cong_per_tm) / len(max_cong_per_tm)
                             if max_cong_per_tm else 0.0),
        peak_congestion=max(max_cong_per_tm, default=0.0),
        latency_cdf=tuple(cdf),
        total_churn=sum(report.churn_timeline),
        mean_paths_per_tm=(sum(report.installed_paths) / len(report.installed_paths)
                           if report.installed_paths else 0.0),
        solver_time_total=sum(s for _, s in report.solver_times),
        per_tm=per_tm,
    )


def report_to_csv(summary: Summary) -> str:
    """One row per TM per metric, plus run-level totals."""
    lines = ["tm,metric,value"]
    for row in summary.per_tm:
        t = row["tm"]
        for key in ("throughput_fraction", "congestion_loss_fraction",
                    "failure_loss_fraction", "max_congestion", "churn",
                    "installed_paths"):
            lines.append(f"{t},{key},{row[key]!r}")
        lines.append(f"{t},failed_links,{row['failed_links'] or '-'}")
    for key in ("throughput_fraction", "congestion_loss_fraction",
                "failure_loss_fraction", "mean_max_congestion",
                "peak_congestion", "total_churn"):
        lines.append(f"all,{key},{getattr(summary, key)!r}")
    return "\n".join(lines) + "\n"
