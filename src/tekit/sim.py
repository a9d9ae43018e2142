"""Discrete-step traffic replay with failures, bursts and recovery.

The engine replays a sequence of traffic matrices against a routing
algorithm.  Per matrix it refreshes the algorithm's scheme from the
*predicted* demands (conscious algorithms recompute paths and weights,
fixed-path adaptive ones re-balance weights over their installed base,
oblivious ones never change), applies the path budget, injects link
failures per the failure model, and then pushes the *actual* demands
through the network for a configurable number of steps.  One solve answers
each matrix: on a failed matrix with global recovery, every algorithm runs
only its rebuild on the reduced topology, and with local recovery a
fixed-path adaptive algorithm runs only its recovery solve over its
installed paths.  Churn and the installed path count are those of the
paths installed after recovery.

Traffic is fluid: each step, every path requests demand * probability on
every link it crosses, each link divides its capacity by max-min fair
sharing, and a path delivers the minimum of its per-link allocations.  The
surplus above the bottleneck is congestion loss; traffic on paths through a
failed link (or on pairs left with no path) is failure loss.  Loss is data,
never an error: ``demand_total`` is defined as delivered + congestion loss
+ failure loss, so conservation holds bit-exactly at every step.

Each installed scheme is flattened once into a ``PathTable`` (per matrix,
and again after each flash re-balance).  Between two installs the steps
differ only in their demand, so ``_propagate`` takes a block of steps, one
demand row each, and ``_water_fill`` fills every (step, link) lane of the
block in one pass.  A steady matrix is one block of one row; a flash
matrix's re-balance periods are cut into blocks of at most
``_BLOCK_HOP_ENTRIES`` hop entries.  The fill's order is the specification
of the results: the step is the primary key, so no step sees another's
requests; a link serves its requests by increasing request, equal requests
in flow order (flow 2 before flow 10); and every total is a left fold, a
link's in service order and the step's in flow order.  How steps are
blocked therefore never changes a bit.

The report is columnar (``StepBlock``): per matrix, the per-edge
utilization (steps x edges), the delivered, lost and demanded totals per
step and the latency bins, a steady matrix as one row standing for all of
its steps.  ``metrics_rollup`` folds these arrays in step order;
``StepMetrics`` objects are built only when ``SimReport.steps`` is read.

Latency is propagation-only (sum of latency weights along the path),
recorded as a delivered-bits histogram.  The report carries the driver's
solve records (``SimReport.solves``); their wall-clock times reach the
CLI's outputs only with --timings, so identical seeded runs are
byte-identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import algorithms
from .baseline import spf
from .demand import flash_burst, flash_burst_rates, flash_sink
from .mcf import MwConfig, WarmStart, evaluate_scheme
from .model import (AlgorithmKind, Scheme, Topology, TopologyError,
                    TrafficMatrix, both_directions, churn, normalized,
                    path_edges)

_FAIL = 21  # rng stream tag

#: How a run answers link failures; ``SimConfig.recovery`` is one of these.
RECOVERY_MODES = ("none", "local", "global")
#: The run-level metrics of a ``Summary``, in ``comparison.csv`` column order.
RUN_METRICS = ("throughput_fraction", "congestion_loss_fraction",
               "failure_loss_fraction", "mean_max_congestion",
               "peak_congestion", "total_churn", "mean_paths_per_tm")


class InfeasibleFailureError(RuntimeError):
    """No connected failure scenario of the requested size was found."""


@dataclass(frozen=True)
class SimConfig(algorithms.BuildConfig):
    """Replay settings on top of the scheme-build ones (``budget``, ``mw``,
    ``seed``).  ``flash_beta`` > 0 adds a flash burst to every matrix, toward
    a sink drawn from ``seed``; 0 means no burst."""

    steps_per_tm: int = 1000
    phi: int = 0
    recovery: str = "none"
    flash_beta: float = 0.0
    flash_lag: int = 8
    flash_recovery_period: int = 200
    #: optional per-TM failed links in place of the phi schedule (``tekit
    #: run`` passes the schedule it computed once for every algorithm)
    explicit_failures: tuple | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.phi < 0:
            raise ValueError("phi must be >= 0")
        if self.steps_per_tm < 1:
            raise ValueError("steps per matrix must be >= 1")
        if not (math.isfinite(self.flash_beta) and self.flash_beta >= 0):
            raise ValueError(f"flash beta must be finite and >= 0, "
                             f"got {self.flash_beta!r}")
        if self.flash_lag < 0:
            raise ValueError("flash lag must be >= 0")
        if self.flash_recovery_period < 1:
            raise ValueError("flash recovery period must be >= 1")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(f"recovery must be one of {RECOVERY_MODES}")


#: Bound on the entries one ``_propagate`` call works on: steps x (the
#: path table's hops + its rows).  A longer stretch of flash steps is cut
#: into blocks of at most this many entries, so memory stays flat however
#: long a re-balance period is.
_BLOCK_HOP_ENTRIES = 1 << 14


@dataclass
class StepMetrics:
    per_edge_congestion: dict[tuple[str, str], float]
    delivered: float
    congestion_loss: float
    failure_loss: float
    latency_samples: dict[float, float]
    demand_total: float


@dataclass(eq=False)
class StepBlock:
    """Fluid steps as columns, one row per step: a ``_propagate`` block, or
    all of one matrix's steps.

    ``util`` is each edge's congestion (rows x edges, columns in
    ``edge_keys`` order).  The latency bins are flat: row i owns the next
    ``lat_count[i]`` entries of ``lat_value`` (a path latency weight) and
    ``lat_bits`` (the bits delivered at it), in the order the step first
    saw each latency.  The rows stand for ``repeat`` copies of themselves in
    sequence; a steady matrix is one row repeated for all of its steps.
    """

    edge_keys: tuple[tuple[str, str], ...]
    util: np.ndarray
    delivered: np.ndarray
    congestion_loss: np.ndarray
    failure_loss: np.ndarray
    demand_total: np.ndarray
    lat_count: np.ndarray
    lat_value: np.ndarray
    lat_bits: np.ndarray
    repeat: int = 1

    @classmethod
    def concat(cls, blocks: Sequence[StepBlock]) -> StepBlock:
        """The blocks' rows in sequence (each block has ``repeat`` 1)."""
        columns = [np.concatenate([getattr(b, f.name) for b in blocks])
                   for f in fields(cls) if f.name not in ("edge_keys",
                                                           "repeat")]
        return cls(blocks[0].edge_keys, *columns)

    def views(self) -> list[StepMetrics]:
        """One ``StepMetrics`` per row, the list repeated ``repeat`` times:
        a repeated row is one object."""
        value, bits = self.lat_value.tolist(), self.lat_bits.tolist()
        ends = np.cumsum(self.lat_count).tolist()
        rows = zip(self.util.tolist(), self.delivered.tolist(),
                   self.congestion_loss.tolist(), self.failure_loss.tolist(),
                   self.demand_total.tolist(), [0] + ends[:-1], ends)
        return [StepMetrics(dict(zip(self.edge_keys, util)), d, cl, fl,
                            dict(zip(value[a:b], bits[a:b])), dt)
                for util, d, cl, fl, dt, a, b in rows] * self.repeat


@dataclass
class SimReport:
    algorithm: str
    topology: str
    num_tms: int
    steps_per_tm: int
    matrices: list[StepBlock]               # [tm], each steps_per_tm steps
    failures: list[tuple[tuple[str, str], ...]]
    churn_timeline: list[int]               # installed-path churn per TM
    installed_paths: list[int]              # installed path count per TM
    solves: list[algorithms.Solve] = field(default_factory=list)

    @functools.cached_property
    def steps(self) -> list[list[StepMetrics]]:
        """[tm][step] views of ``matrices``, built once on first read; the
        steps of a steady matrix are one aliased object."""
        return [block.views() for block in self.matrices]


def _water_fill(capacity: np.ndarray, lane: np.ndarray, req: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Max-min water-filling of many lanes in lockstep.

    Request i asks ``req[i]`` of lane ``lane[i]``, which shares
    ``capacity[lane[i]]``; the requests come in flow order.  A lane serves
    its requests by increasing request, equal ones in flow order: the k-th
    served of its n gets min(request, remaining / (n - k)) and leaves that
    much less capacity, and the lane's total is the left fold of its grants
    in that order.  Returns (each request's grant in input order, each
    lane's total, 0.0 for an idle lane).
    """
    # by lane, then request, equal requests in flow order: two stable
    # sorts, the lane key in the smallest unsigned dtype (numpy radix-sorts
    # keys of 16 bits or fewer)
    order = np.argsort(req, kind="stable")
    key = lane[order].astype(np.min_scalar_type(len(capacity)))
    order = order[np.argsort(key, kind="stable")]
    counts = np.bincount(lane)
    used = np.flatnonzero(counts)
    counts = counts[used]
    deep = np.argsort(-counts, kind="stable")  # deepest lanes first
    lanes, starts = used[deep], (np.cumsum(counts) - counts)[deep]
    sizes = counts[deep].tolist()
    depth = counts[deep].astype(float)
    remaining = capacity[lanes]
    total = np.zeros(len(lanes))
    give = np.maximum(req[order], 0.0)
    active = len(lanes)
    for k in range(max(sizes, default=0)):
        while sizes[active - 1] <= k:
            active -= 1
        at = starts[:active] + k  # position k of every lane that long
        grant = np.minimum(give[at], remaining[:active] / (depth[:active] - k))
        give[at] = grant
        remaining[:active] -= grant
        total[:active] += grant
    out = np.empty(len(give))
    out[order] = give
    totals = np.zeros(len(capacity))
    totals[lanes] = total
    return out, totals


def max_min_allocate(link_capacity: float,
                     requests: Mapping[object, float]) -> dict:
    """Water-filling: flows at or below the fair share keep their request;
    the residual capacity is re-divided among the rest.  The result is
    max-min optimal and never exceeds the capacity.  Requests are served
    by increasing request, ties in the mapping's order, and the result
    lists them in service order; this is one link of the fluid step's
    kernel."""
    if not link_capacity > 0:
        raise ValueError("capacity must be positive")
    keys = list(requests)
    req = np.array([requests[k] for k in keys], dtype=float)
    give, _ = _water_fill(np.array([link_capacity], dtype=float),
                          np.zeros(len(keys), dtype=np.intp), req)
    grants = give.tolist()
    return {keys[i]: grants[i]
            for i in np.argsort(req, kind="stable").tolist()}


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
    Raises InfeasibleFailureError when phi exceeds the number of switch
    links or no connected draw is found.
    """
    links = topo.links()
    if phi == 0:
        return [() for _ in range(num_tms)]
    if phi > len(links):
        raise InfeasibleFailureError(
            f"{topo.name} has {len(links)} switch links, too few to fail {phi}")
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
                  tm: TrafficMatrix, mw: MwConfig = MwConfig(),
                  warm: WarmStart | None = None) -> Scheme:
    """Edge-local failure response: drop paths through failed links, then
    re-balance.  Adaptive-weight kinds re-solve their rates for ``tm`` over
    the surviving paths; everything else just renormalizes.  Pairs left
    with no surviving path keep an empty entry — their traffic becomes
    failure loss downstream, never an error.  ``warm`` chains the re-solve
    as ``semi_mcf`` does.
    """
    dead = both_directions(failed)
    survived = _surviving(scheme, dead)
    if kind.category == "semi-oblivious":
        return algorithms.reweight(topo, survived, tm, mw, warm)
    return {pair: normalized(dist) for pair, dist in survived.items()}


def recover_global(t: int, kind: AlgorithmKind, topo_minus_failed: Topology,
                   predicted_tm: TrafficMatrix, cfg: SimConfig,
                   solves: list[algorithms.Solve] | None = None,
                   ) -> tuple[Scheme, Scheme]:
    """Recompute the whole algorithm on the reduced topology for matrix
    index ``t``: the scheme and its installed paths (the recomputed base of
    a kind that keeps one, else the scheme).  The recomputation's solve
    records are appended to ``solves``, when it is given, labelled
    ``global recovery: <label>``; a per-matrix label names ``tm<t>``."""
    driver = algorithms.SchemeDriver(topo_minus_failed, kind, [predicted_tm],
                                     cfg)
    scheme = driver.scheme_for(t, predicted_tm, predicted_tm,
                               topo_minus_failed)
    if solves is not None:
        solves.extend(replace(s, label=f"global recovery: {s.label}")
                      for s in driver.solves)
    return scheme, scheme if driver.base is None else driver.base


class PathTable:
    """One installed scheme under one failure set, flattened for the fluid
    step; built when the scheme is installed, read by every step.

    A row is one (pair, path) entry: pairs in sorted order over ``hosts``
    (a matrix's sorted host list), paths sorted within a pair.  Each row
    holds its pair's cell in the flattened ``tm.rates``, its probability,
    whether it is dead (it crosses a dead edge) and its latency weight.  A
    pair with no path is one dead row of probability 1.  The live rows'
    hops are indices into ``topo.edges``, host stubs included, concatenated
    in row order.
    """

    def __init__(self, topo: Topology, scheme: Scheme, hosts: Sequence[str],
                 dead: frozenset):
        self.hosts = tuple(hosts)
        self.edge_keys = tuple(topo.edges)
        self.capacity = np.array([e.capacity for e in topo.edges.values()],
                                 dtype=float)
        index = {k: i for i, k in enumerate(self.edge_keys)}
        cell, prob, is_dead, weight, hop_count, hops = [], [], [], [], [], []
        n = len(self.hosts)
        for i, src in enumerate(self.hosts):
            for j, dst in enumerate(self.hosts):
                if i == j:
                    continue
                dist = scheme.get((src, dst))
                for path, p in sorted(dist.items()) if dist else [((), 1.0)]:
                    edges = path_edges(path)
                    gone = not dist or any(h in dead for h in edges)
                    cell.append(i * n + j)
                    prob.append(p)
                    is_dead.append(gone)
                    weight.append(0.0 if gone else topo.path_weight(path))
                    hop_count.append(0 if gone else len(edges))
                    if not gone:
                        hops.extend(index[h] for h in edges)
        self.cell = np.array(cell, dtype=np.intp)
        self.prob = np.array(prob, dtype=float)
        self.weight = np.array(weight, dtype=float)
        self.dead = np.array(is_dead, dtype=bool)
        self.hop_count = np.array(hop_count, dtype=np.intp)
        self.hops = np.array(hops, dtype=np.intp)
        self.hop_row = np.repeat(np.arange(len(cell)), self.hop_count)


def _fold(values: np.ndarray) -> np.ndarray:
    """The left-to-right sums from 0.0 along the last axis that a Python
    loop makes; ``np.sum`` adds pairwise, ``np.cumsum`` adds in order.
    The result is a copy, not a view that would hold every partial sum."""
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.cumsum(values, axis=-1)[..., -1].copy()


def _propagate(table: PathTable, rates: np.ndarray) -> StepBlock:
    """A block of fluid steps under one path table, one per demand row of
    ``rates`` (steps x hosts x hosts): route, allocate per link, account
    losses exactly.

    In each step every live flow (a live row with non-zero demand)
    requests demand * probability on each of its hops.  All (step, link)
    lanes are filled by one ``_water_fill``: lane = step * edges + edge,
    each serving its requests by increasing request, ties in flow order; a
    flow delivers its smallest grant.  A step's totals are left folds over
    its flows in order (a flow that is not live adds 0.0, which leaves a
    fold unchanged), so no result depends on how numpy sums or on how the
    steps are blocked.
    """
    n = len(table.hosts)
    if rates.shape[1:] != (n, n):
        raise ValueError("matrix hosts differ from the path table's")
    steps, n_edges = len(rates), len(table.edge_keys)
    demand = rates.reshape(steps, n * n)[:, table.cell]  # steps x rows
    rate = demand * table.prob
    offered = demand != 0
    live = offered & ~table.dead
    # every hop of a live flow, step-major and in flow order
    step, entry = np.nonzero(live[:, table.hop_row])
    capacity = np.tile(table.capacity, steps)
    grant, total = _water_fill(capacity, step * n_edges + table.hops[entry],
                               rate[step, table.hop_row[entry]])
    util = (total / capacity).reshape(steps, n_edges)
    got = np.zeros((steps, len(table.cell)))
    flow_step, flow = np.nonzero(live)
    hops = table.hop_count[flow]
    got[flow_step, flow] = np.minimum.reduceat(grant, np.cumsum(hops) - hops)

    # latency bins: per step and latency weight, keys in first-seen order
    bin_step, carrier = np.nonzero(got > 0)
    lat, key = np.unique(table.weight[carrier], return_inverse=True)
    width = max(len(lat), 1)
    bins, seen, slot = np.unique(bin_step * width + key, return_index=True,
                                 return_inverse=True)
    bits = np.bincount(slot, weights=got[bin_step, carrier],
                       minlength=len(bins))
    keep = np.argsort(seen)
    delivered = _fold(got)
    congestion = _fold(np.where(live, rate - got, 0.0))
    failure = _fold(np.where(offered & table.dead, rate, 0.0))
    # demand_total is the sum of its parts, making conservation bit-exact
    return StepBlock(table.edge_keys, util, delivered, congestion, failure,
                     delivered + congestion + failure,
                     np.bincount(bins // width, minlength=steps),
                     lat[bins[keep] % width], bits[keep])


def simulate(topo: Topology, scheme_source: AlgorithmKind | str,
             actual_tms: Sequence[TrafficMatrix],
             predicted_tms: Sequence[TrafficMatrix],
             cfg: SimConfig = SimConfig()) -> SimReport:
    """Replay a matrix sequence against one routing algorithm.

    Failures follow the phi schedule (or ``cfg.explicit_failures``).  With
    ``recovery="local"`` failed paths are dropped and rates re-balanced;
    with ``"global"`` the scheme is recomputed on the reduced topology
    (falling back to local if a removal would disconnect it).  On a failed
    matrix the recovery solve is the only one: global recovery replaces
    every kind's answer, local recovery a semi-oblivious kind's.  The
    omniscient baseline recomputes on the reduced topology from the actual
    matrix regardless.  With ``flash_beta`` > 0 a flash burst toward a sink
    drawn per matrix from ``seed`` is injected into the actual demands each
    step; every flash_recovery_period steps weight-adaptive algorithms
    re-balance their surviving installed paths using the burst as observed
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

    matrices: list[StepBlock] = []
    churn_tl: list[int] = []
    paths_tl: list[int] = []
    prev_installed: Scheme | None = None

    for t in range(num_tms):
        atm, ptm = actual_tms[t], predicted_tms[t]
        failed = failures[t]
        dead = both_directions(failed)
        recovery = (cfg.recovery if failed and kind.tag != "optimalmcf"
                    else "none")
        topo_t = topo
        if failed:
            try:
                topo_t = topo.without_links(failed)
            except TopologyError:  # disconnected: global degrades to local
                recovery = "local" if recovery == "global" else recovery

        # a failed matrix is answered by its recovery solve alone: global
        # recovery for every kind, local recovery for a kept base
        if recovery == "global":
            scheme, installed = recover_global(t, kind, topo_t, ptm, cfg,
                                               driver.solves)
        else:
            if driver.base is None or recovery == "none":
                scheme = driver.scheme_for(t, ptm, atm, topo_t)
            installed = scheme if driver.base is None else driver.base
            if recovery == "local":
                scheme = driver.timed(
                    f"{kind.name} local recovery tm{t}",
                    lambda: recover_local(installed, failed, kind, topo, ptm,
                                          cfg.mw, driver.semi_warm))
        churn_tl.append(0 if prev_installed is None
                        else churn(prev_installed, installed))
        paths_tl.append(sum(len(d) for d in installed.values()))
        prev_installed = installed

        table = PathTable(topo, scheme, atm.hosts, dead)
        if cfg.flash_beta == 0:
            block = _propagate(table, atm.rates[None])
            matrices.append(replace(block, repeat=cfg.steps_per_tm))
            continue

        sink = flash_sink(atm, cfg.seed, t)
        rebalance = cfg.recovery != "none" and kind.category != "oblivious"
        live = _surviving(installed, dead) if rebalance else None
        period = cfg.flash_recovery_period if rebalance else cfg.steps_per_tm
        blocks: list[StepBlock] = []
        for begin in range(0, cfg.steps_per_tm, period):
            if begin > 0:
                if kind.tag == "optimalmcf":
                    step_scheme = driver.solve_conscious(
                        topo_t, flash_burst(atm, cfg.flash_beta, begin, sink),
                        f"{kind.name} flash solve tm{t} step{begin}")
                else:
                    lag = max(0, begin - cfg.flash_lag)
                    observed = flash_burst(atm, cfg.flash_beta, lag, sink)
                    step_scheme = driver.timed(
                        f"{kind.name} flash reweight tm{t} step{begin}",
                        lambda: algorithms.reweight(topo, live, observed,
                                                    cfg.mw, driver.semi_warm))
                table = PathTable(topo, step_scheme, atm.hosts, dead)
            end = min(begin + period, cfg.steps_per_tm)
            entries = max(1, len(table.hops) + len(table.cell))
            rows = max(1, _BLOCK_HOP_ENTRIES // entries)
            for first in range(begin, end, rows):
                elapsed = range(first, min(first + rows, end))
                blocks.append(_propagate(table, flash_burst_rates(
                    atm, cfg.flash_beta, elapsed, sink)))
        matrices.append(StepBlock.concat(blocks))

    return SimReport(kind.name, topo.name, num_tms, cfg.steps_per_tm,
                     matrices, failures, churn_tl, paths_tl, driver.solves)


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
    per_tm: list[dict]

    def latency_percentile(self, q: float) -> float:
        """Smallest latency whose cumulative delivered fraction >= q."""
        for lat, frac in self.latency_cdf:
            if frac >= q:
                return lat
        return self.latency_cdf[-1][0] if self.latency_cdf else 0.0


def metrics_rollup(report: SimReport) -> Summary:
    """Aggregate a run: fractions of demand delivered/lost, congestion
    statistics, the delivered-bits latency CDF and churn.
    A run with zero demand counts as throughput fraction 1."""
    blocks = report.matrices
    sums, max_cong_per_tm, per_tm = [], [], []
    for t, block in enumerate(blocks):
        columns = np.stack((block.delivered, block.congestion_loss,
                            block.failure_loss, block.demand_total))
        d, cl, fl, dt = _fold(np.tile(columns, block.repeat)).tolist()
        sums.append((d, cl, fl, dt))
        mc = float(block.util.max(initial=0.0))
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
    delivered, closs, floss, demand = _fold(
        np.array(sums).reshape(-1, 4).T).tolist()

    # per latency, the left fold of its bits over every step: ``np.add.at``
    # adds in index order, and each block's entries are in step order
    latency, key = np.unique(
        np.concatenate([np.empty(0)] + [b.lat_value for b in blocks]),
        return_inverse=True)
    bits = np.zeros(len(latency))
    end = 0
    for b in blocks:
        begin, end = end, end + len(b.lat_value)
        np.add.at(bits, np.tile(key[begin:end], b.repeat),
                  np.tile(b.lat_bits, b.repeat))
    # the delivered share up to each latency, by the running sum in latency
    # order, so the last point is 1 (an empty run has no point)
    running = np.cumsum(bits)
    cdf = tuple(zip(latency.tolist(), (running / running[-1:]).tolist()))
    return Summary(
        algorithm=report.algorithm,
        topology=report.topology,
        throughput_fraction=delivered / demand if demand > 0 else 1.0,
        congestion_loss_fraction=closs / demand if demand > 0 else 0.0,
        failure_loss_fraction=floss / demand if demand > 0 else 0.0,
        mean_max_congestion=(sum(max_cong_per_tm) / len(max_cong_per_tm)
                             if max_cong_per_tm else 0.0),
        peak_congestion=max(max_cong_per_tm, default=0.0),
        latency_cdf=cdf,
        total_churn=sum(report.churn_timeline),
        mean_paths_per_tm=(sum(report.installed_paths) / len(report.installed_paths)
                           if report.installed_paths else 0.0),
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
    for key in RUN_METRICS[:-1]:  # all but mean_paths_per_tm
        lines.append(f"all,{key},{getattr(summary, key)!r}")
    return "\n".join(lines) + "\n"
