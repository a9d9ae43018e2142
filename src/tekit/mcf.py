"""Min-max-congestion flow solving by multiplicative weights.

The solver (Garg-Koenemann / Fleischer multiplicative weights) keeps a
weight per switch edge (a point on the simplex) and repeatedly routes every
commodity along its shortest candidate path under lengths w(e)/c(e), then
multiplicatively inflates the weights of the edges the iteration loaded.
Averaging the per-iteration routings yields a fractional flow whose max
utilization converges to the optimum; by LP duality the same lengths give a
lower bound sum_j d_j * dist(j) on any routing's max congestion, so the loop
stops exactly when the averaged flow is within the requested factor of the
bound.  The returned solution therefore carries a certified optimality gap
rather than a heuristic one.

Both solvers share one array-based core.  It owns a *path pool*: every
candidate path as flat switch-edge indices with per-path offsets and the
commodity it serves.  An iteration asks an *oracle* for one pool index per
commodity, adds one to that path's entry of an integer count vector, and
accumulates edge load with ``np.bincount``; the best averaged iterate is a
copy of the count vector.  The two oracles differ only in where paths come
from:

* ``mcf_mw`` runs a Dijkstra per source switch over the whole switch graph
  and appends each path it has not returned before to the pool (column
  generation), so paths enter the pool as the weights discover them;
* ``semi_mcf`` fills the pool once from a fixed base path set and picks each
  pair's shortest base path with one (paths x edges) product and a segment
  minimum (``np.minimum.reduceat``), which is how fixed-path schemes get
  their sending rates re-balanced as demands evolve.

Floating-point results do not depend on the array layout: load is summed
per edge in commodity order, the lower bound is a sequential sum in
commodity order, and each pair's output distribution lists its paths in
the order they were first chosen before it is normalized.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import graphops
from .baseline import spf
from .model import (Path, Scheme, Topology, TopologyError, TrafficMatrix,
                    attach_stubs, format_scheme, normalized, path_edges)


class PhaseLimitError(RuntimeError):
    """Solver hit max_phases before certifying the requested gap.

    The best solution found so far is attached as ``.solution``.
    """

    def __init__(self, message: str, solution: "FlowSolution"):
        super().__init__(message)
        self.solution = solution


class MissingPathsError(ValueError):
    """A base scheme lacks paths for pairs with positive demand."""

    def __init__(self, pairs: Sequence[tuple[str, str]]):
        super().__init__(f"base scheme has no path for pairs: {sorted(pairs)}")
        self.pairs = tuple(sorted(pairs))


class EmptyWindowError(ValueError):
    """Demand envelope of an empty sequence."""


class DisconnectedScenarioError(ValueError):
    """Removing a candidate failure link would partition the network."""

    def __init__(self, link: tuple[str, str]):
        super().__init__(f"removing link {link} disconnects the topology")
        self.link = link


@dataclass(frozen=True)
class MwConfig:
    """Solver knobs.  ``accuracy`` is the certified multiplicative gap:
    returned max congestion <= (1 + accuracy) * optimum."""

    accuracy: float = 0.05
    max_phases: int = 5000

    def __post_init__(self):
        if not (0.0 < self.accuracy <= 0.5):
            raise ValueError("accuracy must lie in (0, 0.5]")
        if self.max_phases < 1:
            raise ValueError("max_phases must be >= 1")


@dataclass
class FlowSolution:
    scheme: Scheme
    max_congestion: float
    per_edge_util: dict[tuple[str, str], float]
    solve_time: float
    iterations: int = 0
    lower_bound: float = 0.0

    def to_report(self) -> str:
        return (f"max_congestion {self.max_congestion!r}\n"
                f"solve_time {self.solve_time:.6f}\n"
                + format_scheme(self.scheme))


def evaluate_scheme(topo: Topology, scheme: Scheme, tm: TrafficMatrix,
                    ) -> tuple[float, dict[tuple[str, str], float]]:
    """Exact per-edge utilization of a scheme under a demand matrix."""
    util = {k: 0.0 for k in topo.edges}
    for pair, dist in scheme.items():
        demand = tm.get(*pair)
        if demand == 0:
            continue
        for path, prob in dist.items():
            share = demand * prob
            for hop in path_edges(path):
                util[hop] += share
    for k, e in topo.edges.items():
        util[k] /= e.capacity
    max_c = max(util.values(), default=0.0)
    return max_c, util


def _solution(topo, scheme, tm, t0, iterations, lower_bound) -> FlowSolution:
    max_c, util = evaluate_scheme(topo, scheme, tm)
    return FlowSolution(scheme, max_c, util, time.perf_counter() - t0,
                        iterations, lower_bound)


#: Multiplicative-weights learning rate.  Decoupled from the certified
#: accuracy: the primal/dual certificate alone guarantees the returned gap,
#: the rate only affects how fast the certificate is reached.
MW_ETA = 0.25


class _PathPool:
    """Candidate paths of every commodity, stored flat.

    Path ``i`` serves commodity ``owner[i]`` and crosses the switch edges
    ``hops[start[i]:start[i] + size[i]]`` (positions in the solver's sorted
    switch-edge list).  Paths are appended, never removed.
    """

    def __init__(self):
        self.paths: list[Path] = []
        self.owner: list[int] = []
        self._hops: list[np.ndarray] = []
        self._flat = None  # (hops, start, size), rebuilt after an append

    def __len__(self) -> int:
        return len(self.paths)

    def add(self, owner: int, path: Path, hops: list[int]) -> int:
        self.paths.append(path)
        self.owner.append(owner)
        self._hops.append(np.array(hops, dtype=np.intp))
        self._flat = None
        return len(self.paths) - 1

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._flat is None:
            size = np.array([len(h) for h in self._hops], dtype=np.intp)
            self._flat = (np.concatenate(self._hops), np.cumsum(size) - size,
                          size)
        return self._flat

    def hops_of(self, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge indices of the chosen paths, concatenated in order, and
        each chosen path's hop count."""
        hops, start, size = self.flat()
        n = size[chosen]
        ends = np.cumsum(n)
        return hops[np.arange(ends[-1]) + np.repeat(start[chosen] - ends + n,
                                                    n)], n


def _mw_core(cap: np.ndarray, demand: np.ndarray, pool: _PathPool, oracle,
             cfg: MwConfig):
    """Shared multiplicative-weights loop over a path pool.

    ``cap`` holds the switch-edge capacities, ``demand`` the normalized
    demand per commodity.  ``oracle`` maps the current edge lengths to
    (pool index of each commodity's shortest path, its length), both in
    commodity order; it may append new paths to ``pool`` first.  Returns
    (path counts of the best averaged iterate, iteration in which each path
    was first chosen, that iterate's number, the certified normalized lower
    bound, iterations run, converged).
    """
    m = len(cap)
    chat = cap / cap.max()
    w = np.full(m, 1.0 / m)
    load_sum = np.zeros(m)
    counts = np.zeros(len(pool), dtype=np.int64)
    first = np.zeros(len(pool), dtype=np.int64)
    best_ub, best_counts, best_t = math.inf, counts, 0
    best_lb = 0.0
    grow = 1.0 + cfg.accuracy
    log_eta = math.log1p(MW_ETA)

    for t in range(1, cfg.max_phases + 1):
        chosen, dist = oracle(w / chat)
        # sequential sums in commodity order keep the float results fixed
        lb = float(np.cumsum(demand * dist)[-1])
        best_lb = max(best_lb, lb)
        if len(pool) > len(counts):
            pad = (0, len(pool) - len(counts))
            counts, first = np.pad(counts, pad), np.pad(first, pad)
        first[chosen[counts[chosen] == 0]] = t
        counts[chosen] += 1
        hops, size = pool.hops_of(chosen)
        load = np.bincount(hops, weights=np.repeat(demand, size), minlength=m)
        load_sum += load
        ub = float((load_sum / chat).max() / t)
        if ub < best_ub:
            best_ub, best_counts, best_t = ub, counts.copy(), t
        if best_ub <= grow * best_lb:
            return best_counts, first, best_t, best_lb, t, True
        w = w * np.exp(np.minimum(load / chat, 1000.0) * log_eta)
        w /= w.sum()
    return best_counts, first, best_t, best_lb, cfg.max_phases, False


def _distributions(pool: _PathPool, counts: np.ndarray, first: np.ndarray,
                   denom: int, num_commodities: int) -> list[dict[Path, float]]:
    """Per commodity, its paths' shares of the best iterate.

    Paths are listed in the order they were first chosen, so ``normalized``
    sums the shares in a fixed order.
    """
    used = np.flatnonzero(counts)
    owner = np.asarray(pool.owner)[used]
    order = used[np.lexsort((first[used], owner))]
    dists: list[dict[Path, float]] = [{} for _ in range(num_commodities)]
    for i, c in zip(order.tolist(), counts[order].tolist()):
        dists[pool.owner[i]][pool.paths[i]] = c / denom
    return [normalized(dist) for dist in dists]


def _certified(topo, scheme, tm, t0, iterations, lower_bound, converged,
               cfg: MwConfig) -> FlowSolution:
    """The solution, or PhaseLimitError carrying it if the loop stopped
    before certifying the gap."""
    sol = _solution(topo, scheme, tm, t0, iterations, lower_bound)
    if not converged:
        raise PhaseLimitError(
            f"no certificate after {cfg.max_phases} phases "
            f"(ub={sol.max_congestion:.4g})", sol)
    return sol


def _switch_edges(topo: Topology) -> tuple[list[tuple[str, str]], np.ndarray]:
    edges = sorted(topo.switch_edges)
    return edges, np.array([topo.edges[e].capacity for e in edges])


def mcf_mw(topo: Topology, tm: TrafficMatrix, cfg: MwConfig = MwConfig()
           ) -> FlowSolution:
    """Fractional flow minimizing the maximum link utilization.

    Demands are aggregated per switch pair and routed freely over the switch
    graph.  Pairs with zero demand receive their shortest path with
    probability 1 so every consumer downstream sees full pair coverage.
    Raises PhaseLimitError (solution attached) if the certificate is not
    reached within max_phases.
    """
    t0 = time.perf_counter()
    spf_scheme = spf(topo)
    scheme: Scheme = {}
    demands: dict[tuple[str, str], float] = {}
    pair_sw: dict[tuple[str, str], tuple[str, str]] = {}
    for src in topo.hosts:
        for dst in topo.hosts:
            if src == dst:
                continue
            s_sw, d_sw = topo.host_switch(src), topo.host_switch(dst)
            d = tm.get(src, dst)
            if d == 0 or s_sw == d_sw:
                scheme[(src, dst)] = spf_scheme[(src, dst)]
            else:
                pair_sw[(src, dst)] = (s_sw, d_sw)
                demands[(s_sw, d_sw)] = demands.get((s_sw, d_sw), 0.0) + d

    if not demands:
        return _solution(topo, scheme, tm, t0, 0, 0.0)

    d_ref = sum(demands.values())
    keys = sorted(demands)
    commodity = {key: j for j, key in enumerate(keys)}
    demand = np.array([demands[key] / d_ref for key in keys])
    switch_edges, cap = _switch_edges(topo)
    edge_index = {e: i for i, e in enumerate(switch_edges)}
    adj = graphops.switch_graph(topo)
    # sources and their targets in sorted order visit the commodities in
    # commodity order
    sources = sorted({s for (s, _) in keys})
    targets = {s: [d for (s2, d) in keys if s2 == s] for s in sources}
    pool = _PathPool()
    known: dict[Path, int] = {}

    def oracle(lengths):
        lmap = dict(zip(switch_edges, lengths.tolist()))
        chosen, dists = [], []
        for s in sources:
            dist, best = graphops.dijkstra(adj, lmap, s)
            for d in targets[s]:
                path = best[d]
                k = known.get(path)
                if k is None:
                    k = known[path] = pool.add(
                        commodity[(s, d)], path,
                        [edge_index[h] for h in path_edges(path)])
                chosen.append(k)
                dists.append(dist[d])
        return np.array(chosen, dtype=np.intp), np.array(dists)

    counts, first, denom, lb, iters, converged = _mw_core(
        cap, demand, pool, oracle, cfg)

    dists = _distributions(pool, counts, first, denom, len(keys))
    for pair, sw_key in pair_sw.items():
        scheme[pair] = normalized({attach_stubs(topo, *pair, p): v
                                   for p, v in dists[commodity[sw_key]].items()})
    return _certified(topo, scheme, tm, t0, iters,
                      lb * d_ref / float(cap.max()), converged, cfg)


def semi_mcf(topo: Topology, tm: TrafficMatrix, base: Scheme,
             cfg: MwConfig = MwConfig()) -> FlowSolution:
    """Re-balance sending rates over a fixed base path set.

    Same objective and certificate as mcf_mw, but each pair may only use its
    base paths, so the output's path set per pair is a subset of the base.
    Pairs with zero demand keep their base distribution unchanged.
    """
    t0 = time.perf_counter()
    scheme: Scheme = {}
    missing = []
    d_ref = 0.0
    for pair, dist in base.items():
        d = tm.get(*pair)
        if d == 0:
            scheme[pair] = normalized(dist)
        elif not dist:
            missing.append(pair)
        else:
            d_ref += d
    for pair in tm.pairs():
        if tm.get(*pair) > 0 and pair not in base:
            missing.append(pair)
    if missing:
        raise MissingPathsError(missing)
    if d_ref == 0:
        return _solution(topo, scheme, tm, t0, 0, 0.0)

    # Strip host stubs for length computation: stubs are shared by all of a
    # pair's paths, so they never affect the choice.  Path lengths for every
    # candidate are computed in one (paths x edges) matrix product.
    switch_edges, cap = _switch_edges(topo)
    edge_index = {e: i for i, e in enumerate(switch_edges)}
    pairs = sorted(pair for pair in base if tm.get(*pair) > 0)
    demand = np.array([tm.get(*pair) / d_ref for pair in pairs])
    pool = _PathPool()
    for j, pair in enumerate(pairs):
        for path in sorted(base[pair]):
            pool.add(j, path, [edge_index[h] for h in path_edges(path)
                               if h in edge_index])
    hops, _, size = pool.flat()
    incidence = np.zeros((len(pool), len(switch_edges)))
    incidence[np.repeat(np.arange(len(pool)), size), hops] = 1.0
    group_size = np.bincount(pool.owner)
    starts = np.cumsum(group_size) - group_size
    index = np.arange(len(pool))

    def oracle(lengths):
        plens = incidence @ lengths
        at_min = plens == np.repeat(np.minimum.reduceat(plens, starts),
                                    group_size)
        # first shortest path of each pair, as np.argmin would pick
        chosen = np.minimum.reduceat(np.where(at_min, index, len(pool)),
                                     starts)
        return chosen, plens[chosen]

    counts, first, denom, lb, iters, converged = _mw_core(
        cap, demand, pool, oracle, cfg)

    scheme.update(zip(pairs, _distributions(pool, counts, first, denom,
                                            len(pairs))))
    return _certified(topo, scheme, tm, t0, iters,
                      lb * d_ref / float(cap.max()), converged, cfg)


def demand_envelope(tms: Sequence[TrafficMatrix]) -> TrafficMatrix:
    """Element-wise maximum across a window of traffic matrices."""
    if not tms:
        raise EmptyWindowError("demand envelope of an empty window")
    hosts = tms[0].hosts
    rates = tms[0].rates.copy()
    for tm in tms[1:]:
        if tm.hosts != hosts:
            raise ValueError("traffic matrices cover different host sets")
        rates = np.maximum(rates, tm.rates)
    return TrafficMatrix(hosts, rates)


def semi_mcf_env(topo: Topology, window: Sequence[TrafficMatrix],
                 cfg: MwConfig = MwConfig()) -> Scheme:
    """Base paths from solving the demand envelope of a window.

    The returned scheme's weights are the envelope solution's weights; they
    are meant to be re-solved per traffic matrix with semi_mcf at run time.
    """
    return mcf_mw(topo, demand_envelope(window), cfg).scheme


def semi_mcf_ft_env(topo: Topology, window: Sequence[TrafficMatrix],
                    failure_set: Iterable[tuple[str, str]] | None = None,
                    cfg: MwConfig = MwConfig()) -> Scheme:
    """Failure-tolerant base paths: union of envelope solutions across
    single-link failure scenarios (plus the intact topology), with uniform
    initial weights over each pair's union set.

    By default every switch link is a scenario except the bridges, whose
    failure disconnects the network and so leaves no routing to union.  A
    bridge in an explicit ``failure_set`` raises DisconnectedScenarioError.
    """
    links = topo.links() if failure_set is None else failure_set
    scenarios: list[tuple[tuple[str, str], ...]] = [()]
    scenarios += [((a, b) if a < b else (b, a),) for (a, b) in links]

    union: dict[tuple[str, str], set[Path]] = {}
    for scenario in scenarios:
        try:
            reduced = topo.without_links(scenario)
        except TopologyError:
            if failure_set is None:
                continue
            raise DisconnectedScenarioError(scenario[0]) from None
        part = semi_mcf_env(reduced, window, cfg)
        for pair, dist in part.items():
            union.setdefault(pair, set()).update(dist)

    scheme: Scheme = {}
    for pair, paths in union.items():
        share = 1.0 / len(paths)
        scheme[pair] = {p: share for p in sorted(paths)}
    return scheme


def optimal_mcf_step(topo_current: Topology, tm_actual: TrafficMatrix,
                     cfg: MwConfig = MwConfig()) -> FlowSolution:
    """Omniscient baseline: re-solve on the current (possibly
    failure-reduced) topology with the actual, unpredicted demands."""
    return mcf_mw(topo_current, tm_actual, cfg)
