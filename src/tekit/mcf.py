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

Both solvers are one pipeline: they turn the matrix into commodities
(the pairs with positive demand, each divided by their total), run the
shared array-based core, and hand its shares to one finisher that evaluates
the scheme exactly and raises PhaseLimitError, with the solution attached,
if the gap was not certified.  An iteration asks an *oracle* for the
index of one candidate path per commodity and for the switch-edge indices
those paths cross; the core adds one to each chosen path's entry of an
integer count vector and accumulates edge load with ``np.bincount``.  The
best averaged iterate is a copy of the count vector, and its path shares
per commodity, together with the lower bound in demand units, are the
core's result.  The two oracles differ only in where paths come from:

* ``mcf_mw`` runs a Dijkstra per source switch over the whole switch graph
  and appends each path it has not returned before to its candidate list
  (column generation), so paths enter as the weights discover them;
* ``semi_mcf`` flattens a fixed base path set into switch-edge index
  arrays once and picks each pair's shortest base path with one
  (paths x edges) product and a segment minimum (``np.minimum.reduceat``),
  which is how fixed-path schemes get their sending rates re-balanced as
  demands evolve.

The rate of the weight update follows a halving schedule.  A solve
starts at ``MW_ETA_START``, which moves the weights fast; once the
averaged flow has stalled for ``MW_STALL_ITERATIONS`` iterations the rate
halves, down to half the requested accuracy, and the average restarts
from the next iteration (a new epoch), so it no longer carries the coarse
early routings.  The weights, the best bound and the best averaged iterate
so far carry across epochs.  The certificate does not change: the bound
holds for any positive weights, and every epoch's average is a feasible
flow.

A caller that solves a sequence of matrices (``algorithms.SchemeDriver``)
passes a ``WarmStart``: each solve then starts from the previous certified
solve's final weights, mixed with a uniform share, as long as both saw the
same usable switch edges.  A solve without one starts from uniform weights.

Floating-point results depend on a few orders, and each is fixed.  Switch
edges are indexed in sorted order (not ``topo.edges`` order): the edge
lengths, loads and the maximum utilization are computed over that index,
so changing it changes iteration counts.  Load is summed per edge in
commodity order, the lower bound is a sequential sum in commodity order,
and each pair's output distribution lists its paths in the order they were
first chosen in the solve, across epochs, before it is normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import graphops
from .baseline import spf
from .model import (Path, Scheme, Topology, TopologyError, TrafficMatrix,
                    attach_stubs, normalized, path_edges)


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
    iterations: int = 0
    lower_bound: float = 0.0


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


def _finish(topo: Topology, scheme: Scheme, tm: TrafficMatrix,
            cfg: MwConfig, iterations: int = 0, lower_bound: float = 0.0,
            converged: bool = True) -> FlowSolution:
    """The scheme evaluated exactly under ``tm``, or PhaseLimitError
    carrying that solution if the loop stopped before certifying the gap."""
    max_c, util = evaluate_scheme(topo, scheme, tm)
    sol = FlowSolution(scheme, max_c, util, iterations, lower_bound)
    if not converged:
        raise PhaseLimitError(
            f"no certificate after {cfg.max_phases} phases "
            f"(ub={max_c:.4g})", sol)
    return sol


#: Multiplicative-weights rate at the start of a solve.  A large rate
#: moves the weights fast early on, but its averaged flow stalls short of
#: a tight gap, so the rate halves on a stall (``MW_STALL_ITERATIONS``).
MW_ETA_START = 1.0

#: Iterations after which a solve whose averaged flow has not fallen by a
#: relative 1e-3 below its epoch's best halves its rate, down to half the
#: requested accuracy, and restarts the average (a new epoch).
MW_STALL_ITERATIONS = 50

#: Uniform share of a warm start: carried weights w start a solve at
#: (1 - s) * w / sum(w) + s / m over the m switch edges.  Every start
#: weight is then at least s / m, so the KL divergence of any target
#: weights from the start is at most ln(m / s), ln(1 / s) above the
#: uniform start's ln m (the fixed-share update of Herbster and Warmuth,
#: 1998).  With s = 0 a chain of solves can drift into weights from which
#: it stalls.
MW_START_UNIFORM = 0.1


class WarmStart:
    """The final edge weights of one certified solve, carried into the
    next solve of the same solver.

    A solver given a ``WarmStart`` starts from the carried weights, mixed
    with ``MW_START_UNIFORM``, if they were learnt over the same usable
    switch edges (``edges``), and uniformly otherwise.  It then leaves its
    own final weights here, or nothing if it stopped at its phase limit.
    Each caller that chains solves owns its own carry.
    """

    def __init__(self):
        self.edges = None
        self.weights: np.ndarray | None = None

    def start(self, edges) -> np.ndarray | None:
        """The start for a solve over ``edges``; None for uniform."""
        if self.weights is None or edges != self.edges:
            return None
        w = self.weights / self.weights.sum()
        return (1.0 - MW_START_UNIFORM) * w + MW_START_UNIFORM / len(w)


def _switch_edges(topo: Topology
                  ) -> tuple[dict[tuple[str, str], int], np.ndarray]:
    """Each switch edge's position in sorted order, and the capacities in
    that order."""
    edges = sorted(topo.switch_edges)
    return ({e: i for i, e in enumerate(edges)},
            np.array([topo.edges[e].capacity for e in edges]))


def _mw_core(cap: np.ndarray, demand: np.ndarray, d_ref: float,
             paths: list[Path], owner: list[int], oracle, cfg: MwConfig,
             warm: WarmStart | None = None, edges=None
             ) -> tuple[list[dict[Path, float]], int, float, bool]:
    """Shared multiplicative-weights loop, with the halving rate schedule
    of the module docstring.

    ``cap`` holds the switch-edge capacities, ``demand`` the demand per
    commodity divided by their total ``d_ref``.  Candidate path ``k`` is
    ``paths[k]`` and serves commodity ``owner[k]``.  ``oracle`` maps the
    current edge lengths to (the index of each commodity's shortest path,
    its length, the switch-edge indices of those paths joined in commodity
    order, each one's hop count); it may append new paths to ``paths`` and
    ``owner`` first.  Returns each commodity's path shares in the best
    averaged iterate, the iterations run, the certified lower bound in
    demand units, and whether the gap was certified.  With ``warm`` the
    loop starts from its weights for the usable switch edges ``edges`` and
    hands its final weights back to it.

    The bound stays valid from any start: for positive weights w, the
    demand-weighted shortest-path lengths under w / c over sum(c * w)
    bound every routing's maximum utilization from below (weak duality).
    """
    m = len(cap)
    chat = cap / cap.max()
    start = None if warm is None else warm.start(edges)
    w = np.full(m, 1.0 / m) if start is None else start
    load_sum = np.zeros(m)
    counts = np.zeros(len(paths), dtype=np.int64)
    first = np.zeros(len(paths), dtype=np.int64)
    best_ub, best_counts, best_t = math.inf, counts, 0
    best_lb = 0.0
    grow = 1.0 + cfg.accuracy
    eta, floor = MW_ETA_START, cfg.accuracy / 2
    n = 0  # iterations in the current epoch
    # the epoch's ub when it last fell by a relative 1e-3, and the
    # iterations since
    mark, since = math.inf, 0

    for t in range(1, cfg.max_phases + 1):
        chosen, dist, hops, size = oracle(w / chat)
        # sequential sums in commodity order keep the float results fixed
        lb = float(np.cumsum(demand * dist)[-1])
        best_lb = max(best_lb, lb)
        if len(paths) > len(counts):
            pad = (0, len(paths) - len(counts))
            counts, first = np.pad(counts, pad), np.pad(first, pad)
        first[chosen[first[chosen] == 0]] = t
        counts[chosen] += 1
        n += 1
        load = np.bincount(hops, weights=np.repeat(demand, size), minlength=m)
        load_sum += load
        ub = float((load_sum / chat).max() / n)
        if ub < best_ub:
            best_ub, best_counts, best_t = ub, counts.copy(), n
        if best_ub <= grow * best_lb:
            break
        if ub < mark * (1.0 - 1e-3):
            mark, since = ub, 0
        else:
            since += 1
        if since >= MW_STALL_ITERATIONS and eta > floor:
            # a new epoch averages afresh from the weights reached so far
            eta = max(eta / 2, floor)
            n, mark, since = 0, math.inf, 0
            load_sum = np.zeros(m)
            counts = np.zeros_like(counts)
        w = w * np.exp(np.minimum(load / chat, 1000.0) * math.log1p(eta))
        w /= w.sum()

    converged = best_ub <= grow * best_lb
    if warm is not None:
        warm.edges, warm.weights = edges, w if converged else None
    # each commodity lists its paths in the order they were first chosen
    # in the solve (not the epoch), so ``normalized`` sums the shares in a
    # fixed order
    used = np.flatnonzero(best_counts)
    order = used[np.lexsort((first[used], np.asarray(owner)[used]))]
    shares: list[dict[Path, float]] = [{} for _ in demand]
    for i, c in zip(order.tolist(), best_counts[order].tolist()):
        shares[owner[i]][paths[i]] = c / best_t
    return ([normalized(dist) for dist in shares], t,
            best_lb * d_ref / float(cap.max()), converged)


def mcf_mw(topo: Topology, tm: TrafficMatrix, cfg: MwConfig = MwConfig(),
           warm: WarmStart | None = None) -> FlowSolution:
    """Fractional flow minimizing the maximum link utilization.

    Demands are aggregated per switch pair and routed freely over the switch
    graph.  Pairs with zero demand receive their shortest path with
    probability 1 so every consumer downstream sees full pair coverage.
    Raises PhaseLimitError (solution attached) if the certificate is not
    reached within max_phases.  With ``warm`` the solve starts from the
    weights it carries if they were learnt over the same switch edges.
    """
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
        return _finish(topo, scheme, tm, cfg)

    d_ref = sum(demands.values())
    keys = sorted(demands)
    commodity = {key: j for j, key in enumerate(keys)}
    demand = np.array([demands[key] / d_ref for key in keys])
    edge_index, cap = _switch_edges(topo)
    names = topo.switches  # a switch's id is its index here
    ids = {u: i for i, u in enumerate(names)}
    # each switch's out-edges as (neighbour id, edge index): every
    # iteration reads the lengths into the weighted adjacency through them
    out_edges = [[(ids[v], edge_index[(u, v)]) for v in topo.switch_adj(u)]
                 for u in names]
    # sources and their targets in id order visit the commodities in
    # commodity order
    sources = sorted({ids[s] for (s, _) in keys})
    targets = {s: [ids[d] for (s2, d) in keys if ids[s2] == s]
               for s in sources}
    # every path found so far (by its ids in ``known``), the commodity it
    # serves and its edge indices
    paths: list[Path] = []
    owner: list[int] = []
    path_hops: list[list[int]] = []
    known: dict[tuple[int, ...], int] = {}

    def oracle(lengths):
        lens = lengths.tolist()
        graph = graphops.Weighted(names, ids, tuple(
            [(v, lens[e]) for v, e in out] for out in out_edges))
        chosen, dists, hops, size = [], [], [], []
        for s in sources:
            dist, best = graphops.dijkstra(graph, s)
            for d in targets[s]:
                k = known.get(best[d])
                if k is None:
                    k = known[best[d]] = len(paths)
                    path = tuple(names[u] for u in best[d])
                    paths.append(path)
                    owner.append(commodity[(names[s], names[d])])
                    path_hops.append([edge_index[h] for h in path_edges(path)])
                chosen.append(k)
                dists.append(dist[d])
                hops += path_hops[k]
                size.append(len(path_hops[k]))
        return (np.array(chosen, dtype=np.intp), np.array(dists),
                np.array(hops, dtype=np.intp), np.array(size, dtype=np.intp))

    shares, *certificate = _mw_core(cap, demand, d_ref, paths, owner, oracle,
                                    cfg, warm, tuple(edge_index))
    for pair, sw_key in pair_sw.items():
        scheme[pair] = normalized({attach_stubs(*pair, p): v for p, v
                                   in shares[commodity[sw_key]].items()})
    return _finish(topo, scheme, tm, cfg, *certificate)


def semi_mcf(topo: Topology, tm: TrafficMatrix, base: Scheme,
             cfg: MwConfig = MwConfig(), warm: WarmStart | None = None
             ) -> FlowSolution:
    """Re-balance sending rates over a fixed base path set.

    Same objective and certificate as mcf_mw, but each pair may only use its
    base paths, so the output's path set per pair is a subset of the base.
    Pairs with zero demand keep their base distribution unchanged.  With
    ``warm`` the solve starts from the weights it carries if they were
    learnt over the same switch edges and the same edges of the paths of
    the pairs with demand.
    """
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
        return _finish(topo, scheme, tm, cfg)

    # Strip host stubs for length computation: stubs are shared by all of a
    # pair's paths, so they never affect the choice.  Path lengths for every
    # candidate are computed in one (paths x edges) matrix product.
    edge_index, cap = _switch_edges(topo)
    pairs = sorted(pair for pair in base if tm.get(*pair) > 0)
    demand = np.array([tm.get(*pair) / d_ref for pair in pairs])
    # path k serves pair owner[k] and crosses the switch edges
    # hops[start[k]:start[k] + size[k]]
    paths = [path for pair in pairs for path in sorted(base[pair])]
    owner = [j for j, pair in enumerate(pairs) for _ in base[pair]]
    path_hops = [[edge_index[h] for h in path_edges(path) if h in edge_index]
                 for path in paths]
    size = np.array([len(h) for h in path_hops], dtype=np.intp)
    hops = np.array([e for h in path_hops for e in h], dtype=np.intp)
    start = np.cumsum(size) - size
    if hops.size == 0:  # no commodity crosses a switch link
        scheme.update((pair, normalized(base[pair])) for pair in pairs)
        return _finish(topo, scheme, tm, cfg)
    incidence = np.zeros((len(paths), len(cap)))
    incidence[np.repeat(np.arange(len(paths)), size), hops] = 1.0
    group_size = np.bincount(owner)
    starts = np.cumsum(group_size) - group_size
    index = np.arange(len(paths))

    def oracle(lengths):
        plens = incidence @ lengths
        at_min = plens == np.repeat(np.minimum.reduceat(plens, starts),
                                    group_size)
        # first shortest path of each pair, as np.argmin would pick
        chosen = np.minimum.reduceat(np.where(at_min, index, len(paths)),
                                     starts)
        n = size[chosen]
        ends = np.cumsum(n)
        return (chosen, plens[chosen],
                hops[np.arange(ends[-1]) + np.repeat(start[chosen] - ends + n,
                                                     n)], n)

    # a Python set: building it with np.unique raised a run's peak memory
    usable = (None if warm is None
              else (tuple(edge_index), frozenset(hops.tolist())))
    shares, *certificate = _mw_core(cap, demand, d_ref, paths, owner, oracle,
                                    cfg, warm, usable)
    scheme.update(zip(pairs, shares))
    return _finish(topo, scheme, tm, cfg, *certificate)


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


def semi_mcf_ft_env(topo: Topology, window: Sequence[TrafficMatrix],
                    cfg: MwConfig = MwConfig()) -> Scheme:
    """Failure-tolerant base paths: union of envelope solutions across
    single-link failure scenarios (plus the intact topology), with uniform
    initial weights over each pair's union set.

    Every switch link is a scenario except the bridges, whose failure
    disconnects the network and so leaves no routing to union.  A scenario
    that stops at its phase limit adds its best-so-far paths; if any
    stopped, one PhaseLimitError carries the whole union, evaluated on the
    intact topology under the window's envelope.
    """
    envelope = demand_envelope(window)
    union: dict[tuple[str, str], set[Path]] = {}
    solved = 0
    stopped: list[PhaseLimitError] = []
    for scenario in [()] + [(link,) for link in topo.links()]:
        try:
            reduced = topo.without_links(scenario)
        except TopologyError:
            continue
        solved += 1
        try:
            part = mcf_mw(reduced, envelope, cfg).scheme
        except PhaseLimitError as exc:
            stopped.append(exc)
            part = exc.solution.scheme
        for pair, dist in part.items():
            union.setdefault(pair, set()).update(dist)

    scheme: Scheme = {pair: {p: 1.0 / len(paths) for p in sorted(paths)}
                      for pair, paths in union.items()}
    if stopped:
        raise PhaseLimitError(
            f"{len(stopped)} of {solved} scenarios stopped, the first: "
            f"{stopped[0]}", _finish(topo, scheme, envelope, cfg))
    return scheme
