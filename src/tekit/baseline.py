"""Oblivious baseline path selectors: SPF, ECMP, KSP and load-balanced
routing through random intermediates (VLB).

All four consume only the topology (never demands) and route switch pairs
on the switch subgraph under latency weights; ``model.lift`` cuts each
switch pair to the optional path ``budget`` (``spf`` needs none) and
attaches the host stubs.  Outputs are deterministic: equal-cost
alternatives are resolved by hop count and then lexicographic node
sequence.
"""

from __future__ import annotations

import functools

from . import graphops
from .model import Path, Scheme, Topology, lift, normalized

#: shortest loopless paths ``ksp`` keeps per pair by default
KSP_PATHS = 4


def _shortest(topo: Topology) -> dict[str, dict[str, Path]]:
    """Shortest path from every switch to every switch, latency weights."""
    graph = graphops.weighted(graphops.switch_graph(topo),
                              graphops.weight_lengths(topo))
    return {s: graphops.dijkstra(graph, s)[1] for s in topo.switches}


def _uniform(paths: list[Path]) -> dict[Path, float]:
    share = 1.0 / len(paths)
    return {p: share for p in paths}


def spf(topo: Topology) -> Scheme:
    """One shortest path per pair, probability 1: every budget keeps it."""
    best = _shortest(topo)
    return lift(topo, lambda s, d: {best[s][d]: 1.0})


def ecmp(topo: Topology, budget: int | None = None) -> Scheme:
    """Every minimum-cost simple path per pair, uniform probabilities
    (before the budget cut)."""
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    rgraph = graphops.reversed_graph(graphops.weighted(adj, lengths))
    dist_to = {d: graphops.dijkstra(rgraph, d)[0] for d in topo.switches}
    return lift(topo, lambda s, d: _uniform(graphops.min_cost_paths(
        adj, lengths, s, d, dist_to[d])), budget)


def ksp(topo: Topology, k: int = KSP_PATHS, budget: int | None = None
        ) -> Scheme:
    """The k shortest loopless paths per pair, uniform probabilities
    (before the budget cut, which keeps the lexicographically smallest).

    Pairs with fewer than k distinct simple paths keep what exists.  Yen
    runs once per source switch, over every switch that serves a host, so
    a source's targets share their spur searches.  ``lift`` asks for a
    source's pairs in a row, so a one-entry cache holds the paths.
    """
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    served = list(dict.fromkeys(topo.host_switch(h) for h in topo.hosts))

    @functools.lru_cache(maxsize=1)
    def paths_from(s: str) -> dict[str, list[Path]]:
        return graphops.k_shortest_paths(
            adj, lengths, s, [t for t in served if t != s], k)

    return lift(topo, lambda s, d: _uniform(paths_from(s)[d]), budget)


def vlb(topo: Topology, budget: int | None = None) -> Scheme:
    """Route via every possible intermediate switch, splitting uniformly.

    For a pair on switches (S, T), each intermediate i not in {S, T}
    contributes the concatenation of the shortest S->i and i->T paths,
    loop-shortcut to a simple path.  Both halves are simple, so the
    shortcut is the join ``P[:a] + Q[b:]`` at the first node of P that Q
    visits; each shortest path's position map is built once.
    Concatenations that collapse to the same simple path merge by summing
    their probability shares.  Pairs with no available intermediate (same
    switch, or a two-switch network) fall back to the direct shortest path.
    """
    best = _shortest(topo)
    at = {i: {d: graphops.positions(q) for d, q in row.items()}
          for i, row in best.items()}

    def route(s: str, d: str) -> dict[Path, float]:
        intermediates = [i for i in topo.switches if i not in (s, d)]
        if not intermediates:
            return {best[s][d]: 1.0}
        share = 1.0 / len(intermediates)
        dist: dict[Path, float] = {}
        for i in intermediates:
            head = best[s][i]
            a, b = graphops.meet(head, at[i][d])
            path = head[:a] + best[i][d][b:]
            dist[path] = dist.get(path, 0.0) + share
        return normalized(dist)

    return lift(topo, route, budget)
