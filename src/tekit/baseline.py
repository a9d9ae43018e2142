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
from typing import Mapping

from . import graphops
from .model import Path, Scheme, Topology, lift, normalized

#: shortest loopless paths ``ksp`` keeps per pair by default
KSP_PATHS = 4


def _shortest(topo: Topology) -> tuple[Mapping[str, int], list, list]:
    """Every switch's shortest-path tree under latency weights.

    Returns the switch ids (they number ``topo.switches``) and, for each
    switch id, the tree's paths by target id twice: as id tuples, in the
    order Dijkstra settled them (a node after its parent), and as names.
    """
    graph = graphops.weighted(graphops.switch_graph(topo),
                              graphops.weight_lengths(topo))
    names = graph.names
    trees = [graphops.dijkstra(graph, s)[1] for s in range(len(names))]
    return graph.ids, trees, [
        {t: tuple(names[u] for u in p) for t, p in tree.items()}
        for tree in trees]


def _uniform(paths: list[Path]) -> dict[Path, float]:
    share = 1.0 / len(paths)
    return {p: share for p in paths}


def spf(topo: Topology) -> Scheme:
    """One shortest path per pair, probability 1: every budget keeps it."""
    ids, _, paths = _shortest(topo)
    return lift(topo, lambda s, d: {paths[ids[s]][ids[d]]: 1.0})


def ecmp(topo: Topology, budget: int | None = None) -> Scheme:
    """Every minimum-cost simple path per pair, uniform probabilities
    (before the budget cut)."""
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    rgraph = graphops.reversed_graph(graphops.weighted(adj, lengths))
    names = rgraph.names
    dist_to = {d: {names[u]: c for u, c in graphops.dijkstra(rgraph, t)[0]
                   .items()} for t, d in enumerate(names)}
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
    visits.  Q is T's branch of i's shortest-path tree, so a is a running
    minimum of P's positions down that tree, and b is the meeting node's
    depth in it; one pass over i's tree joins P to every target.
    Concatenations that collapse to the same simple path merge by summing
    their probability shares.  Pairs with no available intermediate (same
    switch, or a two-switch network) fall back to the direct shortest path.
    """
    ids, trees, paths = _shortest(topo)
    n = len(ids)
    # each tree's (node, parent, depth) below its root, parents first
    below = [[(t, p[-2], len(p) - 1) for t, p in tree.items() if t != i]
             for i, tree in enumerate(trees)]

    @functools.lru_cache(maxsize=1)
    def joins_from(s: int) -> list[list[tuple[int, int]]]:
        """(a, b) for every intermediate i and target d, by ids."""
        out: list = []
        for i in range(n):
            if i == s:
                out.append(None)
                continue
            at = {u: k for k, u in enumerate(trees[s][i])}
            join: list = [None] * n
            join[i] = (len(at) - 1, 0)
            for t, p, depth in below[i]:
                k = at.get(t)
                join[t] = (join[p] if k is None or k > join[p][0]
                           else (k, depth))
            out.append(join)
        return out

    def route(s: str, d: str) -> dict[Path, float]:
        s, d = ids[s], ids[d]
        if n < 3:
            return {paths[s][d]: 1.0}
        share = 1.0 / (n - 2)
        heads, joins = paths[s], joins_from(s)
        dist: dict[Path, float] = {}
        for i in range(n):
            if i != s and i != d:
                a, b = joins[i][d]
                path = heads[i][:a] + paths[i][d][b:]
                dist[path] = dist.get(path, 0.0) + share
        return normalized(dist)

    return lift(topo, route, budget)
