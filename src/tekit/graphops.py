"""Shortest-path machinery over the switch subgraph.

Everything here works on a lightweight adjacency view so callers can route
under arbitrary per-edge length functions (the tree-distribution construction
and the congestion solver both reroute under evolving lengths).  Ties are
always broken by (cost, hop count, node sequence) so identical inputs yield
identical paths on any platform.

No search copies the graph, and ``dijkstra`` is the one search: the
builders and the congestion solver's oracle call it plain, Yen's
``k_shortest_paths`` with banned nodes and edges.  It runs on integer
node ids numbered in sorted-name order, so comparing id sequences orders
paths exactly as comparing name sequences does.  It walks a *weighted
adjacency* (``weighted``): each node's (neighbour id, length) pairs, built
once per length function, so the search looks up no length by its edge
key and hashes no name.  Yen runs once per source: a spur search depends
on the spur node, the banned root nodes and the banned next hops but not
on the target, so all of the source's targets share each restricted
search.  ``min_cost_paths`` takes the target's distance map, so a caller
routing every pair runs one Dijkstra per node, not one per pair.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, NamedTuple

from .model import Path, Topology, UnreachablePair

Lengths = Mapping[tuple[str, str], float]


class Weighted(NamedTuple):
    """The adjacency ``dijkstra`` walks.  A node's id is its index in
    ``names``, which is sorted; ``arcs[u]`` holds node u's (neighbour id,
    edge length) pairs in adjacency order."""

    names: tuple[str, ...]
    ids: Mapping[str, int]
    arcs: tuple[tuple[tuple[int, float], ...], ...]


def switch_graph(topo: Topology) -> dict[str, tuple[str, ...]]:
    """Adjacency restricted to switches."""
    return {s: topo.switch_adj(s) for s in topo.switches}


def unit_lengths(topo: Topology) -> dict[tuple[str, str], float]:
    return {k: 1.0 for k in topo.switch_edges}


def weight_lengths(topo: Topology) -> dict[tuple[str, str], float]:
    """Latency weights as lengths (switch-switch edges only)."""
    return {k: topo.edges[k].weight for k in topo.switch_edges}


def inverse_capacity_lengths(topo: Topology) -> dict[tuple[str, str], float]:
    return {k: 1.0 / topo.edges[k].capacity for k in topo.switch_edges}


def weighted(adj: Mapping[str, Iterable[str]], lengths: Lengths) -> Weighted:
    """The weighted adjacency of ``adj`` under ``lengths``: each node's
    neighbours in adjacency order, each with the length of the edge to
    it."""
    names = tuple(sorted(adj))
    ids = {u: i for i, u in enumerate(names)}
    return Weighted(names, ids, tuple(
        tuple((ids[v], lengths[(u, v)]) for v in adj[u]) for u in names))


def dijkstra(graph: Weighted, source: int, banned_nodes: Iterable[int] = (),
             banned_edges: Iterable[tuple[int, int]] = ()
             ) -> tuple[dict[int, float], dict[int, tuple[int, ...]]]:
    """Single-source shortest paths from node id ``source`` with
    deterministic tie-breaking, never entering a banned node or following
    a banned directed edge.  A banned source raises ``ValueError``.

    Returns (distance, best_path) maps by node id, paths as id tuples;
    unreachable nodes are missing.  A heap entry is (cost, hops, parent's
    path, node): equal-hop entries have equal-length parent paths, so they
    compare exactly as their full paths would, and equal-cost alternatives
    resolve by hop count and then lexicographic id sequence, which is the
    name sequence's order.  An entry is pushed only when it beats the
    node's current tentative one, and a node's path is built once, at its
    first pop, the minimum (cost, hops, sequence) entry, so a search
    stopped there would return the same path.
    """
    arcs = graph.arcs
    done = [False] * len(arcs)  # settled or banned
    for u in banned_nodes:
        done[u] = True
    if done[source]:
        raise ValueError(f"source {graph.names[source]} is banned")
    cut: dict[int, set[int]] = {}  # node -> heads of its banned edges
    for u, v in banned_edges:
        cut.setdefault(u, set()).add(v)
    tentative: list = [None] * len(arcs)
    dist: dict[int, float] = {}
    best: dict[int, tuple[int, ...]] = {}
    heap: list[tuple[float, int, tuple[int, ...], int]] = [
        (0.0, 1, (), source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, nhops, parent, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        dist[u] = d
        best[u] = path = parent + (u,)
        nhops += 1
        out = arcs[u]
        if u in cut:
            out = [a for a in out if a[0] not in cut[u]]
        for v, w in out:
            if not done[v]:
                entry = (d + w, nhops, path, v)
                t = tentative[v]
                if t is None or entry < t:
                    tentative[v] = entry
                    push(heap, entry)
    return dist, best


def reversed_graph(graph: Weighted) -> Weighted:
    """The weighted adjacency with every edge turned around: a Dijkstra
    from t over it gives every node's distance to t."""
    arcs: list[list[tuple[int, float]]] = [[] for _ in graph.arcs]
    for u, out in enumerate(graph.arcs):
        for v, w in out:
            arcs[v].append((u, w))
    return Weighted(graph.names, graph.ids, tuple(map(tuple, arcs)))


def min_cost_paths(adj, lengths: Lengths, source: str, target: str,
                   dist_to: Mapping[str, float]) -> list[Path]:
    """All simple paths from source to target achieving the minimum cost.

    ``dist_to`` holds the distances to ``target`` (``dijkstra`` from it
    over ``reversed_graph``), so a caller routing every pair searches once
    per node.  Works by depth-first search constrained to moves that keep
    the optimal completion cost reachable; a visited set keeps paths simple
    even in the presence of zero-length edges.
    """
    if source not in dist_to:
        raise UnreachablePair(f"no route {source} -> {target}")
    total = dist_to[source]
    eps = 1e-12 * max(1.0, abs(total))

    out: list[Path] = []

    def extend(path: list[str], cost: float, seen: set[str]) -> None:
        node = path[-1]
        if node == target:
            out.append(tuple(path))
            return
        for nbr in sorted(adj[node]):
            if nbr in seen:
                continue
            c = cost + lengths[(node, nbr)]
            if nbr in dist_to and c + dist_to[nbr] <= total + eps:
                seen.add(nbr)
                path.append(nbr)
                extend(path, c, seen)
                path.pop()
                seen.remove(nbr)

    extend([source], 0.0, {source})
    out.sort(key=lambda p: (len(p), p))
    return out


def k_shortest_paths(adj, lengths: Lengths, source: str,
                     targets: Iterable[str], k: int) -> dict[str, list[Path]]:
    """Yen's algorithm from one source: each target's k shortest loopless
    paths, ordered by (cost, hop count, node sequence).

    Targets with fewer than k loopless paths keep what exists; an
    unreachable target raises ``UnreachablePair``.  The targets run in
    order and share one memo from (spur, banned root nodes, banned next
    hops) to that restricted search's paths; it lives for this call.
    Paths stay id tuples until they are found; a candidate's cost is the
    left fold of its edge lengths, continued from its root's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    graph = weighted(adj, lengths)
    names = graph.names
    length = {(u, v): w for u, out in enumerate(graph.arcs) for v, w in out}
    searches: dict[tuple[int, frozenset[int], frozenset[int]],
                   dict[int, tuple[int, ...]]] = {}

    def search(spur: int, banned_nodes: frozenset[int],
               banned_next: frozenset[int]) -> dict[int, tuple[int, ...]]:
        key = (spur, banned_nodes, banned_next)
        paths = searches.get(key)
        if paths is None:
            paths = searches[key] = dijkstra(
                graph, spur, banned_nodes, [(spur, v) for v in banned_next])[1]
        return paths

    def fold(cost: float, path: tuple[int, ...]) -> float:
        for u, v in zip(path, path[1:]):
            cost += length[(u, v)]
        return cost

    first = search(graph.ids[source], frozenset(), frozenset())
    out: dict[str, list[Path]] = {}
    for target in targets:
        t = graph.ids[target]
        if t not in first:
            raise UnreachablePair(f"no route {source} -> {target}")
        path = first[t]
        found: list[tuple[float, int, tuple[int, ...]]] = [
            (fold(0, path), len(path), path)]
        candidates: list[tuple[float, int, tuple[int, ...]]] = []
        seen_candidates = {path}

        while len(found) < k:
            _, _, prev = found[-1]
            cost = 0  # the root's cost
            for i in range(len(prev) - 1):
                if i:
                    cost += length[(prev[i - 1], prev[i])]
                root = prev[:i + 1]
                banned_next = frozenset(p[i + 1] for (_, _, p) in found
                                        if p[:i + 1] == root)
                spur_path = search(prev[i], frozenset(root[:-1]),
                                   banned_next).get(t)
                if spur_path is None:
                    continue
                candidate = root[:-1] + spur_path
                if candidate not in seen_candidates:
                    seen_candidates.add(candidate)
                    heapq.heappush(candidates, (fold(cost, spur_path),
                                                len(candidate), candidate))
            if not candidates:
                break
            found.append(heapq.heappop(candidates))
        out[target] = [tuple(names[u] for u in p) for (_, _, p) in found]
    return out


def path_cost(lengths: Lengths, path: Path) -> float:
    return sum(lengths[(path[i], path[i + 1])] for i in range(len(path) - 1))


def positions(walk: Path) -> dict[str, int]:
    """Each node's last index in a walk."""
    return {node: i for i, node in enumerate(walk)}


def meet(head: Path, at: Mapping[str, int], start: int = 0
         ) -> tuple[int, int]:
    """Where ``shortcut`` joins a simple ``head`` to a walk B that starts at
    ``head[-1]``, given ``at = positions(W)`` for a walk W with
    ``B == W[start:]``: the first index a of head whose node B visits, and
    that node's last index j in W.  Then ``shortcut(head + B[1:]) ==
    head[:a] + shortcut(W[j:])``: head's nodes before a never recur, and
    the erasure leaves each node at its last visit."""
    for a, node in enumerate(head):
        j = at.get(node, -1)
        if j >= start:
            return a, j
    raise ValueError("the walk does not start on head")


def erased_suffixes(walk: Path, at: Mapping[str, int]) -> dict[int, Path]:
    """``shortcut(walk[j:])`` for every j that is its node's last index
    (``at = positions(walk)``).  Such a node never recurs, so its erased
    suffix is the node followed by the erased suffix from the last visit
    of the next node."""
    last = len(walk) - 1
    out = {last: walk[last:]}
    for j in range(last - 1, -1, -1):
        if at[walk[j]] == j:
            out[j] = (walk[j],) + out[at[walk[j + 1]]]
    return out


def shortcut(path: Path) -> Path:
    """Remove loops from a walk in one pass: whenever a node repeats, cut
    the walk back to that node's earlier occurrence.  Never lengthens the
    walk or adds edges that were not already present."""
    out: list[str] = []
    at: dict[str, int] = {}
    for node in path:
        i = at.get(node)
        if i is None:
            at[node] = len(out)
            out.append(node)
        else:
            for dropped in out[i + 1:]:
                del at[dropped]
            del out[i + 1:]
    return tuple(out)
