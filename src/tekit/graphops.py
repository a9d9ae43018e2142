"""Shortest-path machinery over the switch subgraph.

Everything here works on a lightweight adjacency view so callers can route
under arbitrary per-edge length functions (the tree-distribution construction
and the congestion solver both reroute under evolving lengths).  Ties are
always broken by (cost, hop count, node sequence) so identical inputs yield
identical paths on any platform.

No search copies the graph, and ``dijkstra`` is the one search: the
congestion solver's oracle calls it plain, Yen's ``k_shortest_paths``
with banned nodes and edges.  It walks a *weighted adjacency*
(``weighted``): each node's (neighbour, length) pairs, built once per
length function, so the search looks up no length by its edge key.  Yen
runs once per source: a spur search depends on the spur node, the banned
root nodes and the banned next hops but not on the target, so all of the
source's targets share each restricted search.  ``min_cost_paths`` takes
the target's distance map, so a caller routing every pair runs one
Dijkstra per node, not one per pair.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from .model import Path, Topology, UnreachablePair

Lengths = Mapping[tuple[str, str], float]
#: node -> its (neighbour, edge length) pairs
Weighted = Mapping[str, Iterable[tuple[str, float]]]


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


def weighted(adj: Mapping[str, Iterable[str]], lengths: Lengths
             ) -> dict[str, tuple[tuple[str, float], ...]]:
    """The weighted adjacency ``dijkstra`` walks: each node's neighbours in
    adjacency order, each with the length of the edge to it."""
    return {u: tuple((v, lengths[(u, v)]) for v in vs)
            for u, vs in adj.items()}


def dijkstra(graph: Weighted, source: str,
             banned_nodes: Iterable[str] = (),
             banned_edges: Iterable[tuple[str, str]] = ()
             ) -> tuple[dict[str, float], dict[str, Path]]:
    """Single-source shortest paths with deterministic tie-breaking,
    never entering a banned node or following a banned directed edge (the
    source itself must not be banned).

    Returns (distance, best_path) maps; unreachable nodes are missing.  A
    heap entry is (cost, hops, parent's path, node): equal-hop entries have
    equal-length parent paths, so they compare exactly as their full paths
    would, and equal-cost alternatives resolve by hop count and then
    lexicographic node sequence.  A node's path is built once, at its
    first pop, the minimum (cost, hops, sequence) entry, so a search
    stopped there would return the same path.
    """
    dist: dict[str, float] = {}
    best: dict[str, Path] = {}
    banned = frozenset(banned_nodes)
    # each node's neighbours not to enter: the banned nodes, plus the heads
    # of its banned edges
    skips: dict[str, set[str]] = {}
    for u, v in banned_edges:
        skips.setdefault(u, set(banned)).add(v)
    heap: list[tuple[float, int, Path, str]] = [(0.0, 1, (), source)]
    while heap:
        d, nhops, parent, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        best[node] = path = parent + (node,)
        skip = skips.get(node, banned)
        for nbr, w in graph[node]:
            if nbr not in dist and nbr not in skip:
                heapq.heappush(heap, (d + w, nhops + 1, path, nbr))
    return dist, best


def reversed_graph(graph: Weighted) -> dict[str, list[tuple[str, float]]]:
    """The weighted adjacency with every edge turned around: a Dijkstra
    from t over it gives every node's distance to t."""
    rgraph: dict[str, list[tuple[str, float]]] = {n: [] for n in graph}
    for u, arcs in graph.items():
        for v, w in arcs:
            rgraph[v].append((u, w))
    return rgraph


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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    graph = weighted(adj, lengths)
    searches: dict[tuple[str, frozenset[str], frozenset[str]],
                   dict[str, Path]] = {}

    def search(spur: str, banned_nodes: frozenset[str],
               banned_next: frozenset[str]) -> dict[str, Path]:
        key = (spur, banned_nodes, banned_next)
        paths = searches.get(key)
        if paths is None:
            paths = searches[key] = dijkstra(
                graph, spur, banned_nodes, [(spur, v) for v in banned_next])[1]
        return paths

    first = search(source, frozenset(), frozenset())
    out: dict[str, list[Path]] = {}
    for target in targets:
        if target not in first:
            raise UnreachablePair(f"no route {source} -> {target}")
        path = first[target]
        found: list[tuple[float, int, Path]] = [
            (path_cost(lengths, path), len(path), path)]
        candidates: list[tuple[float, int, Path]] = []
        seen_candidates = {path}

        while len(found) < k:
            _, _, prev = found[-1]
            for i in range(len(prev) - 1):
                root = prev[:i + 1]
                banned_next = frozenset(p[i + 1] for (_, _, p) in found
                                        if p[:i + 1] == root)
                spur_path = search(prev[i], frozenset(root[:-1]),
                                   banned_next).get(target)
                if spur_path is None:
                    continue
                candidate = root[:-1] + spur_path
                if candidate not in seen_candidates:
                    seen_candidates.add(candidate)
                    heapq.heappush(candidates, (path_cost(lengths, candidate),
                                                len(candidate), candidate))
            if not candidates:
                break
            found.append(heapq.heappop(candidates))
        out[target] = [p for (_, _, p) in found]
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
