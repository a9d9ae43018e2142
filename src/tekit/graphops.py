"""Shortest-path machinery over the switch subgraph.

Everything here works on a lightweight adjacency view so callers can route
under arbitrary per-edge length functions (the tree-distribution construction
and the congestion solver both reroute under evolving lengths).  Ties are
always broken by (cost, hop count, node sequence) so identical inputs yield
identical paths on any platform.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from .model import Path, Topology, UnreachablePair

Lengths = Mapping[tuple[str, str], float]


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


def dijkstra(adj: Mapping[str, Iterable[str]], lengths: Lengths,
             source: str) -> tuple[dict[str, float], dict[str, Path]]:
    """Single-source shortest paths with deterministic tie-breaking.

    Returns (distance, best_path) maps.  The heap entries carry the full
    candidate path so equal-cost alternatives resolve by hop count and then
    lexicographic node sequence.
    """
    dist: dict[str, float] = {}
    best: dict[str, Path] = {}
    heap: list[tuple[float, int, Path]] = [(0.0, 1, (source,))]
    while heap:
        d, nhops, path = heapq.heappop(heap)
        node = path[-1]
        if node in dist:
            continue
        dist[node] = d
        best[node] = path
        for nbr in adj[node]:
            if nbr not in dist:
                heapq.heappush(heap, (d + lengths[(node, nbr)], nhops + 1,
                                      path + (nbr,)))
    return dist, best


def shortest_path(adj, lengths: Lengths, source: str, target: str) -> Path:
    dist, best = dijkstra(adj, lengths, source)
    if target not in best:
        raise UnreachablePair(f"no route {source} -> {target}")
    return best[target]


def min_cost_paths(adj, lengths: Lengths, source: str, target: str) -> list[Path]:
    """All simple paths from source to target achieving the minimum cost.

    Works by depth-first search constrained to moves that keep the optimal
    completion cost reachable; a visited set keeps paths simple even in the
    presence of zero-length edges.
    """
    dist_from = dijkstra(adj, lengths, source)[0]
    radj: dict[str, list[str]] = {n: [] for n in adj}
    for u, vs in adj.items():
        for v in vs:
            radj[v].append(u)
    rlengths = {(v, u): w for (u, v), w in lengths.items()}
    dist_to = dijkstra(radj, rlengths, target)[0]
    if target not in dist_from:
        raise UnreachablePair(f"no route {source} -> {target}")
    total = dist_from[target]
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


def k_shortest_paths(adj, lengths: Lengths, source: str, target: str,
                     k: int) -> list[Path]:
    """Yen's algorithm: the k shortest loopless paths, ordered by
    (cost, hop count, node sequence)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    first = shortest_path(adj, lengths, source, target)
    found: list[tuple[float, int, Path]] = [
        (path_cost(lengths, first), len(first), first)]
    candidates: list[tuple[float, int, Path]] = []
    seen_candidates = {first}

    while len(found) < k:
        _, _, prev = found[-1]
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[:i + 1]
            banned_edges = set()
            for (_, _, p) in found:
                if p[:i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = set(root[:-1])
            sub_adj = {
                u: tuple(v for v in vs
                         if v not in banned_nodes and (u, v) not in banned_edges)
                for u, vs in adj.items() if u not in banned_nodes
            }
            try:
                spur_path = shortest_path(sub_adj, lengths, spur, target)
            except UnreachablePair:
                continue
            candidate = root[:-1] + spur_path
            if candidate not in seen_candidates:
                seen_candidates.add(candidate)
                heapq.heappush(candidates, (path_cost(lengths, candidate),
                                            len(candidate), candidate))
        if not candidates:
            break
        found.append(heapq.heappop(candidates))
    return [p for (_, _, p) in found]


def path_cost(lengths: Lengths, path: Path) -> float:
    return sum(lengths[(path[i], path[i + 1])] for i in range(len(path) - 1))


def shortcut(path: Path) -> Path:
    """Remove loops from a walk: keep the first occurrence of each repeated
    node and splice directly to its last occurrence.  Never lengthens the
    walk or adds edges that were not already present."""
    while True:
        seen: dict[str, int] = {}
        cut = None
        for i, node in enumerate(path):
            if node in seen:
                cut = (seen[node], i)
                break
            seen[node] = i
        if cut is None:
            return path
        i, j = cut
        path = path[:i] + path[j:]


def concatenate(first: Path, second: Path) -> Path:
    """Join two walks sharing an endpoint node."""
    if first[-1] != second[0]:
        raise ValueError(f"walks do not connect: {first[-1]} != {second[0]}")
    return first + second[1:]
