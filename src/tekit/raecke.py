"""Oblivious routing through distributions over routing trees.

A *routing tree* is a laminar family of switch clusters: the root cluster is
the whole switch set, leaves are singletons (one per switch), and every tree
edge carries a physical path between the representatives of the two clusters
it joins.  Concatenating the physical paths along the unique tree path
between two leaves yields a forwarding path for that switch pair, so a tree
determines one path per pair and a probability distribution over trees
determines a randomized routing scheme.

Trees are sampled by randomized hierarchical ball decomposition (random
center permutation, radii shrinking by powers of two scaled by a log-uniform
factor), which keeps the capacity-weighted average stretch logarithmic in
expectation.  The distribution itself is built iteratively: each round
samples a tree under the current edge lengths, scores the worst-case
utilization the tree could induce on each edge, weights the tree inversely
to its peak utilization, and inflates the lengths of the edges the tree
leans on so later rounds route around them.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import graphops
from .model import Path, Scheme, Topology, lift, link_key, normalized

Link = tuple[str, str]  # undirected switch link, endpoints sorted
Climb = list[tuple[int, Path]]  # see RoutingTree.climb

_log = logging.getLogger(__name__)

#: each round multiplies an edge's length by at most 1 + EPSILON
EPSILON = 0.1
#: the rounds stop once the accumulated tree weight exceeds this mass
UTILIZATION_THRESHOLD = 1.0
#: the rounds stop here if the mass has not exceeded the threshold by then
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class RoutingTree:
    """Laminar cluster hierarchy with physical paths on its edges.

    ``clusters[0]`` is the root (all switches).  ``edge_paths[i]`` is the
    physical path from the representative of ``parent[i]`` to the
    representative of cluster ``i``; it may be a single node when both
    clusters share a representative.
    """

    clusters: tuple[frozenset, ...]
    parent: tuple
    reps: tuple[str, ...]
    edge_paths: tuple[Path, ...]
    leaf_index: Mapping[str, int]

    def climb(self, s: str) -> Climb:
        """Switch s's leaf and its ancestors from the root down, each paired
        with the physical walk from s to that cluster's representative."""
        i = self.leaf_index[s]
        climb = [(i, (s,))]
        while self.parent[i] is not None:
            climb.append((self.parent[i],
                          climb[-1][1] + self.edge_paths[i][-2::-1]))
            i = self.parent[i]
        return climb[::-1]

    def climbs(self) -> dict[str, Climb]:
        """Every switch's climb: the table all tree walks are read from."""
        return {s: self.climb(s) for s in self.leaf_index}

    def walk(self, u: str, v: str) -> Path:
        """Physical walk from switch u to switch v along the tree path."""
        return _splice(self.climb(u), self.climb(v))


def _fork(cu: Climb, cv: Climb) -> int:
    """Index of the lowest common ancestor in two climbs."""
    k = 0
    while k + 1 < min(len(cu), len(cv)) and cu[k + 1][0] == cv[k + 1][0]:
        k += 1
    return k


def _splice(cu: Climb, cv: Climb) -> Path:
    """Tree walk between two switches: the first one's climb up to their
    lowest common ancestor, followed by the second one's climb reversed."""
    k = _fork(cu, cv)
    return cu[k][1] + cv[k][1][-2::-1]


def _canonical(climbs: Mapping[str, Climb]) -> tuple:
    """Routing identity of a tree: the walk every switch pair is assigned.
    Trees that route every pair identically are the same tree downstream."""
    sws = sorted(climbs)
    return tuple(_splice(climbs[u], climbs[v])
                 for i, u in enumerate(sws) for v in sws[i + 1:])


@dataclass(frozen=True)
class TreeDistribution:
    trees: tuple[tuple[RoutingTree, float], ...]
    lengths_final: Mapping[tuple[str, str], float]
    hit_iteration_limit: bool = False

    def serialize(self) -> str:
        """Canonical text form; byte-identical for identical inputs."""
        blocks = []
        for tree, prob in self.trees:
            lines = [f"tree p={prob!r}"]
            for i, cluster in enumerate(tree.clusters):
                members = ",".join(sorted(cluster))
                path = "-".join(tree.edge_paths[i])
                lines.append(f"  node {i} parent={tree.parent[i]} "
                             f"rep={tree.reps[i]} members={members} path={path}")
            blocks.append("\n".join(lines))
        tail = [f"length {u}->{v} {w!r}"
                for (u, v), w in sorted(self.lengths_final.items())]
        return "\n".join(blocks + tail) + "\n"


def frt_tree(topo: Topology, lengths: Mapping[tuple[str, str], float],
             seed) -> RoutingTree:
    """Sample one routing tree by hierarchical ball decomposition.

    Draws a uniform random priority permutation of the switches and a radius
    scale factor log-uniform on [1, 2).  Level radii shrink by powers of two;
    at each level every unfinished cluster is partitioned by assigning each
    member to the highest-priority switch whose ball (under the shortest-path
    metric induced by ``lengths``) covers it.  A cluster's representative is
    its highest-priority member, and each tree edge maps to the shortest
    physical path between the two representatives under the same lengths.
    One Dijkstra run per switch yields both the distances and those paths.
    """
    switches = list(topo.switches)
    rng = np.random.default_rng(seed)
    order = [switches[i] for i in rng.permutation(len(switches))]
    priority = {s: i for i, s in enumerate(order)}
    scale = float(2.0 ** rng.random())

    adj = graphops.switch_graph(topo)
    runs = {s: graphops.dijkstra(adj, lengths, s) for s in switches}
    dist = {s: run[0] for s, run in runs.items()}

    def rep(members) -> str:
        return min(members, key=priority.__getitem__)

    clusters: list[frozenset] = [frozenset(switches)]
    parents: list = [None]
    frontier = [0]
    diam = max(max(row.values()) for row in dist.values())
    level = math.ceil(math.log2(diam)) if diam > 0 else 0
    while frontier:
        radius = scale * (2.0 ** level)
        next_frontier: list[int] = []
        for ci in frontier:
            members = clusters[ci]
            if len(members) == 1:
                continue
            groups: dict[str, set] = {}
            for v in sorted(members):
                center = next(u for u in order if dist[u][v] <= radius)
                groups.setdefault(center, set()).add(v)
            parts = [groups[c] for c in order if c in groups]
            if len(parts) == 1:
                # cluster did not split at this radius; try the next level
                next_frontier.append(ci)
                continue
            for part in parts:
                clusters.append(frozenset(part))
                parents.append(ci)
                if len(part) > 1:
                    next_frontier.append(len(clusters) - 1)
        frontier = next_frontier
        level -= 1

    reps = tuple(rep(c) for c in clusters)
    paths = [(reps[i],) if p is None else runs[reps[p]][1][reps[i]]
             for i, p in enumerate(parents)]
    leaf_index = {next(iter(c)): i for i, c in enumerate(clusters) if len(c) == 1}
    return RoutingTree(tuple(clusters), tuple(parents), reps, tuple(paths),
                       leaf_index)


def stretch(tree: RoutingTree, topo: Topology,
            lengths: Mapping[tuple[str, str], float]) -> float:
    """Capacity-weighted average, over switch links, of (tree walk length
    between the link's endpoints) / (the link's own length)."""
    climbs = tree.climbs()
    num = 0.0
    den = 0.0
    for (u, v) in topo.links():
        cap = topo.edges[(u, v)].capacity
        walk_len = graphops.path_cost(lengths, _splice(climbs[u], climbs[v]))
        num += cap * walk_len / lengths[(u, v)]
        den += cap
    return num / den if den else 0.0


def _tree_utilization(tree: RoutingTree, topo: Topology,
                      climbs: Mapping[str, Climb]) -> dict[Link, float]:
    """Worst-case utilization bound u(e, T) per undirected link.

    Each tree edge could be asked to carry, at worst, all traffic crossing
    the cluster boundary it represents — the total capacity of the physical
    edges leaving the child cluster.  That bound is charged to every link on
    the tree edge's physical path and divided by the link's own capacity.
    An edge (a, b) leaves exactly the clusters on a's climb below the lowest
    common ancestor of a and b.
    """
    boundary_cap = [0.0] * len(tree.clusters)
    for (a, b) in topo.switch_edges:
        cap = topo.edges[(a, b)].capacity
        climb = climbs[a]
        for i, _ in climb[_fork(climb, climbs[b]) + 1:]:
            boundary_cap[i] += cap

    util: dict[Link, float] = {lk: 0.0 for lk in topo.links()}
    for i, path in enumerate(tree.edge_paths):
        for (a, b) in zip(path, path[1:]):
            util[link_key(a, b)] += boundary_cap[i]
    for (u, v) in util:
        util[(u, v)] /= topo.edges[(u, v)].capacity
    return util


def raecke_distribution(topo: Topology, seed: int = 0) -> TreeDistribution:
    """Iteratively build a probability distribution over routing trees.

    Edge lengths start at inverse capacity.  Each round samples a tree under
    the current lengths, weights it by 1/u_max (the inverse of its peak
    utilization bound), and multiplies each edge's length by
    (1 + EPSILON)^(u(e,T)/u_max) so the next round avoids hot edges.  The
    loop stops once the accumulated tree weight sum_T 1/u_max(T) — the
    inverse-peak-utilization mass that later normalizes to the probability
    distribution — strictly exceeds ``UTILIZATION_THRESHOLD``, or after
    ``MAX_ITERATIONS`` rounds (reported via RuntimeWarning; the distribution
    built so far is still returned).  Since every round contributes at most
    1/u_max, well-provisioned topologies accumulate many trees before
    stopping, which is what gives the scheme its path diversity.  ``seed``
    keys the tree sampling.

    Trees that route every pair identically are merged by summing their
    weights, in order of first appearance, so a graph with a single possible
    decomposition yields one tree with probability 1.  Only the hash of a
    tree's routing identity is kept; on a hash hit the candidate's identity
    is rebuilt from its climbs and compared in full.  Each round is logged
    at DEBUG level on the ``tekit.raecke`` logger.
    """
    if len(topo.switches) == 1:
        tree = frt_tree(topo, {}, [seed, 0])
        return TreeDistribution(((tree, 1.0),), {})

    lengths = graphops.inverse_capacity_lengths(topo)
    merged: list[list] = []  # [tree, weight], in order of first appearance
    by_hash: dict[int, list[list]] = {}  # identity hash -> entries of merged
    hit_limit = True
    mass = 0.0

    for i in range(MAX_ITERATIONS):
        tree = frt_tree(topo, lengths, [seed, i])
        climbs = tree.climbs()
        util = _tree_utilization(tree, topo, climbs)
        u_max = max(util.values())
        argmax = max(util, key=util.__getitem__)
        key = _canonical(climbs)
        same = by_hash.setdefault(hash(key), [])
        entry = next((e for e in same if _canonical(e[0].climbs()) == key),
                     None)
        if entry is None:
            entry = [tree, 0.0]
            same.append(entry)
            merged.append(entry)
        entry[1] += 1.0 / u_max
        mass += 1.0 / u_max

        for (a, b), u in util.items():
            boost = (1.0 + EPSILON) ** (u / u_max)
            lengths[(a, b)] *= boost
            lengths[(b, a)] *= boost
        _log.debug("iteration %d: u_max=%.6g argmax=%s mass=%.6g trees=%d",
                   i, u_max, argmax, mass, len(merged))
        if mass > UTILIZATION_THRESHOLD:
            hit_limit = False
            break

    if hit_limit:
        warnings.warn(
            f"tree distribution stopped at MAX_ITERATIONS={MAX_ITERATIONS} "
            "before the utilization threshold was exceeded", RuntimeWarning)
    total = sum(weight for _, weight in merged)
    trees = tuple((tree, weight / total) for tree, weight in merged)
    return TreeDistribution(trees, dict(lengths), hit_iteration_limit=hit_limit)


def _tree_paths(tree: RoutingTree, served: list[str]
                ) -> Iterator[tuple[str, str, Path]]:
    """Every ordered pair of distinct served switches with its tree walk,
    loop-shortcut to a simple path.

    Pairs are enumerated by their lowest common ancestor: the pairs under
    cluster c whose endpoints lie in different children of c.  The walk
    from s to d is X + B[1:], X being s's climb to c's representative and
    B the reversed climb of d.  X is shortcut once per source and level,
    and ``graphops.meet`` joins it to B's shortcut suffix, each suffix
    shortcut once per target and level, so the result equals
    ``graphops.shortcut`` of the whole walk.
    """
    climbs = {s: tree.climb(s) for s in served}
    level: dict[int, int] = {}
    under: dict[int, list[str]] = {}  # cluster -> its served switches
    for s in served:
        for k, (i, _) in enumerate(climbs[s]):
            level[i] = k
            under.setdefault(i, []).append(s)
    children: dict[int, list[list[str]]] = {}
    for i, p in enumerate(tree.parent):
        if p is not None and i in under:
            children.setdefault(p, []).append(under[i])
    for c, groups in children.items():
        if len(groups) < 2:
            continue
        k = level[c]
        heads = {s: graphops.shortcut(climbs[s][k][1]) for s in under[c]}
        downs = {}
        for d in under[c]:
            walk = climbs[d][k][1][::-1]
            downs[d] = (walk, graphops.positions(walk), {})
        for group in groups:
            for other in groups:
                if other is group:
                    continue
                for s in group:
                    head = heads[s]
                    for d in other:
                        walk, at, tails = downs[d]
                        a, j = graphops.meet(head, at)
                        tail = tails.get(j)
                        if tail is None:
                            tail = tails[j] = graphops.shortcut(walk[j:])
                        yield s, d, head[:a] + tail


def paths_from_distribution(dist: TreeDistribution, topo: Topology,
                            budget: int | None = None) -> Scheme:
    """Collapse a tree distribution into a per-pair path distribution.

    Each tree contributes its switch-pair path (the tree walk, loop-shortcut
    to a simple path) with the tree's probability; identical physical paths
    from different trees merge by summing.  ``model.lift`` cuts each switch
    pair to the optional path ``budget`` and attaches the host stubs, so
    the unpruned host scheme is never built.  One tree's climbs are held
    at a time.
    """
    served = sorted({topo.host_switch(h) for h in topo.hosts})
    acc: dict[tuple[str, str], dict[Path, float]] = {}
    for tree, prob in dist.trees:
        for s, d, path in _tree_paths(tree, served):
            paths = acc.setdefault((s, d), {})
            paths[path] = paths.get(path, 0.0) + prob
    return lift(topo, lambda s, d: normalized(acc.pop((s, d))), budget)
