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
from typing import Mapping

import numpy as np

from . import graphops
from .model import Path, Scheme, Topology, lift, normalized

Link = tuple[str, str]  # undirected switch link, endpoints sorted

_log = logging.getLogger(__name__)

#: each round multiplies an edge's length by at most 1 + EPSILON
EPSILON = 0.1
#: the rounds stop once the accumulated tree weight exceeds this mass
UTILIZATION_THRESHOLD = 1.0


@dataclass(frozen=True)
class RaeckeConfig:
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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

    def depth(self, i: int) -> int:
        d = 0
        while self.parent[i] is not None:
            i = self.parent[i]
            d += 1
        return d

    def walk(self, u: str, v: str) -> Path:
        """Physical walk from switch u to switch v along the tree path."""
        if u == v:
            return (u,)
        iu, iv = self.leaf_index[u], self.leaf_index[v]
        up: list[int] = []
        down: list[int] = []
        du, dv = self.depth(iu), self.depth(iv)
        while du > dv:
            up.append(iu)
            iu = self.parent[iu]
            du -= 1
        while dv > du:
            down.append(iv)
            iv = self.parent[iv]
            dv -= 1
        while iu != iv:
            up.append(iu)
            down.append(iv)
            iu = self.parent[iu]
            iv = self.parent[iv]
        walk: Path = (u,)
        for i in up:
            walk = graphops.concatenate(walk, tuple(reversed(self.edge_paths[i])))
        for i in reversed(down):
            walk = graphops.concatenate(walk, self.edge_paths[i])
        return walk

    def canonical(self) -> tuple:
        """Routing identity: the walk every switch pair is assigned.

        Two trees with different cluster structures can still route every
        pair identically; for everything downstream they are the same tree,
        so the distribution merges them by this key.
        """
        sws = sorted(self.leaf_index)
        return tuple(self.walk(u, v)
                     for i, u in enumerate(sws) for v in sws[i + 1:])


@dataclass(frozen=True)
class TreeDistribution:
    trees: tuple[tuple[RoutingTree, float], ...]
    lengths_final: Mapping[tuple[str, str], float]
    hit_iteration_limit: bool = False
    iterations: int = 0

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

    if len(switches) > 1:
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
    if len(switches) == 1:
        leaf_index = {switches[0]: 0}
    return RoutingTree(tuple(clusters), tuple(parents), reps, tuple(paths),
                       leaf_index)


def stretch(tree: RoutingTree, topo: Topology,
            lengths: Mapping[tuple[str, str], float]) -> float:
    """Capacity-weighted average, over switch links, of (tree walk length
    between the link's endpoints) / (the link's own length)."""
    num = 0.0
    den = 0.0
    for (u, v) in topo.links():
        cap = topo.edges[(u, v)].capacity
        walk_len = graphops.path_cost(lengths, tree.walk(u, v))
        num += cap * walk_len / lengths[(u, v)]
        den += cap
    return num / den if den else 0.0


def _link(u: str, v: str) -> Link:
    return (u, v) if u < v else (v, u)


def _tree_utilization(tree: RoutingTree, topo: Topology) -> dict[Link, float]:
    """Worst-case utilization bound u(e, T) per undirected link.

    Each tree edge could be asked to carry, at worst, all traffic crossing
    the cluster boundary it represents — the total capacity of the physical
    edges leaving the child cluster.  That bound is charged to every link on
    the tree edge's physical path and divided by the link's own capacity.
    """
    boundary_cap: list[float] = []
    for i, cluster in enumerate(tree.clusters):
        if tree.parent[i] is None:
            boundary_cap.append(0.0)
            continue
        cap = 0.0
        for (a, b) in topo.switch_edges:
            if a in cluster and b not in cluster:
                cap += topo.edges[(a, b)].capacity
        boundary_cap.append(cap)

    util: dict[Link, float] = {lk: 0.0 for lk in topo.links()}
    for i, path in enumerate(tree.edge_paths):
        if tree.parent[i] is None or len(path) < 2:
            continue
        for (a, b) in zip(path, path[1:]):
            util[_link(a, b)] += boundary_cap[i]
    for (u, v) in util:
        util[(u, v)] /= topo.edges[(u, v)].capacity
    return util


def raecke_distribution(topo: Topology, cfg: RaeckeConfig = RaeckeConfig(),
                        ) -> TreeDistribution:
    """Iteratively build a probability distribution over routing trees.

    Edge lengths start at inverse capacity.  Each round samples a tree under
    the current lengths, weights it by 1/u_max (the inverse of its peak
    utilization bound), and multiplies each edge's length by
    (1 + EPSILON)^(u(e,T)/u_max) so the next round avoids hot edges.  The
    loop stops once the accumulated tree weight sum_T 1/u_max(T) — the
    inverse-peak-utilization mass that later normalizes to the probability
    distribution — strictly exceeds ``UTILIZATION_THRESHOLD``, or at
    ``max_iterations`` (reported via RuntimeWarning; the distribution built
    so far is still returned).  Since every round contributes at most 1/u_max, well-provisioned
    topologies accumulate many trees before stopping, which is what gives
    the scheme its path diversity.

    Trees that route every pair identically are merged by summing their
    weights, so a graph with a single possible decomposition yields one
    tree with probability 1.  Each round is logged at DEBUG level on the
    ``tekit.raecke`` logger.
    """
    if len(topo.switches) == 1:
        tree = frt_tree(topo, {}, [cfg.seed, 0])
        return TreeDistribution(((tree, 1.0),), {}, iterations=1)

    lengths = graphops.inverse_capacity_lengths(topo)
    weights: dict[tuple, float] = {}
    first_tree: dict[tuple, RoutingTree] = {}
    order: list[tuple] = []
    hit_limit = True
    iterations = 0
    mass = 0.0

    for i in range(cfg.max_iterations):
        iterations = i + 1
        tree = frt_tree(topo, lengths, [cfg.seed, i])
        util = _tree_utilization(tree, topo)
        u_max = max(util.values())
        argmax = max(util, key=util.__getitem__)
        key = tree.canonical()
        if key not in weights:
            weights[key] = 0.0
            first_tree[key] = tree
            order.append(key)
        weights[key] += 1.0 / u_max
        mass += 1.0 / u_max

        for (a, b), u in util.items():
            boost = (1.0 + EPSILON) ** (u / u_max)
            lengths[(a, b)] *= boost
            lengths[(b, a)] *= boost
        _log.debug("iteration %d: u_max=%.6g argmax=%s mass=%.6g trees=%d",
                   i, u_max, argmax, mass, len(order))
        if mass > UTILIZATION_THRESHOLD:
            hit_limit = False
            break

    if hit_limit:
        warnings.warn(
            f"tree distribution stopped at max_iterations={cfg.max_iterations} "
            "before the utilization threshold was exceeded", RuntimeWarning)
    total = sum(weights.values())
    trees = tuple((first_tree[k], weights[k] / total) for k in order)
    return TreeDistribution(trees, dict(lengths),
                            hit_iteration_limit=hit_limit, iterations=iterations)


def paths_from_distribution(dist: TreeDistribution, topo: Topology) -> Scheme:
    """Collapse a tree distribution into a per-pair path distribution.

    Each tree contributes its switch-pair path (the tree walk, loop-shortcut
    to a simple path) with the tree's probability; identical physical paths
    from different trees merge by summing.  ``model.lift`` attaches the host
    stubs.
    """
    def route(s: str, d: str) -> dict[Path, float]:
        acc: dict[Path, float] = {}
        for tree, prob in dist.trees:
            path = graphops.shortcut(tree.walk(s, d))
            acc[path] = acc.get(path, 0.0) + prob
        return normalized(acc)

    return lift(topo, route)
