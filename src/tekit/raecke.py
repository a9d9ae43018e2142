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

Memory stays bounded as the topology grows: a round holds one array of
all switch-to-switch distances and one tree's climbs, the distribution
keeps a hash of each distinct tree's probe, not its full routing
identity, and the collapse to paths holds one pass's pair distributions.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Mapping

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
#: trees x switch pairs one pass of ``paths_from_distribution`` collapses
_PASS_WALKS = 1 << 15


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


def _canonical(climbs: Mapping[str, Climb], probe: bool = False) -> tuple:
    """Routing identity of a tree: the walk every switch pair is assigned.
    Trees that route every pair identically are the same tree downstream.
    A ``probe`` is its first n - 1 walks, from the first switch in sorted
    order: trees that route alike have equal probes."""
    sws = sorted(climbs)
    return tuple(_splice(climbs[u], climbs[v])
                 for i, u in enumerate(sws[:1] if probe else sws)
                 for v in sws[i + 1:])


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


def _distances(graph: graphops.Weighted, switches: list[int]) -> np.ndarray:
    """Every switch-to-switch distance: ``D[s, v]`` from switch id
    ``switches[s]`` to switch id ``switches[v]``, inf where v is
    unreachable.

    Synchronous relaxation, D[s, v] <- min(D[s, v], min_u D[s, u] +
    length(u, v)), repeated until nothing changes.  fl(x + w) never
    decreases as x grows (w >= 0), so ``dijkstra``'s float distance is the
    minimum, over all walks, of the walk's left-fold cost; that minimum is
    the relaxation's fixpoint too, and ``min`` is exact, so the two agree
    bit for bit.
    """
    at = {s: i for i, s in enumerate(switches)}
    dist = np.full((len(switches), len(switches)), np.inf)
    np.fill_diagonal(dist, 0.0)
    arcs = sorted((at[v], at[u], w) for u in switches
                  for v, w in graph.arcs[u])
    if not arcs:
        return dist
    head, tail, length = (np.array(column) for column in zip(*arcs))
    starts = np.flatnonzero(np.diff(head, prepend=-1))  # arcs into one node
    into = head[starts]
    while True:
        best = np.minimum.reduceat(dist[:, tail] + length, starts, axis=1)
        if not (best < dist[:, into]).any():
            return dist
        dist[:, into] = np.minimum(dist[:, into], best)


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
    The metric comes from ``_distances``, all pairs at once; only the
    representatives of parent clusters run a path-building ``dijkstra``.
    """
    switches = list(topo.switches)
    rng = np.random.default_rng(seed)
    order = [switches[i] for i in rng.permutation(len(switches))]
    priority = {s: i for i, s in enumerate(order)}
    scale = float(2.0 ** rng.random())

    graph = graphops.weighted(graphops.switch_graph(topo), lengths)
    ids = graph.ids
    dist = _distances(graph, [ids[s] for s in order])  # priority order

    def rep(members) -> str:
        return min(members, key=priority.__getitem__)

    clusters: list[frozenset] = [frozenset(switches)]
    parents: list = [None]
    frontier = [0]
    diam = float(dist.max())
    level = math.ceil(math.log2(diam)) if diam > 0 else 0
    while frontier:
        radius = scale * (2.0 ** level)
        next_frontier: list[int] = []
        for ci in frontier:
            members = list(clusters[ci])
            if len(members) == 1:
                continue
            # each member's center: the first switch in priority order
            # whose ball covers it
            centers = (dist[:, [priority[v] for v in members]] <= radius
                       ).argmax(axis=0).tolist()
            groups: dict[int, set] = {}
            for v, c in zip(members, centers):
                groups.setdefault(c, set()).add(v)
            if len(groups) == 1:
                # cluster did not split at this radius; try the next level
                next_frontier.append(ci)
                continue
            for c in sorted(groups):
                clusters.append(frozenset(groups[c]))
                parents.append(ci)
                if len(groups[c]) > 1:
                    next_frontier.append(len(clusters) - 1)
        frontier = next_frontier
        level -= 1

    reps = tuple(rep(c) for c in clusters)
    best = {r: graphops.dijkstra(graph, ids[r])[1]
            for r in {reps[p] for p in parents[1:]}}
    paths = [(reps[i],) if p is None else
             tuple(graph.names[u] for u in best[reps[p]][ids[reps[i]]])
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
    decomposition yields one tree with probability 1.  Trees are bucketed
    by the hash of their probe (see ``_canonical``); only when a bucket
    already holds a tree are the candidate's full routing identity and each
    bucket member's (rebuilt from its climbs) built and compared.  Each
    round is logged at DEBUG level on the ``tekit.raecke`` logger.
    """
    if len(topo.switches) == 1:
        tree = frt_tree(topo, {}, [seed, 0])
        return TreeDistribution(((tree, 1.0),), {})

    lengths = graphops.inverse_capacity_lengths(topo)
    merged: list[list] = []  # [tree, weight], in order of first appearance
    by_probe: dict[int, list[list]] = {}  # probe hash -> entries of merged
    hit_limit = True
    mass = 0.0

    for i in range(MAX_ITERATIONS):
        tree = frt_tree(topo, lengths, [seed, i])
        climbs = tree.climbs()
        util = _tree_utilization(tree, topo, climbs)
        u_max = max(util.values())
        argmax = max(util, key=util.__getitem__)
        same = by_probe.setdefault(hash(_canonical(climbs, probe=True)), [])
        key = _canonical(climbs) if same else None
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


def _collapse(tree: RoutingTree, prob: float, served: list[str],
              acc: dict[str, dict[str, dict[Path, float]]]) -> None:
    """Add ``prob`` to ``acc[s][d][path]`` for every source s in ``acc``
    and every other served switch d, path being the tree walk from s to d
    loop-shortcut to a simple path.

    Pairs are enumerated by their lowest common ancestor: the pairs under
    cluster c whose endpoints lie in different children of c.  The walk
    from s to d is X + B[1:], X being s's climb to c's representative and
    B the reversed climb of d.  X is shortcut once per source and level,
    and ``graphops.meet`` joins it to B's shortcut suffix, so the result
    equals ``graphops.shortcut`` of the whole walk.  X reversed and B are
    suffixes of s's and d's *down walks*, the edge paths from the root
    down to their leaves, so one down walk, position map and table of
    erased suffixes per switch serve every level.
    """
    level: dict[int, int] = {}
    under: dict[int, list[str]] = {}  # cluster -> its served switches
    # switch -> its down walk, positions and erased suffixes, and where
    # the representative of its cluster at each level sits in the walk
    downs: dict[str, tuple] = {}
    for s in served:
        chain = []  # s's clusters, leaf first
        i = tree.leaf_index[s]
        while i is not None:
            chain.append(i)
            i = tree.parent[i]
        walk: list[str] = []
        starts = []
        for k, i in enumerate(reversed(chain)):
            level[i] = k
            under.setdefault(i, []).append(s)
            # each edge path starts where the walk so far ends
            walk += tree.edge_paths[i][1 if k else 0:]
            starts.append(len(walk) - 1)
        walk = tuple(walk)
        at = graphops.positions(walk)
        downs[s] = (walk, at, graphops.erased_suffixes(walk, at), starts)
    children: dict[int, list[list[str]]] = {}
    for i, p in enumerate(tree.parent):
        if p is not None and i in under:
            children.setdefault(p, []).append(under[i])
    for c, groups in children.items():
        if len(groups) < 2:
            continue
        k = level[c]
        for group in groups:
            for s in group:
                row = acc.get(s)
                if row is None:
                    continue
                walk, _, _, up = downs[s]
                head = graphops.shortcut(walk[up[k]:][::-1])
                for other in groups:
                    if other is group:
                        continue
                    for d in other:
                        _, at, tails, starts = downs[d]
                        a, j = graphops.meet(head, at, starts[k])
                        path = head[:a] + tails[j]
                        paths = row[d]
                        paths[path] = paths.get(path, 0.0) + prob


def paths_from_distribution(dist: TreeDistribution, topo: Topology,
                            budget: int | None = None) -> Scheme:
    """Collapse a tree distribution into a per-pair path distribution.

    Each tree contributes its switch-pair path (the tree walk, loop-shortcut
    to a simple path) with the tree's probability; identical physical paths
    from different trees merge by summing.  ``model.lift`` cuts each switch
    pair to the optional path ``budget`` and attaches the host stubs, so
    the unpruned host scheme is never built.

    The collapse runs in passes over groups of source switches, in the
    order ``lift`` asks for them; a pass collapses every tree's pairs from
    its group, at most ``_PASS_WALKS`` trees x pairs (one source at least),
    and ``lift`` pops them, so the pair distributions of one pass are held
    at a time.  n served switches take one pass when ``MAX_ITERATIONS`` x
    n x (n - 1) <= ``_PASS_WALKS``, so up to 13 switches always do.
    """
    # the switches that serve hosts, in the order lift asks for sources
    served = list(dict.fromkeys(topo.host_switch(h) for h in topo.hosts))
    width = max(1, _PASS_WALKS // (len(dist.trees) * max(1, len(served) - 1)))
    acc: dict[str, dict[str, dict[Path, float]]] = {}

    def route(s: str, d: str) -> dict[Path, float]:
        if s not in acc:
            acc.clear()
            first = served.index(s) // width * width
            for u in served[first:first + width]:
                acc[u] = {v: {} for v in served if v != u}
            for tree, prob in dist.trees:
                _collapse(tree, prob, served, acc)
        return normalized(acc[s].pop(d))

    return lift(topo, route, budget)
