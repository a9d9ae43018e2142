"""Independent oracles for the algorithmic tests.

The oracles avoid the library's own routing machinery: shortest paths
come from exhaustive simple-path enumeration, and the min-max-congestion
reference solves the full path-based LP with scipy's simplex-free HiGHS
backend.  ``reference_propagate`` is the fluid step
written with per-link dicts, the specification the array step reproduces;
``reference_rollup`` folds a report's per-step dicts with ``+=``, the
specification of the columnar rollup; ``assert_same_report`` compares two
reports column by column, bit for bit.
``reference_k_shortest_paths`` is Yen's algorithm run pair by pair, each
spur search stopping at the target, the specification the per-source Yen
reproduces.  ``reference_raecke_paths`` and ``reference_vlb`` collapse
every walk on its own, splicing it whole and running
``graphops.shortcut`` over it: the specification of the builders that
join shortcut halves instead.  ``named_dijkstra`` runs the library's
search with switch names in and out, for tests written in names, and
``format_scheme`` gives a scheme's canonical text, for pinned digests.
"""

import heapq
import itertools
from dataclasses import fields

import numpy as np
from scipy.optimize import linprog

from tekit import graphops
from tekit.model import UnreachablePair, lift, normalized, path_edges
from tekit.raecke import _splice
from tekit.sim import StepBlock, StepMetrics


def enumerate_simple_paths(adj, source, target):
    out = []

    def walk(path, seen):
        node = path[-1]
        if node == target:
            out.append(tuple(path))
            return
        for nbr in sorted(adj[node]):
            if nbr not in seen:
                walk(path + [nbr], seen | {nbr})

    walk([source], {source})
    return out


def named_dijkstra(graph, source, banned_nodes=(), banned_edges=()):
    """``graphops.dijkstra`` from the node named ``source``, bans by name;
    the (distance, best_path) maps come back keyed by name, paths as
    names."""
    ids, names = graph.ids, graph.names
    dist, best = graphops.dijkstra(
        graph, ids[source], [ids[u] for u in banned_nodes],
        [(ids[u], ids[v]) for u, v in banned_edges])
    return ({names[u]: d for u, d in dist.items()},
            {names[u]: tuple(names[v] for v in p) for u, p in best.items()})


def path_cost(lengths, path):
    return sum(lengths[(path[i], path[i + 1])] for i in range(len(path) - 1))


def brute_shortest(adj, lengths, source, target):
    """Minimum (cost, hops, lexicographic) simple path by enumeration."""
    paths = enumerate_simple_paths(adj, source, target)
    return min(paths, key=lambda p: (path_cost(lengths, p), len(p), p))


def brute_min_cost_set(adj, lengths, source, target, tol=1e-9):
    paths = enumerate_simple_paths(adj, source, target)
    best = min(path_cost(lengths, p) for p in paths)
    return sorted((p for p in paths if path_cost(lengths, p) <= best + tol),
                  key=lambda p: (len(p), p))


def brute_k_shortest(adj, lengths, source, target, k):
    paths = enumerate_simple_paths(adj, source, target)
    ranked = sorted(paths, key=lambda p: (path_cost(lengths, p), len(p), p))
    return ranked[:k]


def reference_shortest_path(adj, lengths, source, target, banned_nodes=(),
                            banned_edges=()):
    """The path ``dijkstra`` would pick from source to target, avoiding the
    banned nodes and directed edges.

    The search never expands into a banned node or along a banned edge, and
    it stops at the target's first pop: that entry is the minimum
    (cost, hops, sequence) one, the same a full search settles.
    """
    done = set(banned_nodes)
    cut = {}
    for u, v in banned_edges:
        cut.setdefault(u, set()).add(v)
    heap = [(0.0, 1, (source,))]
    while heap:
        d, nhops, path = heapq.heappop(heap)
        node = path[-1]
        if node == target:
            return path
        if node in done:
            continue
        done.add(node)
        skip = cut.get(node, ())
        for nbr in adj[node]:
            if nbr not in done and nbr not in skip:
                heapq.heappush(heap, (d + lengths[(node, nbr)], nhops + 1,
                                      path + (nbr,)))
    raise UnreachablePair(f"no route {source} -> {target}")


def reference_k_shortest_paths(adj, lengths, source, target, k):
    """Yen's algorithm for one pair: the k shortest loopless paths, ordered
    by (cost, hop count, node sequence)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    first = reference_shortest_path(adj, lengths, source, target)
    found = [(path_cost(lengths, first), len(first), first)]
    candidates = []
    seen_candidates = {first}

    while len(found) < k:
        _, _, prev = found[-1]
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[:i + 1]
            banned_edges = {(p[i], p[i + 1]) for (_, _, p) in found
                            if p[:i + 1] == root and len(p) > i + 1}
            try:
                spur_path = reference_shortest_path(adj, lengths, spur, target,
                                                    root[:-1], banned_edges)
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


def reference_raecke_paths(dist, topo):
    """Räcke's collapse walk by walk: per tree and switch pair, the tree
    walk spliced from both climbs and then shortcut."""
    served = sorted({topo.host_switch(h) for h in topo.hosts})
    acc = {}
    for tree, prob in dist.trees:
        climbs = tree.climbs()
        for s, d in itertools.permutations(served, 2):
            path = graphops.shortcut(_splice(climbs[s], climbs[d]))
            paths = acc.setdefault((s, d), {})
            paths[path] = paths.get(path, 0.0) + prob
    return lift(topo, lambda s, d: normalized(acc.pop((s, d))))


def reference_vlb(topo):
    """VLB intermediate by intermediate: the two shortest paths spliced
    and then shortcut."""
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    graph = graphops.weighted(adj, lengths)
    best = {s: named_dijkstra(graph, s)[1] for s in topo.switches}

    def route(s, d):
        intermediates = [i for i in topo.switches if i not in (s, d)]
        if not intermediates:
            return {best[s][d]: 1.0}
        share = 1.0 / len(intermediates)
        dist = {}
        for i in intermediates:
            path = graphops.shortcut(best[s][i] + best[i][d][1:])
            dist[path] = dist.get(path, 0.0) + share
        return normalized(dist)

    return lift(topo, route)


def scheme_items(scheme):
    """A scheme as a list: pairs and paths in their order, each
    probability by its ``repr``."""
    return [(pair, [(path, repr(w)) for path, w in dist.items()])
            for pair, dist in scheme.items()]


def format_scheme(scheme):
    """Canonical text form of a scheme, one line per path; byte-identical
    for equal schemes."""
    return "".join(f"{pair[0]} {pair[1]} {prob!r} {'-'.join(path)}\n"
                   for pair in sorted(scheme)
                   for path, prob in sorted(scheme[pair].items()))


def lp_min_max_congestion(topo, commodities, paths=None):
    """Exact min-max utilization over all simple switch paths (LP oracle).

    ``commodities`` is a list of (src_switch, dst_switch, demand).  Returns
    the optimal theta considering switch-switch edges only.  ``paths``, if
    given, lists each commodity's allowed switch paths: the optimum over a
    fixed path set, as ``semi_mcf`` solves it.

    Capacities and demands are divided by the largest switch capacity
    before the solve.  That leaves theta unchanged and keeps the
    coefficients near 1: HiGHS's default tolerances misjudge unscaled
    inputs with capacities of 1e10 and demands of 1e6.
    """
    adj = graphops.switch_graph(topo)
    switch_edges = sorted(graphops.weight_lengths(topo))
    eidx = {e: i for i, e in enumerate(switch_edges)}
    caps = np.array([topo.edges[e].capacity for e in switch_edges])
    unit = caps.max()
    caps = caps / unit

    all_paths = []  # (commodity index, edge index list)
    for ci, (s, t, _) in enumerate(commodities):
        allowed = (enumerate_simple_paths(adj, s, t) if paths is None
                   else paths[ci])
        for p in allowed:
            hops = [eidx[(p[i], p[i + 1])] for i in range(len(p) - 1)]
            all_paths.append((ci, hops))

    n_vars = len(all_paths) + 1  # path flows + theta
    theta = n_vars - 1
    a_eq = np.zeros((len(commodities), n_vars))
    b_eq = np.array([d for (_, _, d) in commodities], dtype=float) / unit
    for pi, (ci, _) in enumerate(all_paths):
        a_eq[ci, pi] = 1.0
    a_ub = np.zeros((len(switch_edges), n_vars))
    for pi, (_, hops) in enumerate(all_paths):
        for e in hops:
            a_ub[e, pi] = 1.0
    a_ub[:, theta] = -caps
    c = np.zeros(n_vars)
    c[theta] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(switch_edges)),
                  A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n_vars,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[theta])


def bellman_ford_distances(adj, lengths, source):
    """Independent shortest-path distances by dynamic programming."""
    dist = {n: float("inf") for n in adj}
    dist[source] = 0.0
    for _ in range(len(adj) - 1):
        changed = False
        for u in adj:
            for v in adj[u]:
                cand = dist[u] + lengths[(u, v)]
                if cand < dist[v] - 1e-15:
                    dist[v] = cand
                    changed = True
        if not changed:
            break
    return dist


def random_commodities(topo, rng, count):
    switches = list(topo.switches)
    pairs = [(a, b) for a, b in itertools.permutations(switches, 2)]
    picks = rng.choice(len(pairs), size=count, replace=False)
    return [(pairs[i][0], pairs[i][1], float(rng.uniform(1.0, 20.0)))
            for i in picks]


def reference_water_fill(link_capacity, requests):
    """One link's max-min water-filling over a dict of requests: served by
    increasing request, ties in dict order (the sort is stable), each gets
    min(request, fair share of what is left)."""
    order = sorted(requests.items(), key=lambda kv: kv[1])
    alloc = {}
    remaining = link_capacity
    n = len(order)
    for i, (key, req) in enumerate(order):
        share = remaining / (n - i)
        give = min(max(req, 0.0), share)
        alloc[key] = give
        remaining -= give
    return alloc


def reference_propagate(topo, scheme, tm, dead):
    """One fluid step, one dict water-fill per link: the live flows in
    pair and path order, keyed by their index in that order."""
    flows = []  # live paths
    delivered_total = 0.0
    failure_total = 0.0
    for pair in sorted(tm.pairs()):
        demand = tm.get(*pair)
        if demand == 0:
            continue
        dist = scheme.get(pair)
        if not dist:
            failure_total += demand
            continue
        for path, prob in sorted(dist.items()):
            flow = demand * prob
            if any(h in dead for h in path_edges(path)):
                failure_total += flow
            else:
                flows.append((path, flow))

    requests = {}
    for idx, (path, flow) in enumerate(flows):
        for hop in path_edges(path):
            requests.setdefault(hop, {})[idx] = flow
    alloc = {}
    for hop, reqs in requests.items():
        alloc[hop] = reference_water_fill(topo.edges[hop].capacity, reqs)

    congestion_total = 0.0
    latency = {}
    for idx, (path, flow) in enumerate(flows):
        got = min(alloc[hop][idx] for hop in path_edges(path))
        delivered_total += got
        congestion_total += flow - got
        if got > 0:
            lat = topo.path_weight(path)
            latency[lat] = latency.get(lat, 0.0) + got

    util = {k: 0.0 for k in topo.edges}
    for hop, a in alloc.items():
        total = 0.0  # a left fold; the built-in sum compensates from 3.12 on
        for give in a.values():
            total += give
        util[hop] = total / topo.edges[hop].capacity
    demand_total = delivered_total + congestion_total + failure_total
    return StepMetrics(util, delivered_total, congestion_total, failure_total,
                       latency, demand_total)


def reference_rollup(report):
    """Per matrix (delivered, congestion loss, failure loss, demand, max
    congestion) and the run's latency bins, each a ``+=`` loop over the
    report's ``StepMetrics`` in step order."""
    per_tm, latency = [], {}
    for steps in report.steps:
        d = cl = fl = dt = mc = 0.0
        for m in steps:
            d += m.delivered
            cl += m.congestion_loss
            fl += m.failure_loss
            dt += m.demand_total
            mc = max(mc, max(m.per_edge_congestion.values()))
            for lat, bits in m.latency_samples.items():
                latency[lat] = latency.get(lat, 0.0) + bits
        per_tm.append((d, cl, fl, dt, mc))
    return per_tm, latency


def assert_same_report(a, b):
    """``a`` and ``b`` record the same run: the same failures, churn and
    installed path counts, and per matrix the same edge keys, repeat count
    and bytes (with dtype and shape) in every ``StepBlock`` column."""
    assert ((a.algorithm, a.topology, a.num_tms, a.steps_per_tm)
            == (b.algorithm, b.topology, b.num_tms, b.steps_per_tm))
    assert a.failures == b.failures
    assert a.churn_timeline == b.churn_timeline
    assert a.installed_paths == b.installed_paths
    assert len(a.matrices) == len(b.matrices)
    for x, y in zip(a.matrices, b.matrices):
        assert (x.edge_keys, x.repeat) == (y.edge_keys, y.repeat)
        for f in fields(StepBlock):
            if f.name not in ("edge_keys", "repeat"):
                u, v = getattr(x, f.name), getattr(y, f.name)
                assert (u.dtype, u.shape, u.tobytes()) == (
                    v.dtype, v.shape, v.tobytes()), f.name
