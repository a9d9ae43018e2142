import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tekit import UnreachablePair, graphops

from conftest import TIED_LENGTHS, random_topology
from helpers import (brute_k_shortest, brute_min_cost_set, brute_shortest,
                     enumerate_simple_paths, named_dijkstra, path_cost,
                     reference_k_shortest_paths, reference_shortest_path)


def _adj_and_lengths(topo, unit=True):
    adj = graphops.switch_graph(topo)
    lengths = (graphops.unit_lengths(topo) if unit
               else graphops.weight_lengths(topo))
    return adj, lengths


@pytest.mark.parametrize("seed", range(8))
def test_dijkstra_matches_enumeration(seed):
    topo = random_topology(seed, n_switches=7, extra_links=4)
    adj, lengths = _adj_and_lengths(topo)
    switches = topo.switches
    for s in switches:
        _, best = named_dijkstra(graphops.weighted(adj, lengths), s)
        for t in switches:
            if s != t:
                assert best[t] == brute_shortest(adj, lengths, s, t)


@pytest.mark.parametrize("seed", range(8))
def test_min_cost_paths_matches_enumeration(seed):
    topo = random_topology(seed + 100, n_switches=7, extra_links=4)
    adj, lengths = _adj_and_lengths(topo)
    rng = np.random.default_rng(seed)
    switches = list(topo.switches)
    for _ in range(5):
        s, t = rng.choice(len(switches), size=2, replace=False)
        s, t = switches[s], switches[t]
        rgraph = graphops.reversed_graph(graphops.weighted(adj, lengths))
        dist_to = named_dijkstra(rgraph, t)[0]
        assert (graphops.min_cost_paths(adj, lengths, s, t, dist_to)
                == brute_min_cost_set(adj, lengths, s, t))


@pytest.mark.parametrize("seed", range(8))
def test_yen_matches_brute_force_top_k(seed):
    topo = random_topology(seed + 200, n_switches=7, extra_links=4)
    adj, lengths = _adj_and_lengths(topo)
    rng = np.random.default_rng(seed)
    switches = list(topo.switches)
    for _ in range(4):
        s, t = rng.choice(len(switches), size=2, replace=False)
        s, t = switches[s], switches[t]
        got = graphops.k_shortest_paths(adj, lengths, s, [t], 4)
        assert got == {t: brute_k_shortest(adj, lengths, s, t, 4)}


#: node names listed out of their sorted order, "B" < "a" < "v10" < "v2"
#: < "v9" < "z1"
_UNSORTED_NAMES = ("v10", "v9", "a", "B", "z1", "v2")


@st.composite
def _directed_graphs(draw, lengths=TIED_LENGTHS, names=None):
    """Small directed graphs: arcs in drawn order (so the adjacency order
    varies), each with its own length, reverse arcs drawn independently.
    Nodes are v0, v1, ... or, with ``names``, a shuffled draw from them, so
    that name order differs from creation and adjacency order."""
    n = draw(st.integers(2, 6))
    nodes = ([f"v{i}" for i in range(n)] if names is None
             else draw(st.permutations(names))[:n])
    arcs = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes))
                         .filter(lambda a: a[0] != a[1]), unique=True))
    adj = {u: tuple(v for (w, v) in arcs if w == u) for u in nodes}
    return adj, {a: draw(lengths) for a in arcs}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=_directed_graphs(), k=st.integers(1, 6))
def test_yen_matches_brute_force_property(graph, k):
    adj, lengths = graph
    for s, t in itertools.permutations(adj, 2):
        expected = brute_k_shortest(adj, lengths, s, t, k)
        if not expected:
            with pytest.raises(UnreachablePair):
                graphops.k_shortest_paths(adj, lengths, s, [t], k)
        else:
            assert (graphops.k_shortest_paths(adj, lengths, s, [t], k)
                    == {t: expected})


#: non-dyadic lengths: sums round, so candidates tie or differ in the last
#: bit by the order of addition (0.1 + 0.2 == 0.30000000000000004)
ROUNDING_LENGTHS = st.sampled_from([0.1, 0.2, 0.30000000000000004, 0.5, 1.0])


def _any_named_graphs():
    lengths = st.one_of(TIED_LENGTHS, ROUNDING_LENGTHS)
    return st.one_of(_directed_graphs(lengths),
                     _directed_graphs(lengths, _UNSORTED_NAMES))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_any_named_graphs(), k=st.integers(1, 6))
def test_yen_per_source_matches_per_pair_reference(graph, k):
    """One call per source, all reachable targets at once, equals Yen run
    pair by pair with stop-at-target searches, path for path."""
    adj, lengths = graph
    for s in adj:
        reach = {t for t in adj if enumerate_simple_paths(adj, s, t)}
        targets = [t for t in adj if t != s and t in reach]
        got = graphops.k_shortest_paths(adj, lengths, s, targets, k)
        assert list(got) == targets
        for t in targets:
            assert got[t] == reference_k_shortest_paths(adj, lengths, s, t, k)
        for t in adj:
            if t not in reach:
                with pytest.raises(UnreachablePair, match=f"{s} -> {t}"):
                    graphops.k_shortest_paths(adj, lengths, s,
                                              targets + [t], k)


@st.composite
def _dense_graphs(draw):
    """3-6 nodes from ``_UNSORTED_NAMES`` with at least half of the ordered
    pairs as arcs, in drawn order, of length 1.0 or 2.0: many equal-cost
    paths, so ties between node sequences decide most searches."""
    nodes = draw(st.permutations(_UNSORTED_NAMES))[:draw(st.integers(3, 6))]
    pairs = draw(st.permutations(list(itertools.permutations(nodes, 2))))
    arcs = pairs[:draw(st.integers((len(pairs) + 1) // 2, len(pairs)))]
    adj = {u: tuple(v for (w, v) in arcs if w == u) for u in nodes}
    return adj, {a: draw(st.sampled_from([1.0, 2.0])) for a in arcs}


def _check_dijkstra_with_bans(graph, data):
    """The one search, with random banned nodes and directed edges (never
    the source), settles each target on the path a stop-at-target search
    picks; an unreachable or banned target is missing from both maps."""
    adj, lengths = graph
    nodes = list(adj)
    source = data.draw(st.sampled_from(nodes))
    banned_nodes = data.draw(st.sets(st.sampled_from(nodes))) - {source}
    banned_edges = (data.draw(st.sets(st.sampled_from(list(lengths))))
                    if lengths else set())
    dist, best = named_dijkstra(graphops.weighted(adj, lengths), source,
                                banned_nodes, banned_edges)
    for t in nodes:
        try:
            expected = reference_shortest_path(adj, lengths, source, t,
                                               banned_nodes, banned_edges)
        except UnreachablePair:
            assert t not in best and t not in dist
        else:
            assert best[t] == expected
            assert dist[t] == path_cost(lengths, expected)
    assert set(dist) == set(best)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_any_named_graphs(), data=st.data())
def test_dijkstra_with_bans_matches_reference(graph, data):
    _check_dijkstra_with_bans(graph, data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_dense_graphs(), data=st.data())
def test_dijkstra_with_bans_on_dense_graphs(graph, data):
    """Dense graphs with few lengths meet ties that sparse ones rarely do."""
    _check_dijkstra_with_bans(graph, data)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph=_directed_graphs())
def test_min_cost_paths_matches_enumeration_property(graph):
    adj, lengths = graph
    rgraph = graphops.reversed_graph(graphops.weighted(adj, lengths))
    for t in adj:
        dist_to = named_dijkstra(rgraph, t)[0]
        for s in adj:
            if s == t:
                continue
            if not enumerate_simple_paths(adj, s, t):
                with pytest.raises(UnreachablePair, match=f"{s} -> {t}"):
                    graphops.min_cost_paths(adj, lengths, s, t, dist_to)
            else:
                assert (graphops.min_cost_paths(adj, lengths, s, t, dist_to)
                        == brute_min_cost_set(adj, lengths, s, t))


def test_unreachable_pair_raises():
    adj = {"a": ("b",), "b": (), "c": ("b",)}
    lengths = {("a", "b"): 1.0, ("c", "b"): 1.0}
    graph = graphops.weighted(adj, lengths)
    rgraph = graphops.reversed_graph(graph)
    assert "a" not in named_dijkstra(graph, "b")[1]
    assert "b" not in named_dijkstra(
        graph, "a", banned_edges={("a", "b")})[1]
    with pytest.raises(UnreachablePair):
        graphops.k_shortest_paths(adj, lengths, "a", ["c"], 3)
    with pytest.raises(UnreachablePair, match="c -> a"):
        graphops.k_shortest_paths(adj, lengths, "c", ["b", "a"], 3)
    with pytest.raises(UnreachablePair):
        graphops.min_cost_paths(adj, lengths, "a", "c",
                                named_dijkstra(rgraph, "c")[0])


def test_ties_break_by_name_not_creation_order():
    """Of two equal paths, the one through "B" sorts first, although "a"
    is created first and comes first in the adjacency."""
    adj = {"z1": ("a", "B"), "a": ("v9",), "B": ("v9",), "v9": ()}
    lengths = dict.fromkeys(
        [("z1", "a"), ("z1", "B"), ("a", "v9"), ("B", "v9")], 1.0)
    graph = graphops.weighted(adj, lengths)
    assert named_dijkstra(graph, "z1")[1]["v9"] == ("z1", "B", "v9")
    assert graphops.k_shortest_paths(adj, lengths, "z1", ["v9"], 2) == {
        "v9": [("z1", "B", "v9"), ("z1", "a", "v9")]}


def test_dijkstra_rejects_a_banned_source():
    graph = graphops.weighted({"a": ("b",), "b": ("a",)},
                              {("a", "b"): 1.0, ("b", "a"): 1.0})
    with pytest.raises(ValueError, match="source b is banned"):
        graphops.dijkstra(graph, graph.ids["b"], [graph.ids["b"]])


def test_yen_handles_fewer_paths_than_k(line4):
    adj, lengths = _adj_and_lengths(line4)
    assert graphops.k_shortest_paths(adj, lengths, "a", ["d"], 5) == {
        "d": [("a", "b", "c", "d")]}


def test_shortcut_removes_loops():
    assert graphops.shortcut(("a", "b", "c", "b", "d")) == ("a", "b", "d")
    assert graphops.shortcut(("a", "b", "a", "c")) == ("a", "c")
    assert graphops.shortcut(("a", "b", "c")) == ("a", "b", "c")
    # nested loops collapse fully
    assert graphops.shortcut(("a", "b", "c", "b", "c", "d", "a", "e")) == ("a", "e")


def test_shortcut_never_adds_edges():
    rng = np.random.default_rng(1)
    nodes = list("abcdef")
    for _ in range(100):
        walk = [nodes[rng.integers(6)] for _ in range(8)]
        walk = tuple(walk)
        cut = graphops.shortcut(walk)
        assert len(set(cut)) == len(cut)
        assert cut[0] == walk[0] and cut[-1] == walk[-1]
        walk_edges = set(zip(walk, walk[1:]))
        for e in zip(cut, cut[1:]):
            assert e in walk_edges


_NODES = st.sampled_from("abcdefgh")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(head=st.lists(_NODES, min_size=1, unique=True),
       rest=st.lists(_NODES, max_size=12))
def test_meet_joins_like_shortcut_property(head, rest):
    """A simple head and any walk B from its last node: the shortcut of
    head + B[1:] is head up to the meeting node, then B's shortcut from
    that node's last visit."""
    head = tuple(head)
    walk = head[-1:] + tuple(rest)
    a, j = graphops.meet(head, graphops.positions(walk))
    assert (head[:a] + graphops.shortcut(walk[j:])
            == graphops.shortcut(head + walk[1:]))
