import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tekit
from tekit import graphops, raecke, validate_scheme
from tekit.demand import GravityState, gravity_tm, mh_step
from tekit.raecke import (RoutingTree, frt_tree, paths_from_distribution,
                          raecke_distribution, stretch)

from conftest import TIED_LENGTHS, build_topology, random_topology
from helpers import reference_raecke_paths, scheme_items


@pytest.fixture(scope="module")
def single_edge():
    return build_topology("single", [("u", "v")])


@pytest.fixture(scope="module")
def star4():
    return build_topology("star4", [("hub", "a"), ("hub", "b"), ("hub", "c")])


def test_frt_single_edge_unique_tree(single_edge):
    lengths = graphops.unit_lengths(single_edge)
    tree = frt_tree(single_edge, lengths, seed=0)
    assert tree.clusters[0] == frozenset({"u", "v"})
    leaves = [c for c in tree.clusters if len(c) == 1]
    assert sorted(map(tuple, leaves)) == [("u",), ("v",)]
    for i, path in enumerate(tree.edge_paths):
        if tree.parent[i] is not None and len(path) > 1:
            assert set(zip(path, path[1:])) <= {("u", "v"), ("v", "u")}


def test_frt_leaves_biject_switches(abilene):
    lengths = graphops.unit_lengths(abilene)
    for seed in range(10):
        tree = frt_tree(abilene, lengths, seed)
        assert sorted(tree.leaf_index) == sorted(abilene.switches)
        singles = [c for c in tree.clusters if len(c) == 1]
        assert len(singles) == len(abilene.switches)
        # laminar: every non-root cluster is a strict subset of its parent
        for i, c in enumerate(tree.clusters):
            p = tree.parent[i]
            if p is not None:
                assert c < tree.clusters[p]


@pytest.mark.parametrize("seed", range(12))
def test_frt_walks_are_contiguous(seed):
    topo = random_topology(seed + 800, n_switches=7, extra_links=4)
    lengths = graphops.unit_lengths(topo)
    tree = frt_tree(topo, lengths, seed)
    for (u, v) in topo.links():
        walk = tree.walk(u, v)
        assert walk[0] == u and walk[-1] == v
        for hop in zip(walk, walk[1:]):
            assert hop in topo.edges


def test_stretch_single_edge_is_one(single_edge):
    lengths = graphops.unit_lengths(single_edge)
    tree = frt_tree(single_edge, lengths, seed=1)
    assert stretch(tree, single_edge, lengths) == pytest.approx(1.0)


def test_stretch_star_with_itself():
    topo = build_topology("star4", [("hub", "a"), ("hub", "b"), ("hub", "c")])
    members = frozenset({"hub", "a", "b", "c"})
    tree = RoutingTree(
        clusters=(members, frozenset({"hub"}), frozenset({"a"}),
                  frozenset({"b"}), frozenset({"c"})),
        parent=(None, 0, 0, 0, 0),
        reps=("hub", "hub", "a", "b", "c"),
        edge_paths=(("hub",), ("hub",), ("hub", "a"), ("hub", "b"),
                    ("hub", "c")),
        leaf_index={"hub": 1, "a": 2, "b": 3, "c": 4},
    )
    lengths = graphops.unit_lengths(topo)
    for (u, v) in topo.links():
        walk = tree.walk(u, v)
        assert graphops.path_cost(lengths, walk) / lengths[(u, v)] == 1.0
    assert stretch(tree, topo, lengths) >= 1.0


def test_stretch_at_least_one_under_metric_lengths(path8):
    lengths = graphops.unit_lengths(path8)
    for seed in range(20):
        tree = frt_tree(path8, lengths, seed)
        assert stretch(tree, path8, lengths) >= 1.0 - 1e-12


def test_frt_stretch_envelope_path8(path8):
    """200 seeded trees on the 8-switch line stay within the logarithmic
    stretch envelope."""
    lengths = graphops.unit_lengths(path8)
    bound = 32.0 * math.log(8)
    worst = 0.0
    for seed in range(200):
        tree = frt_tree(path8, lengths, seed)
        worst = max(worst, stretch(tree, path8, lengths))
    assert worst <= bound


def test_distribution_single_edge(single_edge):
    dist = raecke_distribution(single_edge, 3)
    assert len(dist.trees) == 1
    assert dist.trees[0][1] == pytest.approx(1.0)


def test_distribution_abilene_diverse(abilene):
    dist = raecke_distribution(abilene, 7)
    assert len(dist.trees) >= 2
    assert sum(p for _, p in dist.trees) == pytest.approx(1.0, abs=1e-9)
    assert all(p > 0 for _, p in dist.trees)


def test_distribution_lengths_monotone(abilene):
    dist = raecke_distribution(abilene, 5)
    init = graphops.inverse_capacity_lengths(abilene)
    for edge, ln in dist.lengths_final.items():
        assert ln >= init[edge] - 1e-15


def test_distribution_deterministic(abilene):
    a = raecke_distribution(abilene, 11).serialize()
    b = raecke_distribution(abilene, 11).serialize()
    assert a.encode() == b.encode()
    c = raecke_distribution(abilene, 12).serialize()
    assert a != c


def test_merge_compares_identities_in_full(abilene, monkeypatch):
    """With every routing identity hashing alike, still exactly the trees
    that route alike merge."""
    want = raecke_distribution(abilene, 7).serialize()
    monkeypatch.setattr(raecke, "hash", lambda key: 0, raising=False)
    assert raecke_distribution(abilene, 7).serialize() == want


def test_distribution_iteration_limit_reported(abilene, monkeypatch):
    monkeypatch.setattr(raecke, "MAX_ITERATIONS", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dist = raecke_distribution(abilene, 1)
    assert dist.hit_iteration_limit
    assert dist.trees  # distribution still returned
    assert any("MAX_ITERATIONS=1" in str(w.message) for w in caught)


def test_paths_single_tree_deterministic(triangle):
    dist = raecke_distribution(triangle, 2)
    one_tree = type(dist)(trees=(dist.trees[0][0], ), lengths_final={})
    # rebuild with a single tree at probability 1
    one_tree = type(dist)(trees=((dist.trees[0][0], 1.0),), lengths_final={})
    scheme = paths_from_distribution(one_tree, triangle)
    for pair, d in scheme.items():
        assert len(d) == 1
        assert sum(d.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("topo_name", ["abilene", "triangle", "diamond"])
def test_paths_probabilities_sum_to_one(topo_name):
    topo = tekit.load_bundled_topology(topo_name)
    for seed in range(50):
        dist = raecke_distribution(topo, seed)
        scheme = paths_from_distribution(dist, topo)
        for pair, d in scheme.items():
            assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


def _nine_node_fixture():
    """A 9-node topology and a hand-built 3-level tree over it whose
    representatives sit off the walks' direct routes."""
    topo = build_topology("nine", [
        ("A", "B"), ("B", "C"), ("C", "D"), ("A", "D"), ("C", "E"),
        ("E", "F"), ("D", "F"), ("E", "G"), ("F", "G"), ("G", "H"),
        ("F", "I"), ("H", "I")], hosts_on=["A", "G"])
    tree = RoutingTree(
        clusters=(
            frozenset("ABCDEFGHI"), frozenset("ABCDEF"), frozenset("G"),
            frozenset("H"), frozenset("I"), frozenset("ABCD"), frozenset("E"),
            frozenset("F"), frozenset("A"), frozenset("B"), frozenset("C"),
            frozenset("D"),
        ),
        parent=(None, 0, 0, 0, 0, 1, 1, 1, 5, 5, 5, 5),
        reps=("I", "E", "G", "H", "I", "C", "E", "F", "A", "B", "C", "D"),
        edge_paths=(
            ("I",), ("I", "F", "E"), ("I", "H", "G"), ("I", "H"), ("I",),
            ("E", "C"), ("E",), ("E", "F"), ("C", "B", "A"), ("C", "B"),
            ("C",), ("C", "D"),
        ),
        leaf_index={"A": 8, "B": 9, "C": 10, "D": 11, "E": 6, "F": 7,
                    "G": 2, "H": 3, "I": 4},
    )
    return topo, tree


def test_routing_tree_walk_concatenates_figure_fixture():
    """A 9-node fixture with a hand-built 3-level tree: the walk between
    distant leaves concatenates the per-edge physical paths into one
    contiguous physical walk."""
    topo, tree = _nine_node_fixture()
    walk = tree.walk("A", "G")
    assert walk[0] == "A" and walk[-1] == "G"
    for hop in zip(walk, walk[1:]):
        assert hop in topo.edges
    # the sub-paths A->C (via the first tree edge), C->E, E->I, I->G appear
    # in order as one contiguous physical walk
    assert walk == ("A", "B", "C", "E", "F", "I", "H", "G")


def test_schemes_validate_on_bundled_topologies_100_seeds():
    for name in ("abilene", "triangle", "diamond", "path8"):
        topo = tekit.load_bundled_topology(name)
        for seed in range(100):
            dist = raecke_distribution(topo, seed)
            scheme = paths_from_distribution(dist, topo)
            assert validate_scheme(scheme, topo) == []


@pytest.mark.parametrize("topo_name", ["triangle", "diamond", "path8"])
def test_congestion_within_small_factor_of_optimum(topo_name):
    """Tree-based oblivious routing stays within 2.5x of the re-optimized
    flow on gravity demands (the Abilene case runs in the acceptance
    suite)."""
    topo = tekit.load_bundled_topology(topo_name)
    dist = raecke_distribution(topo, 0)
    scheme = paths_from_distribution(dist, topo)
    state = GravityState.initial(topo.hosts, seed=1)
    good = 0
    for _ in range(100):
        tm = gravity_tm(state, 100.0)
        opt = tekit.mcf_mw(topo, tm).max_congestion
        got, _ = tekit.evaluate_scheme(topo, scheme, tm)
        if got <= 2.5 * opt:
            good += 1
        state = mh_step(state)
    assert good >= 95


@st.composite
def _partly_served_topologies(draw):
    """Random connected switch graphs with hosts on a random subset of the
    switches, so some clusters serve no pair."""
    n = draw(st.integers(3, 12))
    names = [f"n{i:02d}" for i in range(n)]
    links = {(names[draw(st.integers(0, i - 1))], names[i])
             for i in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        a, b = sorted(draw(st.lists(st.sampled_from(names), min_size=2,
                                    max_size=2, unique=True)))
        links.add((a, b))
    capped = [(a, b, draw(st.sampled_from([5.0, 10.0, 20.0, 40.0])))
              for a, b in sorted(links)]
    served = draw(st.lists(st.sampled_from(names), min_size=2, unique=True))
    return build_topology("partly", capped, hosts_on=served)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(topo=_partly_served_topologies(), seed=st.integers(0, 50))
def test_paths_match_walk_by_walk_reference_property(topo, seed):
    dist = raecke_distribution(topo, seed)
    assert scheme_items(paths_from_distribution(dist, topo)) == scheme_items(
        reference_raecke_paths(dist, topo))


def test_paths_match_reference_on_hand_built_tree():
    topo, tree = _nine_node_fixture()
    every = build_topology("nine-all", topo.links())
    dist = raecke.TreeDistribution(((tree, 1.0),), {})
    for t in (topo, every):
        assert scheme_items(paths_from_distribution(dist, t)) == scheme_items(
            reference_raecke_paths(dist, t))


@st.composite
def _weighted_graphs(draw):
    """Small directed graphs, some nodes possibly unreachable, with tied
    dyadic lengths or arbitrary non-negative floats."""
    nodes = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    arcs = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes))
                         .filter(lambda a: a[0] != a[1]), unique=True))
    lengths = draw(st.sampled_from([
        TIED_LENGTHS, st.floats(0.0, 1e3, allow_nan=False)]))
    adj = {u: tuple(v for (w, v) in arcs if w == u) for u in nodes}
    return graphops.weighted(adj, {a: draw(lengths) for a in arcs})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=_weighted_graphs())
def test_array_distances_equal_dijkstra_bit_for_bit(graph):
    nodes = list(range(len(graph.names)))
    dist = raecke._distances(graph, nodes)
    for i, s in enumerate(nodes):
        expected = graphops.dijkstra(graph, s)[0]
        for j, v in enumerate(nodes):
            assert dist[i, j] == expected.get(v, math.inf)


def test_frt_tree_searches_from_parent_representatives_only(abilene,
                                                            monkeypatch):
    sources = []
    search = graphops.dijkstra
    monkeypatch.setattr(graphops, "dijkstra",
                        lambda graph, s: sources.append(graph.names[s])
                        or search(graph, s))
    tree = frt_tree(abilene, graphops.inverse_capacity_lengths(abilene), 4)
    assert sorted(sources) == sorted(
        {tree.reps[p] for p in tree.parent if p is not None})


@pytest.mark.parametrize("topo, seed", [
    (tekit.load_bundled_topology("abilene"), 7),
    (tekit.load_bundled_topology("path8"), 3),
    # walks that revisit switches, so the levels' walks start apart
    (random_topology(902, n_switches=20, extra_links=12), 2),
], ids=["abilene", "path8", "random20"])
def test_collapse_one_source_per_pass_matches_reference(topo, seed,
                                                        monkeypatch):
    dist = raecke_distribution(topo, seed)
    want = scheme_items(reference_raecke_paths(dist, topo))
    assert scheme_items(paths_from_distribution(dist, topo)) == want
    monkeypatch.setattr(raecke, "_PASS_WALKS", 1)
    assert scheme_items(paths_from_distribution(dist, topo)) == want
    assert scheme_items(paths_from_distribution(dist, topo, 2)) == (
        scheme_items(tekit.prune_to_budget(reference_raecke_paths(dist, topo),
                                           2)))
