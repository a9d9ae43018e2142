import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tekit import (Edge, Topology, ecmp, graphops, ksp, spf,
                   validate_scheme, vlb)

from conftest import TIED_LENGTHS, build_topology, random_topology
from helpers import (brute_k_shortest, brute_min_cost_set, path_cost,
                     reference_vlb, scheme_items)


@pytest.fixture(scope="module")
def tri_full():
    return build_topology("tri", [("x", "y"), ("x", "z"), ("y", "z")])


def test_spf_triangle_direct_edge(tri_full):
    scheme = spf(tri_full)
    assert scheme[("h_x", "h_z")] == {("h_x", "x", "z", "h_z"): 1.0}


def test_spf_line(line4):
    scheme = spf(line4)
    assert scheme[("h_a", "h_d")] == {("h_a", "a", "b", "c", "d", "h_d"): 1.0}


def test_spf_distances_match_oracle(abilene):
    from helpers import bellman_ford_distances
    scheme = spf(abilene)
    adj = graphops.switch_graph(abilene)
    lengths = graphops.weight_lengths(abilene)
    oracle = {s: bellman_ford_distances(adj, lengths, s) for s in abilene.switches}
    for (s, d), paths in scheme.items():
        (path, prob), = paths.items()
        assert prob == 1.0
        s_sw, d_sw = abilene.host_switch(s), abilene.host_switch(d)
        sw_path = path[1:-1]
        cost = sum(lengths[(sw_path[i], sw_path[i + 1])]
                   for i in range(len(sw_path) - 1))
        assert cost == pytest.approx(oracle[s_sw][d_sw], abs=1e-12)


def test_ecmp_diamond_splits_evenly(diamond):
    scheme = ecmp(diamond)
    entry = scheme[("hs", "ht")]
    assert len(entry) == 2
    assert all(p == pytest.approx(0.5) for p in entry.values())


def test_ecmp_equals_spf_on_line(line4):
    assert ecmp(line4) == spf(line4)


@pytest.mark.parametrize("seed", range(6))
def test_ecmp_matches_enumeration_oracle(seed):
    topo = random_topology(seed + 300, n_switches=8, extra_links=5)
    scheme = ecmp(topo)
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    for (s, d), dist in scheme.items():
        s_sw, d_sw = topo.host_switch(s), topo.host_switch(d)
        if s_sw == d_sw:
            continue
        expected = brute_min_cost_set(adj, lengths, s_sw, d_sw)
        got = sorted(p[1:-1] for p in dist)
        assert got == sorted(expected)
        assert all(v == pytest.approx(1.0 / len(expected)) for v in dist.values())


@st.composite
def _asymmetric_topologies(draw):
    """Connected switch graphs whose two directions of a link draw their
    latency weights apart, from few values, so ties abound; one host per
    switch."""
    n = draw(st.integers(2, 6))
    switches = [f"s{i}" for i in range(n)]
    links = {(switches[draw(st.integers(0, i - 1))], switches[i])
             for i in range(1, n)}
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.lists(st.sampled_from(switches), min_size=2,
                             max_size=2, unique=True))
        if (b, a) not in links:
            links.add((a, b))
    nodes = {sw: "switch" for sw in switches}
    edges = []
    for a, b in sorted(links):
        edges += [Edge(a, b, 10.0, draw(TIED_LENGTHS)),
                  Edge(b, a, 10.0, draw(TIED_LENGTHS))]
    for sw in switches:
        nodes[f"h_{sw}"] = "host"
        edges += [Edge(f"h_{sw}", sw, 1e9, 0.0), Edge(sw, f"h_{sw}", 1e9, 0.0)]
    return Topology("asym", nodes, edges)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(topo=_asymmetric_topologies())
def test_ecmp_matches_enumeration_property(topo):
    scheme = ecmp(topo)
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    for (s, d), dist in scheme.items():
        s_sw, d_sw = topo.host_switch(s), topo.host_switch(d)
        expected = brute_min_cost_set(adj, lengths, s_sw, d_sw)
        assert [p[1:-1] for p in dist] == expected
        assert all(v == 1.0 / len(expected) for v in dist.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(topo=_asymmetric_topologies())
def test_vlb_matches_walk_by_walk_reference_property(topo):
    assert scheme_items(vlb(topo)) == scheme_items(reference_vlb(topo))


def test_ecmp_searches_once_per_switch(monkeypatch):
    topo = random_topology(12, n_switches=12, extra_links=6)
    sources = []
    search = graphops.dijkstra
    monkeypatch.setattr(graphops, "dijkstra",
                        lambda graph, s: sources.append(graph.names[s])
                        or search(graph, s))
    ecmp(topo)
    assert len(topo.switches) == 12
    assert sorted(sources) == sorted(topo.switches)


def test_ksp_shares_spur_searches_across_targets(monkeypatch, abilene):
    """Yen runs once per source switch and each distinct restricted search
    once per source: 473 on abilene, against 1 666 run pair by pair."""
    searches = []
    search = graphops.dijkstra
    monkeypatch.setattr(graphops, "dijkstra",
                        lambda *args: searches.append(args[0].names[args[1]])
                        or search(*args))
    ksp(abilene)
    assert len(searches) == 473
    assert set(searches) == set(abilene.switches)


@pytest.mark.parametrize("seed, count", [(0, 3009), (1, 2973)])
def test_ksp_spur_search_counts(monkeypatch, seed, count):
    """The restricted searches Yen runs on 30 switches: a memo key that
    stops sharing searches across targets raises the count."""
    searches = []
    search = graphops.dijkstra
    monkeypatch.setattr(graphops, "dijkstra",
                        lambda *args: searches.append(args[1])
                        or search(*args))
    ksp(random_topology(seed, n_switches=30, extra_links=15))
    assert len(searches) == count


def test_ksp_diamond_two_paths(diamond):
    scheme = ksp(diamond, 2)
    entry = scheme[("hs", "ht")]
    assert len(entry) == 2
    assert all(v == pytest.approx(0.5) for v in entry.values())


def test_ksp_degenerate_on_line(line4):
    scheme = ksp(line4, 3)
    assert scheme[("h_a", "h_d")] == {("h_a", "a", "b", "c", "d", "h_d"): 1.0}


@pytest.mark.parametrize("seed", range(6))
def test_ksp_matches_brute_force_top4(seed):
    topo = random_topology(seed + 400, n_switches=8, extra_links=5)
    scheme = ksp(topo, 4)
    adj = graphops.switch_graph(topo)
    lengths = graphops.weight_lengths(topo)
    for (s, d), dist in scheme.items():
        s_sw, d_sw = topo.host_switch(s), topo.host_switch(d)
        if s_sw == d_sw:
            continue
        expected = brute_k_shortest(adj, lengths, s_sw, d_sw, 4)
        got = [p[1:-1] for p in sorted(
            dist, key=lambda p: (path_cost(lengths, p[1:-1]), len(p), p))]
        assert got == expected


def test_ksp_k1_equals_spf(abilene):
    assert ksp(abilene, 1) == spf(abilene)


def test_vlb_triangle_single_intermediate(triangle):
    scheme = vlb(triangle)
    assert scheme[("hx", "hz")] == {("hx", "sx", "sy", "sz", "hz"): 1.0}


def test_vlb_diamond_two_intermediates(diamond):
    scheme = vlb(diamond)
    entry = scheme[("hs", "ht")]
    assert entry == {("hs", "ss", "sa", "st", "ht"): 0.5,
                     ("hs", "ss", "sb", "st", "ht"): 0.5}


def test_vlb_mean_hops_at_least_spf():
    for name in ("abilene", "diamond", "triangle", "path8"):
        from tekit import load_bundled_topology
        topo = load_bundled_topology(name)
        if len(topo.switches) < 3:
            continue

        def mean_hops(scheme):
            total = 0.0
            for dist in scheme.values():
                total += sum((len(path) - 1) * prob for path, prob in dist.items())
            return total / len(scheme)

        assert mean_hops(vlb(topo)) >= mean_hops(spf(topo)) - 1e-12


def test_all_baselines_validate(abilene):
    for scheme in (spf(abilene), ecmp(abilene), ksp(abilene, 3),
                   vlb(abilene)):
        assert validate_scheme(scheme, abilene) == []


def test_spf_path_is_among_ecmp_paths(abilene):
    s, e = spf(abilene), ecmp(abilene)
    for pair, dist in s.items():
        (path,) = dist
        assert path in e[pair]


def test_oblivious_outputs_are_demand_independent(abilene):
    # schemes depend only on the topology: two invocations are identical
    assert spf(abilene) == spf(abilene)
    assert ecmp(abilene) == ecmp(abilene)
    assert ksp(abilene, 4) == ksp(abilene, 4)
    assert vlb(abilene) == vlb(abilene)
