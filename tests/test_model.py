import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tekit
from tekit import (AlgorithmKind, Edge, Topology, TopologyError, TrafficMatrix,
                   churn, prune_to_budget, validate_scheme)
from tekit.demand import GravityState, gravity_tm, mh_step
from tekit.model import ALGORITHM_NAMES, both_directions, lift
from tekit.raecke import paths_from_distribution, raecke_distribution

from conftest import tm_of
from helpers import scheme_items


def test_topology_rejects_unknown_endpoint():
    with pytest.raises(TopologyError):
        Topology("bad", {"a": "switch"}, [Edge("a", "b", 1.0)])


def test_topology_rejects_nonpositive_capacity():
    with pytest.raises(TopologyError):
        Topology("bad", {"a": "switch", "b": "switch"},
                 [Edge("a", "b", 0.0), Edge("b", "a", 0.0)])


@pytest.mark.parametrize("cap, weight", [(float("nan"), 1.0),
                                          (1.0, float("nan")),
                                          (float("inf"), 1.0),
                                          (1.0, float("inf"))])
def test_topology_rejects_nan_capacity_or_weight(cap, weight):
    with pytest.raises(TopologyError):
        Topology("bad", {"a": "switch", "b": "switch"},
                 [Edge("a", "b", cap, weight), Edge("b", "a", cap, weight)])


def test_topology_rejects_disconnected():
    with pytest.raises(TopologyError, match="disconnected"):
        Topology("bad", {"a": "switch", "b": "switch", "c": "switch",
                         "d": "switch"},
                 [Edge("a", "b", 1.0), Edge("b", "a", 1.0),
                  Edge("c", "d", 1.0), Edge("d", "c", 1.0)])


def test_topology_rejects_multihomed_host():
    with pytest.raises(TopologyError, match="exactly one switch"):
        Topology("bad",
                 {"s1": "switch", "s2": "switch", "h": "host"},
                 [Edge("s1", "s2", 1.0), Edge("s2", "s1", 1.0),
                  Edge("h", "s1", 1.0), Edge("s1", "h", 1.0),
                  Edge("h", "s2", 1.0), Edge("s2", "h", 1.0)])


def test_traffic_matrix_invariants():
    with pytest.raises(ValueError):
        TrafficMatrix(("a", "b"), np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        TrafficMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TrafficMatrix(("a", "b"), np.array([[0.0, bad], [0.0, 0.0]]))
    tm = TrafficMatrix(("b", "a"), np.array([[0.0, 2.0], [3.0, 0.0]]))
    assert tm.hosts == ("a", "b")  # sorted
    assert tm.get("a", "b") == 2.0


# -- prune_to_budget -----------------------------------------------------------

P1 = ("h_a", "a", "h_b")
P2 = ("h_a", "a", "b", "h_b")
P3 = ("h_a", "a", "c", "b", "h_b")


def test_prune_renormalizes_top_k():
    scheme = {("h_a", "h_b"): {P1: 0.5, P2: 0.3, P3: 0.2}}
    out = prune_to_budget(scheme, 2)
    assert set(out[("h_a", "h_b")]) == {P1, P2}
    assert out[("h_a", "h_b")][P1] == pytest.approx(0.625, abs=1e-12)
    assert out[("h_a", "h_b")][P2] == pytest.approx(0.375, abs=1e-12)


def test_prune_identity_when_under_budget():
    scheme = {("h_a", "h_b"): {P1: 1.0}}
    assert prune_to_budget(scheme, 3) == {("h_a", "h_b"): {P1: 1.0}}


def test_prune_tie_breaks_lexicographically():
    scheme = {("h_a", "h_b"): {P2: 0.5, P3: 0.5}}
    out = prune_to_budget(scheme, 1)
    assert set(out[("h_a", "h_b")]) == {P2}  # P2 < P3 lexicographically


def test_prune_idempotent_and_monotone():
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(3))
        scheme = {("h_a", "h_b"): dict(zip((P1, P2, P3), map(float, probs)))}
        for k in (1, 2, 3):
            once = prune_to_budget(scheme, k)
            twice = prune_to_budget(once, k)
            assert set(twice[("h_a", "h_b")]) == set(once[("h_a", "h_b")])
            for p, v in once[("h_a", "h_b")].items():
                assert twice[("h_a", "h_b")][p] == pytest.approx(v, abs=1e-15)
            assert len(once[("h_a", "h_b")]) <= len(scheme[("h_a", "h_b")])
            ranked_in = sorted(scheme[("h_a", "h_b")].items(),
                               key=lambda kv: (-kv[1], kv[0]))
            ranked_out = sorted(once[("h_a", "h_b")].items(),
                                key=lambda kv: (-kv[1], kv[0]))
            kept = [p for p, _ in ranked_in[:k]]
            assert [p for p, _ in ranked_out] == kept


def test_prune_raecke_abilene_budget3(abilene):
    dist = raecke_distribution(abilene, 12)
    scheme = paths_from_distribution(dist, abilene)
    pruned = prune_to_budget(scheme, 3)
    for pair, d in pruned.items():
        assert 1 <= len(d) <= 3
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


# -- churn ---------------------------------------------------------------------

def test_churn_identity_and_swap():
    a = {("x", "y"): {P1: 0.6, P2: 0.4}}
    assert churn(a, a) == 0
    b = {("x", "y"): {P1: 0.6, P3: 0.4}}
    assert churn(a, b) == 2


def test_churn_is_a_metric():
    rng = np.random.default_rng(9)
    paths = [P1, P2, P3, ("h_a", "a", "d", "h_b")]

    def random_scheme():
        out = {}
        for pair in (("p", "q"), ("q", "p"), ("p", "r")):
            chosen = [p for p in paths if rng.random() < 0.5]
            if chosen:
                out[pair] = {p: 1.0 / len(chosen) for p in chosen}
        return out

    for _ in range(200):
        a, b, c = random_scheme(), random_scheme(), random_scheme()
        assert churn(a, a) == 0
        assert churn(a, b) == churn(b, a)
        assert churn(a, c) <= churn(a, b) + churn(b, c)


def test_mcf_churns_more_than_semi_raecke(abilene):
    """Over an evolving demand sequence, recomputing paths every step churns
    strictly more than re-weighting a fixed base."""
    state = GravityState.initial(abilene.hosts, seed=4)
    tms = []
    for _ in range(10):
        tms.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    dist = raecke_distribution(abilene, 4)
    base = prune_to_budget(paths_from_distribution(dist, abilene), 5)

    mcf_total = semi_total = 0
    prev_mcf = prev_semi = None
    for tm in tms:
        mcf_scheme = tekit.mcf_mw(abilene, tm).scheme
        semi_scheme = tekit.semi_mcf(abilene, tm, base).scheme
        if prev_mcf is not None:
            mcf_total += churn(prev_mcf, mcf_scheme)
            semi_total += churn(prev_semi, semi_scheme)
        prev_mcf, prev_semi = mcf_scheme, semi_scheme
    assert mcf_total > semi_total


# -- validate_scheme -----------------------------------------------------------

def test_validate_accepts_spf(abilene):
    assert validate_scheme(tekit.spf(abilene), abilene) == []


def test_validate_flags_bad_normalization(line4):
    scheme = {("h_a", "h_b"): {("h_a", "a", "b", "h_b"): 0.8}}
    violations = validate_scheme(scheme, line4)
    assert len(violations) == 1
    assert "sum" in violations[0]


def test_validate_flags_gap_in_path(line4):
    scheme = {("h_a", "h_c"): {("h_a", "a", "c", "h_c"): 1.0}}
    violations = validate_scheme(scheme, line4)
    assert any("missing edge" in v for v in violations)


def test_validate_flags_wrong_start_switch(line4):
    scheme = {("h_a", "h_b"): {("h_a", "b", "h_b"): 1.0}}
    violations = validate_scheme(scheme, line4)
    assert violations


# -- AlgorithmKind -------------------------------------------------------------

def test_algorithm_kind_parsing():
    assert AlgorithmKind.parse("spf").category == "oblivious"
    semi = AlgorithmKind.parse("semimcfraecke")
    assert semi.tag == "semimcf" and semi.base == "raecke"
    assert semi.category == "semi-oblivious"
    assert semi.name == "semimcfraecke"
    assert AlgorithmKind.parse("mcf").category == "conscious"
    assert AlgorithmKind.parse("optimalmcf").category == "conscious"
    assert AlgorithmKind.parse("semimcfmcfftenv").category == "semi-oblivious"
    with pytest.raises(ValueError, match="valid names"):
        AlgorithmKind.parse("bogus")
    with pytest.raises(ValueError):
        AlgorithmKind("semimcf", "semimcf")


def test_algorithm_kind_catalogue_has_one_rule():
    env = AlgorithmKind.parse("semimcfmcfenv")
    assert (env.tag, env.base, env.name) == ("semimcf", "mcfenv",
                                             "semimcfmcfenv")
    assert AlgorithmKind.parse("semimcfmcfftenv").base == "mcfftenv"
    for name in ALGORITHM_NAMES:
        assert AlgorithmKind.parse(name).name == name
    for tag in ("bogus", "semimcfmcfenv", "semimcfraecke"):
        with pytest.raises(ValueError, match="unknown algorithm tag"):
            AlgorithmKind(tag)


# -- switch edges and the host lift --------------------------------------------

def _two_hosts_per_switch():
    nodes = {"x": "switch", "y": "switch", "z": "switch"}
    edges = [Edge("x", "y", 5.0), Edge("y", "x", 5.0),
             Edge("y", "z", 5.0), Edge("z", "y", 5.0)]
    for sw in "xz":
        for host in (f"a{sw}", f"b{sw}"):
            nodes[host] = "host"
            edges += [Edge(host, sw, 9.0, 0.0), Edge(sw, host, 9.0, 0.0)]
    return Topology("pairs", nodes, edges)


def test_switch_edges_follow_edge_order(abilene):
    assert abilene.switch_edges == tuple(
        k for k in abilene.edges if k[0].startswith("s") and k[1].startswith("s"))
    assert len(abilene.switch_edges) == 2 * len(abilene.links())


def test_both_directions():
    assert both_directions([("a", "b"), ("c", "d")]) == frozenset(
        {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")})
    assert both_directions([]) == frozenset()


def test_lift_routes_each_switch_pair_once():
    topo = _two_hosts_per_switch()
    calls = []
    tenth = {(f"p{i}",): 0.1 for i in range(10)}

    def route(s, d):
        calls.append((s, d))
        return tenth

    scheme = lift(topo, route)
    assert calls == [("x", "z"), ("z", "x")]  # y serves no host
    assert list(scheme) == [(s, d) for s in topo.hosts for d in topo.hosts
                            if s != d]
    assert scheme[("ax", "bx")] == {("ax", "x", "bx"): 1.0}
    entry = scheme[("ax", "bz")]
    assert list(entry) == [("ax", f"p{i}", "bz") for i in range(10)]
    # shares are copied, not renormalized: ten tenths sum below one
    assert sum(entry.values()) == sum(tenth.values()) != 1.0


#: simple switch paths' middles and unnormalized shares, with many ties
_MIDDLES = st.lists(st.lists(st.sampled_from("pqrstu"), max_size=4,
                             unique=True).map(tuple),
                    min_size=1, max_size=8, unique=True)
_SHARES = st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), budget=st.integers(1, 4))
def test_lift_budget_equals_prune_property(data, budget):
    """Cutting each switch pair to the budget before the stubs go on is
    ``prune_to_budget`` of the unbudgeted scheme: same pairs, same path
    order, same bits, also where host pairs share a switch pair."""
    topo = _two_hosts_per_switch()
    routes = {}
    for s, d in (("x", "z"), ("z", "x")):
        routes[(s, d)] = {(s,) + middle + (d,): data.draw(_SHARES)
                          for middle in data.draw(_MIDDLES)}

    def route(s, d):
        return routes[(s, d)]

    assert scheme_items(lift(topo, route, budget)) == scheme_items(
        prune_to_budget(lift(topo, route), budget))


def test_lift_rejects_zero_budget():
    with pytest.raises(ValueError, match="budget"):
        lift(_two_hosts_per_switch(), lambda s, d: {(s, d): 1.0}, 0)
