import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tekit
from tekit import (DisconnectedScenarioError, EmptyWindowError,
                   MissingPathsError, MwConfig, PhaseLimitError, demand_envelope, evaluate_scheme, ksp,
                   mcf_mw, optimal_mcf_step, semi_mcf, semi_mcf_env,
                   semi_mcf_ft_env, spf, validate_scheme)
from tekit.baseline import KspConfig
from tekit.model import Edge, Topology, TrafficMatrix

from conftest import build_topology, random_topology, tm_of
from helpers import lp_min_max_congestion, random_commodities


def test_parallel_routes_analytic(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = mcf_mw(diamond, tm, MwConfig(accuracy=0.05))
    assert 0.5 <= sol.max_congestion <= 0.525
    assert sol.solve_time < 1.0


def test_single_path_exact(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 40.0})
    sol = mcf_mw(line4, tm)
    assert sol.max_congestion == pytest.approx(0.4, abs=1e-9)
    entry = sol.scheme[("h_a", "h_d")]
    assert entry == {("h_a", "a", "b", "c", "d", "h_d"): 1.0}


@pytest.mark.parametrize("seed", range(10))
def test_mw_within_accuracy_of_lp_oracle(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(seed + 500, n_switches=6, extra_links=3)
    commodities = random_commodities(topo, rng, 3)
    opt = lp_min_max_congestion(topo, commodities)
    entries = {(f"h_{s}", f"h_{t}"): d for (s, t, d) in commodities}
    tm = tm_of(topo, entries)
    acc = 0.05
    sol = mcf_mw(topo, tm, MwConfig(accuracy=acc))
    assert sol.max_congestion <= (1 + acc) * opt + 1e-9
    assert sol.max_congestion >= opt - 1e-9


def test_flow_solution_invariants(abilene):
    tm = tm_of(abilene, {("h1", "h8"): 5e9, ("h4", "h2"): 3e9}, default=1e8)
    sol = mcf_mw(abilene, tm)
    assert sol.max_congestion == pytest.approx(max(sol.per_edge_util.values()),
                                               abs=1e-9)
    recomputed, util = evaluate_scheme(abilene, sol.scheme, tm)
    for k, v in util.items():
        assert sol.per_edge_util[k] == pytest.approx(v, abs=1e-9)
    for pair, dist in sol.scheme.items():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert validate_scheme(sol.scheme, abilene) == []


def test_zero_demand_pairs_get_spf_coverage(abilene):
    tm = tm_of(abilene, {("h1", "h2"): 1e9})
    sol = mcf_mw(abilene, tm)
    fallback = spf(abilene)
    assert set(sol.scheme) == set(fallback)
    assert sol.scheme[("h5", "h6")] == fallback[("h5", "h6")]


def test_phase_limit_carries_solution(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    with pytest.raises(PhaseLimitError) as info:
        mcf_mw(diamond, tm, MwConfig(accuracy=0.01, max_phases=2))
    sol = info.value.solution
    assert sol.max_congestion > 0
    assert sol.scheme


def test_capacity_scale_invariance(abilene):
    tm = tm_of(abilene, {("h1", "h8"): 4e9, ("h3", "h11"): 2e9}, default=5e7)
    sol1 = mcf_mw(abilene, tm)
    lam = 3.0
    scaled = Topology(abilene.name, abilene.nodes,
                      [Edge(e.src, e.dst, e.capacity * lam, e.weight)
                       for e in abilene.edges.values()])
    sol2 = mcf_mw(scaled, tm)
    paths1 = {pair: set(d) for pair, d in sol1.scheme.items()}
    paths2 = {pair: set(d) for pair, d in sol2.scheme.items()}
    assert paths1 == paths2
    assert sol2.max_congestion * lam == pytest.approx(sol1.max_congestion,
                                                      rel=2 * 0.05)


def test_demand_scale_linearity(abilene):
    tm = tm_of(abilene, {("h1", "h8"): 4e9, ("h3", "h11"): 2e9}, default=5e7)
    sol1 = mcf_mw(abilene, tm)
    sol2 = mcf_mw(abilene, tm.scaled(2.5))
    assert sol2.max_congestion == pytest.approx(2.5 * sol1.max_congestion,
                                                rel=2 * 0.05)


# -- semi (restricted path set) --------------------------------------------

def test_semi_single_path_forced(line4):
    base = spf(line4)
    tm = tm_of(line4, {("h_a", "h_d"): 40.0})
    sol = semi_mcf(line4, tm, base)
    assert sol.scheme[("h_a", "h_d")] == {("h_a", "a", "b", "c", "d", "h_d"): 1.0}
    assert sol.max_congestion == pytest.approx(0.4, abs=1e-9)


def test_semi_diamond_split(diamond):
    base = ksp(diamond, KspConfig(2))
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = semi_mcf(diamond, tm, base)
    assert 0.5 <= sol.max_congestion <= 0.525
    entry = sol.scheme[("hs", "ht")]
    top = entry[("hs", "ss", "sa", "st", "ht")]
    bottom = entry[("hs", "ss", "sb", "st", "ht")]
    assert top == pytest.approx(0.25, abs=0.05)
    assert bottom == pytest.approx(0.75, abs=0.05)


def test_semi_never_leaves_base(abilene):
    base = ksp(abilene, KspConfig(3))
    tm = tm_of(abilene, {}, default=2e8)
    sol = semi_mcf(abilene, tm, base)
    for pair, dist in sol.scheme.items():
        assert set(dist) <= set(base[pair])


def test_semi_missing_paths_error(abilene):
    base = spf(abilene)
    del base[("h1", "h2")]
    tm = tm_of(abilene, {("h1", "h2"): 1e9})
    with pytest.raises(MissingPathsError) as info:
        semi_mcf(abilene, tm, base)
    assert ("h1", "h2") in info.value.pairs


@pytest.mark.parametrize("seed", range(5))
def test_semi_full_base_matches_unrestricted(seed):
    """With every simple path available, restricting is vacuous."""
    topo = random_topology(seed + 600, n_switches=6, extra_links=3)
    from tekit.model import attach_stubs
    from helpers import enumerate_simple_paths
    from tekit import graphops
    adj = graphops.switch_graph(topo)
    base = {}
    for s in topo.hosts:
        for d in topo.hosts:
            if s == d:
                continue
            s_sw, d_sw = topo.host_switch(s), topo.host_switch(d)
            paths = ([(s_sw,)] if s_sw == d_sw
                     else enumerate_simple_paths(adj, s_sw, d_sw))
            base[(s, d)] = {attach_stubs(topo, s, d, tuple(p)): 1.0 / len(paths)
                            for p in paths}
    rng = np.random.default_rng(seed)
    commodities = random_commodities(topo, rng, 3)
    tm = tm_of(topo, {(f"h_{s}", f"h_{t}"): d for (s, t, d) in commodities})
    full = mcf_mw(topo, tm)
    restricted = semi_mcf(topo, tm, base)
    acc = 0.05
    assert restricted.max_congestion <= (1 + 2 * acc) * full.max_congestion
    assert full.max_congestion <= (1 + 2 * acc) * restricted.max_congestion


def test_unrestricted_never_worse_than_semi(abilene):
    tm = tm_of(abilene, {}, default=2e8)
    base = ksp(abilene, KspConfig(2))
    full = mcf_mw(abilene, tm)
    restricted = semi_mcf(abilene, tm, base)
    assert full.max_congestion <= (1 + 2 * 0.05) * restricted.max_congestion


# -- envelopes --------------------------------------------------------------

def test_envelope_identity_and_pairwise():
    hosts = ("a", "b")
    t1 = TrafficMatrix(hosts, np.array([[0.0, 0.0], [5.0, 0.0]]))
    t2 = TrafficMatrix(hosts, np.array([[0.0, 3.0], [2.0, 0.0]]))
    assert demand_envelope([t1]) == t1
    env = demand_envelope([t1, t2])
    assert env.get("a", "b") == 3.0 and env.get("b", "a") == 5.0
    with pytest.raises(EmptyWindowError):
        demand_envelope([])


def test_envelope_dominates_window(abilene):
    from tekit.demand import GravityState, gravity_tm, mh_step
    state = GravityState.initial(abilene.hosts, seed=8)
    window = []
    for _ in range(10):
        window.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    env = demand_envelope(window)
    for tm in window:
        assert np.all(env.rates >= tm.rates - 1e-12)


def test_env_scheme_validates(abilene):
    from tekit.demand import GravityState, gravity_tm, mh_step
    state = GravityState.initial(abilene.hosts, seed=9)
    window = []
    for _ in range(5):
        window.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    scheme = semi_mcf_env(abilene, window)
    assert validate_scheme(scheme, abilene) == []


def test_ft_env_empty_failure_set_equals_env(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    env = semi_mcf_env(diamond, [tm])
    ft = semi_mcf_ft_env(diamond, [tm], failure_set=())
    assert {p: set(d) for p, d in ft.items()} == {p: set(d) for p, d in env.items()}


def test_ft_env_diamond_covers_both_routes(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    ft = semi_mcf_ft_env(diamond, [tm], failure_set=[("sa", "st")])
    entry = ft[("hs", "ht")]
    assert ("hs", "ss", "sa", "st", "ht") in entry
    assert ("hs", "ss", "sb", "st", "ht") in entry


def test_ft_env_is_superset_of_env(abilene):
    tm = tm_of(abilene, {}, default=2e8)
    env = semi_mcf_env(abilene, [tm])
    ft = semi_mcf_ft_env(abilene, [tm])
    for pair in env:
        assert len(ft[pair]) >= len(env[pair])


def test_ft_env_default_scenarios_skip_bridges():
    # triangle a-b-c with a pendant switch d: c-d is a bridge
    topo = build_topology("kite", [("a", "b"), ("a", "c"), ("b", "c"),
                                   ("c", "d")])
    tm = tm_of(topo, {}, default=5.0)
    ft = semi_mcf_ft_env(topo, [tm])
    assert ft == semi_mcf_ft_env(topo, [tm], failure_set=[("a", "b"),
                                                          ("a", "c"),
                                                          ("b", "c")])


def test_ft_env_explicit_bridge_raises(path8):
    tm = tm_of(path8, {("ha", "hb"): 10.0})
    assert semi_mcf_ft_env(path8, [tm]) == semi_mcf_ft_env(
        path8, [tm], failure_set=())
    with pytest.raises(DisconnectedScenarioError) as err:
        semi_mcf_ft_env(path8, [tm], failure_set=[("p4", "p3")])
    assert err.value.link == ("p3", "p4")


def test_flow_solution_text_report(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = mcf_mw(diamond, tm)
    report = sol.to_report()
    lines = report.strip().splitlines()
    assert lines[0].startswith("max_congestion ")
    assert lines[1].startswith("solve_time ")
    assert any(l.startswith("hs ht ") and "hs-ss-sb-st-ht" in l for l in lines)


def test_optimal_step_runs_on_reduced_topology(abilene):
    reduced = abilene.without_links([("s2", "s12")])
    tm = tm_of(abilene, {}, default=2e8)
    sol = optimal_mcf_step(reduced, tm)
    assert validate_scheme(sol.scheme, reduced) == []
    for dist in sol.scheme.values():
        for path in dist:
            for hop in zip(path, path[1:]):
                assert hop in reduced.edges


# -- the shared multiplicative-weights core ---------------------------------

def _abilene_pin_inputs(abilene):
    from tekit.demand import generate_sequences
    from tekit.raecke import (RaeckeConfig, paths_from_distribution,
                              raecke_distribution)
    tm = generate_sequences(abilene, 1, seed=4)[0][0]
    base = tekit.prune_to_budget(paths_from_distribution(
        raecke_distribution(abilene, RaeckeConfig(seed=0)), abilene), 3)
    return tm, base


@pytest.mark.parametrize("solver, iterations, lower_bound, pair, entry, digest", [
    ("mcf_mw", 443, "1.3240843832887317e-11", ("h1", "h10"),
     [("h1-s1-s6-s2-s3-s5-s8-s10-h10", "0.1415525114155251"),
      ("h1-s1-s6-s7-s4-s10-h10", "0.632420091324201"),
      ("h1-s1-s6-s7-s4-s11-s10-h10", "0.21689497716894976"),
      ("h1-s1-s9-s12-s2-s3-s5-s8-s10-h10", "0.0091324200913242")],
     "5b5af28b54307ed30f9058f2e486b4fe8dfc4645a8b24782d43458d0fe6cafb6"),
    ("semi_mcf", 434, "1.3244981895106717e-11", ("h1", "h10"),
     [("h1-s1-s6-s7-s4-s10-h10", "0.5760368663594471"),
      ("h1-s1-s6-s7-s4-s11-s10-h10", "0.4147465437788019"),
      ("h1-s1-s6-s7-s5-s8-s10-h10", "0.009216589861751154")],
     "015a10aef8275e059463da1d160590ca303ab39f98ed00b30f9d436df05ea10c"),
])
def test_solver_output_pinned(abilene, solver, iterations, lower_bound, pair,
                              entry, digest):
    """Iterations, bound and every probability's last bit on one abilene
    matrix, pinned to the solvers' established output.  On this matrix,
    normalizing a pair's shares in sorted instead of first-chosen path order
    changes a last bit, so a summation-order drift shows up here first."""
    import hashlib
    from tekit.model import format_scheme
    tm, base = _abilene_pin_inputs(abilene)
    sol = (mcf_mw(abilene, tm) if solver == "mcf_mw"
           else semi_mcf(abilene, tm, base))
    assert sol.iterations == iterations
    assert repr(sol.lower_bound) == lower_bound
    assert [("-".join(p), repr(v)) for p, v in sol.scheme[pair].items()] == entry
    text = format_scheme(sol.scheme)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _random_case(seed, n_switches, extra_links):
    topo = random_topology(seed, n_switches=n_switches, extra_links=extra_links)
    rng = np.random.default_rng(seed)
    n = len(topo.hosts)
    rates = rng.uniform(0.1, 5.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
    np.fill_diagonal(rates, 0.0)
    return topo, TrafficMatrix(topo.hosts, rates)


def _solve_checked(solve, acc):
    """A returned solution meets its certificate; one stopped by the phase
    limit still carries a valid bound and proper distributions."""
    try:
        sol = solve()
        converged = True
    except PhaseLimitError as exc:
        sol = exc.solution
        converged = False
    assert sol.lower_bound <= sol.max_congestion * (1 + 1e-9)
    if converged:
        assert sol.max_congestion <= (1 + acc) * sol.lower_bound * (1 + 1e-9)
    for dist in sol.scheme.values():
        if dist:
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
    return sol


_case = dict(seed=st.integers(0, 10_000), n_switches=st.integers(3, 8),
             extra_links=st.integers(0, 4),
             acc=st.sampled_from([0.02, 0.05, 0.1]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_case)
def test_mcf_mw_certificate_property(seed, n_switches, extra_links, acc):
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    sol = _solve_checked(lambda: mcf_mw(topo, tm, MwConfig(accuracy=acc)), acc)
    assert validate_scheme(sol.scheme, topo) == []


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), **_case)
def test_semi_mcf_certificate_property(seed, n_switches, extra_links, acc, k):
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    base = ksp(topo, KspConfig(k))
    sol = _solve_checked(
        lambda: semi_mcf(topo, tm, base, MwConfig(accuracy=acc)), acc)
    for pair, dist in sol.scheme.items():
        assert set(dist) <= set(base[pair])


@pytest.mark.xfail(strict=True, raises=PhaseLimitError,
                   reason="with the fixed rate MW_ETA the bound stalls 4.6 % "
                          "below the flow on this instance, so a 2 % gap is "
                          "never certified")
def test_tight_accuracy_certifies_on_small_topology():
    topo, tm = _random_case(197, 5, 1)
    mcf_mw(topo, tm, MwConfig(accuracy=0.02))
