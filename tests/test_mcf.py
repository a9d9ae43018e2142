import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tekit
from tekit import (EmptyWindowError, MissingPathsError, MwConfig,
                   PhaseLimitError, demand_envelope, evaluate_scheme, ksp,
                   mcf_mw, semi_mcf, semi_mcf_ft_env, spf, validate_scheme)
from tekit import mcf
from tekit.mcf import MW_STALL_ITERATIONS, WarmStart, _mw_core
from tekit.model import (Edge, Topology, TopologyError, TrafficMatrix,
                         path_edges)

from conftest import build_topology, random_topology, tm_of
from helpers import (format_scheme, lp_min_max_congestion,
                     random_commodities)


def test_parallel_routes_analytic(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = mcf_mw(diamond, tm, MwConfig(accuracy=0.05))
    assert 0.5 <= sol.max_congestion <= 0.525


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
    base = ksp(diamond, 2)
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = semi_mcf(diamond, tm, base)
    assert 0.5 <= sol.max_congestion <= 0.525
    entry = sol.scheme[("hs", "ht")]
    top = entry[("hs", "ss", "sa", "st", "ht")]
    bottom = entry[("hs", "ss", "sb", "st", "ht")]
    assert top == pytest.approx(0.25, abs=0.05)
    assert bottom == pytest.approx(0.75, abs=0.05)


def test_semi_never_leaves_base(abilene):
    base = ksp(abilene, 3)
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
            base[(s, d)] = {attach_stubs(s, d, tuple(p)): 1.0 / len(paths)
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
    base = ksp(abilene, 2)
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
    scheme = mcf_mw(abilene, demand_envelope(window)).scheme
    assert validate_scheme(scheme, abilene) == []


def _scenario_union(topo, window, links):
    """The failure-tolerant base built by hand: ``mcf_mw`` under the
    window's envelope on the intact topology and on each reduced topology
    that stays connected without one of ``links``, each pair's paths
    unioned with uniform shares in sorted path order."""
    envelope = demand_envelope(window)
    union = {}
    for scenario in [()] + [(link,) for link in links]:
        try:
            reduced = topo.without_links(scenario)
        except TopologyError:
            continue
        for pair, dist in mcf_mw(reduced, envelope).scheme.items():
            union.setdefault(pair, set()).update(dist)
    return {pair: {p: 1.0 / len(paths) for p in sorted(paths)}
            for pair, paths in union.items()}


def _items(scheme):
    return [(pair, list(dist.items())) for pair, dist in scheme.items()]


def test_ft_env_is_union_of_scenario_solutions(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    ft = semi_mcf_ft_env(diamond, [tm])
    assert _items(ft) == _items(_scenario_union(diamond, [tm],
                                                diamond.links()))


def test_ft_env_diamond_covers_both_routes(diamond):
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    ft = semi_mcf_ft_env(diamond, [tm])
    entry = ft[("hs", "ht")]
    assert ("hs", "ss", "sa", "st", "ht") in entry
    assert ("hs", "ss", "sb", "st", "ht") in entry


def test_ft_env_is_superset_of_env(abilene):
    tm = tm_of(abilene, {}, default=2e8)
    env = mcf_mw(abilene, tm).scheme
    ft = semi_mcf_ft_env(abilene, [tm])
    for pair in env:
        assert len(ft[pair]) >= len(env[pair])


def test_ft_env_default_scenarios_skip_bridges():
    # triangle a-b-c with a pendant switch d: c-d is a bridge
    topo = build_topology("kite", [("a", "b"), ("a", "c"), ("b", "c"),
                                   ("c", "d")])
    tm = tm_of(topo, {}, default=5.0)
    ft = semi_mcf_ft_env(topo, [tm])
    assert _items(ft) == _items(_scenario_union(
        topo, [tm], [("a", "b"), ("a", "c"), ("b", "c")]))


def test_ft_env_all_bridges_equals_env(path8):
    """Every link of path8 is a bridge, so only the intact topology is a
    scenario."""
    tm = tm_of(path8, {("ha", "hb"): 10.0})
    ft = semi_mcf_ft_env(path8, [tm])
    assert _items(ft) == _items(_scenario_union(path8, [tm], []))
    env = mcf_mw(path8, tm).scheme
    assert {p: set(d) for p, d in ft.items()} == {
        p: set(d) for p, d in env.items()}


def test_ft_env_phase_limit_keeps_every_scenario(abilene):
    """Scenarios that stop at their phase limit still add their best-so-far
    paths, and one error carries the union of every scenario."""
    from tekit.demand import GravityState, gravity_tm
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=12), 6e9)
    cfg = MwConfig(max_phases=2)
    union = {}
    scenarios = [()] + [(link,) for link in abilene.links()]
    for scenario in scenarios:
        with pytest.raises(PhaseLimitError) as info:
            mcf_mw(abilene.without_links(scenario), tm, cfg)
        for pair, dist in info.value.solution.scheme.items():
            union.setdefault(pair, set()).update(dist)
    with pytest.raises(PhaseLimitError, match=f"^{len(scenarios)} of "
                       f"{len(scenarios)} scenarios stopped") as info:
        semi_mcf_ft_env(abilene, [tm], cfg=cfg)
    scheme = info.value.solution.scheme
    assert {pair: set(dist) for pair, dist in scheme.items()} == union
    assert sum(len(dist) for dist in scheme.values()) == 366
    assert validate_scheme(scheme, abilene) == []


def test_optimal_step_runs_on_reduced_topology(abilene):
    reduced = abilene.without_links([("s2", "s12")])
    tm = tm_of(abilene, {}, default=2e8)
    sol = mcf_mw(reduced, tm)
    assert validate_scheme(sol.scheme, reduced) == []
    for dist in sol.scheme.values():
        for path in dist:
            for hop in zip(path, path[1:]):
                assert hop in reduced.edges


# -- the shared multiplicative-weights core ---------------------------------

def _abilene_pin_inputs(abilene):
    from tekit.demand import generate_sequences
    from tekit.raecke import paths_from_distribution, raecke_distribution
    tm = generate_sequences(abilene, 1, seed=4)[0][0]
    base = tekit.prune_to_budget(paths_from_distribution(
        raecke_distribution(abilene, 0), abilene), 3)
    return tm, base


@pytest.mark.parametrize("solver, iterations, lower_bound, pair, entry, digest", [
    ("mcf_mw", 145, "1.3196020846381257e-11", ("h1", "h10"),
     [("h1-s1-s6-s2-s3-s5-s8-s10-h10", "0.2"),
      ("h1-s1-s6-s7-s4-s10-h10", "0.5862068965517241"),
      ("h1-s1-s6-s7-s4-s11-s10-h10", "0.15862068965517243"),
      ("h1-s1-s6-s7-s5-s8-s10-h10", "0.006896551724137931"),
      ("h1-s1-s9-s12-s2-s3-s5-s8-s10-h10", "0.04827586206896552")],
     "d39b3cf986fe0f2385d9b58ee0dcd779909e38996d50e7dd384649d353878970"),
    ("semi_mcf", 150, "1.3246405993449698e-11", ("h1", "h10"),
     [("h1-s1-s6-s7-s4-s10-h10", "0.5599999999999999"),
      ("h1-s1-s6-s7-s4-s11-s10-h10", "0.40666666666666657"),
      ("h1-s1-s6-s7-s5-s8-s10-h10", "0.033333333333333326")],
     "53b84f13c3807a1c897e346f76b59e6a40e69a4a5bf94cc2a5d726720f52a7ec"),
])
def test_solver_output_pinned(abilene, solver, iterations, lower_bound, pair,
                              entry, digest):
    """Iterations, bound and every probability's last bit on one abilene
    matrix, pinned to the solvers' established output.  On this matrix,
    normalizing ``mcf_mw``'s shares in sorted instead of first-chosen path
    order changes a last bit, so a summation-order drift shows up here
    first (``semi_mcf``'s pin no longer catches it)."""
    import hashlib
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


def _lp_optimum(topo, tm, base=None):
    """The exact LP optimum of ``tm`` on ``topo``'s switch edges, over
    ``base``'s paths if given, else over every simple path."""
    pairs = [pair for pair in tm.pairs() if tm.get(*pair) > 0]
    commodities = [(topo.host_switch(s), topo.host_switch(d), tm.get(s, d))
                   for s, d in pairs]
    paths = (None if base is None
             else [[p[1:-1] for p in base[pair]] for pair in pairs])
    return lp_min_max_congestion(topo, commodities, paths)


def _solve_checked(topo, tm, solve, acc, base=None):
    """Hold one solve to its own certificate and to the exact LP optimum
    (over ``base``'s paths, if given).  Its lower bound is at most the
    optimum, even when the phase limit stopped it, and a certified solve's
    largest switch-edge utilization is within ``acc`` of the optimum (the
    LP sees switch edges only, so the host stubs are left out).  Every
    distribution is proper."""
    opt = _lp_optimum(topo, tm, base)
    try:
        sol, converged = solve(), True
    except PhaseLimitError as exc:
        sol, converged = exc.solution, False
    assert sol.lower_bound <= sol.max_congestion * (1 + 1e-9)
    assert sol.lower_bound <= opt * (1 + 1e-9)
    if converged:
        assert sol.max_congestion <= (1 + acc) * sol.lower_bound * (1 + 1e-9)
        worst = max(sol.per_edge_util[e] for e in topo.switch_edges)
        assert worst <= (1 + acc) * opt * (1 + 1e-9)
    for dist in sol.scheme.values():
        if dist:
            assert abs(sum(dist.values()) - 1.0) <= 1e-9
    return sol


_ACCURACIES = (0.02, 0.05, 0.1)
_instance = dict(seed=st.integers(0, 10_000), n_switches=st.integers(3, 8),
                 extra_links=st.integers(0, 4))
_case = dict(**_instance, acc=st.sampled_from(_ACCURACIES))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_instance)
def test_mcf_mw_certificate_property(seed, n_switches, extra_links):
    """Every drawn instance is solved and judged at every accuracy."""
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    for acc in _ACCURACIES:
        sol = _solve_checked(
            topo, tm, lambda: mcf_mw(topo, tm, MwConfig(accuracy=acc)), acc)
        assert validate_scheme(sol.scheme, topo) == []


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_instance)
def test_semi_mcf_certificate_property(seed, n_switches, extra_links):
    """Every drawn instance is solved and judged over ``ksp`` bases with
    k = 1-3, each at every accuracy."""
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    for k in (1, 2, 3):
        base = ksp(topo, k)
        for acc in _ACCURACIES:
            sol = _solve_checked(
                topo, tm,
                lambda: semi_mcf(topo, tm, base, MwConfig(accuracy=acc)),
                acc, base)
            for pair, dist in sol.scheme.items():
                assert set(dist) <= set(base[pair])


def test_tight_accuracy_certifies_on_small_topology():
    """The halving rate certifies gaps well below its starting rate: at a
    fixed rate of 0.25 this instance stopped at the phase limit with its
    bound 4.6 % below the flow."""
    topo, tm = _random_case(197, 5, 1)
    for acc in (0.02, 0.01):
        sol = mcf_mw(topo, tm, MwConfig(accuracy=acc))  # raises if uncertified
        assert sol.max_congestion <= (1 + acc) * sol.lower_bound * (1 + 1e-9)


def test_restart_keeps_the_solve_wide_first_chosen_order():
    """A stall restarts the average, and a commodity's shares are still
    summed in the order its paths were first chosen in the whole solve.
    The scripted oracle picks path c alone until the stall, then a, b, b
    and c four times: the restarted average is 1/7, 2/7 and 4/7 on
    capacities 1, 2 and 4, and its total is the fold c + a + b, which
    differs in the last bit from a + b + c."""
    paths = [("s", name, "t") for name in "abc"]  # path k crosses edge k
    picks = iter([2] * (MW_STALL_ITERATIONS + 1) + [0, 1, 1, 2, 2, 2, 2])

    def oracle(lengths):
        k = np.array([next(picks)])
        return k, np.array([lengths.min()]), k, np.ones(1, dtype=np.intp)

    shares, iterations, _, converged = _mw_core(
        np.array([1.0, 2.0, 4.0]), np.ones(1), 1.0, paths, [0, 0, 0], oracle,
        MwConfig(max_phases=MW_STALL_ITERATIONS + 8))
    assert (iterations, converged) == (MW_STALL_ITERATIONS + 8, False)
    total = (4 / 7 + 1 / 7) + 2 / 7
    assert total != (1 / 7 + 2 / 7) + 4 / 7
    assert list(shares[0].items()) == [(("s", "a", "t"), 1 / 7 / total),
                                       (("s", "b", "t"), 2 / 7 / total),
                                       (("s", "c", "t"), 4 / 7 / total)]


@pytest.mark.parametrize("solver", ["mcf_mw", "semi_mcf"])
@pytest.mark.parametrize("seed", range(8))
def test_oracle_hands_the_core_the_hops_of_its_chosen_paths(
        monkeypatch, solver, seed):
    """At every iteration, each commodity's chosen path serves it, and the
    oracle's hops are the sorted switch-edge indices of the chosen paths
    joined in commodity order, with ``size`` each one's hop count."""
    topo, tm = _random_case(seed, 3 + seed % 6, seed % 5)
    edge_index = {e: i for i, e in enumerate(sorted(topo.switch_edges))}
    core, calls = mcf._mw_core, []

    def checking_core(cap, demand, d_ref, paths, owner, oracle, *rest):
        def checked(lengths):
            chosen, dist, hops, size = oracle(lengths)
            assert [owner[k] for k in chosen] == list(range(len(demand)))
            want = [[edge_index[h] for h in path_edges(paths[k])
                     if h in edge_index] for k in chosen.tolist()]
            assert size.tolist() == [len(w) for w in want]
            assert hops.tolist() == [e for w in want for e in w]
            calls.append(len(chosen))
            return chosen, dist, hops, size
        return core(cap, demand, d_ref, paths, owner, checked, *rest)

    monkeypatch.setattr(mcf, "_mw_core", checking_core)
    cfg = MwConfig(accuracy=0.1)
    try:
        if solver == "mcf_mw":
            mcf_mw(topo, tm, cfg)
        else:
            semi_mcf(topo, tm, ksp(topo, 2), cfg)
    except PhaseLimitError:
        pass
    assert calls


@pytest.mark.parametrize("seed", range(5))
def test_lp_helper_is_scale_invariant(seed):
    """Capacities and demands scaled together by 1e9 leave the optimum
    unchanged, so the helper judges paper-scale inputs as it judges small
    ones."""
    topo, tm = _random_case(seed, 6, 2)
    scaled = Topology(topo.name, topo.nodes,
                      [Edge(e.src, e.dst, e.capacity * 1e9, e.weight)
                       for e in topo.edges.values()])
    big = TrafficMatrix(tm.hosts, tm.rates * 1e9)
    assert _lp_optimum(scaled, big) == pytest.approx(_lp_optimum(topo, tm),
                                                     rel=1e-9)


def test_mcf_mw_against_lp_at_paper_scale(abilene):
    """The acceptance sweep's first matrix: abilene's capacities with
    gravity demands totalling 1e9, whose optimum is about 0.01471."""
    from tekit.demand import GravityState, gravity_tm
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=0), 1e9)
    assert _lp_optimum(abilene, tm) == pytest.approx(0.01471, rel=1e-3)
    _solve_checked(abilene, tm, lambda: mcf_mw(abilene, tm), 0.05)


# -- warm starts across a chain of matrices ---------------------------------

def test_empty_carry_solves_as_a_direct_call(abilene):
    """A carry that holds no weights yet starts uniform: both solvers give
    the pinned direct call's iterations and scheme, and the carry then
    holds the final weights."""
    tm, base = _abilene_pin_inputs(abilene)
    for solve in (lambda warm: mcf_mw(abilene, tm, MwConfig(), warm),
                  lambda warm: semi_mcf(abilene, tm, base, MwConfig(), warm)):
        warm = WarmStart()
        chained, direct = solve(warm), solve(None)
        assert chained.iterations == direct.iterations
        assert chained.scheme == direct.scheme
        assert warm.weights is not None


def _perturbed_chain(tm, seed, length=3):
    """``tm`` and ``length - 1`` successors, each scaling every rate of the
    one before by a factor drawn from [0.7, 1.3]."""
    rng = np.random.default_rng([seed, 1])
    chain = [tm]
    while len(chain) < length:
        chain.append(TrafficMatrix(tm.hosts, chain[-1].rates
                                   * rng.uniform(0.7, 1.3, tm.rates.shape)))
    return chain


def _judge_warm_chain(topo, chain, solve, acc, base=None):
    """Solve ``chain`` in order through one carry, as a driver does, and
    hold every solve to the exact LP optimum, as ``_solve_checked`` does."""
    warm = WarmStart()
    for tm in chain:
        _solve_checked(topo, tm, lambda: solve(tm, warm), acc, base)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(**_case)
def test_mcf_mw_warm_chain_against_lp(seed, n_switches, extra_links, acc):
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    cfg = MwConfig(accuracy=acc)
    _judge_warm_chain(topo, _perturbed_chain(tm, seed),
                      lambda m, warm: mcf_mw(topo, m, cfg, warm), acc)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), **_case)
def test_semi_mcf_warm_chain_against_lp(seed, n_switches, extra_links, acc, k):
    topo, tm = _random_case(seed, n_switches, extra_links)
    assume(tm.total() > 0)
    base = ksp(topo, k)
    cfg = MwConfig(accuracy=acc)
    _judge_warm_chain(topo, _perturbed_chain(tm, seed),
                      lambda m, warm: semi_mcf(topo, m, base, cfg, warm), acc,
                      base)


def test_warm_chain_of_the_evolving_sweep_never_stalls(abilene):
    """The 100 evolving abilene matrices of the acceptance sweep, solved
    through one carry, all certify within the phase limit; a pure warm
    start (no uniform share) stops on some of them."""
    from tekit.demand import GravityState, gravity_tm, mh_step
    state = GravityState.initial(abilene.hosts, seed=0)
    warm = WarmStart()
    for _ in range(100):
        mcf_mw(abilene, gravity_tm(state, 1e9), MwConfig(), warm)
        assert warm.weights is not None
        state = mh_step(state)
