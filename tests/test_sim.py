from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tekit
from tekit import (AlgorithmKind, SimConfig, failure_schedule, max_min_allocate,
                   metrics_rollup, recover_global, recover_local, simulate)
from tekit.demand import FlashConfig, GravityState, gravity_tm, mh_step
from tekit.mcf import MwConfig
from tekit.sim import InfeasibleFailureError, report_to_csv

from conftest import build_topology, tm_of


# -- max-min fair allocation -----------------------------------------------

def test_water_filling_by_hand():
    assert max_min_allocate(10.0, {"a": 8.0, "b": 4.0}) == {"a": 6.0, "b": 4.0}


def test_water_filling_under_capacity():
    assert max_min_allocate(10.0, {"a": 3.0, "b": 3.0}) == {"a": 3.0, "b": 3.0}


def test_water_filling_totals():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        reqs = {f"f{i}": float(rng.uniform(0, 10)) for i in range(n)}
        cap = float(rng.uniform(1, 25))
        alloc = max_min_allocate(cap, reqs)
        assert sum(alloc.values()) == pytest.approx(min(cap, sum(reqs.values())),
                                                    abs=1e-9)
        for k in reqs:
            assert -1e-12 <= alloc[k] <= reqs[k] + 1e-12


def test_water_filling_is_max_min_optimal():
    """Bottleneck characterization: all unsatisfied flows share the top
    allocation, satisfied flows sit at or below it, capacity exhausted."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        reqs = {f"f{i}": float(rng.uniform(0.1, 10)) for i in range(n)}
        cap = float(rng.uniform(1, 20))
        alloc = max_min_allocate(cap, reqs)
        unsat = [k for k in reqs if alloc[k] < reqs[k] - 1e-9]
        if unsat:
            assert sum(alloc.values()) == pytest.approx(cap, abs=1e-9)
            level = alloc[unsat[0]]
            for k in unsat:
                assert alloc[k] == pytest.approx(level, abs=1e-9)
            for k in reqs:
                assert alloc[k] <= level + 1e-9


_requests = st.dictionaries(
    st.integers(0, 30), st.floats(min_value=0.0, max_value=1e9), max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cap=st.floats(min_value=1e-9, max_value=1e9), reqs=_requests)
def test_water_filling_properties(cap, reqs):
    alloc = max_min_allocate(cap, reqs)
    assert set(alloc) == set(reqs)
    assert sum(alloc.values()) <= cap * (1 + 1e-12)
    for k, req in reqs.items():
        assert 0.0 <= alloc[k] <= req
        if alloc[k] < req:
            # a capped flow sits at the top level: nobody gets more
            assert all(alloc[k] >= a - 1e-12 * cap for a in alloc.values())


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cap=st.floats(max_value=0.0, allow_nan=False), reqs=_requests)
@example(cap=float("nan"), reqs={0: 1.0})
def test_water_filling_rejects_nonpositive_capacity(cap, reqs):
    with pytest.raises(ValueError, match="capacity must be positive"):
        max_min_allocate(cap, reqs)


# -- failure schedules ---------------------------------------------------------

def test_schedule_phi0(abilene):
    tm = tm_of(abilene, {}, default=1.0)
    sched = failure_schedule(abilene, 0, 5, seed=1, tm0=tm)
    assert sched == [(), (), (), (), ()]


def test_schedule_phi1_each_link_once(ring24):
    tm = tm_of(ring24, {("h_r00", "h_r12"): 5.0})
    sched = failure_schedule(ring24, 1, 24, seed=0, tm0=tm)
    failed = [s[0] for s in sched]
    assert sorted(failed) == ring24.links()


def test_schedule_phi1_alternate_links(ring24):
    tm = tm_of(ring24, {("h_r00", "h_r12"): 5.0})
    full = [s[0] for s in failure_schedule(ring24, 1, 24, seed=0, tm0=tm)]
    half = [s[0] for s in failure_schedule(ring24, 1, 12, seed=0, tm0=tm)]
    assert half == full[::2]


def test_schedule_phi1_sorted_by_spf_utilization(abilene):
    state = GravityState.initial(abilene.hosts, seed=2)
    tm = gravity_tm(state, 1e9)
    sched = failure_schedule(abilene, 1, 15, seed=0, tm0=tm)
    from tekit import evaluate_scheme, spf
    _, util = evaluate_scheme(abilene, spf(abilene), tm)
    def link_util(lk):
        return max(util[lk], util[(lk[1], lk[0])])
    utils = [link_util(s[0]) for s in sched]
    assert utils == sorted(utils, reverse=True)


def test_schedule_phi2_keeps_network_connected(abilene):
    tm = tm_of(abilene, {}, default=1.0)
    sched = failure_schedule(abilene, 2, 8, seed=3, tm0=tm)
    for links in sched:
        assert len(links) == 2
        abilene.without_links(links)  # raises if disconnected


def test_schedule_infeasible(path8):
    tm = tm_of(path8, {("ha", "hb"): 1.0})
    with pytest.raises(InfeasibleFailureError):
        failure_schedule(path8, 2, 1, seed=0, tm0=tm)  # any 2 cuts the line


# -- local/global recovery -------------------------------------------------

def test_recover_local_noop_when_unaffected(line4):
    scheme = tekit.spf(line4)
    tm = tm_of(line4, {}, default=1.0)
    out = recover_local(scheme, [("a", "b")], AlgorithmKind.parse("spf"),
                        line4, tm)
    # only pairs crossing a-b lose their path; others unchanged
    assert out[("h_c", "h_d")] == scheme[("h_c", "h_d")]
    assert out[("h_a", "h_b")] == {}


def test_recover_local_renormalizes():
    topo = build_topology("sq", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                          hosts_on=["a", "c"])
    scheme = {("h_a", "h_c"): {("h_a", "a", "b", "c", "h_c"): 0.6,
                               ("h_a", "a", "d", "c", "h_c"): 0.4}}
    tm = tm_of(topo, {("h_a", "h_c"): 1.0})
    out = recover_local(scheme, [("a", "b")], AlgorithmKind.parse("ksp"),
                        topo, tm)
    assert out[("h_a", "h_c")] == {("h_a", "a", "d", "c", "h_c"): 1.0}


def test_recover_local_semi_keeps_surviving_base(abilene):
    from tekit.raecke import RaeckeConfig, paths_from_distribution, raecke_distribution
    dist = raecke_distribution(abilene, RaeckeConfig(seed=3))
    base = tekit.prune_to_budget(paths_from_distribution(dist, abilene), 5)
    state = GravityState.initial(abilene.hosts, seed=3)
    tm = gravity_tm(state, 1e9)
    failed = [("s2", "s12")]
    out = recover_local(base, failed, AlgorithmKind.parse("semimcfraecke"),
                        abilene, tm)
    dead = {("s2", "s12"), ("s12", "s2")}
    for pair, dist_out in out.items():
        surviving = {p for p in base[pair]
                     if not any(h in dead for h in zip(p, p[1:]))}
        assert set(dist_out) <= surviving  # no new paths appear


def test_recover_global_spf_takes_detour():
    topo = build_topology("sq", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                          hosts_on=["a", "c"])
    tm = tm_of(topo, {("h_a", "h_c"): 1.0})
    original = tekit.spf(topo)
    assert original[("h_a", "h_c")] == {("h_a", "a", "b", "c", "h_c"): 1.0}
    reduced = topo.without_links([("a", "b")])
    out = recover_global(AlgorithmKind.parse("spf"), reduced, tm, SimConfig())
    assert out[("h_a", "h_c")] == {("h_a", "a", "d", "c", "h_c"): 1.0}


def test_recover_global_without_failures_is_identity(abilene):
    tm = tm_of(abilene, {}, default=1.0)
    out = recover_global(AlgorithmKind.parse("raecke"), abilene, tm,
                         SimConfig(seed=5))
    from tekit.raecke import RaeckeConfig, paths_from_distribution, raecke_distribution
    expected = paths_from_distribution(
        raecke_distribution(abilene, RaeckeConfig(seed=5)), abilene)
    assert out == expected


def test_optimalmcf_uses_reduced_topology_and_actual_tm(abilene):
    state = GravityState.initial(abilene.hosts, seed=1)
    actual = [gravity_tm(state, 1e9)]
    predicted = [actual[0].scaled(0.5)]  # wrong prediction, must be ignored
    fails = ((("s2", "s12"),),)
    cfg = SimConfig(steps_per_tm=3, recovery="global", seed=1,
                    explicit_failures=fails)
    rep = simulate(abilene, "optimalmcf", actual, predicted, cfg)
    m = rep.steps[0][0]
    assert m.failure_loss == 0.0  # rerouted around the failed link
    dead = {("s2", "s12"), ("s12", "s2")}
    for hop, util in m.per_edge_congestion.items():
        if hop in dead:
            assert util == 0.0


# -- simulation core ---------------------------------------------------------

def test_zero_demand_all_metrics_zero(line4):
    tm = tm_of(line4, {})
    rep = simulate(line4, "spf", [tm], [tm], SimConfig(steps_per_tm=4))
    s = metrics_rollup(rep)
    assert s.throughput_fraction == 1.0  # convention
    m = rep.steps[0][0]
    assert (m.delivered, m.congestion_loss, m.failure_loss, m.demand_total) \
        == (0.0, 0.0, 0.0, 0.0)


def test_single_path_no_loss(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 5.0})  # capacity 100 per link
    rep = simulate(line4, "spf", [tm], [tm], SimConfig(steps_per_tm=10))
    for m in rep.steps[0]:
        assert m.delivered == pytest.approx(5.0)
        assert m.congestion_loss == 0.0
        assert m.failure_loss == 0.0


def test_congestion_loss_on_saturated_link(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 150.0})  # link capacity is 100
    rep = simulate(line4, "spf", [tm], [tm], SimConfig(steps_per_tm=2))
    m = rep.steps[0][0]
    assert m.delivered == pytest.approx(100.0)
    assert m.congestion_loss == pytest.approx(50.0)
    assert max(m.per_edge_congestion.values()) <= 1.0 + 1e-12


def test_conservation_exact_and_capacity_respected(abilene):
    state = GravityState.initial(abilene.hosts, seed=6)
    actual, predicted = [], []
    for _ in range(3):
        actual.append(gravity_tm(state, 6e9))
        predicted.append(gravity_tm(state, 5.5e9))
        state = mh_step(state)
    for algo in ("ecmp", "semimcfraecke", "mcf"):
        for phi in (0, 1):
            cfg = SimConfig(steps_per_tm=5, phi=phi, recovery="local", seed=2)
            rep = simulate(abilene, algo, actual, predicted, cfg)
            for steps in rep.steps:
                for m in steps:
                    assert (m.delivered + m.congestion_loss + m.failure_loss
                            == m.demand_total)
                    assert max(m.per_edge_congestion.values()) <= 1.0 + 1e-12


def test_monotone_failure_harm(abilene):
    state = GravityState.initial(abilene.hosts, seed=9)
    tms = []
    for _ in range(4):
        tms.append(gravity_tm(state, 8e9))
        state = mh_step(state)
    for algo in ("spf", "semimcfraecke"):
        r0 = simulate(abilene, algo, tms, tms, SimConfig(steps_per_tm=3, phi=0, seed=4))
        r1 = simulate(abilene, algo, tms, tms,
                      SimConfig(steps_per_tm=3, phi=1, recovery="local", seed=4))
        s0, s1 = metrics_rollup(r0), metrics_rollup(r1)
        assert s0.failure_loss_fraction == 0.0
        assert s0.throughput_fraction >= s1.throughput_fraction - 1e-12


def test_churn_taxonomy(abilene):
    state = GravityState.initial(abilene.hosts, seed=7)
    actual = []
    for _ in range(4):
        actual.append(gravity_tm(state, 2e9))
        state = mh_step(state)
    cfg = SimConfig(steps_per_tm=2, seed=3, budget=4)
    for algo in ("spf", "ecmp", "ksp", "vlb", "raecke", "semimcfraecke",
                 "semimcfksp"):
        rep = simulate(abilene, algo, actual, actual, cfg)
        assert sum(rep.churn_timeline) == 0, algo
    rep = simulate(abilene, "mcf", actual, actual, cfg)
    assert sum(rep.churn_timeline) > 0


def test_simulation_deterministic(abilene):
    state = GravityState.initial(abilene.hosts, seed=10)
    tms = [gravity_tm(state, 5e9)]
    cfg = SimConfig(steps_per_tm=3, phi=1, recovery="local", seed=11,
                    flash=FlashConfig(beta=1.0, sink_seed=11),
                    flash_recovery_period=2)
    a = simulate(abilene, "semimcfraecke", tms, tms, cfg).serialize()
    b = simulate(abilene, "semimcfraecke", tms, tms, cfg).serialize()
    assert a.encode() == b.encode()


def test_flash_burst_decays_inside_tm(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 10.0, ("h_a", "h_b"): 1.0})
    cfg = SimConfig(steps_per_tm=6, seed=0,
                    flash=FlashConfig(beta=3.0, sink_seed=5))
    rep = simulate(line4, "spf", [tm], [tm], cfg)
    demands = [m.demand_total for m in rep.steps[0]]
    assert demands[0] > demands[1] > demands[-1] > tm.total() - 1e-9


def test_flash_recovery_reweights(abilene):
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    flash = FlashConfig(beta=4.0, sink_seed=3)
    base_cfg = dict(steps_per_tm=30, seed=3, flash=flash,
                    flash_recovery_period=10, budget=5)
    no_rec = simulate(abilene, "semimcfraecke", [tm], [tm],
                      SimConfig(recovery="none", **base_cfg))
    with_rec = simulate(abilene, "semimcfraecke", [tm], [tm],
                        SimConfig(recovery="local", **base_cfg))
    t_no = metrics_rollup(no_rec).throughput_fraction
    t_rec = metrics_rollup(with_rec).throughput_fraction
    assert t_rec >= t_no - 1e-9


def test_rollup_conservation_fractions(abilene):
    state = GravityState.initial(abilene.hosts, seed=13)
    tms = [gravity_tm(state, 2e10)]
    rep = simulate(abilene, "spf", tms, tms, SimConfig(steps_per_tm=2))
    s = metrics_rollup(rep)
    total = (s.throughput_fraction + s.congestion_loss_fraction
             + s.failure_loss_fraction)
    assert total == pytest.approx(1.0, abs=1e-12)
    csv = report_to_csv(s)
    assert "throughput_fraction" in csv
    assert csv.count("\n") >= rep.num_tms


def test_report_csv_per_tm_rows(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 5.0})
    rep = simulate(line4, "spf", [tm, tm], [tm, tm], SimConfig(steps_per_tm=2))
    csv = report_to_csv(metrics_rollup(rep))
    for metric in ("throughput_fraction", "max_congestion", "churn"):
        assert f"0,{metric}" in csv
        assert f"1,{metric}" in csv


def test_recovery_and_flash_phase_limits_are_reported(abilene):
    """Every re-solve that stops uncertified leaves a phase-limit event."""
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    strict = MwConfig(max_phases=2)
    failed = SimConfig(steps_per_tm=2, recovery="local", mw=strict,
                       explicit_failures=[(("s2", "s12"),)])
    rep = simulate(abilene, "semimcfraecke", [tm], [tm], failed)
    assert any("local recovery tm0" in ev for ev in rep.phase_limit_events)
    rep = simulate(abilene, "mcf", [tm], [tm],
                   replace(failed, recovery="global"))
    assert any(ev.startswith("global recovery: ")
               for ev in rep.phase_limit_events)
    flash = SimConfig(steps_per_tm=3, recovery="local", mw=strict,
                      flash=FlashConfig(beta=4.0, sink_seed=3),
                      flash_recovery_period=1, flash_lag=0)
    rep = simulate(abilene, "semimcfraecke", [tm], [tm], flash)
    assert any("flash reweight tm0 step1" in ev
               for ev in rep.phase_limit_events)


def test_reweight_phase_limit_carries_stranded_pairs(abilene):
    from tekit.algorithms import reweight
    from tekit.mcf import PhaseLimitError
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    base = tekit.ksp(abilene, tekit.KspConfig(2))
    base[("h1", "h2")] = {}
    with pytest.raises(PhaseLimitError) as info:
        reweight(abilene, base, tm, MwConfig(max_phases=2))
    scheme = info.value.solution.scheme
    assert scheme[("h1", "h2")] == {}
    assert set(scheme) == set(base)


@pytest.mark.parametrize("name, events", [
    ("mcf", 1), ("semimcfraecke", 1), ("semimcfmcfenv", 2)])
def test_make_scheme_warns_once_per_phase_limit(abilene, name, events):
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    cfg = tekit.BuildConfig(mw=MwConfig(max_phases=2))
    with pytest.warns(RuntimeWarning, match="phase limit") as caught:
        scheme = tekit.make_scheme(name, abilene, tm, cfg)
    assert len(caught) == events
    assert tekit.validate_scheme(scheme, abilene) == []
