from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tekit
import tekit.sim as sim
from tekit import (AlgorithmKind, SimConfig, failure_schedule, max_min_allocate,
                   metrics_rollup, recover_global, recover_local, simulate)
from tekit.algorithms import limit_events
from tekit.demand import GravityState, gravity_tm, mh_step
from tekit.mcf import MwConfig
from tekit.model import both_directions
from tekit.sim import InfeasibleFailureError, PathTable, report_to_csv

from conftest import TIED_LENGTHS, build_topology, tm_of
from helpers import (assert_same_report, enumerate_simple_paths,
                     reference_propagate, reference_rollup,
                     reference_water_fill)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cap=st.floats(min_value=1e-9, max_value=1e9),
       reqs=st.dictionaries(st.integers(0, 30), TIED_LENGTHS, max_size=24)
       | _requests)
def test_water_filling_matches_dict_reference(cap, reqs):
    """The one-link kernel serves requests as the dict water-fill does,
    tie order, grants and dict order included."""
    assert repr(max_min_allocate(cap, reqs)) == repr(
        reference_water_fill(cap, reqs))


@pytest.mark.parametrize("n_lanes", [40, 300, (1 << 16) + 40])
def test_water_fill_serves_in_lexsort_order(n_lanes):
    """The two stable sorts order requests as ``np.lexsort((req, lane))``
    does, whatever dtype holds the lanes (8, 16 or 32 bits)."""
    rng = np.random.default_rng(n_lanes)
    capacity = rng.choice([0.7, 1.0, 3.3], size=n_lanes)
    lane = rng.choice(np.r_[0:20, n_lanes - 20:n_lanes], size=600)
    req = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0], size=600)
    served = {}
    for i in np.lexsort((req, lane)).tolist():
        served.setdefault(int(lane[i]), {})[i] = float(req[i])
    want, want_totals = np.zeros(len(req)), np.zeros(n_lanes)
    for ln, reqs in served.items():
        for i, grant in reference_water_fill(capacity[ln], reqs).items():
            want[i] = grant
            want_totals[ln] += grant
    give, totals = sim._water_fill(capacity, lane, req)
    assert give.tolist() == want.tolist()
    assert totals.tolist() == want_totals.tolist()


# -- the array fluid step ------------------------------------------------------

#: small capacities saturate links; most fair shares of them do not
#: divide exactly, so tied requests get grants a last bit apart
_CAPACITIES = st.sampled_from([0.7, 1.0, 2.0, 3.3, 5.0])
_WEIGHTS = st.sampled_from([0.1, 0.25, 1.0, 1.7, 3.0, 8.5])


@st.composite
def _fluid_steps(draw):
    """A random topology, scheme, failure set and a block of 1-4 matrices:
    missing pairs, empty distributions, dead links, host stubs that carry
    up to 15 tied flows, and zero demands, so that the steps of a block
    have different live flows."""
    n = draw(st.integers(2, 6) | st.just(6))
    names = [f"n{i}" for i in range(n)]
    links = {(names[draw(st.integers(0, i - 1))], names[i])
             for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=4)):
        if a != b:
            links.add(tuple(sorted((names[a], names[b]))))
    # latency weights mostly tell paths apart, so the latency samples show
    # which flow got which grant
    topo = build_topology("prop", [(a, b, draw(_CAPACITIES))
                                   for a, b in sorted(links)],
                          stub_cap=draw(_CAPACITIES),
                          weights={lk: draw(_WEIGHTS) for lk in links})
    adj = {s: topo.switch_adj(s) for s in topo.switches}
    scheme = {}
    for src in topo.hosts:
        for dst in topo.hosts:
            if src == dst:
                continue
            shape = draw(st.sampled_from(["paths"] * 8 + ["missing", "empty"]))
            if shape == "missing":
                continue
            if shape == "empty":
                scheme[(src, dst)] = {}
                continue
            found = enumerate_simple_paths(adj, topo.host_switch(src),
                                           topo.host_switch(dst))
            picks = draw(st.lists(st.sampled_from(range(len(found))),
                                  unique=True, min_size=1, max_size=3))
            tied = draw(st.booleans())
            weights = [1.0 if tied else draw(st.floats(0.01, 1.0))
                       for _ in picks]
            scheme[(src, dst)] = {
                (src,) + found[i] + (dst,): w / sum(weights)
                for i, w in zip(picks, weights)}
    dead = both_directions(draw(st.lists(st.sampled_from(topo.links()),
                                         unique=True, max_size=2)))
    demand = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]) | st.floats(0.0, 10.0)
    tms = [tm_of(topo, {(s, d): draw(demand) for s in topo.hosts
                        for d in topo.hosts if s != d})
           for _ in range(draw(st.integers(1, 4)))]
    return topo, scheme, dead, tms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_fluid_steps())
def test_propagate_matches_dict_reference(case):
    """Each row of a block of array steps equals the per-link dict step of
    its matrix field by field: the same floats, the same reprs, the same
    dict order."""
    topo, scheme, dead, tms = case
    table = PathTable(topo, scheme, tms[0].hosts, dead)
    block = sim._propagate(table, np.stack([tm.rates for tm in tms]))
    assert block.repeat == 1
    for got, tm in zip(block.views(), tms, strict=True):
        want = reference_propagate(topo, scheme, tm, dead)
        assert repr(got) == repr(want)
        assert list(got.per_edge_congestion) == list(want.per_edge_congestion)
        assert list(got.latency_samples) == list(want.latency_samples)
        for value in (got.delivered, got.congestion_loss, got.failure_loss,
                      got.demand_total, *got.per_edge_congestion.values(),
                      *got.latency_samples, *got.latency_samples.values()):
            assert type(value) is float


def test_propagate_serves_ties_in_flow_order():
    """Flow 2 is served before flow 10: on a saturated stub carrying 12
    equal requests, the k-th flow gets the k-th grant of the fill."""
    spokes = "bcdefghijklm"
    topo = build_topology("star", [("a", b) for b in spokes],
                          hosts_on=["a", *spokes], stub_cap=1.0,
                          weights={("a", b): 1.0 + i
                                   for i, b in enumerate(spokes)})
    scheme = tekit.spf(topo)
    tm = tm_of(topo, {("h_a", f"h_{b}"): 1.0 for b in spokes})
    table = PathTable(topo, scheme, tm.hosts, frozenset())
    [got] = sim._propagate(table, tm.rates[None]).views()
    remaining, want = 1.0, []
    for k in range(len(spokes)):
        want.append(min(1.0, remaining / (len(spokes) - k)))
        remaining -= want[-1]
    # the grants differ in the last bit, so the order shows in them
    assert want[2] != want[10]
    # each flow has its own latency, so the samples show who got which grant
    assert list(got.latency_samples) == [1.0 + i for i in range(len(spokes))]
    assert list(got.latency_samples.values()) == want
    assert repr(got) == repr(reference_propagate(topo, scheme, tm,
                                                 frozenset()))


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
    from tekit.raecke import paths_from_distribution, raecke_distribution
    dist = raecke_distribution(abilene, 3)
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
    out, installed = recover_global(0, AlgorithmKind.parse("spf"), reduced,
                                    tm, SimConfig())
    assert out[("h_a", "h_c")] == {("h_a", "a", "d", "c", "h_c"): 1.0}
    assert installed is out


def test_recover_global_without_failures_is_identity(abilene):
    tm = tm_of(abilene, {}, default=1.0)
    out, _ = recover_global(0, AlgorithmKind.parse("raecke"), abilene, tm,
                            SimConfig(seed=5))
    from tekit.raecke import paths_from_distribution, raecke_distribution
    expected = paths_from_distribution(
        raecke_distribution(abilene, 5), abilene)
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
                    flash_beta=1.0, flash_recovery_period=2)
    assert_same_report(simulate(abilene, "semimcfraecke", tms, tms, cfg),
                       simulate(abilene, "semimcfraecke", tms, tms, cfg))


def test_flash_burst_decays_inside_tm(line4):
    tm = tm_of(line4, {("h_a", "h_d"): 10.0, ("h_a", "h_b"): 1.0})
    cfg = SimConfig(steps_per_tm=6, seed=5, flash_beta=3.0)
    rep = simulate(line4, "spf", [tm], [tm], cfg)
    demands = [m.demand_total for m in rep.steps[0]]
    assert demands[0] > demands[1] > demands[-1] > tm.total() - 1e-9


def test_flash_recovery_reweights(abilene):
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    base_cfg = dict(steps_per_tm=30, seed=3, flash_beta=4.0,
                    flash_recovery_period=10, budget=5)
    no_rec = simulate(abilene, "semimcfraecke", [tm], [tm],
                      SimConfig(recovery="none", **base_cfg))
    with_rec = simulate(abilene, "semimcfraecke", [tm], [tm],
                        SimConfig(recovery="local", **base_cfg))
    t_no = metrics_rollup(no_rec).throughput_fraction
    t_rec = metrics_rollup(with_rec).throughput_fraction
    assert t_rec >= t_no - 1e-9


def test_path_table_built_once_per_installed_scheme(abilene, monkeypatch):
    """N flash steps run N block rows per matrix.  The path table is built
    once per matrix for an oblivious kind, and again after each of a
    semi-oblivious kind's re-balances, never per step."""
    builds, steps = [], []
    propagate = sim._propagate

    class CountingTable(PathTable):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    def counting_propagate(table, rates):
        steps.extend([table] * len(rates))
        return propagate(table, rates)

    monkeypatch.setattr(sim, "PathTable", CountingTable)
    monkeypatch.setattr(sim, "_propagate", counting_propagate)
    state = GravityState.initial(abilene.hosts, seed=4)
    tms = [gravity_tm(state, 6e9), gravity_tm(mh_step(state), 6e9)]
    n, period = 23, 10
    cfg = SimConfig(steps_per_tm=n, seed=1, budget=3, recovery="local",
                    flash_beta=3.0, flash_lag=4, flash_recovery_period=period)
    for algo, per_tm in (("ecmp", 1),
                         ("semimcfraecke", 1 + (n - 1) // period)):
        builds.clear()
        steps.clear()
        simulate(abilene, algo, tms, tms, cfg)
        assert len(steps) == n * len(tms), algo
        assert len(builds) == per_tm * len(tms), algo
        assert len({id(table) for table in steps}) == len(builds), algo


def test_flash_blocks_cut_by_the_bound_match_one_row_blocks(abilene,
                                                             monkeypatch):
    """A re-balance period longer than the block bound runs as several
    blocks, and the report is the one of stepping every row as its own
    block: the same report and the same rollup."""
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=6), 6e9)
    cfg = SimConfig(steps_per_tm=70, seed=2, budget=3, recovery="local",
                    flash_beta=3.0, flash_lag=5, flash_recovery_period=60)
    rows = []
    propagate = sim._propagate

    def recording_propagate(table, rates):
        rows.append(len(rates))
        return propagate(table, rates)

    monkeypatch.setattr(sim, "_propagate", recording_propagate)
    for algo in ("ecmp", "semimcfraecke"):
        rows.clear()
        blocked = simulate(abilene, algo, [tm], [tm], cfg)
        periods = 1 if algo == "ecmp" else 2
        assert len(rows) > periods and max(rows) > 1, (algo, rows)
        with monkeypatch.context() as m:
            m.setattr(sim, "_BLOCK_HOP_ENTRIES", 1)
            rows.clear()
            single = simulate(abilene, algo, [tm], [tm], cfg)
            assert rows == [1] * cfg.steps_per_tm
        assert_same_report(blocked, single)
        assert (report_to_csv(metrics_rollup(blocked))
                == report_to_csv(metrics_rollup(single)))


def test_flash_after_global_recovery_uses_recomputed_base(abilene,
                                                          monkeypatch):
    """A flash re-balance after global recovery routes only over the base
    recomputed on the reduced topology, not the original base's
    survivors."""
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=12), 6e9)
    failed = (("s2", "s12"),)
    cfg = SimConfig(steps_per_tm=2, recovery="global", flash_beta=3.0,
                    flash_recovery_period=1, flash_lag=0, seed=2,
                    explicit_failures=[failed])
    kind = AlgorithmKind.parse("semimcfraecke")
    recomputed = tekit.SchemeDriver(abilene.without_links(failed), kind,
                                    [tm], cfg).base
    from tekit.algorithms import reweight
    routed = []

    def recording_reweight(*args):
        routed.append(reweight(*args))
        return routed[-1]

    monkeypatch.setattr("tekit.algorithms.reweight", recording_reweight)
    simulate(abilene, kind, [tm], [tm], cfg)
    # the last re-balance is step 1's flash re-balance
    outside = [(pair, p) for pair, dist in routed[-1].items()
               for p, w in dist.items() if w > 0 and p not in recomputed[pair]]
    assert outside == []


def test_optimalmcf_flash_solves_name_matrix_and_step(abilene):
    tms = [gravity_tm(GravityState.initial(abilene.hosts, seed=s), 6e9)
           for s in (1, 2)]
    cfg = SimConfig(steps_per_tm=3, recovery="local", flash_beta=3.0,
                    flash_recovery_period=1, flash_lag=0)
    rep = simulate(abilene, "optimalmcf", tms, tms, cfg)
    assert [s.label for s in rep.solves if "flash" in s.label] == [
        f"optimalmcf flash solve tm{t} step{step}"
        for t in (0, 1) for step in (1, 2)]


def test_global_recovery_is_the_failed_matrix_only_solve(abilene):
    """On a failed matrix global recovery replaces the per-matrix solve, and
    churn and the path count are those of the rebuilt paths."""
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=3), 5e9)
    failed = (("s2", "s12"),)
    cfg = SimConfig(steps_per_tm=1, recovery="global", seed=1, budget=3,
                    explicit_failures=[failed])
    rep = simulate(abilene, "mcf", [tm], [tm], cfg)
    assert [s.label for s in rep.solves] == ["global recovery: mcf solve tm0"]
    kind = AlgorithmKind.parse("ksp")
    rebuilt = tekit.SchemeDriver(abilene.without_links(failed), kind, [tm],
                                 cfg).base
    rep = simulate(abilene, kind, [tm], [tm], cfg)
    assert rep.installed_paths == [sum(len(d) for d in rebuilt.values())]


def test_global_recovery_fallback_is_labelled_local(path8):
    """A failure that disconnects the topology degrades global recovery to
    local recovery, and the solve record says so."""
    tm = tm_of(path8, {}, default=1.0)
    cfg = SimConfig(steps_per_tm=1, phi=1, recovery="global")
    rep = simulate(path8, "semimcfraecke", [tm], [tm], cfg)
    assert [s.label for s in rep.solves] == [
        "semimcfraecke base", "semimcfraecke local recovery tm0"]


def test_build_config_rejects_zero_budget():
    # so make_scheme("raecke", ..., cfg) never builds a tree distribution
    # that prune_to_budget would reject
    with pytest.raises(ValueError, match="budget must be >= 1"):
        tekit.BuildConfig(budget=0)


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


@pytest.mark.parametrize("algo, flash_beta", [
    ("ecmp", 0.0), ("semimcfraecke", 0.0), ("ecmp", 3.0),
    ("semimcfraecke", 3.0)])
def test_rollup_matches_step_loop(abilene, algo, flash_beta):
    """The columnar rollup equals ``+=`` over the per-step views, bit for
    bit: steady matrices (one row standing for every step), flash matrices
    with re-balances, and a failed link."""
    state = GravityState.initial(abilene.hosts, seed=8)
    tms = [gravity_tm(state, 6e9), gravity_tm(mh_step(state), 6e9)]
    cfg = SimConfig(steps_per_tm=30, phi=1, recovery="local", seed=4,
                    budget=3, flash_beta=flash_beta, flash_recovery_period=12)
    rep = simulate(abilene, algo, tms, tms, cfg)
    summary = metrics_rollup(rep)
    per_tm, latency = reference_rollup(rep)
    for row, (d, cl, fl, dt, mc) in zip(summary.per_tm, per_tm, strict=True):
        assert row["throughput_fraction"] == d / dt
        assert row["congestion_loss_fraction"] == cl / dt
        assert row["failure_loss_fraction"] == fl / dt
        assert row["max_congestion"] == mc
    running, acc = [], 0.0
    for lat in sorted(latency):
        acc += latency[lat]
        running.append((lat, acc))
    assert summary.latency_cdf == tuple((lat, a / acc) for lat, a in running)
    assert summary.latency_cdf[-1][1] == 1.0
    delivered = demand = 0.0
    for d, _, _, dt, _ in per_tm:
        delivered += d
        demand += dt
    assert summary.throughput_fraction == delivered / demand


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
    assert any("local recovery tm0" in ev for ev in limit_events(rep.solves))
    rep = simulate(abilene, "mcf", [tm], [tm],
                   replace(failed, recovery="global"))
    assert any(ev.startswith("global recovery: ")
               for ev in limit_events(rep.solves))
    flash = SimConfig(steps_per_tm=3, recovery="local", mw=strict, seed=3,
                      flash_beta=4.0, flash_recovery_period=1, flash_lag=0)
    rep = simulate(abilene, "semimcfraecke", [tm], [tm], flash)
    assert any("flash reweight tm0 step1" in ev
               for ev in limit_events(rep.solves))


def test_reweight_phase_limit_carries_stranded_pairs(abilene):
    from tekit.algorithms import reweight
    from tekit.mcf import PhaseLimitError
    state = GravityState.initial(abilene.hosts, seed=12)
    tm = gravity_tm(state, 6e9)
    base = tekit.ksp(abilene, 2)
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


# -- warm starts: which re-solves chain ------------------------------------

def _record_starts(monkeypatch):
    """Whether each solve given a carry starts from carried weights, in
    solve order."""
    from tekit.mcf import WarmStart
    starts = []
    start = WarmStart.start

    def recording(self, edges):
        out = start(self, edges)
        starts.append(out is not None)
        return out

    monkeypatch.setattr(WarmStart, "start", recording)
    return starts


def test_recovery_and_flash_rebalances_chain_by_usable_edges(abilene,
                                                             monkeypatch):
    """A flash re-balance over the installed paths' survivors starts from
    the solve before it; a local recovery, whose surviving paths cross
    other edges than the solve before, starts uniform."""
    starts = _record_starts(monkeypatch)
    tms = [gravity_tm(GravityState.initial(abilene.hosts, seed=s), 6e9)
           for s in (1, 2)]
    cfg = SimConfig(steps_per_tm=4, recovery="local", budget=3, seed=2,
                    flash_beta=3.0, flash_recovery_period=2, flash_lag=0,
                    explicit_failures=[(), (("s2", "s12"),)])
    rep = simulate(abilene, "semimcfraecke", tms, tms, cfg)
    assert [s.label for s in rep.solves] == [
        "semimcfraecke base", "semimcfraecke reweight tm0",
        "semimcfraecke flash reweight tm0 step2",
        "semimcfraecke local recovery tm1",
        "semimcfraecke flash reweight tm1 step2"]
    assert starts == [False, True, False, True]


def test_recovery_over_other_edges_runs_as_a_cold_solve(abilene, monkeypatch):
    """With weights carried from the whole base, a local recovery runs the
    same iterations, to the same scheme, as one with no carry; a flash
    re-balance over the same survivors after it starts warm and needs
    fewer."""
    from tekit.algorithms import reweight
    from tekit.demand import flash_burst, flash_sink
    kind = AlgorithmKind.parse("semimcfraecke")
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=3), 6e9)
    driver = tekit.SchemeDriver(abilene, kind, [tm], SimConfig(budget=3))
    driver.scheme_for(0, tm, tm, abilene)
    assert driver.semi_warm.weights is not None
    iterations = []
    semi_mcf = tekit.algorithms.semi_mcf

    def recording(*args):
        sol = semi_mcf(*args)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(tekit.algorithms, "semi_mcf", recording)
    failed = [("s2", "s12")]
    chained = recover_local(driver.base, failed, kind, abilene, tm,
                            MwConfig(), driver.semi_warm)
    fresh = recover_local(driver.base, failed, kind, abilene, tm)
    assert iterations[0] == iterations[1]
    assert chained == fresh
    live = sim._surviving(driver.base, both_directions(failed))
    observed = flash_burst(tm, 3.0, 0, flash_sink(tm, 2, 0))
    reweight(abilene, live, observed, MwConfig(), driver.semi_warm)
    reweight(abilene, live, observed)
    assert iterations[2] < iterations[3]


def test_global_recovery_scaling_and_make_scheme_start_cold(abilene,
                                                            monkeypatch):
    """Global recovery solves on a driver of its own, so it starts uniform
    and leaves the run's carry alone: the next matrix chains to the one
    before the failure.  ``make_scheme`` and demand scaling start
    uniform."""
    starts = _record_starts(monkeypatch)
    tms = [gravity_tm(GravityState.initial(abilene.hosts, seed=s), 5e9)
           for s in (1, 2, 3)]
    failed = (("s2", "s12"),)
    reduced = abilene.without_links(failed)
    cfg = SimConfig(steps_per_tm=1, recovery="global",
                    explicit_failures=[(), failed, ()])
    rep = simulate(abilene, "mcf", tms, tms, cfg)
    assert [s.label for s in rep.solves] == [
        "mcf solve tm0", "global recovery: mcf solve tm1", "mcf solve tm2"]
    assert starts == [False, False, True]
    kind = AlgorithmKind.parse("mcf")
    scheme, _ = recover_global(1, kind, reduced, tms[1], cfg)
    assert scheme == tekit.mcf_mw(reduced, tms[1]).scheme
    assert tekit.make_scheme("mcf", abilene, tms[2]) == tekit.mcf_mw(
        abilene, tms[2]).scheme
    tekit.demand.scale_factor(abilene, tms[0], 1.0)
    assert starts == [False, False, True, False, False]
