"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.  Shared heavy
computations (the 100-matrix congestion sweep on the 12-switch backbone)
are session fixtures.
"""

import math
import time

import numpy as np
import pytest

import tekit
from tekit import (MwConfig, SimConfig, evaluate_scheme,
                   failure_schedule, graphops, load_bundled_topology, mcf_mw,
                   metrics_rollup, prune_to_budget, semi_mcf, simulate)
from tekit.cli import main as cli_main
from tekit.demand import (GravityState, gravity_tm, mh_step,
                          perturb_for_prediction)
from tekit.raecke import frt_tree, paths_from_distribution, raecke_distribution, stretch

from conftest import random_topology, tm_of
from helpers import lp_min_max_congestion, random_commodities

ACCURACY = 0.05


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def abilene_sweep(abilene):
    """100 evolving gravity matrices with their optimal congestions and the
    seed-0 tree-routing scheme (shared by criteria 3 and 4)."""
    state = GravityState.initial(abilene.hosts, seed=0)
    tms, opt = [], []
    for _ in range(100):
        tm = gravity_tm(state, 1e9)
        tms.append(tm)
        opt.append(mcf_mw(abilene, tm, MwConfig(accuracy=ACCURACY)).max_congestion)
        state = mh_step(state)
    dist = raecke_distribution(abilene, 0)
    scheme = paths_from_distribution(dist, abilene)
    return tms, np.array(opt), scheme


def test_c01_mcf_analytic_optimality(diamond):
    t0 = time.perf_counter()
    tm = tm_of(diamond, {("hs", "ht"): 20.0})
    sol = mcf_mw(diamond, tm, MwConfig(accuracy=ACCURACY))
    elapsed = time.perf_counter() - t0
    ok = 0.5 <= sol.max_congestion <= 0.525 and elapsed < 1.0
    report("01 analytic optimality", ok,
           f"max_congestion={sol.max_congestion:.5f} in [0.5, 0.525], "
           f"{elapsed:.2f}s < 1s")


def test_c02_mw_vs_exhaustive_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        topo = random_topology(seed + 1000, n_switches=6, extra_links=3)
        commodities = random_commodities(topo, rng, 3)
        opt = lp_min_max_congestion(topo, commodities)
        tm = tm_of(topo, {(f"h_{s}", f"h_{t}"): d for (s, t, d) in commodities})
        got = mcf_mw(topo, tm, MwConfig(accuracy=ACCURACY)).max_congestion
        worst = max(worst, got / opt)
        assert got <= (1 + ACCURACY) * opt + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst <= 1 + ACCURACY + 1e-9 and elapsed < 30.0
    report("02 oracle gap", ok,
           f"worst ratio {worst:.4f} <= {1 + ACCURACY}, {elapsed:.1f}s < 30s")


def test_c03_oblivious_ratio(abilene, abilene_sweep):
    t0 = time.perf_counter()
    tms, opt, scheme = abilene_sweep
    ratios = np.array([evaluate_scheme(abilene, scheme, tm)[0] for tm in tms]) / opt
    good = int((ratios <= 2.5).sum())
    elapsed = time.perf_counter() - t0
    ok = good >= 95 and elapsed < 300.0
    report("03 oblivious ratio", ok,
           f"{good}/100 matrices within 2.5x of optimum "
           f"(max ratio {ratios.max():.3f}), eval {elapsed:.0f}s")


def test_c04_semi_oblivious_competitiveness(abilene, abilene_sweep):
    tms, opt, scheme = abilene_sweep
    base = prune_to_budget(scheme, 5)
    ratios = []
    for tm, o in zip(tms, opt):
        got = semi_mcf(abilene, tm, base, MwConfig(accuracy=ACCURACY)).max_congestion
        ratios.append(got / o)
    ratios = np.array(ratios)
    good = int((ratios <= 1.15).sum())
    ok = good >= 90
    report("04 semi-oblivious competitiveness", ok,
           f"{good}/100 matrices within 1.15x of optimum "
           f"(max ratio {ratios.max():.3f})")


def test_c05_failure_case_study(abilene):
    link = ("s12", "s2")
    fails = ((), (link,), (link,), ())
    wins = 0
    details = []
    for seed in range(10):
        state = GravityState.initial(abilene.hosts, seed=seed)
        tms = []
        for _ in range(4):
            tms.append(gravity_tm(state, 1e9))
            state = mh_step(state)
        scale = tekit.demand.scale_factor(abilene, tms[0], 1.0)
        tms = [tm.scaled(scale) for tm in tms]
        cfg = SimConfig(steps_per_tm=1000, recovery="local", seed=seed,
                        budget=5, explicit_failures=fails)
        tput = {}
        for algo in ("spf", "semimcfraecke"):
            summary = metrics_rollup(simulate(abilene, algo, tms, tms, cfg))
            tput[algo] = [row["throughput_fraction"] for row in summary.per_tm]
        if all(tput["semimcfraecke"][t] > tput["spf"][t] for t in (1, 2)):
            wins += 1
        details.append(f"seed{seed}: spf={min(tput['spf'][1:3]):.3f} "
                       f"semi={min(tput['semimcfraecke'][1:3]):.3f}")
    ok = wins == 10
    report("05 failure case study", ok,
           f"{wins}/10 seeds keep tree-based throughput above shortest-path "
           f"during the failure window ({details[0]})")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flash_burst_semi_oblivious_keeps_throughput(abilene, seed):
    """The paper's burst claim: under a flash burst with re-balancing,
    semi-oblivious routing over tree paths delivers at least as much as
    the oblivious schemes it is compared with."""
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=seed), 1e9)
    tm = tm.scaled(tekit.demand.scale_factor(abilene, tm, 2.0))
    cfg = SimConfig(steps_per_tm=60, recovery="local", seed=seed, budget=3,
                    flash_beta=3.0, flash_lag=4, flash_recovery_period=10)
    tput = {algo: metrics_rollup(simulate(abilene, algo, [tm], [tm], cfg))
            .throughput_fraction
            for algo in ("ecmp", "raecke", "semimcfraecke")}
    semi = tput.pop("semimcfraecke")
    report("flash burst", all(semi >= other for other in tput.values()),
           f"seed {seed}: semimcfraecke {semi:.3f}, "
           + ", ".join(f"{a} {v:.3f}" for a, v in tput.items()))


def test_c06_budget_saturation(abilene):
    state = GravityState.initial(abilene.hosts, seed=3)
    tms = []
    for _ in range(4):
        tms.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    scale = tekit.demand.scale_factor(abilene, tms[0], 1.0)
    tms = [tm.scaled(scale) for tm in tms]
    out = {}
    for budget in (5, None):
        cfg = SimConfig(steps_per_tm=1000, seed=3, budget=budget)
        out[budget] = metrics_rollup(
            simulate(abilene, "semimcfraecke", tms, tms, cfg)).throughput_fraction
    ok = out[5] >= 0.95 * out[None]
    report("06 budget saturation", ok,
           f"throughput budget5={out[5]:.4f} vs unconstrained={out[None]:.4f}")


def test_c07_conservation(abilene):
    violations = 0
    checked = 0
    for algo in ("spf", "semimcfraecke", "mcf"):
        for phi in (0, 1):
            for scale in (1.0, 2.0):
                for seed in (0, 1, 2):
                    state = GravityState.initial(abilene.hosts, seed=seed)
                    tms = []
                    for _ in range(3):
                        tms.append(gravity_tm(state, scale * 1e9))
                        state = mh_step(state)
                    cfg = SimConfig(steps_per_tm=10, phi=phi, seed=seed,
                                    recovery="local")
                    rep = simulate(abilene, algo, tms, tms, cfg)
                    for steps in rep.steps:
                        for m in steps:
                            checked += 1
                            if (m.delivered + m.congestion_loss + m.failure_loss
                                    != m.demand_total):
                                violations += 1
    ok = violations == 0
    report("07 conservation", ok,
           f"{violations} violations over {checked} steps "
           "(3 algorithms x 2 phi x 2 scales x 3 seeds)")


def test_c08_churn_taxonomy(abilene):
    state = GravityState.initial(abilene.hosts, seed=5)
    tms = []
    for _ in range(20):
        tms.append(gravity_tm(state, 1e9))
        state = mh_step(state)
    cfg = SimConfig(steps_per_tm=1, seed=5, budget=5)
    churns = {}
    for algo in ("spf", "ecmp", "ksp", "vlb", "raecke", "semimcfraecke",
                 "semimcfksp", "mcf"):
        rep = simulate(abilene, algo, tms, tms, cfg)
        churns[algo] = sum(rep.churn_timeline)
    oblivious_zero = all(churns[a] == 0 for a in ("spf", "ecmp", "ksp", "vlb",
                                                  "raecke"))
    semi_zero = all(churns[a] == 0 for a in ("semimcfraecke", "semimcfksp"))
    ok = oblivious_zero and semi_zero and churns["mcf"] > 0
    report("08 churn taxonomy", ok,
           f"oblivious=0: {oblivious_zero}, fixed-path=0: {semi_zero}, "
           f"mcf={churns['mcf']} > 0")


def test_c09_failure_schedule_fidelity(ring24):
    tm = tm_of(ring24, {("h_r00", "h_r12"): 5.0})
    full = [s[0] for s in failure_schedule(ring24, 1, 24, seed=0, tm0=tm)]
    half = [s[0] for s in failure_schedule(ring24, 1, 12, seed=0, tm0=tm)]
    each_once = sorted(full) == ring24.links()
    alternate = half == full[::2]
    ok = each_once and alternate
    report("09 failure schedule fidelity", ok,
           f"24 links/24 TMs fails each link once: {each_once}; "
           f"24 links/12 TMs fails alternate links: {alternate}")


def test_c10_cli_determinism(tmp_path):
    topo = str(tekit.fileio.bundled_topology_path("abilene"))
    gen = tmp_path / "d"
    assert cli_main(["gen-demands", "--topo", topo, "--num-tms", "3",
                     "--scale", "1.0", "--prediction-error", "0.1",
                     "--seed", "41", "--out", str(gen)]) == 0
    args = ["run", "--topo", topo, "--tms", f"{gen}.actual.tms",
            "--pred", f"{gen}.predicted.tms",
            "--algos", "spf,raecke,semimcfraecke", "--steps", "50",
            "--budget", "3", "--fail-num", "1", "--recovery", "local",
            "--seed", "41"]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(next(out.iterdir()))
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    identical = files1 == files2 and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in files1)
    report("10 determinism", identical,
           f"{len(files1)} output files byte-identical across two runs")


def test_c11_prediction_error_ordering(abilene):
    """Adaptive plans degrade with prediction error while demand-independent
    routing does not.  The MCF-vs-fixed-base comparison is made at solver
    resolution: both degradations are differences of solutions each
    certified only to (1 + accuracy), so orderings finer than
    2*accuracy*congestion are not observable (see decisions ledger)."""
    wins = 0
    details = []
    for seed in range(10):
        state = GravityState.initial(abilene.hosts, seed=seed)
        actual, predicted = [], []
        for _ in range(5):
            actual.append(gravity_tm(state, 1e9))
            predicted.append(
                gravity_tm(perturb_for_prediction(state, 0.4, seed), 1e9))
            state = mh_step(state)
        dist = raecke_distribution(abilene, seed)
        raecke_scheme = paths_from_distribution(dist, abilene)
        base = prune_to_budget(raecke_scheme, 5)
        cfg = MwConfig(accuracy=ACCURACY)

        def mean_cong(schemes):
            return float(np.mean([evaluate_scheme(abilene, s, a)[0]
                                  for s, a in zip(schemes, actual)]))

        mcf0 = mean_cong([mcf_mw(abilene, a, cfg).scheme for a in actual])
        mcf4 = mean_cong([mcf_mw(abilene, p, cfg).scheme for p in predicted])
        semi0 = mean_cong([semi_mcf(abilene, a, base, cfg).scheme for a in actual])
        semi4 = mean_cong([semi_mcf(abilene, p, base, cfg).scheme for p in predicted])
        d_mcf, d_semi, d_raecke = mcf4 - mcf0, semi4 - semi0, 0.0
        tol = 2 * ACCURACY * max(mcf0, semi0)
        ordered = (d_mcf >= d_semi - tol and d_semi >= d_raecke - tol
                   and d_semi > 0 and d_raecke == 0.0)
        wins += ordered
        details.append(f"seed{seed}: mcf {d_mcf:+.4f} semi {d_semi:+.4f} "
                       f"raecke {d_raecke:+.4f}")
    ok = wins >= 8
    report("11 prediction-error ordering", ok,
           f"{wins}/10 seeds ordered at solver resolution ({details[0]})")


def test_c12_frt_stretch_envelope():
    worst = {}
    for name in ("abilene", "triangle", "diamond", "path8"):
        topo = load_bundled_topology(name)
        lengths = graphops.unit_lengths(topo)
        bound = 32.0 * math.log(len(topo.switches))
        worst_here = 0.0
        for seed in range(200):
            tree = frt_tree(topo, lengths, seed)
            worst_here = max(worst_here, stretch(tree, topo, lengths))
        worst[name] = (worst_here, bound)
        assert worst_here <= bound, name
    detail = "; ".join(f"{n}: {w:.2f} <= {b:.1f}" for n, (w, b) in worst.items())
    report("12 stretch envelope", True, detail)
