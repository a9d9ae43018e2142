"""Workload definitions for the tekit benchmark.

Each workload is one ``tekit run`` command over inputs made by
``tekit gen-demands`` from sub-seeds of the workload seed.  The three
workloads stress different layers:

* ``recipe`` -- the README recipe on the bundled abilene topology.  Solver
  bound: ``mcf_mw`` and ``semi_mcf`` (including the untimed recovery
  reweights) take most of the time.
* ``flash`` -- abilene with a flash burst.  Bound by the fluid step
  (``sim._propagate`` once per step), with only a few ``semi_mcf``
  re-balances and non-zero congestion loss, so water-filling binds.
* ``wan50`` -- a generated 50-switch topology with pre-scaled demands.
  Bound by scheme construction (Yen ``ksp``, the Raecke tree distribution
  and its path collapse); no solver call runs at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    #: bundled topology name, or None for the generated wan50 topology
    topology: str | None
    gen_args: tuple[str, ...]
    run_args: tuple[str, ...]
    num_tms: int
    steps: int
    #: rescale the generated demands so that shortest-path routing's peak
    #: link utilization on the first matrix is this (see wan50 below)
    spf_peak: float | None = None
    #: switches of the generated topology
    switches: int = 50
    #: what a smoke run shrinks the workload to
    smoke_tms: int = 1
    smoke_steps: int = 2
    smoke_switches: int = 10


WORKLOADS = {
    "recipe": Workload(
        "recipe", "abilene",
        gen_args=("--prediction-error", "0.2"),
        run_args=("--algos", "spf,ecmp,ksp,vlb,raecke,mcf,semimcfraecke",
                  "--budget", "3", "--scale", "1.0", "--fail-num", "1",
                  "--recovery", "local"),
        num_tms=4, steps=1000),
    "flash": Workload(
        "flash", "abilene",
        gen_args=(),
        run_args=("--algos", "ecmp,semimcfraecke", "--budget", "3",
                  "--scale", "2.0", "--flash-beta", "3.0", "--flash-lag", "8",
                  "--flash-recovery-period", "200", "--recovery", "local"),
        num_tms=1, steps=600, smoke_steps=201),
    # ``gen-demands --scale`` would solve mcf_mw on the 50-switch topology
    # (about 18 s, over 1000 MW iterations) for every input set, so
    # the benchmark rescales the unscaled matrices itself.  A spf peak of
    # 1.2 matches ``--scale 1.0`` on the calibration seed (optimum 0.4,
    # spf/optimum ratio 2.9), so water-filling still binds.
    "wan50": Workload(
        "wan50", None,
        gen_args=(),
        run_args=("--algos", "ecmp,ksp,vlb,raecke", "--budget", "3",
                  "--fail-num", "1", "--recovery", "local"),
        num_tms=1, steps=20, spf_peak=1.2),
}


def wan_topology(seed: int, n_switches: int = 50, extra_links: int = 25,
                 cap_range: tuple[float, float] = (5.0, 50.0),
                 stub_cap: float = 1e9):
    """Random connected switch graph: a random spanning tree plus extras,
    one host ``h_<switch>`` per switch.

    Capacities are rounded to two decimals so that the topology file format
    (six significant digits) holds them exactly.
    """
    from tekit import Edge, Topology

    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n_switches)]
    links = {}
    order = list(rng.permutation(n_switches))
    for i in range(1, n_switches):
        a = names[order[i]]
        b = names[order[int(rng.integers(i))]]
        links[tuple(sorted((a, b)))] = None
    tries = 0
    while len(links) < n_switches - 1 + extra_links and tries < 100:
        tries += 1
        i, j = rng.integers(n_switches), rng.integers(n_switches)
        if i != j:
            links.setdefault(tuple(sorted((names[i], names[j]))), None)
    nodes = {}
    edges = []
    for (a, b) in sorted(links):
        cap = round(float(rng.uniform(*cap_range)), 2)
        nodes[a] = nodes[b] = "switch"
        edges += [Edge(a, b, cap, 1.0), Edge(b, a, cap, 1.0)]
    for sw in sorted(list(nodes)):
        host = f"h_{sw}"
        nodes[host] = "host"
        edges += [Edge(host, sw, stub_cap, 0.0), Edge(sw, host, stub_cap, 0.0)]
    return Topology(f"wan{n_switches}", nodes, edges)


def write_wan_topology(seed: int, n_switches: int, path: Path) -> bool:
    """Write the generated topology; True if it parses back to the same
    nodes and edges."""
    from tekit import fileio

    topo = wan_topology(seed, n_switches, extra_links=n_switches // 2)
    text = fileio.format_topology(topo)
    path.write_text(text)
    back = fileio.parse_topology(text, name=topo.name)
    return back.nodes == topo.nodes and back.edges == topo.edges


def rescale_to_spf_peak(topo_path: Path, tm_paths: list[Path],
                        peak: float) -> float:
    """Scale every matrix file by one factor so that spf's peak link
    utilization on the first actual matrix equals ``peak``."""
    from tekit import fileio
    from tekit.baseline import spf
    from tekit.mcf import evaluate_scheme

    topo = fileio.load_topology(topo_path)
    seqs = [fileio.read_tm_sequence(p, topo.hosts) for p in tm_paths]
    factor = peak / evaluate_scheme(topo, spf(topo), seqs[0][0])[0]
    for p, seq in zip(tm_paths, seqs):
        fileio.write_tm_sequence(p, [tm.scaled(factor) for tm in seq])
    return factor
