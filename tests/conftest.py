import numpy as np
import pytest
from hypothesis import strategies as st

from tekit import Edge, Topology, TrafficMatrix, load_bundled_topology


@pytest.fixture(scope="session")
def abilene():
    return load_bundled_topology("abilene")


@pytest.fixture(scope="session")
def diamond():
    return load_bundled_topology("diamond")


@pytest.fixture(scope="session")
def triangle():
    return load_bundled_topology("triangle")


@pytest.fixture(scope="session")
def path8():
    return load_bundled_topology("path8")


def build_topology(name, switch_links, hosts_on=None, link_cap=100.0,
                   stub_cap=10000.0, weights=None):
    """Assemble a test topology from undirected switch links.

    ``switch_links`` is a list of (a, b) or (a, b, cap) tuples; every switch
    in ``hosts_on`` (default: all) gets one host named h_<switch>.
    """
    nodes = {}
    edges = []
    for link in switch_links:
        a, b = link[0], link[1]
        cap = link[2] if len(link) > 2 else link_cap
        w = weights.get((a, b), 1.0) if weights else 1.0
        nodes[a] = "switch"
        nodes[b] = "switch"
        edges.append(Edge(a, b, cap, w))
        edges.append(Edge(b, a, cap, w))
    for sw in sorted(hosts_on if hosts_on is not None else nodes):
        h = f"h_{sw}"
        nodes[h] = "host"
        edges.append(Edge(h, sw, stub_cap, 0.0))
        edges.append(Edge(sw, h, stub_cap, 0.0))
    return Topology(name, nodes, edges)


@pytest.fixture(scope="session")
def line4():
    return build_topology("line4", [("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture(scope="session")
def ring24():
    links = [(f"r{i:02d}", f"r{(i + 1) % 24:02d}") for i in range(24)]
    links = [tuple(sorted(l)) for l in links]
    return build_topology("ring24", links, hosts_on=["r00", "r12"])


#: few distinct dyadic path lengths: many exact ties, and sums that do not
#: round, so a search and a brute-force enumeration rank paths alike
TIED_LENGTHS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])


def random_topology(seed, n_switches=6, extra_links=3, cap_range=(5.0, 50.0)):
    """Random connected switch graph: a random spanning tree plus extras."""
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
    link_list = []
    for (a, b) in sorted(links):
        cap = float(rng.uniform(*cap_range))
        link_list.append((a, b, cap))
    return build_topology(f"rand{seed}", link_list, stub_cap=1e9)


def tm_of(topo, entries, default=0.0):
    """TrafficMatrix from a {(src, dst): rate} dict over topo's hosts."""
    hosts = topo.hosts
    idx = {h: i for i, h in enumerate(hosts)}
    rates = np.full((len(hosts), len(hosts)), default)
    np.fill_diagonal(rates, 0.0)
    for (s, d), r in entries.items():
        rates[idx[s], idx[d]] = r
    return TrafficMatrix(hosts, rates)
