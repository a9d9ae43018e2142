"""Pinned output of every demand-independent scheme builder.

Each digest covers the order of the host pairs, the order of the paths
within each pair and the ``repr`` of every probability, so a change to
dict order or to the last bit of a probability fails here.  The
``shared`` topology adds hosts that sort before (``a*``) and after
(``z*``) abilene's ``h*`` hosts and share switches with them.  The Räcke
tree distributions behind the ``raecke`` schemes are pinned as well: their
canonical text and the stretch of their first tree.  So are the bases the
two envelope kinds learn from predicted matrices, and the bases a run
keeps under a path budget.
"""

import hashlib

import pytest

from tekit import (AlgorithmKind, BuildConfig, Edge, GravityState, MwConfig,
                   PhaseLimitError, SchemeDriver, Topology, ecmp,
                   generate_sequences, gravity_tm, ksp, load_bundled_topology,
                   paths_from_distribution, raecke_distribution,
                   semi_mcf_ft_env, spf, stretch, vlb)

from conftest import random_topology


def scheme_digest(scheme) -> str:
    h = hashlib.sha256()
    for (src, dst), dist in scheme.items():
        h.update(f"{src} {dst}\n".encode())
        for path, prob in dist.items():
            h.update(f" {'-'.join(path)} {prob!r}\n".encode())
    return h.hexdigest()


def _with_shared_hosts(topo):
    nodes = dict(topo.nodes)
    edges = list(topo.edges.values())
    for host, sw in [("a1", "s1"), ("a3", "s3"), ("z1", "s1"), ("z3", "s3"),
                     ("z9", "s9")]:
        nodes[host] = "host"
        edges += [Edge(host, sw, 1e11, 0.0), Edge(sw, host, 1e11, 0.0)]
    return Topology(topo.name + "+shared", nodes, edges)


def _raecke(seed):
    def build(topo):
        dist = raecke_distribution(topo, seed)
        return paths_from_distribution(dist, topo)
    return build


BUILDERS = {"spf": spf, "ecmp": ecmp, "ksp": ksp, "vlb": vlb,
            "raecke0": _raecke(0), "raecke1": _raecke(1)}

PINS = {
    ("abilene", "spf"):
        "f02026537d19090a6e2e47b045cb723c3ccd41d4d000f1379fa53173a48edda2",
    ("abilene", "ecmp"):
        "c671b56d796e085dff4b02ff7272be0928ab6df9a75a02fc7058e2e39f60919e",
    ("abilene", "ksp"):
        "b8ab778fa063b58c2fc374de52af18d5a57bc3ee4954ca6c9185f4be58c1e762",
    ("abilene", "vlb"):
        "6e214cd4f774e7d0b3040100b736afdd25eb9214d68371fbfc055d87b6c3d48c",
    ("abilene", "raecke0"):
        "592c3d703fac57118de259fbe49b5d370bc08151c95e1ba4cd537e3bf554f460",
    ("abilene", "raecke1"):
        "4a1460e6eab1d2871c63220517cf8e6407d983c170ac26d2c8d36132063d1786",
    ("shared", "spf"):
        "cd02e5c29c7e64c91998ef4e2b46cf9dfe8936efe6c8720af2269da351361a65",
    ("shared", "ecmp"):
        "a5cbbc1e6aaa33eb05d036433ca793aa0e130d6b2ceacee3546b8aceb9feef01",
    ("shared", "ksp"):
        "ebfd906d0fa20b95b3f75efe4a1d677cba930afedf4ff681361ae4b0eb8887a6",
    ("shared", "vlb"):
        "6b43e3b58f2822091ac674125dbd7312d55508265617dd5df6d0673bdf2467a4",
    ("shared", "raecke0"):
        "b0f1b14197e80f0078c13a298009ed84e8381d7a8303d48d550ddb02fecdff55",
    ("shared", "raecke1"):
        "1300517c65337b5cb7d8bb4543a2215ebc37d522eb50cfbba616071a41a68ea5",
}


@pytest.fixture(scope="module")
def topologies():
    abilene = load_bundled_topology("abilene")
    return {"abilene": abilene, "shared": _with_shared_hosts(abilene)}


@pytest.mark.parametrize("topo_name, builder", sorted(PINS))
def test_builder_output_is_pinned(topologies, topo_name, builder):
    scheme = BUILDERS[builder](topologies[topo_name])
    assert scheme_digest(scheme) == PINS[(topo_name, builder)]


#: ``ksp`` on 30-switch random topologies: unit latencies, so Yen ranks
#: many equal-cost candidates, a tie-heavy case abilene never reaches
KSP_30_PINS = {
    0: "133d7b93b98e75c8893e6c54961c22ab2e07ba2d5610029343fab2c294209c14",
    1: "80bf52ee7e00b896cb69a179fe6bd6624de6fa5e870461c5e8418c0d83f1ed9c",
}


@pytest.mark.parametrize("seed", sorted(KSP_30_PINS))
def test_ksp_on_30_switches_is_pinned(seed):
    topo = random_topology(seed, n_switches=30, extra_links=15)
    assert scheme_digest(ksp(topo)) == KSP_30_PINS[seed]


#: ``vlb`` and ``raecke`` on the same 30-switch topologies: deeper trees
#: and longer walks than abilene's, so more loops to erase per walk
SCALE_30_PINS = {
    (0, "vlb"):
        "eba28ab7fa60c53e8cb4cf1c664620fd4e4fbe8b71d32e3864dde4882ac114b6",
    (0, "raecke0"):
        "cdfb33415f4835fc46adfeb70a95291615ae16c09c99e01a20ee5214dd9801c0",
    (0, "raecke1"):
        "b4aceb40820b124f32e15f825c46b508cba627c846c3e6bc6e090d032e80acea",
    (1, "vlb"):
        "40c313dc6a841bbcf8b90da07b9edb8a2763450d087cbd4e5ce982f0407b473f",
    (1, "raecke0"):
        "d57881422f26298e3ee1e2e1b6422353774dd91cc7bd67c514ba97b5a3b9169a",
    (1, "raecke1"):
        "a8aa2dffdba329136298e9c4873acb180e419583b28ae5c72e510a73b09af6d6",
}


@pytest.mark.parametrize("seed, builder", sorted(SCALE_30_PINS))
def test_builder_on_30_switches_is_pinned(seed, builder):
    topo = random_topology(seed, n_switches=30, extra_links=15)
    assert scheme_digest(BUILDERS[builder](topo)) == SCALE_30_PINS[
        (seed, builder)]


#: the bases a run keeps under ``--budget`` on the ``shared`` topology,
#: whose host pairs share switch pairs: one prune serves several pairs
BUDGET_PINS = {
    ("ecmp", 1):
        "cd02e5c29c7e64c91998ef4e2b46cf9dfe8936efe6c8720af2269da351361a65",
    ("ecmp", 3):
        "a5cbbc1e6aaa33eb05d036433ca793aa0e130d6b2ceacee3546b8aceb9feef01",
    ("raecke", 1):
        "b845407570faea19403bd82fc7e041db90978a9f8ee95134cf536397a57c2a58",
    ("raecke", 3):
        "e6db0c4d0daa8f1b8d7cec6b253b04eb3014cae5106c3b2267e269f886227bbd",
    ("vlb", 1):
        "b6ce1f9f26cc9b3a89acb820aabf8470c0828d94122d0d5eb5a622eaee8aea6a",
    ("vlb", 3):
        "2dc40f4c6b03e5fe0d92091f6e18471ef3c4e532ddca7cd1a0e5812f81d9c8bb",
}


@pytest.mark.parametrize("name, budget", sorted(BUDGET_PINS))
def test_budgeted_base_is_pinned(topologies, name, budget):
    driver = SchemeDriver(topologies["shared"], AlgorithmKind.parse(name), [],
                          BuildConfig(budget=budget))
    assert scheme_digest(driver.base) == BUDGET_PINS[(name, budget)]


#: sha256 of ``TreeDistribution.serialize()`` and of the ``repr`` of the
#: first tree's stretch under the distribution's final lengths
DIST_PINS = {
    ("abilene", 0): (
        "e581818e31cbe58f3087b819328f3573eb0de637a251292305b289a48b7cf0be",
        "85a05731bfb2c28ca9ea46fcd30199e268bb68aa6fe5740509979a942c050fd3"),
    ("abilene", 1): (
        "41d14d0040e1cb02828d72347d424f8895613f9ed203d21b9c4d214333d67cef",
        "8344c427aca549fa271d555e9d6ff0717bb02f640779ed2e61510cc0f4ab9207"),
    ("shared", 0): (
        "e581818e31cbe58f3087b819328f3573eb0de637a251292305b289a48b7cf0be",
        "85a05731bfb2c28ca9ea46fcd30199e268bb68aa6fe5740509979a942c050fd3"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("topo_name, seed", sorted(DIST_PINS))
def test_tree_distribution_is_pinned(topologies, topo_name, seed):
    topo = topologies[topo_name]
    dist = raecke_distribution(topo, seed)
    first = dist.trees[0][0]
    got = (_sha256(dist.serialize()),
           _sha256(repr(stretch(first, topo, dist.lengths_final))))
    assert got == DIST_PINS[(topo_name, seed)]


#: sha256 of the bases that the envelope kinds learn on abilene from the
#: predicted matrices of ``generate_sequences(abilene, 3, seed=5)``
ENVELOPE_PINS = {
    "semimcfmcfenv":
        "412d35e4cbae3ca6f617be0a464c8375b4cb800680153a7f0c69c99638c0b723",
    "semimcfmcfftenv":
        "4cb493d92fb0cef5516071cb02eb39428bd013c4f40a27de4af0330446a2477a",
}


@pytest.mark.parametrize("name", sorted(ENVELOPE_PINS))
def test_envelope_base_is_pinned(topologies, name):
    abilene = topologies["abilene"]
    _, predicted = generate_sequences(abilene, 3, seed=5)
    driver = SchemeDriver(abilene, AlgorithmKind.parse(name), predicted,
                          BuildConfig())
    assert [s.limit for s in driver.solves] == [None]
    assert scheme_digest(driver.base) == ENVELOPE_PINS[name]


def test_capped_ft_env_is_pinned(topologies):
    """A failure-tolerant envelope whose every scenario stops at its phase
    limit: the error's message and the union it carries."""
    abilene = topologies["abilene"]
    tm = gravity_tm(GravityState.initial(abilene.hosts, seed=12), 6e9)
    with pytest.raises(PhaseLimitError) as info:
        semi_mcf_ft_env(abilene, [tm], cfg=MwConfig(max_phases=2))
    assert str(info.value) == ("16 of 16 scenarios stopped, the first: no "
                               "certificate after 2 phases (ub=0.1304)")
    sol = info.value.solution
    assert scheme_digest(sol.scheme) == (
        "ff69718469b0afdb5599d66d16fecaf11510fb24fdda5df47ce07f97f96a5ca7")
    assert repr(sol.max_congestion) == "0.11315239182966756"
