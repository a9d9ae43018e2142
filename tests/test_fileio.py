import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tekit import Edge, Topology, TrafficMatrix
from tekit.fileio import (ParseError, bundled_topology_names, format_tm_line,
                          format_topology, load_bundled_topology,
                          parse_tm_line, parse_topology, read_tm_sequence,
                          write_tm_sequence)

SAMPLE = """
# demo network
node s1 switch
node s2 switch
node h1 host   # trailing comment
node h2 host
link s1 s2 cap=5e9bps weight=2.5
link h1 s1 cap=1e10bps
link h2 s2 cap=1e10bps
"""


def test_parse_topology():
    topo = parse_topology(SAMPLE, name="demo")
    assert topo.switches == ("s1", "s2")
    assert topo.hosts == ("h1", "h2")
    assert topo.edges[("s1", "s2")].capacity == 5e9
    assert topo.edges[("s2", "s1")].weight == 2.5
    assert topo.edges[("h1", "s1")].weight == 1.0  # default


def test_topology_round_trip():
    topo = parse_topology(SAMPLE, name="demo")
    again = parse_topology(format_topology(topo), name="demo")
    assert again.nodes == topo.nodes
    assert again.edges == topo.edges


def test_topology_round_trip_keeps_every_digit():
    text = ("node s1 switch\nnode s2 switch\n"
            "link s1 s2 cap=1234567.891bps weight=0.123456789\n")
    topo = parse_topology(text)
    again = parse_topology(format_topology(topo))
    assert again.edges[("s1", "s2")].capacity == 1234567.891
    assert again.edges[("s1", "s2")].weight == 0.123456789


_caps = st.floats(min_value=1e-300, max_value=1e300)
_weights = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def _topologies(draw):
    """Connected switch graphs (a random tree plus extra links) with one
    host stub on some switches and arbitrary finite capacities/weights."""
    n = draw(st.integers(1, 6))
    switches = [f"s{i}" for i in range(n)]
    links = {(switches[draw(st.integers(0, i - 1))], switches[i])
             for i in range(1, n)}
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        a, b = draw(st.lists(st.sampled_from(switches), min_size=2,
                             max_size=2, unique=True))
        if (b, a) not in links:
            links.add((a, b))
    nodes = {sw: "switch" for sw in switches}
    for sw in draw(st.lists(st.sampled_from(switches), unique=True)):
        nodes[f"h_{sw}"] = "host"
        links.add((f"h_{sw}", sw))
    edges = []
    for a, b in sorted(links):
        cap, weight = draw(_caps), draw(_weights)
        edges += [Edge(a, b, cap, weight), Edge(b, a, cap, weight)]
    return Topology("prop", nodes, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(topo=_topologies())
def test_topology_round_trip_property(topo):
    again = parse_topology(format_topology(topo), name=topo.name)
    assert again.nodes == topo.nodes
    assert again.edges == topo.edges
    assert format_topology(again) == format_topology(topo)


@pytest.mark.parametrize("bad, msg", [
    ("node x widget", "unknown kind"),
    ("link a b cap=1bps\nnode a switch", "unknown node"),
    ("node a switch\nnode b switch\nlink a b weight=1", "missing cap"),
    ("node a switch\nnode b switch\nlink a b cap=1bps speed=3", "unknown attribute"),
    ("frob a b", "unknown directive"),
])
def test_parse_errors(bad, msg):
    with pytest.raises((ParseError, Exception), match=msg):
        parse_topology(bad)


def test_bundled_topologies_load():
    names = bundled_topology_names()
    assert {"abilene", "diamond", "triangle", "path8"} <= set(names)
    ab = load_bundled_topology("abilene")
    assert len(ab.switches) == 12
    assert len(ab.links()) == 15
    assert ("s12", "s2") in ab.edges or ("s2", "s12") in ab.edges


def test_tm_line_round_trip_exact():
    rng = np.random.default_rng(3)
    hosts = ("a", "b", "c")
    rates = rng.uniform(0, 1e9, size=(3, 3))
    np.fill_diagonal(rates, 0.0)
    tm = TrafficMatrix(hosts, rates)
    back = parse_tm_line(format_tm_line(tm), hosts)
    assert np.array_equal(back.rates, tm.rates)


def test_tm_sequence_file_round_trip(tmp_path):
    hosts = ("a", "b")
    tms = [TrafficMatrix(hosts, np.array([[0.0, float(i)], [2.0 * i, 0.0]]))
           for i in range(1, 4)]
    path = tmp_path / "seq.tms"
    write_tm_sequence(path, tms)
    back = read_tm_sequence(path, hosts)
    assert len(back) == 3
    for tm, b in zip(tms, back):
        assert np.array_equal(tm.rates, b.rates)


def test_tm_line_wrong_arity():
    with pytest.raises(ParseError):
        parse_tm_line("1 2 3", ("a", "b"))


@pytest.mark.parametrize("token, msg", [
    ("-1", "negative demand rate"),
    ("abc", "could not convert"),
    ("nan", "must be finite"),
    ("inf", "must be finite"),
])
def test_tm_line_bad_rate(token, msg):
    with pytest.raises(ParseError, match=msg):
        parse_tm_line(f"0 {token} 1 0", ("a", "b"))


def test_tm_sequence_bad_rate_names_file_and_line(tmp_path):
    path = tmp_path / "bad.tms"
    path.write_text("0 1 2 0\n\n0 abc 2 0\n")
    with pytest.raises(ParseError, match=r"bad\.tms:3: could not convert"):
        read_tm_sequence(path, ("a", "b"))


@st.composite
def _tm_sequences(draw):
    n = draw(st.integers(1, 4))
    hosts = tuple(f"h{i}" for i in range(n))
    rate = st.floats(min_value=0.0, max_value=1e300)
    tms = []
    for _ in range(draw(st.integers(0, 3))):
        rates = np.array(draw(st.lists(rate, min_size=n * n,
                                       max_size=n * n))).reshape(n, n)
        np.fill_diagonal(rates, 0.0)
        tms.append(TrafficMatrix(hosts, rates))
    return hosts, tms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_tm_sequences())
def test_tm_sequence_round_trip_property(case):
    hosts, tms = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.tms"
        write_tm_sequence(path, tms)
        back = read_tm_sequence(path, hosts)
    assert len(back) == len(tms)
    for tm, b in zip(tms, back):
        assert b.hosts == tm.hosts
        assert np.array_equal(b.rates, tm.rates)
