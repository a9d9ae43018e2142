"""Core domain types shared by every routing algorithm and the simulator.

A network is a capacitated directed graph whose nodes are either *hosts*
(traffic endpoints, attached to exactly one switch) or *switches*
(forwarding devices).  Topology files describe undirected links; they are
expanded into two directed edges of equal capacity, which keeps per-direction
flow accounting simple.

A *path* is represented as the tuple of node names it visits, e.g.
``("h1", "s1", "s2", "h2")``.  A *routing scheme* maps each (src_host,
dst_host) pair to a probability distribution over paths.  Schemes are plain
dicts; treat them (and every other type here) as immutable after
construction — all operations in this package return fresh objects.
Path selectors route switch pairs; ``lift`` attaches the host stubs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

# A path is the ordered tuple of nodes it visits.
Path = tuple[str, ...]
# (src_host, dst_host) -> {path: probability}
Scheme = dict[tuple[str, str], dict[Path, float]]

#: Probability mass per pair must sum to one within this tolerance.
PROB_TOL = 1e-9


class TopologyError(ValueError):
    """Raised when a topology violates a structural invariant."""


class UnreachablePair(RuntimeError):
    """Raised when no route exists between two nodes that require one."""


@dataclass(frozen=True)
class Edge:
    """Directed edge with a capacity (bits/s) and a latency weight."""

    src: str
    dst: str
    capacity: float
    weight: float = 1.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


class Topology:
    """Validated capacitated graph distinguishing hosts from switches.

    Construction checks the structural invariants once; afterwards the
    object is safe to share freely (nothing here mutates it):

    * every edge endpoint is a declared node,
    * capacities are strictly positive, latency weights non-negative
      (NaN is neither),
    * the undirected support graph is connected,
    * hosts have undirected degree exactly 1 and attach to a switch.
    """

    def __init__(self, name: str, nodes: Mapping[str, str],
                 edges: Iterable[Edge]):
        self.name = name
        self.nodes = dict(nodes)
        self.edges: dict[tuple[str, str], Edge] = {}
        for e in edges:
            if e.key in self.edges:
                raise TopologyError(f"duplicate edge {e.key}")
            self.edges[e.key] = e
        self._validate()
        # adjacency over all nodes: node -> sorted tuple of successors
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (u, v) in self.edges:
            adj[u].append(v)
        self.adj = {n: tuple(sorted(vs)) for n, vs in adj.items()}
        self.hosts = tuple(sorted(n for n, k in self.nodes.items() if k == "host"))
        self.switches = tuple(sorted(n for n, k in self.nodes.items() if k == "switch"))
        #: switch-to-switch edge keys, in ``edges`` order
        self.switch_edges = tuple(
            (u, v) for (u, v) in self.edges
            if self.nodes[u] == "switch" and self.nodes[v] == "switch")
        self._host_switch = {
            h: next(v for v in self.adj[h] if self.nodes[v] == "switch")
            for h in self.hosts
        }

    def _validate(self) -> None:
        for n, kind in self.nodes.items():
            if kind not in ("host", "switch"):
                raise TopologyError(f"node {n}: unknown kind {kind!r}")
        deg: dict[str, set[str]] = {n: set() for n in self.nodes}
        for (u, v), e in self.edges.items():
            if u not in self.nodes or v not in self.nodes:
                raise TopologyError(f"edge {u}->{v} references unknown node")
            if not (math.isfinite(e.capacity) and e.capacity > 0):
                raise TopologyError(
                    f"edge {u}->{v}: capacity must be finite and positive")
            if not (math.isfinite(e.weight) and e.weight >= 0):
                raise TopologyError(
                    f"edge {u}->{v}: latency weight must be finite and "
                    "non-negative")
            deg[u].add(v)
            deg[v].add(u)
        if not self.nodes:
            raise TopologyError("empty topology")
        # connectivity of the undirected support
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in deg[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != set(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise TopologyError(f"support graph is disconnected (e.g. {missing[:3]})")
        for n, kind in self.nodes.items():
            if kind == "host":
                if len(deg[n]) != 1:
                    raise TopologyError(f"host {n} must attach to exactly one switch")
                peer = next(iter(deg[n]))
                if self.nodes[peer] != "switch":
                    raise TopologyError(f"host {n} attaches to non-switch {peer}")

    # -- convenience accessors -------------------------------------------------

    def host_switch(self, host: str) -> str:
        """The switch a host hangs off."""
        return self._host_switch[host]

    def switch_adj(self, switch: str) -> tuple[str, ...]:
        return tuple(v for v in self.adj[switch] if self.nodes[v] == "switch")

    def links(self) -> list[tuple[str, str]]:
        """Undirected switch-switch links as sorted (a, b) tuples, a < b."""
        return sorted({link_key(u, v) for (u, v) in self.switch_edges})

    def without_links(self, links: Iterable[tuple[str, str]]) -> "Topology":
        """Copy of this topology with the given undirected links removed.

        Raises TopologyError if the removal disconnects the support graph.
        """
        dead = both_directions(links)
        kept = [e for k, e in self.edges.items() if k not in dead]
        return Topology(self.name, self.nodes, kept)

    def path_weight(self, path: Path) -> float:
        return sum(self.edges[(path[i], path[i + 1])].weight
                   for i in range(len(path) - 1))

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, {len(self.switches)} switches, "
                f"{len(self.hosts)} hosts, {len(self.links())} links)")


def link_key(u: str, v: str) -> tuple[str, str]:
    """The undirected link between u and v as its sorted (a, b), a < b."""
    return (u, v) if u < v else (v, u)


def both_directions(links: Iterable[tuple[str, str]]
                    ) -> frozenset[tuple[str, str]]:
    """Directed edge keys of undirected links: (a, b) and (b, a) for each."""
    return frozenset(e for (a, b) in links for e in ((a, b), (b, a)))


def path_edges(path: Path) -> list[tuple[str, str]]:
    """Consecutive (src, dst) hops of a node-tuple path."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


class TrafficMatrix:
    """Host-pair demand rates in bits/s, zero on the diagonal.

    Backed by a read-only square numpy array indexed by the lexicographically
    sorted host list, which is also the on-disk row-major order.
    """

    def __init__(self, hosts: Iterable[str], rates: np.ndarray | None = None):
        self.hosts = tuple(sorted(hosts))
        n = len(self.hosts)
        if rates is None:
            rates = np.zeros((n, n))
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (n, n):
            raise ValueError(f"rates must be {n}x{n}, got {rates.shape}")
        if not np.all(np.isfinite(rates)):
            raise ValueError("demand rates must be finite")
        if np.any(rates < 0):
            raise ValueError("negative demand rate")
        if np.any(np.diag(rates) != 0):
            raise ValueError("diagonal demands must be zero")
        rates = rates.copy()
        rates.setflags(write=False)
        self.rates = rates
        self._index = {h: i for i, h in enumerate(self.hosts)}

    def get(self, src: str, dst: str) -> float:
        return float(self.rates[self._index[src], self._index[dst]])

    def total(self) -> float:
        return float(self.rates.sum())

    def pairs(self) -> Iterator[tuple[str, str]]:
        for s in self.hosts:
            for d in self.hosts:
                if s != d:
                    yield (s, d)

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Every rate times ``factor``; ValueError, without a numpy warning,
        if a product is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            return TrafficMatrix(self.hosts, self.rates * factor)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrafficMatrix) and self.hosts == other.hosts
                and np.array_equal(self.rates, other.rates))

    def __repr__(self) -> str:
        return f"TrafficMatrix({len(self.hosts)} hosts, total={self.total():g})"


# -- Routing algorithm taxonomy ------------------------------------------------

#: Demand-independent path selectors (fixed paths and weights).
OBLIVIOUS_TAGS = ("spf", "ecmp", "ksp", "vlb", "raecke")
#: Algorithms that solve paths and weights per matrix.
CONSCIOUS_TAGS = ("mcf", "optimalmcf")
#: Path sets an adaptive-weight ``semimcf`` variant may start from: the
#: oblivious ones, one matrix's solution, and the envelope solutions.
BASE_TAGS = OBLIVIOUS_TAGS + ("mcf", "mcfenv", "mcfftenv")

#: Every accepted algorithm name, as used on the command line.
ALGORITHM_NAMES = (OBLIVIOUS_TAGS + CONSCIOUS_TAGS
                   + tuple("semimcf" + base for base in BASE_TAGS))


@dataclass(frozen=True)
class AlgorithmKind:
    """A routing algorithm identity: a tag plus, for adaptive-weight
    variants, the tag of the path-selection algorithm they start from."""

    tag: str
    base: str | None = None

    def __post_init__(self):
        if self.tag == "semimcf":
            if self.base not in BASE_TAGS:
                raise ValueError(f"semimcf base must be one of {BASE_TAGS}")
        elif self.tag not in OBLIVIOUS_TAGS + CONSCIOUS_TAGS:
            raise ValueError(f"unknown algorithm tag {self.tag!r}")
        elif self.base is not None:
            raise ValueError(f"{self.tag} takes no base algorithm")

    @staticmethod
    def parse(name: str) -> "AlgorithmKind":
        name = name.strip().lower()
        if name not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {name!r}; valid names: {', '.join(ALGORITHM_NAMES)}")
        if name.startswith("semimcf"):
            return AlgorithmKind("semimcf", name[len("semimcf"):])
        return AlgorithmKind(name)

    @property
    def name(self) -> str:
        return self.tag + self.base if self.tag == "semimcf" else self.tag

    @property
    def category(self) -> str:
        """'oblivious' (fixed paths and weights), 'semi-oblivious'
        (fixed paths, adaptive weights) or 'conscious' (both adaptive)."""
        if self.tag in OBLIVIOUS_TAGS:
            return "oblivious"
        if self.tag == "semimcf":
            return "semi-oblivious"
        return "conscious"

    def __str__(self) -> str:
        return self.name


# -- Scheme operations ---------------------------------------------------------

def normalized(dist: Mapping[Path, float]) -> dict[Path, float]:
    """Rescale a path distribution to sum to exactly 1, dropping zeros."""
    total = sum(dist.values())
    if total <= 0:
        return {}
    return {p: w / total for p, w in sorted(dist.items()) if w > 0}


def _top(dist: Mapping[Path, float], k: int) -> dict[Path, float]:
    """The k highest-probability paths of one distribution, renormalized;
    ties go to the lexicographically smaller node sequence."""
    if len(dist) <= k:
        return normalized(dist)
    ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
    return normalized(dict(ranked[:k]))


def _check_budget(k: int) -> None:
    if k < 1:
        raise ValueError("budget must be >= 1")


def prune_to_budget(scheme: Scheme, k: int) -> Scheme:
    """Keep only the k highest-probability paths per pair, renormalized.

    Ties are broken toward the lexicographically smaller node sequence.
    Idempotent, and never increases any entry's path count.
    """
    _check_budget(k)
    return {pair: _top(dist, k) for pair, dist in scheme.items()}


def churn(prev: Scheme, next_: Scheme) -> int:
    """Total size of the per-pair symmetric difference of path sets.

    Probabilities are ignored: this counts how many forwarding paths would
    have to be installed or removed to move between the two schemes.
    """
    total = 0
    for pair in set(prev) | set(next_):
        a = set(prev.get(pair, ()))
        b = set(next_.get(pair, ()))
        total += len(a ^ b)
    return total


def validate_scheme(scheme: Scheme, topo: Topology) -> list[str]:
    """Check every scheme invariant against a topology.

    Returns a list of human-readable violations; an empty list means the
    scheme is well formed.  Violations are data, not exceptions, so callers
    can report all problems at once.
    """
    violations = []
    hosts = set(topo.hosts)
    for pair, dist in scheme.items():
        src, dst = pair
        if src not in hosts or dst not in hosts:
            violations.append(f"{pair}: endpoints are not hosts")
            continue
        if not dist:
            continue
        total = 0.0
        for path, prob in dist.items():
            if not (0.0 < prob <= 1.0 + PROB_TOL):
                violations.append(f"{pair}: probability {prob} outside (0, 1]")
            total += prob
            if len(path) < 2:
                violations.append(f"{pair}: path {path} has no hops")
                continue
            if path[0] != src or path[-1] != dst:
                violations.append(f"{pair}: path {path} does not run {src}->{dst}")
            if path[1] != topo.host_switch(src):
                violations.append(
                    f"{pair}: path {path} does not start on {src}'s switch edge")
            for (u, v) in path_edges(path):
                if (u, v) not in topo.edges:
                    violations.append(f"{pair}: missing edge {u}->{v} in {path}")
                    break
            if len(set(path)) != len(path):
                violations.append(f"{pair}: path {path} repeats a node")
        if abs(total - 1.0) > PROB_TOL:
            violations.append(f"{pair}: probabilities sum to {total!r}, not 1")
    return violations


def attach_stubs(src: str, dst: str, switch_path: Path) -> Path:
    """Turn a switch-level path into a host-to-host path.

    ``switch_path`` runs from src's switch to dst's switch; a single-switch
    tuple covers hosts that share a switch.
    """
    return (src,) + switch_path + (dst,)


def lift(topo: Topology, route: Callable[[str, str], Mapping[Path, float]],
         budget: int | None = None) -> Scheme:
    """Host-pair scheme from a switch-pair route function.

    ``route(s, d)`` returns the switch-level path distribution from switch
    ``s`` to switch ``d``; it is called once per switch pair, s != d, that
    serves some host pair, and all of one source switch's pairs are asked
    for in a row.  Hosts sharing a switch get the single-switch path.
    Without a budget, each host pair gets its switch pair's distribution
    with the host stubs attached, in the route's path order and with its
    exact probabilities (nothing is renormalized).  With a budget, each
    switch pair's distribution is cut to its ``budget`` most likely paths
    and renormalized before the stubs go on, once per switch pair; for
    simple paths the result equals ``prune_to_budget`` of the unbudgeted
    scheme, item for item.
    """
    if budget is not None:
        _check_budget(budget)
    routes: dict[tuple[str, str], Mapping[Path, float]] = {}
    scheme: Scheme = {}
    for src in topo.hosts:
        s = topo.host_switch(src)
        for dst in topo.hosts:
            if src == dst:
                continue
            key = (s, topo.host_switch(dst))
            if key not in routes:
                dist = {(s,): 1.0} if key[0] == key[1] else route(*key)
                routes[key] = dist if budget is None else _top(dist, budget)
            scheme[(src, dst)] = {attach_stubs(src, dst, p): w
                                  for p, w in routes[key].items()}
    return scheme
