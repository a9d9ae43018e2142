"""Readers and writers for the on-disk formats.

Topology files are line oriented UTF-8::

    # comment
    node <name> host|switch
    link <a> <b> cap=<float>bps [weight=<float>]

Each ``link`` line describes an undirected link and expands to two directed
edges of equal capacity and weight.

Traffic-matrix sequence files hold one matrix per line: n_hosts^2
space-separated decimal rates in row-major order over the lexicographically
sorted host list.
"""

from __future__ import annotations

import json
import re
from pathlib import Path as FsPath
from typing import Iterable, Sequence

import numpy as np

from .model import Edge, Topology, TrafficMatrix

_CAP_RE = re.compile(r"^cap=([0-9.eE+-]+)bps$")
_WEIGHT_RE = re.compile(r"^weight=([0-9.eE+-]+)$")


class ParseError(ValueError):
    """Raised on malformed input files, with file/line context."""


def parse_topology(text: str, name: str = "topology") -> Topology:
    nodes: dict[str, str] = {}
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                _, node, kind = parts
                nodes[node] = kind
            elif parts[0] == "link":
                a, b = parts[1], parts[2]
                cap = None
                weight = 1.0
                for tok in parts[3:]:
                    if m := _CAP_RE.match(tok):
                        cap = float(m.group(1))
                    elif m := _WEIGHT_RE.match(tok):
                        weight = float(m.group(1))
                    else:
                        raise ValueError(f"unknown attribute {tok!r}")
                if cap is None:
                    raise ValueError("link is missing cap=<float>bps")
                edges.append(Edge(a, b, cap, weight))
                edges.append(Edge(b, a, cap, weight))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
    return Topology(name, nodes, edges)


def load_topology(path: str | FsPath) -> Topology:
    path = FsPath(path)
    return parse_topology(path.read_text(), name=path.stem)


def format_topology(topo: Topology) -> str:
    """The topology file text; capacities and weights are written with
    ``repr`` so they parse back to the same floats."""
    lines = [f"# topology {topo.name}"]
    for n in sorted(topo.nodes):
        lines.append(f"node {n} {topo.nodes[n]}")
    seen = set()
    for (u, v), e in sorted(topo.edges.items()):
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"link {key[0]} {key[1]} cap={float(e.capacity)!r}bps "
                     f"weight={float(e.weight)!r}")
    return "\n".join(lines) + "\n"


def format_tm_line(tm: TrafficMatrix) -> str:
    return " ".join(repr(float(x)) for x in tm.rates.ravel())


def parse_tm_line(line: str, hosts: Sequence[str]) -> TrafficMatrix:
    hosts = tuple(sorted(hosts))
    n = len(hosts)
    try:
        values = [float(tok) for tok in line.split()]
        if len(values) != n * n:
            raise ValueError(f"expected {n * n} rates, got {len(values)}")
        return TrafficMatrix(hosts, np.array(values).reshape(n, n))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_tm_sequence(path: str | FsPath, tms: Iterable[TrafficMatrix]) -> None:
    with open(path, "w") as fh:
        for tm in tms:
            fh.write(format_tm_line(tm) + "\n")


def read_tm_sequence(path: str | FsPath, hosts: Sequence[str]) -> list[TrafficMatrix]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse_tm_line(line, hosts))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return out


def write_metadata(path: str | FsPath, meta: dict) -> None:
    """Sidecar describing how a demand sequence was generated."""
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_topology_path(name: str) -> FsPath:
    return FsPath(__file__).parent / "data" / f"{name}.topo"


def load_bundled_topology(name: str) -> Topology:
    return load_topology(bundled_topology_path(name))


def bundled_topology_names() -> list[str]:
    data = FsPath(__file__).parent / "data"
    return sorted(p.stem for p in data.glob("*.topo"))
