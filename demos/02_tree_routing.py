#!/usr/bin/env python3
"""Routing trees: sampling, stretch, and the iterative distribution.

Samples a few hierarchical decomposition trees, shows how a tree turns a
switch pair into a physical path, then builds the full tree distribution and
the routing scheme it induces.
"""

import logging
import sys

from tekit import graphops, load_bundled_topology
from tekit.raecke import (frt_tree, paths_from_distribution,
                          raecke_distribution, stretch)

topo = load_bundled_topology("abilene")
lengths = graphops.unit_lengths(topo)

print("single sampled trees (capacity-weighted average stretch):")
for seed in range(5):
    tree = frt_tree(topo, lengths, seed)
    print(f"  seed {seed}: {len(tree.clusters)} clusters, "
          f"stretch {stretch(tree, topo, lengths):.2f}")

tree = frt_tree(topo, lengths, 0)
walk = tree.walk("s1", "s8")
print("\nraw tree walk s1 -> s8:   ", " -> ".join(walk))
print("loop-shortcut to a path:  ", " -> ".join(graphops.shortcut(walk)))

print("\nbuilding the tree distribution (iteration trace):")
logging.basicConfig(stream=sys.stdout, format="  %(message)s")
logging.getLogger("tekit.raecke").setLevel(logging.DEBUG)
dist = raecke_distribution(topo, seed=0)
print(f"-> {len(dist.trees)} distinct trees")
for i, (t, p) in enumerate(dist.trees):
    print(f"   tree {i}: probability {p:.3f}")

scheme = paths_from_distribution(dist, topo)
pair = ("h4", "h2")
print(f"\ninduced scheme for {pair[0]} -> {pair[1]}:")
for path, prob in sorted(scheme[pair].items(), key=lambda kv: -kv[1]):
    print(f"   {prob:6.3f}  {' -> '.join(path)}")
