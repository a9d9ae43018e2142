#!/usr/bin/env python3
"""Baseline routing schemes on the bundled 12-PoP backbone.

Builds the four demand-independent path selectors and prints what each one
installs for a single host pair, plus summary statistics over all pairs.
"""

from tekit import ecmp, ksp, load_bundled_topology, spf, vlb

topo = load_bundled_topology("abilene")
print(topo)
print()

pair = ("h4", "h2")  # Denver-ish to Atlanta-ish
schemes = {
    "spf": spf(topo),
    "ecmp": ecmp(topo),
    "ksp(k=4)": ksp(topo, 4),
    "vlb": vlb(topo),
}

for name, scheme in schemes.items():
    print(f"== {name}: paths for {pair[0]} -> {pair[1]}")
    for path, prob in sorted(scheme[pair].items(), key=lambda kv: -kv[1]):
        print(f"   {prob:6.3f}  {' -> '.join(path)}")
    n_paths = sum(len(d) for d in scheme.values())
    mean_hops = sum(sum((len(p) - 1) * w for p, w in d.items())
                    for d in scheme.values()) / len(scheme)
    print(f"   total paths {n_paths}, expected hops per pair {mean_hops:.2f}")
    print()
