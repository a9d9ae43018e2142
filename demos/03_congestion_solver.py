#!/usr/bin/env python3
"""Min-max-congestion solving and rate re-balancing over fixed paths.

Starts with the two-route instance whose optimum is known in closed form,
then re-balances a tree-based path set on the backbone and compares against
the unrestricted optimum, and finally shows the failure-tolerant envelope
base growing extra paths.
"""

import numpy as np

from tekit import (MwConfig, demand_envelope, load_bundled_topology, mcf_mw,
                   prune_to_budget, semi_mcf, semi_mcf_ft_env)
from tekit.demand import GravityState, gravity_tm, mh_step
from tekit.model import TrafficMatrix
from tekit.raecke import paths_from_distribution, raecke_distribution

# Two disjoint routes with bottlenecks 10 and 30, one demand of 20.
# Balancing utilization gives x/10 = (20-x)/30 -> x = 5, congestion 0.5.
diamond = load_bundled_topology("diamond")
tm = TrafficMatrix(diamond.hosts, np.array([[0.0, 20.0], [0.0, 0.0]]))
sol = mcf_mw(diamond, tm, MwConfig(accuracy=0.05))
print(f"two-route instance: max congestion {sol.max_congestion:.4f} "
      f"(optimum 0.5, certified within 5%)")
for path, prob in sol.scheme[("hs", "ht")].items():
    print(f"   {prob:6.3f}  {' -> '.join(path)}")

# Re-balancing a fixed diverse path set gets within a whisker of optimal.
topo = load_bundled_topology("abilene")
state = GravityState.initial(topo.hosts, seed=1)
demand_tm = gravity_tm(state, 1e9)
dist = raecke_distribution(topo, seed=1)
base = prune_to_budget(paths_from_distribution(dist, topo), 5)
opt = mcf_mw(topo, demand_tm)
fixed = semi_mcf(topo, demand_tm, base)
print(f"\nbackbone: unrestricted optimum {opt.max_congestion:.4f}, "
      f"fixed-path re-balance {fixed.max_congestion:.4f} "
      f"(ratio {fixed.max_congestion / opt.max_congestion:.3f})")

# Envelope bases: the envelope base is the unrestricted solution of the
# window's element-wise maximum; the failure-tolerant variant unions such
# solutions over every single-link failure, so pairs pick up extra paths to
# route around any single broken link.
window = []
for _ in range(5):
    window.append(gravity_tm(state, 1e9))
    state = mh_step(state)
env = mcf_mw(topo, demand_envelope(window)).scheme
ft = semi_mcf_ft_env(topo, window)
mean_env = np.mean([len(d) for d in env.values()])
mean_ft = np.mean([len(d) for d in ft.values()])
print(f"\nenvelope base: {mean_env:.2f} paths/pair; "
      f"failure-tolerant envelope: {mean_ft:.2f} paths/pair")
