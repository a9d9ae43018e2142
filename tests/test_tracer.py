"""The benchmark's per-layer tracer finds every function it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
print(json.dumps(tracer.install("check").missing))
"""

#: a traced ``tekit run`` as the benchmark's traced mode makes one: the
#: inputs are generated first, untraced, then the run goes through the
#: tracer's wrappers and result hooks
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from tekit import cli, fileio
topo = str(fileio.bundled_topology_path("abilene"))
assert cli.main(["gen-demands", "--topo", topo, "--num-tms", "1",
                 "--seed", "3", "--out", "g"]) == 0
tr = tracer.install("check")
rc = cli.main(["run", "--topo", topo, "--tms", "g.actual.tms",
               "--pred", "g.predicted.tms", "--algos", "ecmp,semimcfraecke",
               "--budget", "3", "--scale", "1.0", "--steps", "3",
               "--fail-num", "1", "--recovery", "local", "--out", "r"])
summary = tr.summary()
print(json.dumps({"rc": rc, "missing": summary["missing"],
                  "counts": summary["counts"]}))
"""


def _run(script, cwd):
    # install() rebinds module attributes, so it runs in its own process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "benchmarks")], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_install_misses_no_layer():
    assert _run(INSTALL, ROOT) == []


def test_traced_run_fills_the_result_hooks(tmp_path):
    """A traced run exits 0, misses no span, and its result hooks count
    held steps and solver iterations."""
    got = _run(TRACED_RUN, tmp_path)
    assert got["rc"] == 0
    assert got["missing"] == []
    assert got["counts"]["sim.steps_held"] > 0
    assert got["counts"]["mcf.mcf_mw.iters"] > 0  # the --scale solve
    assert got["counts"]["mcf.semi_mcf.iters"] > 0
