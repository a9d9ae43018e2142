"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q benchmarks/test_smoke.py

Every workload runs with one matrix and a few steps (wan50 on a 10-switch
topology), untraced and traced, and must pass its checks and emit every
metric ``BENCHMARK.json`` names.  Without the ``tekit`` sources next to it
the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


_TRACER_CHECK = r"""
import sys
sys.path[:0] = sys.argv[1:3]
import tekit.sim as sim
from tekit import (MwConfig, PhaseLimitError, algorithms, generate_sequences,
                   load_bundled_topology, make_scheme, mcf)
import tracer

del sim._propagate  # as if a later change renamed it
tr = tracer.install("check")
topo = load_bundled_topology("abilene")
tm = generate_sequences(topo, 1, seed=1)[0][0]
algorithms.reweight(topo, make_scheme("raecke", topo), tm, MwConfig(max_phases=2))
try:
    mcf.mcf_mw(topo, tm, MwConfig(max_phases=2))
    raise AssertionError("PhaseLimitError was not re-raised")
except PhaseLimitError:
    pass
s = tr.summary()
assert s["missing"] == ["sim._propagate"], s["missing"]
assert s["counts"]["mcf.phase_limits"] == 2, s["counts"]
assert s["stats"]["mcf.semi_mcf"]["errors"] == {"PhaseLimitError": 1}, s["stats"]
assert s["stats"]["graphops.dijkstra"]["calls"] > 0
for name, sites in {
        "mcf.mcf_mw": ["tekit.algorithms", "tekit.demand", "tekit.mcf"],
        "mcf.semi_mcf": ["tekit.algorithms", "tekit.mcf"],
        "baseline.spf": ["tekit.baseline", "tekit.mcf", "tekit.sim"],
        "demand.flash_burst": ["tekit.demand", "tekit.sim"]}.items():
    assert set(sites) <= set(s["rebound"][name]), (name, s["rebound"][name])
spans = {sp["id"]: sp for sp in tr.spans}
semi = next(sp for sp in spans.values() if sp["name"] == "mcf.semi_mcf")
assert semi["error"] == "PhaseLimitError" and semi["run"] == "check"
assert spans[semi["parent"]]["name"] == "algorithms.reweight"
print("ok")
"""


def test_tracer_records_swallowed_phase_limits_and_missing_spans():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_CHECK, str(ROOT / "src"),
         str(ROOT / "benchmarks")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr
