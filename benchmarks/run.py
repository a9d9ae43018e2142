"""tekit benchmark: whole ``tekit run`` experiments, measured from outside.

    python3 benchmarks/run.py --workload recipe|flash|wan50 --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; ``tekit`` is imported from its
``src`` directory.  Inputs are made by ``tekit gen-demands`` (see
``workloads.py``) from sub-seeds ``1000 * seed + i``, one input set per
measured process.  Every measured ``tekit run`` happens in a fresh process
(``child.py``); processes are started one after another while the next one
is expected to end within ``--seconds``, and at least three of them.

``--trace 0`` reports the end-to-end metrics, medians over the processes:
``run_s`` (wall time of ``tekit.cli.main(["run", ...])``), ``cpu_s`` (user
plus system time of the same call, BLAS threads included), ``setup_s``
(process start until ``import tekit`` is done and the topology and matrix
files are parsed; extra set-up-only processes add samples) and
``peak_rss_mb`` (maximum resident set of the process).

``--trace 1`` alternates traced and untraced processes and reports the
per-layer metrics of the traced ones (see ``tracer.py``), plus the
tracing overhead against the untraced ones.

Every process's outputs are checked: exit code 0 and no phase-limit events,
delivered plus lost fractions summing to one, the same ``comparison.csv``
bytes in every process, and in traced processes every solver certificate
``max_congestion <= (1 + accuracy) * lower_bound`` and identical counts.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Work files go under
``.bench_build/tekit-bench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tekit-bench"

SETUP_PROBES = 6
MIN_REPS = 3
MIN_TRACED = 2
#: a run must end within 180 s; every process is killed at this deadline
DEADLINE_S = 170
#: relative slack on the solver certificate for float rounding in the
#: normalisation of the lower bound
CERT_RTOL = 1e-12

END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mb")

#: per-layer metric -> unit; counts must repeat exactly for one seed
PER_LAYER = {
    "fileio.parse_s": "s",
    "demand.scale_s": "s",
    "demand.flash_burst.calls": "count",
    "demand.flash_burst_s": "s",
    "baseline.build_s": "s",
    "baseline.ksp_s": "s",
    "graphops.dijkstra.calls": "count",
    "graphops.dijkstra_s": "s",
    "graphops.k_shortest_paths.calls": "count",
    "graphops.k_shortest_paths_s": "s",
    "raecke.distribution_s": "s",
    "raecke.trees": "count",
    "raecke.frt_tree_s": "s",
    "raecke.distribution_self_s": "s",
    "raecke.paths_s": "s",
    "mcf.mcf_mw.calls": "count",
    "mcf.mcf_mw.iters": "count",
    "mcf.mcf_mw_s": "s",
    "mcf.mcf_mw.ms_per_iter": "ms",
    "mcf.semi_mcf.calls": "count",
    "mcf.semi_mcf.iters": "count",
    "mcf.semi_mcf_s": "s",
    "mcf.semi_mcf.ms_per_iter": "ms",
    "mcf.gap_max": "frac",
    "mcf.phase_limits": "count",
    "algorithms.build_s": "s",
    "algorithms.reweight.calls": "count",
    "algorithms.reweight_s": "s",
    "sim.propagate.calls": "count",
    "sim.propagate_s": "s",
    "sim.propagate_ms.p50": "ms",
    "sim.propagate_ms.p90": "ms",
    "sim.recovery.calls": "count",
    "sim.recovery_s": "s",
    "sim.failure_schedule_s": "s",
    "sim.simulate_self_s": "s",
    "sim.rollup_s": "s",
    "sim.steps_held": "count",
    "cli.output_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.missing_spans": "count",
}


class Checks:
    """Correctness checks, each one an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def make_inputs(wl, sub_seed: int, smoke: bool, dest: Path,
                checks: Checks) -> dict:
    """Topology and matrix files of one input set."""
    from tekit import cli

    dest.mkdir(parents=True)
    if wl.topology is not None:
        topo = SRC / "tekit" / "data" / f"{wl.topology}.topo"
    else:
        topo = dest / f"{wl.name}.topo"
        switches = wl.smoke_switches if smoke else wl.switches
        checks.op(f"{topo.name} of input {sub_seed} round-trips through the "
                  "topology format",
                  workloads.write_wan_topology(sub_seed, switches, topo))
    prefix = dest / "tm"
    num_tms = wl.smoke_tms if smoke else wl.num_tms
    rc = cli.main(["gen-demands", "--topo", str(topo), "--num-tms",
                   str(num_tms), "--seed", str(sub_seed), "--out", str(prefix),
                   *wl.gen_args])
    checks.op(f"input {sub_seed}: gen-demands exit code 0", rc == 0)
    tms = Path(f"{prefix}.actual.tms")
    pred = Path(f"{prefix}.predicted.tms")
    if wl.spf_peak is not None:
        workloads.rescale_to_spf_peak(topo, [tms, pred], wl.spf_peak)
    return {"sub_seed": sub_seed, "topo": str(topo), "tms": str(tms),
            "pred": str(pred)}


def spawn(mode: str, spec: dict, rep_dir: Path, deadline: float,
          checks: Checks) -> dict | None:
    """Run one child process and return its measurements."""
    rep_dir.mkdir(parents=True)
    spec = dict(spec, mode=mode, run_id=rep_dir.name,
                spans=str(rep_dir / "spans.json"))
    spec_path = rep_dir / "spec.json"
    result_path = rep_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items()
           if k not in ("TEKIT_PARALLEL", "TEKIT_OUT_DIR", "PYTHONPATH")}
    with open(rep_dir / "log.txt", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path),
                 str(result_path), repr(spawned)],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            checks.op(f"{rep_dir.name}: finished before the run's deadline",
                      False)
            return None
    if not checks.op(f"{rep_dir.name}: process exit code 0 "
                     f"(log in {rep_dir / 'log.txt'})",
                     proc.returncode == 0 and result_path.is_file()):
        return None
    return json.loads(result_path.read_text())


def check_outputs(res: dict, out_dir: Path, algos: list[str],
                  checks: Checks) -> str | None:
    """Checks on one ``tekit run``'s files; returns the sha256 of its
    ``comparison.csv``."""
    summaries = [next(out_dir.glob(f"*/{a}.summary.json"), None) for a in algos]
    blobs = [json.loads(p.read_text()) for p in summaries if p is not None]
    tag = out_dir.parent.name
    checks.op(f"{tag}: exit code 0, every summary written, no "
              "phase_limit_events",
              res["rc"] == 0 and len(blobs) == len(algos)
              and not any(b["phase_limit_events"] for b in blobs))
    for b in blobs:
        total = (b["throughput_fraction"] + b["congestion_loss_fraction"]
                 + b["failure_loss_fraction"])
        checks.op(f"{tag}: {b['algorithm']} fractions sum to 1 ({total!r})",
                  abs(total - 1.0) <= 1e-9)
    comparison = next(out_dir.glob("*/comparison.csv"), None)
    if comparison is None:
        return None
    return hashlib.sha256(comparison.read_bytes()).hexdigest()


def layer_values(tr: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process (without overhead)."""
    st = tr["stats"]
    counts = tr["counts"]

    def calls(*names):
        return sum(st[n]["calls"] for n in names if n in st)

    def total(*names):
        return sum(st[n]["total"] for n in names if n in st)

    def self_time(name):
        return st[name]["self"] if name in st else 0.0

    def pct(name, q):
        durations = (st.get(name) or {}).get("durations") or []
        if not durations:
            return 0.0
        ordered = sorted(durations)
        return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    out = {
        "fileio.parse_s": total("fileio.load_topology",
                                "fileio.read_tm_sequence"),
        "demand.scale_s": total("demand.scale_factor"),
        "demand.flash_burst.calls": calls("demand.flash_burst"),
        "demand.flash_burst_s": total("demand.flash_burst"),
        "baseline.build_s": total("baseline.spf", "baseline.ecmp",
                                  "baseline.ksp", "baseline.vlb"),
        "baseline.ksp_s": total("baseline.ksp"),
        "graphops.dijkstra.calls": calls("graphops.dijkstra"),
        "graphops.dijkstra_s": total("graphops.dijkstra"),
        "graphops.k_shortest_paths.calls": calls("graphops.k_shortest_paths"),
        "graphops.k_shortest_paths_s": total("graphops.k_shortest_paths"),
        "raecke.distribution_s": total("raecke.raecke_distribution"),
        "raecke.trees": counts.get("raecke.trees", 0),
        "raecke.frt_tree_s": total("raecke.frt_tree"),
        "raecke.distribution_self_s": self_time("raecke.raecke_distribution"),
        "raecke.paths_s": total("raecke.paths_from_distribution"),
    }
    for solver in ("mcf.mcf_mw", "mcf.semi_mcf"):
        iters = counts.get(f"{solver}.iters", 0)
        out[f"{solver}.calls"] = calls(solver)
        out[f"{solver}.iters"] = iters
        out[f"{solver}_s"] = total(solver)
        out[f"{solver}.ms_per_iter"] = (1000.0 * total(solver) / iters
                                        if iters else 0.0)
    out.update({
        "mcf.gap_max": max((ub / lb - 1.0 for _, ub, lb, _, _ in tr["solves"]
                            if lb > 0), default=0.0),
        "mcf.phase_limits": counts.get("mcf.phase_limits", 0),
        "algorithms.build_s": total("algorithms.SchemeDriver"),
        "algorithms.reweight.calls": calls("algorithms.reweight"),
        "algorithms.reweight_s": total("algorithms.reweight"),
        "sim.propagate.calls": calls("sim._propagate"),
        "sim.propagate_s": total("sim._propagate"),
        "sim.propagate_ms.p50": pct("sim._propagate", 0.5),
        "sim.propagate_ms.p90": pct("sim._propagate", 0.9),
        "sim.recovery.calls": calls("sim.recover_local", "sim.recover_global"),
        "sim.recovery_s": total("sim.recover_local", "sim.recover_global"),
        "sim.failure_schedule_s": total("sim.failure_schedule"),
        "sim.simulate_self_s": self_time("sim.simulate"),
        "sim.rollup_s": total("sim.metrics_rollup"),
        "sim.steps_held": counts.get("sim.steps_held", 0),
        "cli.output_s": self_time("cli.cmd_run"),
        "trace.missing_spans": len(tr["missing"]),
    })
    return out


def check_solves(tr: dict, tag: str, checks: Checks) -> None:
    for name, ub, lb, accuracy, converged in tr["solves"]:
        checks.op(f"{tag}: {name} certificate ub={ub!r} lb={lb!r} "
                  f"accuracy={accuracy!r} converged={converged}",
                  converged and ub <= (1.0 + accuracy) * lb * (1.0 + CERT_RTOL))


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "tekit").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Records:
    """What one input set produced, kept across runs of the same sources
    and workload definition: the ``comparison.csv`` digest and the trace
    counts.  A later run of the same input set must reproduce them
    exactly."""

    def __init__(self, wl, smoke: bool):
        definition = hashlib.sha256(f"{wl!r} smoke={smoke}".encode())
        self.dir = WORK / "records" / source_digest()
        self.prefix = f"{wl.name}-{definition.hexdigest()[:12]}"

    def check(self, sub_seed: int, key: str, value, checks: Checks) -> None:
        path = self.dir / f"{self.prefix}-{sub_seed}.json"
        record = json.loads(path.read_text()) if path.is_file() else {}
        if key in record:
            same = record[key] == value
            if not same and isinstance(value, dict):
                print(f"count deviation from an earlier run of input "
                      f"{sub_seed}: " + str({k: (record[key].get(k), v)
                                             for k, v in value.items()
                                             if record[key].get(k) != v}),
                      file=sys.stderr)
            checks.op(f"input {sub_seed}: {key} repeats an earlier run", same)
            return
        record[key] = value
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))


def check_counts(per_rep: list[dict], checks: Checks) -> dict:
    """Counts must repeat exactly across the traced processes of a run."""
    keys = [k for k, unit in PER_LAYER.items() if unit == "count"]
    first = {k: per_rep[0][k] for k in keys}
    for i, vals in enumerate(per_rep[1:], start=1):
        diff = {k: (first[k], vals[k]) for k in keys if vals[k] != first[k]}
        if diff:
            print(f"count deviation, traced process {i}: {diff}",
                  file=sys.stderr)
        checks.op(f"counts repeat in traced process {i}", not diff)
    return first


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "tekit_src": source_digest(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (1 matrix, a few steps) for a quick "
                         "check that every metric is emitted")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "tekit" / "__init__.py").is_file():
        print(f"error: no tekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    base = WORK / f"{wl.name}-s{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(base, ignore_errors=True)
    checks = Checks()
    records = Records(wl, args.smoke)
    steps = wl.smoke_steps if args.smoke else wl.steps
    algos = wl.run_args[wl.run_args.index("--algos") + 1].split(",")
    inputs: dict[int, dict] = {}

    def input_set(j: int) -> dict:
        if j not in inputs:
            inputs[j] = make_inputs(wl, args.seed * 1000 + j, args.smoke,
                                    base / f"input{j}", checks)
        return dict(inputs[j], src=str(SRC))

    setup = []
    for i in range(SETUP_PROBES):
        res = spawn("setup", input_set(0), base / f"setup{i}", deadline,
                    checks)
        if res is not None:
            setup.append(res["setup_s"])

    # Untraced runs give every process its own input set, so that a run's
    # median averages over inputs (solver iterations and, for wan50, the
    # topology vary a lot with the seed) as well as over noise.  Traced runs
    # keep to the first set, so that output bytes and counts must repeat.
    untraced: list[dict] = []
    traced: list[dict] = []
    shas: dict[int, str | None] = {}
    durations: list[float] = []
    t_start = time.monotonic()
    i = 0
    while True:
        if args.trace:
            mode = "traced" if i % 2 == 0 else "run"
            enough = len(traced) >= MIN_TRACED and len(untraced) >= 1
            j = 0
        else:
            mode = "run"
            enough = len(untraced) >= MIN_REPS
            j = i
        elapsed = time.monotonic() - t_start
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        inp = input_set(j)
        rep_dir = base / f"rep{i}"
        spec = dict(inp, argv=[
            "--topo", inp["topo"], "--tms", inp["tms"], "--pred", inp["pred"],
            *wl.run_args, "--steps", str(steps), "--seed", str(inp["sub_seed"]),
            "--out", str(rep_dir / "out")])
        t0 = time.monotonic()
        res = spawn(mode, spec, rep_dir, deadline, checks)
        durations.append(time.monotonic() - t0)
        i += 1
        if res is None:
            break  # the failure is recorded; a broken program stops here
        res["sub_seed"] = inp["sub_seed"]
        setup.append(res["setup_s"])
        sha = check_outputs(res, rep_dir / "out", algos, checks)
        if j in shas:
            checks.op(f"{rep_dir.name}: comparison.csv identical to the "
                      f"earlier process's on input {inp['sub_seed']}",
                      sha is not None and sha == shas[j])
        elif checks.op(f"{rep_dir.name}: comparison.csv written",
                       sha is not None):
            shas[j] = sha
            records.check(inp["sub_seed"], "comparison_sha256", sha, checks)
        if mode == "traced":
            check_solves(res["trace"], rep_dir.name, checks)
            traced.append(res)
        else:
            untraced.append(res)

    info = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
            "untraced_processes": len(untraced),
            "traced_processes": len(traced), "setup_samples": len(setup),
            "output_sha256": {inputs[j]["sub_seed"]: sha
                              for j, sha in sorted(shas.items())},
            "environment": environment()}
    metrics = {}
    if untraced:
        run_s = statistics.median(r["run_s"] for r in untraced)
    if not args.trace and untraced and setup:
        metrics = {
            "run_s": metric(run_s, "s"),
            "cpu_s": metric(statistics.median(r["cpu_s"] for r in untraced),
                            "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(
                statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        info["runs"] = [{k: r[k] for k in ("sub_seed", *END_TO_END)}
                        for r in untraced]
    elif args.trace and untraced and traced:
        per_rep = [layer_values(r["trace"]) for r in traced]
        records.check(inputs[0]["sub_seed"], "counts",
                      check_counts(per_rep, checks), checks)
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        self_total = statistics.median(
            sum(s["self"] for s in r["trace"]["stats"].values())
            for r in traced)
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = (traced_run_s - run_s) / run_s
            elif name == "trace.coverage_frac":
                value = self_total / run_s
            elif unit == "count":
                value = per_rep[0][name]
            else:
                value = statistics.median(v[name] for v in per_rep)
            metrics[name] = metric(value, unit)
        info["missing_spans"] = traced[0]["trace"]["missing"]
        info["rebound"] = traced[0]["trace"]["rebound"]
        info["untraced_run_s"] = run_s
        info["traced_run_s"] = traced_run_s
        info["coverage_within_overhead"] = (
            abs(self_total / run_s - 1.0)
            <= abs(traced_run_s - run_s) / run_s + 0.01)
    else:
        checks.op("enough processes finished to report metrics", False)

    info["failures"] = checks.failures
    (base / "result.json").write_text(json.dumps(
        {"info": info, "metrics": metrics}, indent=2, sort_keys=True))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
