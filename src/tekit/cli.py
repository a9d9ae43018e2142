"""Experiment driver.

Two subcommands::

    tekit run --topo T.topo --tms actual.tms --pred predicted.tms \
              --algos spf,semimcfraecke [--budget K] [--scale S] \
              [--fail-num PHI] [--recovery none|local|global] \
              [--flash-beta B] [--flash-lag D] [--flash-recovery-period P] \
              [--seed N] [--steps N] [--out DIR] [--strict] [--timings] \
              [--verbose]

    tekit gen-demands --topo T.topo --num-tms N [--scale S] \
              [--prediction-error E] [--flash-beta B] [--seed N] \
              [--diurnal] --out PREFIX

``run`` writes one CSV per algorithm plus a structured summary and a
cross-algorithm comparison table into an output directory whose name embeds
topology, scale, failure count, budget and seed.  All numeric output is
deterministic for a fixed seed; wall-clock timings are only written with
--timings.  --verbose sends the ``tekit`` loggers' records (Raecke
iterations, solver phase-limit notes) to stderr.  Exit codes: 0 success,
2 bad input, 3 an internal solver limit was hit and --strict was given.

Environment overrides: TEKIT_OUT_DIR (base output directory),
TEKIT_PARALLEL (worker processes across algorithm runs; an integer >= 1,
default 1, capped at the number of algorithms and of CPUs).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path as FsPath

from . import demand, fileio, sim
from .demand import FlashConfig
from .mcf import MwConfig, PhaseLimitError
from .model import AlgorithmKind
from .sim import SimConfig


_log = logging.getLogger("tekit.cli")
_HANDLER = "tekit.cli stderr"


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _log_to_stderr(verbose: bool) -> None:
    """With ``verbose``, print every ``tekit`` log record on the current
    stderr as its bare message; without, undo that.  Repeated calls replace
    the handler instead of adding one, so runs in one process and forked
    pool workers (set up again by the pool initializer) print each record
    once."""
    pkg = logging.getLogger("tekit")
    ours = [h for h in pkg.handlers if h.get_name() == _HANDLER]
    for handler in ours:
        pkg.removeHandler(handler)
    if verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.set_name(_HANDLER)
        handler.setFormatter(logging.Formatter("%(message)s"))
        pkg.addHandler(handler)
        pkg.setLevel(logging.DEBUG)
    elif ours:
        pkg.setLevel(logging.NOTSET)


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="tekit", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate algorithms over a demand sequence")
    run.add_argument("--topo", required=True)
    run.add_argument("--tms", required=True, help="actual traffic matrix file")
    run.add_argument("--pred", required=True, help="predicted traffic matrix file")
    run.add_argument("--algos", required=True,
                     help="comma-separated algorithm names")
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--scale", type=float, default=None,
                     help="rescale demands so the first matrix's optimal "
                          "congestion is 0.4*S")
    run.add_argument("--fail-num", type=int, default=0, dest="fail_num")
    run.add_argument("--recovery", choices=("none", "local", "global"),
                     default="none")
    run.add_argument("--flash-beta", type=float, default=0.0)
    run.add_argument("--flash-lag", type=int, default=8)
    run.add_argument("--flash-recovery-period", type=int, default=200)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--steps", type=int, default=1000,
                     help="simulation steps per traffic matrix")
    run.add_argument("--accuracy", type=float, default=0.05)
    run.add_argument("--max-phases", type=int, default=5000, dest="max_phases",
                     help="solver iteration cap before PhaseLimit")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 if a solver hits its phase limit")
    run.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in the summary "
                          "(breaks byte-reproducibility)")
    run.add_argument("--verbose", action="store_true",
                     help="log Raecke iterations and solver notes to stderr")

    gen = sub.add_parser("gen-demands", help="generate demand sequences")
    gen.add_argument("--topo", required=True)
    gen.add_argument("--num-tms", type=int, required=True, dest="num_tms")
    gen.add_argument("--scale", type=float, default=None)
    gen.add_argument("--prediction-error", type=float, default=0.0,
                     dest="prediction_error")
    gen.add_argument("--flash-beta", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--diurnal", action="store_true")
    gen.add_argument("--out", required=True, help="output file prefix")

    return top.parse_args(argv)


def _load_inputs(args):
    try:
        topo = fileio.load_topology(args.topo)
    except (OSError, ValueError) as exc:
        raise InputError(f"topology: {exc}") from exc
    try:
        actual = fileio.read_tm_sequence(args.tms, topo.hosts)
        predicted = fileio.read_tm_sequence(args.pred, topo.hosts)
    except (OSError, fileio.ParseError) as exc:
        raise InputError(f"traffic matrices: {exc}") from exc
    if not actual:
        raise InputError("empty traffic matrix sequence")
    if len(actual) != len(predicted):
        raise InputError("actual and predicted sequences differ in length")
    return topo, actual, predicted


def _workers(num_algos: int) -> int:
    """TEKIT_PARALLEL as a worker count: an integer >= 1, capped at one
    worker per algorithm and per CPU."""
    raw = os.environ.get("TEKIT_PARALLEL", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InputError(f"TEKIT_PARALLEL must be an integer >= 1, got {raw!r}")
    return min(workers, num_algos, os.cpu_count() or 1)


def _run_one(topo, name, actual, predicted, cfg):
    report = sim.simulate(topo, name, actual, predicted, cfg)
    return name, report


def cmd_run(args) -> int:
    names = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not names:
        raise InputError("no algorithms given")
    for name in names:
        try:
            AlgorithmKind.parse(name)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    workers = _workers(len(names))
    topo, actual, predicted = _load_inputs(args)

    mw = MwConfig(accuracy=args.accuracy, max_phases=args.max_phases)
    hit_limit = False
    if args.scale is not None:
        try:
            factor = demand.scale_factor(topo, actual[0], args.scale, mw)
        except demand.ZeroDemandError as exc:
            raise InputError(str(exc)) from exc
        except PhaseLimitError as exc:
            hit_limit = True
            _log.info("note: demand scaling: %s", exc)
            factor = 0.4 * args.scale / exc.solution.max_congestion
        actual = [tm.scaled(factor) for tm in actual]
        predicted = [tm.scaled(factor) for tm in predicted]

    flash = (FlashConfig(beta=args.flash_beta, sink_seed=args.seed)
             if args.flash_beta > 0 else None)
    cfg = SimConfig(steps_per_tm=args.steps, phi=args.fail_num,
                    budget=args.budget, recovery=args.recovery, flash=flash,
                    flash_lag=args.flash_lag,
                    flash_recovery_period=args.flash_recovery_period,
                    seed=args.seed, mw=mw)

    base_out = args.out or os.environ.get("TEKIT_OUT_DIR", "runs")
    run_tag = (f"{topo.name}_S{args.scale if args.scale is not None else 'raw'}"
               f"_phi{args.fail_num}_b{args.budget or 0}_seed{args.seed}")
    out_dir = FsPath(base_out) / run_tag
    out_dir.mkdir(parents=True, exist_ok=True)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_log_to_stderr,
                                 initargs=(args.verbose,)) as pool:
            futures = [pool.submit(_run_one, topo, n, actual, predicted, cfg)
                       for n in names]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(topo, n, actual, predicted, cfg) for n in names]

    summaries = {}
    for name, report in results:
        summary = sim.metrics_rollup(report)
        summaries[name] = summary
        (out_dir / f"{name}.csv").write_text(sim.report_to_csv(summary))
        blob = {
            "algorithm": name,
            "topology": topo.name,
            "num_tms": report.num_tms,
            "steps_per_tm": report.steps_per_tm,
            "throughput_fraction": summary.throughput_fraction,
            "congestion_loss_fraction": summary.congestion_loss_fraction,
            "failure_loss_fraction": summary.failure_loss_fraction,
            "mean_max_congestion": summary.mean_max_congestion,
            "peak_congestion": summary.peak_congestion,
            "total_churn": summary.total_churn,
            "mean_paths_per_tm": summary.mean_paths_per_tm,
            "latency_cdf": list(summary.latency_cdf),
            "phase_limit_events": report.phase_limit_events,
        }
        if args.timings:
            blob["solver_time_total"] = summary.solver_time_total
            blob["solver_times"] = report.solver_times
        (out_dir / f"{name}.summary.json").write_text(
            json.dumps(blob, indent=2, sort_keys=True) + "\n")
        if report.phase_limit_events:
            hit_limit = True
            for ev in report.phase_limit_events:
                _log.info("note: %s", ev)

    lines = ["algorithm,throughput_fraction,congestion_loss_fraction,"
             "failure_loss_fraction,mean_max_congestion,peak_congestion,"
             "total_churn,mean_paths_per_tm"]
    for name in names:
        s = summaries[name]
        lines.append(f"{name},{s.throughput_fraction!r},"
                     f"{s.congestion_loss_fraction!r},"
                     f"{s.failure_loss_fraction!r},{s.mean_max_congestion!r},"
                     f"{s.peak_congestion!r},{s.total_churn},"
                     f"{s.mean_paths_per_tm!r}")
    (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")

    if args.verbose:
        print(f"wrote {len(names)} run(s) to {out_dir}")
    if hit_limit and args.strict:
        print("error: solver phase limit reached (--strict)", file=sys.stderr)
        return 3
    return 0


def cmd_gen_demands(args) -> int:
    try:
        topo = fileio.load_topology(args.topo)
    except (OSError, ValueError) as exc:
        raise InputError(f"topology: {exc}") from exc
    if args.num_tms < 1:
        raise InputError("--num-tms must be >= 1")
    if not (0.0 <= args.prediction_error < 1.0):
        raise InputError("--prediction-error must lie in [0, 1)")
    actual, predicted = demand.generate_sequences(
        topo, args.num_tms, seed=args.seed, epsilon=args.prediction_error,
        scale=args.scale, diurnal=args.diurnal)
    prefix = FsPath(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_tm_sequence(f"{prefix}.actual.tms", actual)
    fileio.write_tm_sequence(f"{prefix}.predicted.tms", predicted)
    fileio.write_metadata(f"{prefix}.meta.json", {
        "topology": topo.name,
        "hosts": list(topo.hosts),
        "num_tms": args.num_tms,
        "seed": args.seed,
        "scale": args.scale,
        "prediction_error": args.prediction_error,
        "flash_beta": args.flash_beta,
        "diurnal": args.diurnal,
        "diurnal_note": "weekly template is a fixed synthetic stand-in",
        "pareto_shape": demand.PARETO_SHAPE,
        "pareto_scale": demand.PARETO_SCALE,
    })
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        if args.command == "run":
            _log_to_stderr(args.verbose)
            try:
                return cmd_run(args)
            finally:
                _log_to_stderr(False)
        return cmd_gen_demands(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
