"""Experiment driver.

Two subcommands::

    tekit run --topo T.topo --tms actual.tms --pred predicted.tms \
              --algos spf,semimcfraecke [--budget K] [--scale S] \
              [--fail-num PHI] [--recovery MODE] \
              [--flash-beta B] [--flash-lag D] [--flash-recovery-period P] \
              [--seed N] [--steps N] [--out DIR] [--strict] [--timings] \
              [--verbose]

    tekit gen-demands --topo T.topo --num-tms N [--scale S] \
              [--prediction-error E] [--seed N] [--diurnal] --out PREFIX

``run`` writes one CSV per algorithm plus a structured summary and a
cross-algorithm comparison table into an output directory whose name embeds
topology, scale, failure count, budget and seed.  All numeric output is
deterministic for a fixed seed; wall-clock timings are only written with
--timings.  --verbose sends the ``tekit`` loggers' records (Raecke
iterations, solver phase-limit notes) to stderr.  Flags that set a config
field take their default and bounds from that config.  Exit codes: 0
success, 2 bad input (also a --fail-num the topology cannot lose, a
repeated algorithm or an output path that cannot be written), 3 an
internal solver limit was hit and --strict was given.  Every bad-input
check runs before anything is written; the output directory is made next,
before the simulations, so an unwritable path fails fast.

Environment overrides: TEKIT_OUT_DIR (base output directory),
TEKIT_PARALLEL (worker processes across algorithm runs; an integer >= 1,
default 1, capped at the number of algorithms and of CPUs).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path as FsPath

from . import demand, fileio, sim
from .algorithms import limit_events
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


#: ``run`` flags that set a config field, as flag: (config, field, type).
#: Each takes its default and its bounds from that config.
_CONFIG_FLAGS = {
    "--budget": (SimConfig, "budget", int),
    "--fail-num": (SimConfig, "phi", int),
    "--flash-beta": (SimConfig, "flash_beta", float),
    "--flash-lag": (SimConfig, "flash_lag", int),
    "--flash-recovery-period": (SimConfig, "flash_recovery_period", int),
    "--seed": (SimConfig, "seed", int),
    "--steps": (SimConfig, "steps_per_tm", int),
    "--accuracy": (MwConfig, "accuracy", float),
    "--max-phases": (MwConfig, "max_phases", int),
}


#: ``gen-demands`` flags by the ``demand.generate_sequences`` argument they
#: set, which is also their destination on the parsed arguments.
_GEN_FLAGS = {"seed": "--seed", "epsilon": "--prediction-error",
              "scale": "--scale"}


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="tekit", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)
    scale_help = ("rescale demands so the first matrix's optimal congestion "
                  f"is {demand.CONGESTION_PER_SCALE}*S")

    run = sub.add_parser("run", help="simulate algorithms over a demand sequence")
    run.add_argument("--topo", required=True)
    run.add_argument("--tms", required=True, help="actual traffic matrix file")
    run.add_argument("--pred", required=True, help="predicted traffic matrix file")
    run.add_argument("--algos", required=True,
                     help="comma-separated algorithm names, each at most "
                          "once; output files use the lower-case name")
    run.add_argument("--scale", type=float, default=None, help=scale_help)
    run.add_argument("--recovery", choices=sim.RECOVERY_MODES,
                     default=SimConfig.recovery)
    for flag, (config, field, kind) in _CONFIG_FLAGS.items():
        run.add_argument(flag, type=kind, dest=field,
                         default=getattr(config, field),
                         help=f"{config.__name__}.{field}, default %(default)s")
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
    gen.add_argument("--scale", type=float, default=None, help=scale_help)
    gen.add_argument("--prediction-error", type=float, default=0.0,
                     dest="epsilon")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--diurnal", action="store_true")
    gen.add_argument("--out", required=True, help="output file prefix")

    return top.parse_args(argv)


def _load_topology(path):
    try:
        return fileio.load_topology(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"topology: {exc}") from exc


def _load_inputs(args):
    topo = _load_topology(args.topo)
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


@contextmanager
def _output_to(path: FsPath):
    """An OSError while making or writing the output at ``path`` is an
    InputError that names it."""
    try:
        yield
    except OSError as exc:
        raise InputError(
            f"cannot write output to {path}: {exc}") from exc


def _write(path: FsPath, text: str) -> None:
    with _output_to(path):
        path.write_text(text)


def _check_scale(scale: float | None) -> None:
    if scale is not None and not (math.isfinite(scale) and scale > 0):
        raise InputError(f"--scale must be finite and > 0, got {scale!r}")


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


def _sim_config(args) -> SimConfig:
    """The run's settings, read from the flags of ``_CONFIG_FLAGS`` and
    ``--recovery``; a flag value its config rejects is an InputError that
    names the flag."""
    fields = {MwConfig: {}, SimConfig: {"recovery": args.recovery}}
    for flag, (config, field, _) in _CONFIG_FLAGS.items():
        value = getattr(args, field)
        try:
            config(**{field: value})
        except ValueError as exc:
            raise InputError(f"{flag} {value}: {exc}") from exc
        fields[config][field] = value
    return SimConfig(mw=MwConfig(**fields[MwConfig]), **fields[SimConfig])


def cmd_run(args) -> int:
    names = []
    for token in filter(str.strip, args.algos.split(",")):
        try:
            name = AlgorithmKind.parse(token).name
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if name in names:
            raise InputError(f"algorithm {name!r} is given more than once")
        names.append(name)
    if not names:
        raise InputError("no algorithms given")
    _check_scale(args.scale)
    cfg = _sim_config(args)
    workers = _workers(len(names))
    topo, actual, predicted = _load_inputs(args)

    hit_limit = False
    if args.scale is not None:
        try:
            factor = demand.scale_factor(topo, actual[0], args.scale, cfg.mw)
        except demand.ZeroDemandError as exc:
            raise InputError(str(exc)) from exc
        except PhaseLimitError as exc:
            hit_limit = True
            _log.info("note: demand scaling: %s", exc)
            factor = (demand.CONGESTION_PER_SCALE * args.scale
                      / exc.solution.max_congestion)
        try:
            actual = [tm.scaled(factor) for tm in actual]
            predicted = [tm.scaled(factor) for tm in predicted]
        except ValueError as exc:  # the factor overflows the rates
            raise InputError(f"--scale {args.scale}: scaled {exc}") from exc

    # one failure schedule, computed here, serves every algorithm
    try:
        failures = sim.failure_schedule(topo, cfg.phi, len(actual), cfg.seed,
                                        actual[0])
    except sim.InfeasibleFailureError as exc:
        raise InputError(str(exc)) from exc
    cfg = replace(cfg, explicit_failures=tuple(failures))
    if cfg.flash_beta > 0:
        try:
            for t, tm in enumerate(actual):
                demand.flash_sink(tm, cfg.seed, t)
        except demand.NoEligibleSinkError as exc:
            raise InputError(str(exc)) from exc

    base_out = args.out or os.environ.get("TEKIT_OUT_DIR", "runs")
    run_tag = (f"{topo.name}_S{args.scale if args.scale is not None else 'raw'}"
               f"_phi{args.phi}_b{args.budget or 0}_seed{args.seed}")
    out_dir = FsPath(base_out) / run_tag
    # made before the simulations, so that an unwritable path fails fast
    with _output_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)

    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_log_to_stderr,
                                 initargs=(args.verbose,)) as pool:
            futures = [pool.submit(sim.simulate, topo, n, actual, predicted,
                                   cfg) for n in names]
            reports = [f.result() for f in futures]
    else:
        reports = [sim.simulate(topo, n, actual, predicted, cfg)
                   for n in names]

    lines = [",".join(("algorithm",) + sim.RUN_METRICS)]
    for name, report in zip(names, reports):
        summary = sim.metrics_rollup(report)
        events = limit_events(report.solves)
        metrics = {key: getattr(summary, key) for key in sim.RUN_METRICS}
        lines.append(",".join([name] + [repr(v) for v in metrics.values()]))
        _write(out_dir / f"{name}.csv", sim.report_to_csv(summary))
        blob = {
            "algorithm": name,
            "topology": topo.name,
            "num_tms": report.num_tms,
            "steps_per_tm": report.steps_per_tm,
            "latency_cdf": list(summary.latency_cdf),
            "phase_limit_events": events,
            **metrics,
        }
        if args.timings:
            blob["solver_times"] = [(s.label, s.seconds) for s in report.solves]
            blob["solver_time_total"] = sum(s.seconds for s in report.solves)
        _write(out_dir / f"{name}.summary.json",
               json.dumps(blob, indent=2, sort_keys=True) + "\n")
        for ev in events:
            hit_limit = True
            _log.info("note: %s", ev)

    _write(out_dir / "comparison.csv", "\n".join(lines) + "\n")

    if args.verbose:
        print(f"wrote {len(names)} run(s) to {out_dir}")
    if hit_limit and args.strict:
        print("error: solver phase limit reached (--strict)", file=sys.stderr)
        return 3
    return 0


def cmd_gen_demands(args) -> int:
    topo = _load_topology(args.topo)
    if args.num_tms < 1:
        raise InputError("--num-tms must be >= 1")
    _check_scale(args.scale)
    try:
        actual, predicted = demand.generate_sequences(
            topo, args.num_tms, seed=args.seed, epsilon=args.epsilon,
            scale=args.scale, diurnal=args.diurnal)
    except demand.ArgumentError as exc:
        value = getattr(args, exc.argument)
        raise InputError(f"{_GEN_FLAGS[exc.argument]} {value}: {exc}") from exc
    except ValueError as exc:  # e.g. a gravity model over one host
        raise InputError(str(exc)) from exc
    prefix = FsPath(args.out)
    with _output_to(prefix):
        prefix.parent.mkdir(parents=True, exist_ok=True)
        fileio.write_tm_sequence(f"{prefix}.actual.tms", actual)
        fileio.write_tm_sequence(f"{prefix}.predicted.tms", predicted)
        fileio.write_metadata(f"{prefix}.meta.json", {
            "topology": topo.name,
            "hosts": list(topo.hosts),
            "num_tms": args.num_tms,
            "seed": args.seed,
            "scale": args.scale,
            "prediction_error": args.epsilon,
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
