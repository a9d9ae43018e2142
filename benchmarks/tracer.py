"""Outside-in tracer for one ``tekit run`` process.

The tracer wraps public functions of the ``tekit`` modules from the
benchmark's own files; nothing is put inside ``src/tekit``.  A wrapped
function is rebound in every ``tekit`` module that holds it by name (for
example ``mcf_mw`` lives in ``tekit.mcf`` and is imported by name into
``tekit.algorithms`` and ``tekit.demand``), so calls through any of those
names are seen.

Two kinds of wrapper exist:

* a *span* records one entry per call: id, run id, parent span, name,
  start, end and the exception it raised, if any;
* a *leaf* is for hot functions (``graphops.dijkstra`` runs about 10^5
  times per run) and only adds to a call count and a total time.

Both add their duration to the enclosing call's child time, so every name
also gets a self time: its total minus the time spent in wrapped callees.
An exception raised inside a wrapper is recorded, counted and re-raised.
A missing attribute (a renamed private function, say) is reported as a
missing span instead of failing the run.  Spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: dict = field(default_factory=dict)
    durations: list | None = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.rebound: dict[str, list[str]] = {}
        #: per-name counters filled by result hooks (iterations, trees, ...)
        self.counts: dict[str, float] = {}
        #: solver results: (name, max_congestion, lower_bound, accuracy,
        #: converged)
        self.solves: list[tuple] = []
        self._stack: list[list] = []  # [enclosing span id, child time]
        self._t0 = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False,
             durations: bool = False, on_result=None, on_error=None) -> None:
        """Wrap ``owner.attr`` (a module or a class) under ``name``.

        For a module attribute, every ``tekit`` module that binds the same
        function object is rebound too.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        stat = self.stats.setdefault(name, Stat())
        if durations:
            stat.durations = []
        wrapper = self._wrapper(fn, name, stat, leaf, on_result, on_error)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self.rebound[name] = [f"{owner.__module__}.{owner.__name__}"]
            return
        sites = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "tekit"
                                   or mod_name.startswith("tekit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    sites.append(mod_name)
        self.rebound[name] = sites

    def _wrapper(self, fn, name, stat, leaf, on_result, on_error):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        t_base = self._t0
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if leaf:
                span_id = parent
            else:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if stat.durations is not None:
                    stat.durations.append(dt)
                if error is not None:
                    kind = type(error).__name__
                    stat.errors[kind] = stat.errors.get(kind, 0) + 1
                    if on_error is not None:
                        on_error(error, args, kwargs)
                if not leaf:
                    spans[span_id] = {
                        "id": span_id, "run": run_id, "parent": parent,
                        "name": name, "start": start - t_base,
                        "end": end - t_base,
                        "error": None if error is None else type(error).__name__}
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "run": self.run_id,
            "stats": {n: {"calls": s.calls, "total": s.total,
                          "self": s.self_time, "errors": s.errors,
                          "durations": s.durations}
                      for n, s in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "solves": self.solves,
            "missing": self.missing,
            "rebound": self.rebound,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "missing": self.missing, "rebound": self.rebound},
                      fh)


def _solver_hooks(tracer: Tracer, name: str, fn):
    """Record iterations and the certificate of every solve.  A phase-limit
    error carries the solution it stopped with; its iterations count, and
    the error itself is counted as a phase limit."""
    sig = inspect.signature(fn)

    def accuracy(args, kwargs) -> float:
        """The solver config's accuracy; NaN (failing the check) if no
        argument carries one."""
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return next((v.accuracy for v in bound.arguments.values()
                     if hasattr(v, "accuracy")), float("nan"))

    def on_result(sol, args, kwargs):
        tracer.add(f"{name}.iters", sol.iterations)
        tracer.solves.append((name, sol.max_congestion, sol.lower_bound,
                              accuracy(args, kwargs), True))

    def on_error(exc, args, kwargs):
        sol = getattr(exc, "solution", None)
        if type(exc).__name__ == "PhaseLimitError" and sol is not None:
            tracer.add("mcf.phase_limits", 1)
            tracer.add(f"{name}.iters", sol.iterations)
            tracer.solves.append((name, sol.max_congestion, sol.lower_bound,
                                  accuracy(args, kwargs), False))

    return on_result, on_error


def install(run_id: str) -> Tracer:
    """Wrap the layers a ``tekit run`` passes through."""
    import tekit.algorithms as algorithms
    import tekit.baseline as baseline
    import tekit.cli as cli
    import tekit.demand as demand
    import tekit.fileio as fileio
    import tekit.graphops as graphops
    import tekit.mcf as mcf
    import tekit.raecke as raecke
    import tekit.sim as sim

    tr = Tracer(run_id)
    tr.wrap(cli, "cmd_run", "cli.cmd_run")
    tr.wrap(fileio, "load_topology", "fileio.load_topology")
    tr.wrap(fileio, "read_tm_sequence", "fileio.read_tm_sequence")
    tr.wrap(demand, "scale_factor", "demand.scale_factor")
    tr.wrap(demand, "flash_burst", "demand.flash_burst", leaf=True)
    for tag in ("spf", "ecmp", "ksp", "vlb"):
        tr.wrap(baseline, tag, f"baseline.{tag}")
    tr.wrap(graphops, "dijkstra", "graphops.dijkstra", leaf=True)
    tr.wrap(graphops, "k_shortest_paths", "graphops.k_shortest_paths",
            leaf=True)
    tr.wrap(raecke, "raecke_distribution", "raecke.raecke_distribution",
            on_result=lambda d, a, k: tr.add("raecke.trees", len(d.trees)))
    tr.wrap(raecke, "frt_tree", "raecke.frt_tree", leaf=True)
    tr.wrap(raecke, "paths_from_distribution", "raecke.paths_from_distribution")
    for fn_name in ("mcf_mw", "semi_mcf"):
        name = f"mcf.{fn_name}"
        fn = getattr(mcf, fn_name, None)
        hooks = _solver_hooks(tr, name, fn) if fn is not None else (None, None)
        tr.wrap(mcf, fn_name, name, on_result=hooks[0], on_error=hooks[1])
    if hasattr(algorithms, "SchemeDriver"):
        tr.wrap(algorithms.SchemeDriver, "__init__", "algorithms.SchemeDriver")
    else:
        tr.missing.append("algorithms.SchemeDriver")
    tr.wrap(algorithms, "reweight", "algorithms.reweight")
    tr.wrap(sim, "simulate", "sim.simulate",
            on_result=lambda rep, a, k: tr.add(
                "sim.steps_held",
                len({id(m) for steps in rep.steps for m in steps})))
    tr.wrap(sim, "failure_schedule", "sim.failure_schedule")
    tr.wrap(sim, "recover_local", "sim.recover_local")
    tr.wrap(sim, "recover_global", "sim.recover_global")
    tr.wrap(sim, "_propagate", "sim._propagate", leaf=True, durations=True)
    tr.wrap(sim, "metrics_rollup", "sim.metrics_rollup")
    return tr
