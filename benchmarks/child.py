"""One measured process of the tekit benchmark.

    python3 benchmarks/child.py SPEC.json RESULT.json SPAWNED

``SPEC.json`` names the mode (``setup``, ``run`` or ``traced``), the
topology and matrix files and the ``tekit run`` arguments; ``SPAWNED`` is
the monotonic clock reading taken just before this process was started.  The process
imports ``tekit`` from the checkout's ``src``, parses the inputs (that is
set-up), and, unless the mode is ``setup``, calls
``tekit.cli.main(["run", ...])`` and times it.  In ``traced`` mode the
layers are wrapped first (see ``tracer.py``).  The measurements go to
``RESULT.json``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import tekit
    from tekit import cli, fileio

    if not Path(tekit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported tekit from {tekit.__file__}, not {src}")
    topo = fileio.load_topology(spec["topo"])
    actual = fileio.read_tm_sequence(spec["tms"], topo.hosts)
    predicted = fileio.read_tm_sequence(spec["pred"], topo.hosts)
    setup_s = time.monotonic() - float(sys.argv[3])
    out = {"setup_s": setup_s}
    del topo, actual, predicted

    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "traced":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing
            tracer = tracing.install(spec["run_id"])
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = cli.main(["run"] + spec["argv"])
        run_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(
            rc=rc, run_s=run_s,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0)
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write(spec["spans"])
    Path(sys.argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
