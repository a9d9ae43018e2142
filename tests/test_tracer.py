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


def test_tracer_install_misses_no_layer():
    # install() rebinds module attributes, so it runs in its own process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "benchmarks")], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
