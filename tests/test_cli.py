import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tekit
from tekit import fileio
from tekit.cli import _workers, main
from tekit.model import ALGORITHM_NAMES, AlgorithmKind


@pytest.fixture(scope="module")
def topo_path():
    return str(fileio.bundled_topology_path("abilene"))


@pytest.fixture(scope="module")
def demand_files(topo_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("demands") / "g"
    rc = main(["gen-demands", "--topo", topo_path, "--num-tms", "3",
               "--scale", "1.0", "--seed", "17", "--out", str(out)])
    assert rc == 0
    return out


def test_gen_demands_outputs(demand_files, topo_path):
    actual = Path(f"{demand_files}.actual.tms")
    predicted = Path(f"{demand_files}.predicted.tms")
    meta = Path(f"{demand_files}.meta.json")
    assert actual.exists() and predicted.exists() and meta.exists()
    blob = json.loads(meta.read_text())
    assert blob["seed"] == 17
    assert blob["num_tms"] == 3
    # epsilon=0: predicted byte-identical to actual
    assert actual.read_bytes() == predicted.read_bytes()
    # 3 lines of 144 values each (12 hosts)
    lines = actual.read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(len(l.split()) == 144 for l in lines)


def test_gen_demands_deterministic(topo_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(["gen-demands", "--topo", topo_path, "--num-tms", "2",
                   "--seed", "23", "--prediction-error", "0.2",
                   "--out", str(out)])
        assert rc == 0
    assert (a.parent / "a.actual.tms").read_bytes() == \
        (b.parent / "b.actual.tms").read_bytes()
    assert (a.parent / "a.predicted.tms").read_bytes() == \
        (b.parent / "b.predicted.tms").read_bytes()


def test_gen_demands_files_round_trip(demand_files, topo_path):
    topo = fileio.load_topology(topo_path)
    tms = fileio.read_tm_sequence(f"{demand_files}.actual.tms", topo.hosts)
    assert len(tms) == 3
    out = fileio.format_tm_line(tms[0])
    assert out == Path(f"{demand_files}.actual.tms").read_text().splitlines()[0]


def test_run_smoke(topo_path, demand_files, tmp_path):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "spf", "--steps", "5", "--seed", "3",
               "--out", str(tmp_path / "runs")])
    assert rc == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    files = {p.name for p in run_dirs[0].iterdir()}
    assert {"spf.csv", "spf.summary.json", "comparison.csv"} <= files
    blob = json.loads((run_dirs[0] / "spf.summary.json").read_text())
    assert blob["algorithm"] == "spf"
    assert 0.0 <= blob["throughput_fraction"] <= 1.0
    assert "solver_times" not in blob  # timings excluded by default


def test_run_unknown_algorithm_exits_2(topo_path, demand_files, tmp_path,
                                       capsys):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "bogus", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "valid names" in err and "semimcfraecke" in err


@pytest.mark.parametrize("token", ["-1", "abc", "nan"])
def test_run_bad_tm_rate_exits_2(token, topo_path, tmp_path, capsys):
    tms = tmp_path / "bad.tms"
    tms.write_text(" ".join(["0"] + [token] + ["0"] * 142) + "\n")
    rc = main(["run", "--topo", topo_path, "--tms", str(tms),
               "--pred", str(tms), "--algos", "spf", "--steps", "2",
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert f"{tms}:1: " in capsys.readouterr().err


@pytest.mark.parametrize("topo_name, extra", [
    ("path8", []),
    # global recovery rebuilds the base on a reduced topology with bridges
    ("abilene", ["--fail-num", "2", "--recovery", "global"]),
])
def test_run_ft_env_on_topology_with_bridges(topo_name, extra, tmp_path):
    topo = str(fileio.bundled_topology_path(topo_name))
    out = tmp_path / "g"
    assert main(["gen-demands", "--topo", topo, "--num-tms", "1",
                 "--seed", "5", "--out", str(out)]) == 0
    rc = main(["run", "--topo", topo, "--tms", f"{out}.actual.tms",
               "--pred", f"{out}.predicted.tms", "--algos", "semimcfmcfftenv",
               "--steps", "2", *extra, "--out", str(tmp_path / "r")])
    assert rc == 0


def test_run_missing_topology_exits_2(tmp_path, capsys):
    rc = main(["run", "--topo", str(tmp_path / "absent.topo"),
               "--tms", "x", "--pred", "y", "--algos", "spf"])
    assert rc == 2
    assert "topology" in capsys.readouterr().err


def test_run_deterministic_outputs(topo_path, demand_files, tmp_path):
    args = ["run", "--topo", topo_path,
            "--tms", f"{demand_files}.actual.tms",
            "--pred", f"{demand_files}.predicted.tms",
            "--algos", "semimcfraecke,ecmp", "--steps", "4",
            "--budget", "3", "--fail-num", "1", "--recovery", "local",
            "--seed", "5"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    d1 = next(out1.iterdir())
    d2 = next(out2.iterdir())
    assert {p.name for p in d1.iterdir()} == {p.name for p in d2.iterdir()}
    for p in sorted(d1.iterdir()):
        assert p.read_bytes() == (d2 / p.name).read_bytes(), p.name


def test_out_dir_env_override(topo_path, demand_files, tmp_path, monkeypatch):
    monkeypatch.setenv("TEKIT_OUT_DIR", str(tmp_path / "envruns"))
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "spf", "--steps", "2", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "envruns").exists()
    (run_dir,) = (tmp_path / "envruns").iterdir()
    assert (run_dir / "spf.csv").exists()


def test_run_with_flash_bursts(topo_path, demand_files, tmp_path):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "semimcfraecke", "--steps", "6",
               "--flash-beta", "2.0", "--flash-lag", "2",
               "--flash-recovery-period", "3", "--recovery", "local",
               "--seed", "4", "--out", str(tmp_path / "runs")])
    assert rc == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    blob = json.loads((run_dir / "semimcfraecke.summary.json").read_text())
    assert blob["throughput_fraction"] > 0


def test_run_strict_phase_limit_exits_3(topo_path, demand_files, tmp_path,
                                        capsys):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "mcf", "--steps", "2", "--max-phases", "1",
               "--strict", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "phase limit" in capsys.readouterr().err


def test_run_comparison_table_matches_golden(topo_path, tmp_path):
    """Full multi-algorithm recipe reproduces the frozen comparison table."""
    gen = tmp_path / "g"
    assert main(["gen-demands", "--topo", topo_path, "--num-tms", "3",
                 "--scale", "1.0", "--seed", "29", "--out", str(gen)]) == 0
    assert main(["run", "--topo", topo_path,
                 "--tms", f"{gen}.actual.tms", "--pred", f"{gen}.predicted.tms",
                 "--algos", "spf,ecmp,ksp,vlb,raecke,mcf,semimcfraecke",
                 "--budget", "3", "--scale", "1.0", "--steps", "50",
                 "--seed", "29", "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    golden = Path(__file__).parent / "data" / "golden_comparison.csv"
    assert (run_dir / "comparison.csv").read_bytes() == golden.read_bytes()


def test_run_dir_name_embeds_parameters(topo_path, demand_files, tmp_path):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "spf", "--steps", "2", "--scale", "1.0",
               "--fail-num", "0", "--budget", "2", "--seed", "9",
               "--out", str(tmp_path / "runs")])
    assert rc == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    name = run_dir.name
    for token in ("abilene", "S1.0", "phi0", "b2", "seed9"):
        assert token in name


ADAPTIVE = [n for n in ALGORITHM_NAMES
            if AlgorithmKind.parse(n).category != "oblivious"]


@pytest.mark.parametrize("name", ADAPTIVE)
def test_run_strict_phase_limit_exits_3_for_every_adaptive_kind(
        name, topo_path, demand_files, tmp_path, capsys):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", name, "--steps", "2", "--max-phases", "2",
               "--strict", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "phase limit" in capsys.readouterr().err
    (summary,) = (tmp_path / "r").glob(f"*/{name}.summary.json")
    assert json.loads(summary.read_text())["phase_limit_events"]


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_run_bad_parallel_setting_exits_2(value, topo_path, demand_files,
                                          tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TEKIT_PARALLEL", value)
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "spf,ecmp", "--steps", "2",
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "TEKIT_PARALLEL" in capsys.readouterr().err


def test_parallel_workers_are_capped(monkeypatch):
    monkeypatch.setenv("TEKIT_PARALLEL", "3")
    assert _workers(2) == min(2, os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _workers(5) == 1


def test_run_parallel_matches_serial(topo_path, demand_files, tmp_path,
                                     monkeypatch):
    args = ["run", "--topo", topo_path,
            "--tms", f"{demand_files}.actual.tms",
            "--pred", f"{demand_files}.predicted.tms",
            "--algos", "spf,ecmp", "--steps", "2", "--seed", "2"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("TEKIT_PARALLEL", "3")
    assert main(args + ["--out", str(tmp_path / "par")]) == 0
    (serial,) = (tmp_path / "serial").iterdir()
    (par,) = (tmp_path / "par").iterdir()
    for p in sorted(serial.iterdir()):
        assert p.read_bytes() == (par / p.name).read_bytes(), p.name


def test_gen_demands_disconnected_topology_exits_2(tmp_path, capsys):
    topo = tmp_path / "split.topo"
    topo.write_text("node s1 switch\nnode s2 switch\nnode h1 host\n"
                    "node h2 host\nlink h1 s1 cap=10bps\nlink h2 s2 cap=10bps\n")
    rc = main(["gen-demands", "--topo", str(topo), "--num-tms", "1",
               "--out", str(tmp_path / "g")])
    assert rc == 2
    assert "disconnected" in capsys.readouterr().err


def _run_cli(args, parallel):
    """``python -m tekit.cli`` in a fresh process, so stderr is exactly what
    a user sees (no test-runner logging handlers)."""
    env = dict(os.environ, TEKIT_PARALLEL=str(parallel),
               PYTHONPATH=str(Path(tekit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "tekit.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def limited_run_args(topo_path, demand_files):
    """A run whose Raecke builds log iterations and whose re-balances hit
    the phase limit, so both kinds of log record are produced."""
    return ["run", "--topo", topo_path,
            "--tms", f"{demand_files}.actual.tms",
            "--pred", f"{demand_files}.predicted.tms",
            "--algos", "spf,raecke,semimcfraecke", "--steps", "2",
            "--max-phases", "2", "--seed", "6"]


def test_verbose_parallel_logs_the_serial_lines(limited_run_args, tmp_path):
    serial = _run_cli(limited_run_args + ["--verbose", "--out",
                                          str(tmp_path / "s")], 1)
    par = _run_cli(limited_run_args + ["--verbose", "--out",
                                       str(tmp_path / "p")], 2)
    assert serial.returncode == 0, serial.stderr
    assert par.returncode == 0, par.stderr
    lines = serial.stderr.splitlines()
    assert any(ln.startswith("iteration 0: u_max=") for ln in lines)
    assert any(ln.startswith("note: semimcfraecke reweight tm0: ")
               for ln in lines)
    assert sorted(par.stderr.splitlines()) == sorted(lines)


@pytest.mark.parametrize("parallel", [1, 2])
def test_quiet_run_writes_nothing_to_stderr(parallel, limited_run_args,
                                            tmp_path):
    proc = _run_cli(limited_run_args + ["--out", str(tmp_path / "q")],
                    parallel)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_verbose_handlers_do_not_pile_up(topo_path, demand_files, tmp_path,
                                         capsys):
    args = ["run", "--topo", topo_path,
            "--tms", f"{demand_files}.actual.tms",
            "--pred", f"{demand_files}.predicted.tms",
            "--algos", "raecke", "--steps", "1", "--verbose",
            "--out", str(tmp_path / "r")]
    errs = []
    for _ in range(3):
        assert main(args) == 0
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("iteration 0: u_max=")
    assert errs[0] == errs[1] == errs[2]
    pkg = logging.getLogger("tekit")
    assert pkg.handlers == [] and pkg.level == logging.NOTSET


def test_verbose_notes_the_demand_scaling_phase_limit(topo_path, demand_files,
                                                      tmp_path, capsys):
    rc = main(["run", "--topo", topo_path,
               "--tms", f"{demand_files}.actual.tms",
               "--pred", f"{demand_files}.predicted.tms",
               "--algos", "spf", "--steps", "2", "--scale", "1.0",
               "--max-phases", "2", "--strict", "--verbose",
               "--out", str(tmp_path / "r")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert any(ln.startswith("note: demand scaling: no certificate after 2 "
                             "phases") for ln in err)
    assert err[-1] == "error: solver phase limit reached (--strict)"
