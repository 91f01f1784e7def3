"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest layerbench/tests``.
Each workload runs at its smallest size (one game or grid, a reduced
screen, no time budget beyond one iteration) through the same
``run.main`` the command line runs, so its correctness checks and its output
contract are exercised end to end.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SmallCold(workloads.ColdPoint):
    POOL = ("CCS",)
    GEOMETRY = (128, 64)


class SmallGrid(workloads.WarmGrid):
    MEMORY = ("CCS",)
    COMPUTE = ("GDL",)
    GEOMETRY = (128, 64)
    FRAMES = 1


class SmallService(workloads.ServiceJobs):
    POOL = (("GDL", 0.08),)
    GEOMETRY = (128, 64)


SMALL = {"cold-point": SmallCold, "warm-grid": SmallGrid,
         "service-jobs": SmallService}


def declared(kind: str):
    """name -> unit of the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def run_small(name, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)  # service sets it
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setitem(run.WORKLOADS, name, SMALL[name])
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]), out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_its_checks(name, monkeypatch, capsys):
    code, result, lines = run_small(name, 0, monkeypatch, capsys)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer_metric(name, monkeypatch, capsys):
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr, _ in probes._targets()}
    code, result, lines = run_small(name, 1, monkeypatch, capsys)
    assert code == 0, "\n".join(lines)
    assert units(result) == declared("per_layer")
    # The traced pass must leave every probed function as it found it.
    after = {(owner, attr): vars(owner)[attr]
             for owner, attr, _ in probes._targets()}
    assert all(after[key] is before[key] for key in before)


def test_speedometer_integrates_the_host_speed():
    meter = workloads.Speedometer()
    ref = meter.REF_S
    # One loop a second: 50 at the reference speed, then 50 twice as slow,
    # and one preempted loop that the neighbouring readings outvote.
    meter.samples = [(float(t), ref if t < 50 else 2 * ref)
                     for t in range(100)]
    meter.samples[20] = (20.0, 10 * ref)
    assert meter.slowdown(0.0, 50.0) == pytest.approx(1.0)
    assert meter.slowdown(60.0, 90.0) == pytest.approx(2.0)
    # 50 s at full speed and 50 s at half speed: 75 reference seconds.
    assert meter.slowdown(0.0, 100.0) == pytest.approx(100 / 75)


def test_restore_puts_back_every_original():
    targets = probes._targets()
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    saved = probes.install(probes.Recorder())
    assert any(vars(owner)[attr] is not orig
               for (owner, attr, _), orig in zip(targets, before))
    probes.restore(saved)
    assert all(vars(owner)[attr] is orig
               for (owner, attr, _), orig in zip(targets, before))


def test_without_sources_it_fails_without_a_result(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cold-point", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
