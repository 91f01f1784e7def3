"""Tests for parallel suite execution (``run_suite(workers=N)``).

``workers > 1`` runs the pairs on the supervisor (one forked child per
attempt), which must be a drop-in for the sequential sweep: same
outcome order, same per-pair timeout/retry policy, same failure
isolation — one worker's failing benchmark never disturbs the others —
and the same ``skipped`` reporting for unknown names.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import harness
from repro.cli import main
from repro.errors import (BenchmarkTimeoutError, CacheCorruptionError,
                          ConfigValidationError, SimulationError)

from faults import ScriptedRunner

KNOWN = ["CCS", "GDL", "SuS", "AAt"]


def _outcome_key(outcome):
    return (outcome.benchmark, outcome.kind, outcome.status,
            outcome.error_type, outcome.attempts,
            None if outcome.summary is None
            else outcome.summary.total_cycles)


def _sleep_runner(benchmark, kind, frames=1, **kw):
    """Sleeper for the worker-timeout test."""
    time.sleep(30.0)
    raise AssertionError("timeout should have fired in the worker")


def _slow_last_runner(benchmark, kind, frames=1, **kw):
    """Quick pairs, then one that runs longer than the adaptive floor."""
    if (benchmark, kind) == ("AAt", "libra"):
        time.sleep(1.5)
    return ScriptedRunner({})(benchmark, kind, frames=frames)


def _flaky_runner(benchmark, kind, frames=1, flag_path="", **kw):
    """Fails transiently on its first invocation only.

    The state lives in a flag file: each attempt is a fresh fork of
    the parent, so in-memory state (a ScriptedRunner's script) would
    start unconsumed every time.
    """
    if not os.path.exists(flag_path):
        Path(flag_path).write_text("seen")
        raise CacheCorruptionError(f"injected failure for {benchmark}")
    return ScriptedRunner({})(benchmark, kind, frames=frames)


class TestParallelMatchesSequential:
    def test_same_outcomes_with_injected_fault(self):
        """The acceptance scenario: one benchmark fails terminally; the
        parallel report is outcome-for-outcome equal to sequential."""
        script = {"GDL": [SimulationError] * 5}
        sequential = harness.run_suite(
            KNOWN, frames=1, runner=ScriptedRunner(script),
            known_benchmarks=KNOWN)
        parallel = harness.run_suite(
            KNOWN, frames=1, runner=ScriptedRunner(script),
            known_benchmarks=KNOWN, workers=2)
        assert [_outcome_key(o) for o in parallel.outcomes] \
            == [_outcome_key(o) for o in sequential.outcomes]
        assert [o.benchmark for o in parallel.failed] == ["GDL"]
        assert len(parallel.succeeded) == 3

    def test_transient_fault_retried_inside_worker(self, tmp_path):
        """The parent retries a transient fault in a fresh worker."""
        report = harness.run_suite(
            ["CCS"], frames=1, runner=_flaky_runner,
            known_benchmarks=KNOWN, workers=2, backoff_s=0.01,
            flag_path=str(tmp_path / "flag"))
        [outcome] = report.outcomes
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.provenance == "degraded"

    def test_unknown_benchmark_skipped_in_order(self):
        report = harness.run_suite(
            ["CCS", "NOPE", "GDL"], frames=1, runner=ScriptedRunner({}),
            known_benchmarks=KNOWN, workers=3)
        assert [(o.benchmark, o.status) for o in report.outcomes] \
            == [("CCS", "ok"), ("NOPE", "skipped"), ("GDL", "ok")]
        assert "valid:" in report.outcomes[1].error

    def test_multiple_kinds_preserve_pair_order(self):
        report = harness.run_suite(
            ["CCS", "GDL"], kinds=("libra", "ptr"), frames=1,
            runner=ScriptedRunner({}), known_benchmarks=KNOWN, workers=4)
        assert [(o.benchmark, o.kind) for o in report.outcomes] == [
            ("CCS", "libra"), ("CCS", "ptr"),
            ("GDL", "libra"), ("GDL", "ptr")]


class TestWorkerIsolation:
    def test_timeout_fires_inside_worker(self):
        """The parent preempts a hung benchmark at its deadline
        without stalling its siblings."""
        report = harness.run_suite(
            ["CCS", "GDL"], frames=1, timeout_s=0.2, max_attempts=1,
            runner=_sleep_runner, known_benchmarks=KNOWN, workers=2)
        assert len(report.failed) == 2
        for outcome in report.outcomes:
            assert outcome.error_type \
                == BenchmarkTimeoutError.__name__
            assert outcome.elapsed_s < 10.0

    def test_no_deadline_without_timeout(self):
        """Without ``timeout_s`` no pair is preempted, however much
        slower it is than the pairs that finished before it."""
        report = harness.run_suite(
            KNOWN, kinds=("ptr", "libra"), frames=1,
            runner=_slow_last_runner, known_benchmarks=KNOWN, workers=2)
        assert [o.status for o in report.outcomes] == ["ok"] * 8
        assert report.outcomes[-1].elapsed_s >= 1.5

    def test_closure_runner_succeeds(self):
        """Forked workers inherit the runner; nothing pickles it."""
        stub = ScriptedRunner({})

        def local_runner(benchmark, kind, frames=1, **kw):
            return stub(benchmark, kind, frames=frames)

        report = harness.run_suite(
            ["CCS", "GDL"], frames=1, runner=local_runner,
            known_benchmarks=KNOWN, workers=2)
        assert [(o.benchmark, o.status) for o in report.outcomes] \
            == [("CCS", "ok"), ("GDL", "ok")]
        assert all(o.provenance == "completed" for o in report.outcomes)


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigValidationError):
            harness.run_suite(["CCS"], workers=0,
                              runner=ScriptedRunner({}),
                              known_benchmarks=KNOWN)

    def test_workers_one_stays_sequential(self):
        runner = ScriptedRunner({})
        report = harness.run_suite(["CCS", "GDL"], frames=1,
                                   runner=runner,
                                   known_benchmarks=KNOWN, workers=1)
        # Sequential mode shares the parent's runner instance, so its
        # call log is visible — the parallel path cannot offer this.
        assert runner.calls == [("CCS", "libra"), ("GDL", "libra")]
        assert len(report.succeeded) == 2

    def test_no_fork_falls_back_to_sequential(self, monkeypatch, caplog):
        monkeypatch.setattr(harness.supervision, "available",
                            lambda: False)
        runner = ScriptedRunner({})
        report = harness.run_suite(["CCS", "GDL"], frames=1,
                                   runner=runner,
                                   known_benchmarks=KNOWN, workers=2)
        assert runner.calls == [("CCS", "libra"), ("GDL", "libra")]
        assert len(report.succeeded) == 2
        assert caplog.text.count("sequentially in-process") == 1


class TestCLI:
    def test_workers_flag_passed_through(self, monkeypatch, capsys):
        seen = {}

        def fake_run_suite(names, kinds, frames, timeout_s,
                           max_attempts, workers):
            seen.update(names=list(names), kinds=tuple(kinds),
                        frames=frames, workers=workers)
            return harness.SuiteReport()

        monkeypatch.setattr(harness, "run_suite", fake_run_suite)
        code = main(["suite", "--benchmarks", "CCS,GDL",
                     "--workers", "3", "--frames", "2"])
        assert code == 0
        assert seen["workers"] == 3
        assert seen["names"] == ["CCS", "GDL"]

    def test_invalid_workers_exits_2(self, capsys):
        assert main(["suite", "--benchmarks", "CCS",
                     "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
