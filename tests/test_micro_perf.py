"""The synthetic micro perf cases and the numpy dependency gate."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.compat as compat
from repro.errors import (ConfigValidationError, DependencyError,
                          ReproError)
from repro.perf.baseline import (DEFAULT_CASES, compare_baselines,
                                 record_baseline)
from repro.perf.micro import micro_dram_batch, run_micro


class TestMicroKernels:

    def test_dram_case_deterministic(self):
        assert micro_dram_batch(chunk=2048, chunks=6) \
            == micro_dram_batch(chunk=2048, chunks=6)

    def test_dram_case_counts_are_consistent(self):
        metrics = micro_dram_batch(chunk=2048, chunks=6)
        assert metrics["accesses"] == 2048 * 6
        hits = metrics["row_hits"]
        misses = metrics["accesses"] - hits
        assert metrics["service_cycles"] == hits * 50 + misses * 100

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigValidationError):
            run_micro("nope", 1024, 2)

    def test_micro_cases_in_default_set(self):
        styles = {case.case_id: case.style for case in DEFAULT_CASES}
        assert styles.get("micro.dram.interval_batch") == "micro"


class TestMicroBaselineIntegration:
    """record/compare round-trips through the micro style."""

    def _cases(self):
        return [case for case in DEFAULT_CASES if case.style == "micro"]

    def test_record_and_compare_clean(self):
        cases = self._cases()
        baseline = record_baseline(cases, repeat=1)
        current = record_baseline(cases, repeat=1)
        report = compare_baselines(current, baseline,
                                   wall_threshold_pct=10000.0)
        assert report.exit_code == 0
        assert {v.case_id for v in report.verdicts} \
            == {case.case_id for case in cases}

    def test_metric_drift_is_flagged(self):
        cases = self._cases()[:1]
        baseline = record_baseline(cases, repeat=1)
        current = record_baseline(cases, repeat=1)
        case_id = cases[0].case_id
        current.cases[case_id].metrics["row_hits"] += 1
        report = compare_baselines(current, baseline,
                                   wall_threshold_pct=10000.0)
        assert report.exit_code == 1
        assert report.verdicts[0].status == "metrics-drift"


class TestNumpyGate:
    """The fail-fast dependency gate of :mod:`repro.compat`."""

    def test_version_tuple_parsing(self):
        assert compat._version_tuple("1.21.3") == (1, 21)
        assert compat._version_tuple("2.4.6rc1") == (2, 4)
        assert compat._version_tuple("weird") == ()

    def test_require_numpy_returns_module(self):
        assert compat.require_numpy() is np

    def test_below_floor_raises_dependency_error(self):
        with mock.patch.object(np, "__version__", "1.20.0"):
            with pytest.raises(DependencyError) as excinfo:
                compat.require_numpy()
        message = str(excinfo.value)
        assert "1.21" in message and "pip install" in message

    def test_dependency_error_taxonomy(self):
        # Callers catching either the package taxonomy or the stdlib
        # ImportError family must both see the gate failure.
        assert issubclass(DependencyError, ReproError)
        assert issubclass(DependencyError, ImportError)

    def test_packaging_floor_matches_runtime_gate(self):
        # pyproject.toml's install requirement and compat.NUMPY_FLOOR
        # must state the same version, or the installer and the
        # import-time gate would disagree about what is supported.
        import pathlib
        import re

        pyproject = (pathlib.Path(__file__).resolve().parent.parent
                     / "pyproject.toml").read_text()
        match = re.search(r'"numpy>=(\d+)\.(\d+)"', pyproject)
        assert match, "no numpy floor declared in pyproject.toml"
        assert (int(match.group(1)), int(match.group(2))) \
            == compat.NUMPY_FLOOR
