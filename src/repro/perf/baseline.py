"""Performance-baseline tracking: ``repro perf record`` / ``compare``.

The recording discipline (gem5-style continuous benchmarking):

* a **curated case set** — simulator kernels (the same
  :func:`repro.perf.kernels.run_kernel` the profiler times) plus a
  short :func:`repro.harness.run_suite` macro run that exercises the
  supervisor — each timed ``repeat`` times after a warm-up;
* **median-of-k wall-clock** with the median absolute deviation (MAD)
  kept alongside, so a later comparison knows this machine's noise;
* **key simulated metrics** (total cycles, raster DRAM accesses, L1
  texture hit ratio) — deterministic, so any drift is a semantic change
  to the timing model, not noise;
* a **fingerprint** (git SHA, Python version, platform, CPU count) so a
  ``BENCH_<n>.json`` is traceable to the code and machine it measured.

Comparison applies a noise band per case: the larger of a relative
threshold and ``mad_factor`` times the baseline's MAD.  Wall-clock
above baseline + band is a regression; simulated-metric drift is always
a regression (rerecord the baseline when the timing model changes on
purpose).  The exit-code contract — 0 ok / 1 regression / 2 usage — is
what the CI ``perf-smoke`` job scripts against.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import harness
from ..errors import ConfigValidationError, SimulationError
from .kernels import run_kernel

#: Schema version of the BENCH_*.json document.
SCHEMA_VERSION = 1

#: The simulated metrics recorded per case (all deterministic).  The
#: first three come from simulator cases; the rest from the synthetic
#: micro case (access/row-hit counts and integer service cycles).  The
#: drift gate checks whichever names a case's record carries.
SIM_METRICS = ("total_cycles", "raster_dram_accesses", "texture_hit_ratio",
               "accesses", "row_hits", "service_cycles")


@dataclass(frozen=True)
class PerfCase:
    """One named, reproducible timing case of the curated set."""

    case_id: str
    benchmark: str
    #: A single kind for kernel cases; comma-separated kinds for suite
    #: cases (the macro run sweeps benchmark x kinds).
    kind: str
    frames: int
    width: int
    height: int
    #: ``kernel`` (bare simulator run), ``suite`` (supervised
    #: ``harness.run_suite`` macro run including its retry/span
    #: bookkeeping) or ``micro`` (synthetic stream through the batched
    #: DRAM kernel, see :mod:`repro.perf.micro`; ``width`` is the
    #: batch length and ``height`` the batch count).
    style: str = "kernel"


#: The quick set: what CI and the test suite run (seconds, not minutes).
#: The synthetic micro case belongs here — it builds no traces, so it
#: costs milliseconds while still drift-gating the batched DRAM kernel.
QUICK_CASES: Tuple[PerfCase, ...] = (
    PerfCase("kernel.tri_overlap.libra", "tri_overlap", "libra",
             frames=2, width=256, height=128),
    PerfCase("suite.tri_overlap", "tri_overlap", "baseline,libra",
             frames=1, width=128, height=64, style="suite"),
    PerfCase("micro.dram.interval_batch", "synthetic", "dram_batch",
             frames=1, width=4096, height=48, style="micro"),
)

#: The full curated set for real baseline records.
DEFAULT_CASES: Tuple[PerfCase, ...] = QUICK_CASES + (
    PerfCase("kernel.tri_overlap.baseline", "tri_overlap", "baseline",
             frames=2, width=256, height=128),
    PerfCase("kernel.GDL.libra", "GDL", "libra",
             frames=2, width=256, height=128),
    PerfCase("kernel.CCS.libra", "CCS", "libra",
             frames=2, width=256, height=128),
)


@dataclass
class CaseResult:
    """Measured numbers of one case (what the JSON document stores)."""

    case_id: str
    wall_median_s: float
    wall_mad_s: float
    wall_samples_s: List[float]
    metrics: Dict[str, float]

    def to_dict(self) -> dict:
        return {"wall_median_s": self.wall_median_s,
                "wall_mad_s": self.wall_mad_s,
                "wall_samples_s": self.wall_samples_s,
                "metrics": self.metrics}


@dataclass
class PerfBaseline:
    """One recorded baseline document (``BENCH_<n>.json``)."""

    fingerprint: Dict[str, Union[str, int]]
    repeat: int
    cases: Dict[str, CaseResult] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {"schema": self.schema,
                "fingerprint": self.fingerprint,
                "repeat": self.repeat,
                "cases": {cid: c.to_dict()
                          for cid, c in sorted(self.cases.items())}}

    @classmethod
    def from_dict(cls, doc: dict) -> "PerfBaseline":
        if not isinstance(doc, dict) or "cases" not in doc:
            raise ConfigValidationError(
                "not a perf baseline document (no 'cases' mapping)")
        cases = {}
        for cid, entry in doc["cases"].items():
            cases[cid] = CaseResult(
                case_id=cid,
                wall_median_s=float(entry["wall_median_s"]),
                wall_mad_s=float(entry.get("wall_mad_s", 0.0)),
                wall_samples_s=[float(s) for s in
                                entry.get("wall_samples_s", [])],
                metrics={k: v for k, v in entry.get("metrics", {}).items()})
        return cls(fingerprint=dict(doc.get("fingerprint", {})),
                   repeat=int(doc.get("repeat", 0)), cases=cases,
                   schema=int(doc.get("schema", SCHEMA_VERSION)))


def machine_fingerprint() -> Dict[str, Union[str, int]]:
    """Provenance of a record: code revision, interpreter, machine."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count() or 1,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def _mad(samples: Sequence[float]) -> float:
    """Median absolute deviation (0.0 for fewer than 2 samples)."""
    if len(samples) < 2:
        return 0.0
    center = median(samples)
    return median(abs(s - center) for s in samples)


def _suite_runner(benchmark: str, kind: str, frames: int = 1,
                  width: int = 128, height: int = 64):
    """Small-geometry runner for the suite macro case."""
    from ..experiments.spec import SweepPoint
    from ..experiments.engine import execute_point
    return execute_point(SweepPoint(benchmark=benchmark, kind=kind,
                                    axes=(), frames=frames,
                                    width=width, height=height))


def _run_case(case: PerfCase) -> Dict[str, float]:
    """Execute one case once; returns its simulated metrics."""
    if case.style == "kernel":
        traces = harness.get_traces(case.benchmark, case.frames,
                                    case.width, case.height)
        result = run_kernel(case.kind, traces, case.width, case.height)
        return {"total_cycles": result.total_cycles,
                "raster_dram_accesses": result.raster_dram_accesses,
                "texture_hit_ratio": round(result.mean_texture_hit_ratio,
                                           9)}
    if case.style == "suite":
        kinds = tuple(k.strip() for k in case.kind.split(",") if k.strip())
        report = harness.run_suite(
            [case.benchmark], kinds=kinds, frames=case.frames,
            runner=_suite_runner, known_benchmarks=[case.benchmark],
            width=case.width, height=case.height)
        if report.failed or report.skipped:
            bad = (report.failed + report.skipped)[0]
            raise SimulationError(
                f"perf case {case.case_id}: {bad.benchmark}/{bad.kind} "
                f"{bad.status} ({bad.error_type}: {bad.error})")
        summaries = [o.summary for o in report.succeeded]
        return {"total_cycles": sum(s.total_cycles for s in summaries),
                "raster_dram_accesses": sum(s.raster_dram_accesses
                                            for s in summaries),
                "texture_hit_ratio": round(
                    sum(s.texture_hit_ratio for s in summaries)
                    / len(summaries), 9)}
    if case.style == "micro":
        from .micro import run_micro
        return run_micro(case.kind, chunk=case.width, chunks=case.height)
    raise ConfigValidationError(
        f"perf case {case.case_id}: unknown style {case.style!r}")


def record_baseline(cases: Sequence[PerfCase] = DEFAULT_CASES,
                    repeat: int = 3,
                    timer: Callable[[], float] = time.perf_counter,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> PerfBaseline:
    """Run every case ``repeat`` times; median wall-clock + metrics.

    Each case gets one untimed warm-up execution first — it builds (or
    loads) the disk-cached traces and warms the import graph, so the
    timed repetitions measure simulation, not one-time setup.  ``timer``
    exists for tests (inject a fake clock to synthesize regressions).
    """
    if repeat < 1:
        raise ConfigValidationError("repeat must be >= 1")
    baseline = PerfBaseline(fingerprint=machine_fingerprint(),
                            repeat=repeat)
    for case in cases:
        if progress:
            progress(f"recording {case.case_id} "
                     f"({case.frames}f {case.width}x{case.height}, "
                     f"median of {repeat})")
        metrics = _run_case(case)  # warm-up; metrics are deterministic
        samples = []
        for _ in range(repeat):
            start = timer()
            _run_case(case)
            samples.append(timer() - start)
        baseline.cases[case.case_id] = CaseResult(
            case_id=case.case_id,
            wall_median_s=median(samples),
            wall_mad_s=_mad(samples),
            wall_samples_s=[round(s, 6) for s in samples],
            metrics=metrics)
    return baseline


# -- persistence -------------------------------------------------------------

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def next_bench_path(root: Union[str, Path] = ".") -> Path:
    """The next free ``BENCH_<n>.json`` in the trajectory under ``root``."""
    root = Path(root)
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := _BENCH_RE.match(p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def write_baseline(baseline: PerfBaseline, path: Union[str, Path]) -> Path:
    """Write the baseline document as pretty JSON."""
    path = Path(path)
    path.write_text(json.dumps(baseline.to_dict(), indent=2,
                               sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> PerfBaseline:
    """Read and validate a baseline document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigValidationError(f"cannot read baseline {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            f"baseline {path} is not valid JSON: {exc}")
    return PerfBaseline.from_dict(doc)


# -- comparison --------------------------------------------------------------

@dataclass
class CaseVerdict:
    """Outcome of one case's baseline-vs-current comparison."""

    case_id: str
    #: ``ok`` / ``faster`` / ``regression`` / ``metrics-drift`` /
    #: ``missing`` (in the baseline but not the current record).
    status: str
    detail: str = ""
    wall_base_s: float = 0.0
    wall_current_s: float = 0.0
    band_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "metrics-drift", "missing")


@dataclass
class CompareReport:
    """Every case verdict plus the CI exit-code contract."""

    baseline_fingerprint: Dict[str, Union[str, int]]
    verdicts: List[CaseVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[CaseVerdict]:
        return [v for v in self.verdicts if v.failed]

    @property
    def exit_code(self) -> int:
        """0 when every case is within its noise band, 1 otherwise."""
        return 1 if self.regressions else 0

    def format(self) -> str:
        from ..stats import format_table
        rows = []
        for v in self.verdicts:
            delta = (f"{100.0 * (v.wall_current_s / v.wall_base_s - 1):+.1f}%"
                     if v.wall_base_s else "—")
            rows.append([v.case_id, v.status,
                         f"{v.wall_base_s:.3f}", f"{v.wall_current_s:.3f}",
                         delta, f"±{v.band_s:.3f}", v.detail])
        sha = str(self.baseline_fingerprint.get("git_sha", "unknown"))[:12]
        return format_table(
            ("case", "status", "base s", "now s", "delta", "band", "note"),
            rows, title=f"perf compare vs baseline @ {sha}")


def compare_baselines(current: PerfBaseline, baseline: PerfBaseline,
                      wall_threshold_pct: float = 10.0,
                      mad_factor: float = 3.0,
                      check_metrics: bool = True) -> CompareReport:
    """Compare a fresh record against a stored baseline.

    The per-case noise band is ``max(threshold%, mad_factor * MAD of
    the baseline samples)``; a current median above baseline + band is
    a regression, below baseline - band is reported as ``faster``
    (informational).  Simulated-metric drift is a failure regardless of
    wall-clock, because those numbers are deterministic.
    """
    report = CompareReport(baseline_fingerprint=baseline.fingerprint)
    for case_id, base in sorted(baseline.cases.items()):
        cur = current.cases.get(case_id)
        if cur is None:
            report.verdicts.append(CaseVerdict(
                case_id, "missing",
                detail="case not present in current record"))
            continue
        band = max(base.wall_median_s * wall_threshold_pct / 100.0,
                   mad_factor * base.wall_mad_s)
        verdict = CaseVerdict(case_id, "ok",
                              wall_base_s=base.wall_median_s,
                              wall_current_s=cur.wall_median_s,
                              band_s=band)
        drifted = [
            name for name in SIM_METRICS
            if check_metrics and name in base.metrics
            and name in cur.metrics
            and base.metrics[name] != cur.metrics[name]]
        if drifted:
            verdict.status = "metrics-drift"
            verdict.detail = ", ".join(
                f"{n}: {base.metrics[n]} -> {cur.metrics[n]}"
                for n in drifted)
        elif cur.wall_median_s > base.wall_median_s + band:
            verdict.status = "regression"
            verdict.detail = (f"wall {cur.wall_median_s:.3f}s above "
                              f"{base.wall_median_s:.3f}s + "
                              f"{band:.3f}s band")
        elif cur.wall_median_s < base.wall_median_s - band:
            verdict.status = "faster"
        report.verdicts.append(verdict)
    return report
