"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 layerbench/run.py --workload cold-point --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` spends the first half of ``--seconds``
untraced and the second half with the layer probes installed, and
prints the per-layer metrics, the tracing overhead between the halves
among them.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Host times
of the CPU-bound workloads, and every set-up, are rescaled to a
reference host speed.  The workloads, metrics and the reasoning behind
them are in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import probes
from workloads import WORKLOADS, Pass, Ticker, speedup_of

#: Set-ups per run; setup_s is their median.
SETUPS = 3


def noise_record(root: Path, observer: Ticker, load_start,
                 host_slowdown: float) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    late = observer.late or [0.0]
    return {"loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha or "unknown (not a git checkout)",
            "observer_late_p50_s": statistics.median(late),
            "observer_late_max_s": max(late),
            "host_slowdown": host_slowdown}


def pass_slowdown(p: Pass) -> float:
    """The host's slowdown over a pass, weighted by each latency.

    The gaps between iterations are taken at the same speed: no child
    runs in them, and the timed loop, which reads slow beside an idle
    CPU, would misjudge them.
    """
    if not p.slowdowns:
        return 1.0
    return sum(p.latencies) / sum(
        lat / slow for lat, slow in zip(p.latencies, p.slowdowns))


def latency_p50(p: Pass, latencies: List[float]) -> float:
    """The median latency; over a pool of unlike members (the games of
    ``cold-point``), the mean of each member's median, which a median
    falling between two members' latencies would not be."""
    groups: Dict[str, List[float]] = {}
    for i, lat in enumerate(latencies):
        groups.setdefault(p.groups[i] if p.groups else "", []).append(lat)
    return statistics.mean(statistics.median(g) for g in groups.values())


def end_to_end(p: Pass, setup_s: float, speedup: float) -> Dict[str, float]:
    """The end-to-end metrics, host times at the reference speed."""
    slowdowns = p.slowdowns or [1.0] * len(p.latencies)
    return {"setup_s": setup_s,
            "points_per_s": p.points / p.wall_s * pass_slowdown(p),
            "latency_p50_s": latency_p50(p, [
                lat / slow for lat, slow in zip(p.latencies, slowdowns)]),
            "sim_tiles_per_s": p.tiles / p.wall_s * pass_slowdown(p),
            "libra_speedup": speedup,
            "peak_rss_mb": p.rss_mb + self_rss_mb()}


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sim_counts(records: List[dict]) -> Dict[str, float]:
    """Simulated totals over the workload's distinct points (exact)."""
    def total(kind, key="total_cycles"):
        return sum(r[key] for r in records if kind in (None, r["kind"]))
    return {"sim.cycles.baseline": total("baseline"),
            "sim.cycles.libra": total("libra"),
            "sim.dram_accesses": total(None, "raster_dram_accesses"),
            "sim.texture_hit_ratio": statistics.mean(
                r["texture_hit_ratio"] for r in records)}


def per_layer(p: Pass, workload: str) -> Dict[str, float]:
    """The per-layer metrics of a traced pass, per iteration."""
    raw: Dict[str, float] = {}
    for i, spans in enumerate(p.spans):
        # Layer shares count only what happened inside the latency
        # window (the child's aggregation after it is not waited for).
        until = p.windows[i][1] if workload != "service-jobs" \
            else float("inf")
        for key, value in probes.summarize(spans, until).items():
            raw[key] = raw.get(key, 0.0) + value
    n = len(p.latencies)

    def get(key: str) -> float:
        return raw.get(key, 0.0) / n

    def ratio(num: str, den: str) -> float:
        return raw.get(num, 0.0) / raw[den] if raw.get(den) else 0.0

    tilestream = ("stream_uniq", "l1_layout", "cadence", "fb_runs")
    sweep_own = sum(
        s[2] - s[1] for spans in p.spans for s in spans
        if s[0] == "workloads.get_traces" and s[3] >= 0
        and spans[s[3]][0] == "experiments.run_sweep")
    m = {
        "workloads.trace_build.s": get("workloads.trace_build.s"),
        "workloads.trace_build.self_s": get("workloads.trace_build.self_s"),
        "workloads.scene.s": get("workloads.scene.s"),
        "geometry.run.s": get("geometry.run.s"),
        "tiling.tile_frame.s": get("tiling.tile_frame.s"),
        "raster.process_tile.s": get("raster.process_tile.s"),
        "raster.process_tile.calls": get("raster.process_tile.calls"),
        "raster.touched_lines.s": get("raster.touched_lines.s"),
        "raster.touched_lines.calls": get("raster.touched_lines.calls"),
        "cachefile.write_cache.s": get("cachefile.write_cache.s"),
        "cachefile.read_cache.s": get("cachefile.read_cache.s"),
        "workloads.trace_cache.hit_ratio": ratio(
            "workloads.trace_cache.hits", "workloads.get_traces.calls"),
        "startup.import_s": statistics.mean(p.import_s)
        if p.import_s else 0.0,
        "gpu.simulator.run.s": get("gpu.simulator.run.s"),
        "gpu.us_per_tile.memory": 1e6 * ratio("gpu.sim_s.memory",
                                              "gpu.tiles.memory"),
        "gpu.us_per_tile.compute": 1e6 * ratio("gpu.sim_s.compute",
                                               "gpu.tiles.compute"),
        # Self times: l1_layout and cadence call stream_uniq themselves.
        "gpu.tilestream.s": sum(get(f"gpu.tilestream.{f}.self_s")
                                for f in tilestream),
        "gpu.tilestream.calls": sum(get(f"gpu.tilestream.{f}.calls")
                                    for f in tilestream),
        "gpu.l1_layout.planned_ratio": ratio(
            "gpu.l1_layout.planned", "gpu.tilestream.l1_layout.calls"),
        "core.scheduler.begin_frame.s": get("core.scheduler.begin_frame.s"),
        "core.scheduler.end_frame.s": get("core.scheduler.end_frame.s"),
        "memory.access_batch.s": get("memory.access_batch.s"),
        "memory.access_batch.calls": get("memory.access_batch.calls"),
        "memory.dram.request_batch.calls": get(
            "memory.dram.request_batch.calls"),
        "experiments.run_sweep.self_s": (
            raw.get("experiments.run_sweep.s", 0.0)
            - raw.get("experiments.execute_point.s", 0.0) - sweep_own) / n,
        "experiments.execute_point.s": get("experiments.execute_point.s"),
        "experiments.store.save.s": get("experiments.store.save.s"),
        "experiments.store.save.calls": get("experiments.store.save.calls"),
        "experiments.speedup_matrix.s": get("experiments.speedup_matrix.s"),
        "telemetry.merged_metrics.s": get("telemetry.merged_metrics.s"),
        "harness.run_pairs.overhead_s": (
            raw.get("harness.run_pairs.s", 0.0)
            - raw.get("harness.run_pairs.elapsed_s", 0.0)) / n,
        "harness.retries": get("harness.retries"),
        "harness.failed": get("harness.failed"),
        "service.client.submit.s": get("service.client.submit.s"),
        "service.client.result.s": get("service.client.result.s"),
        "service.jobs.submit.s": get("service.jobs.submit.s"),
        "service.queue.claim_point.s": get("service.queue.claim_point.s"),
        "service.queue.claim_point.calls": get(
            "service.queue.claim_point.calls"),
        "service.queue.claim_hit_ratio": ratio(
            "service.queue.claim_hits", "service.queue.claim_point.calls"),
        "service.finalize.s": get("service.finalize.s"),
        "service.lease.adoptions": raw.get("service.lease.adoptions", 0.0),
    }
    for key in ("service.wait.claim_s", "service.wait.notify_s",
                "service.scrape.p50_s", "service.scrape.late_s",
                "service.http.requests", "service.http.errors"):
        m[key] = p.extra.get(key, 0.0)
    m["service.http.requests"] /= n
    m["service.http.errors"] /= n
    m.update(layer_shares(p, raw, workload))
    m["latency.samples"] = n
    return m


def layer_shares(p: Pass, raw: Dict[str, float],
                 workload: str) -> Dict[str, float]:
    """Each layer's share of the time users wait for (see README)."""
    total = sum(end - start for start, end in p.windows)
    if workload == "service-jobs":
        # The point children are out of the probes' reach; their own
        # trace streams give the time spent executing points (trace load
        # and simulation).  The rest of run_pairs is fork, supervision
        # and checkpointing; the rest of each job's latency is the
        # service's (HTTP, store, claim, finalize and the poll loops).
        child = p.extra.get("service.point_exec_s", 0.0)
        harness = raw.get("harness.run_pairs.s", 0.0) - child
        shares = {"trace": 0.0, "timing": child / total,
                  "harness": harness / total}
        shares["service"] = 1.0 - shares["timing"] - shares["harness"]
    else:
        shares = {"trace": (raw.get("layer.trace", 0.0)
                            + sum(p.import_s)) / total,
                  "timing": raw.get("layer.timing", 0.0) / total,
                  "harness": raw.get("layer.harness", 0.0) / total,
                  "service": 0.0}
    shares["other"] = 1.0 - sum(shares.values())
    return {f"layer.share.{k}": v for k, v in shares.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no repro sources under {root / 'src'}; run "
              f"from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".layerbench_work" / f"run-{os.getpid()}"
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload](root, work, args.seed)
    try:
        # Wakes once a second; a late wake-up means the host did not give
        # this process a CPU when it asked, noise every timing shares.
        with Ticker() as observer:
            setups = []
            with workload.meter.running():
                for _ in range(SETUPS):
                    begun = time.monotonic()
                    elapsed = workload.setup()
                    setups.append(elapsed / workload.meter.slowdown(
                        begun, time.monotonic()))
            setup_s = statistics.median(setups)
            if args.trace:
                passes = [workload.measure(args.seconds / 2, False),
                          workload.measure(args.seconds / 2, True)]
            else:
                passes = [workload.measure(args.seconds, False)]
            errors, records = workload.checks()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    # Every iteration's simulated results must equal the first's.
    first = passes[0].sims[0] if passes[0].sims else {}
    if not records:
        records = list(first.values())
    for p in passes:
        errors += p.errors
        for i, sims in enumerate(p.sims):
            for key, sim in sims.items():
                if key in first and sim != first[key]:
                    errors.append(f"iteration {i}: {key} differs from the "
                                  f"first iteration")
    speedup = speedup_of(records)
    e2e = [end_to_end(p, setup_s, speedup) for p in passes]
    noise = noise_record(root, observer, load_start, pass_slowdown(passes[0]))

    lat = passes[0].latencies
    quartiles = statistics.quantiles(lat, n=4, method="inclusive") \
        if len(lat) > 1 else lat * 3
    print(f"# {args.workload} seed={args.seed}: {len(lat)} latency samples "
          f"(host p25/p50/p75 {'/'.join(f'{q:.3f}' for q in quartiles)} s, "
          f"host slowdown {pass_slowdown(passes[0]):.3f}), set-ups at the "
          f"reference speed {', '.join(f'{s:.3f}' for s in setups)} s")
    print("# noise " + json.dumps(noise, sort_keys=True))
    # Imported only now: numpy would otherwise count in peak_rss_mb.
    from repro.figures.expectations import (FIG11_PAPER_LIBRA_SPEEDUP,
                                            FIG17_PAPER_LIBRA_SPEEDUP)
    print(f"# model accuracy: libra_speedup {speedup:.4f} on this "
          f"workload's synthetic games; paper suite means "
          f"{FIG11_PAPER_LIBRA_SPEEDUP} (memory-intensive, Fig. 11) and "
          f"{FIG17_PAPER_LIBRA_SPEEDUP} (compute-intensive, Fig. 17).  The "
          f"model is unvalidated against hardware for these games; no "
          f"error figure is claimed.")
    for message in errors:
        print(f"# CHECK FAILED: {message}")

    metrics = dict(e2e[0])
    if args.trace:
        untraced, traced = e2e
        print(f"# tracing overhead: {'metric':<16} untraced    traced")
        for key in ("latency_p50_s", "points_per_s", "sim_tiles_per_s"):
            print(f"#                   {key:<16} {untraced[key]:9.4f} "
                  f"{traced[key]:9.4f}")
        metrics = per_layer(passes[1], args.workload)
        metrics.update(sim_counts(records))
        # The untraced pass as the host ran it, before rescaling.
        metrics["host.slowdown"] = pass_slowdown(passes[0])
        metrics["host.latency_p50_s"] = latency_p50(passes[0], lat)
        metrics["host.points_per_s"] = passes[0].points / passes[0].wall_s
        for key in ("latency_p50_s", "points_per_s"):
            metrics[f"untraced.{key}"] = untraced[key]
            metrics[f"traced.{key}"] = traced[key]
            metrics[f"trace.overhead.{key}"] = traced[key] / untraced[key] - 1
        metrics["noise.observer_late_max_s"] = noise["observer_late_max_s"]
    attempted = sum(p.points for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not errors else 1


def unit_of(key: str) -> str:
    if key == "peak_rss_mb":
        return "MB"
    if "ratio" in key or "share" in key or "trace.overhead" in key \
            or key in ("libra_speedup", "host.slowdown"):
        return "ratio"
    if key.endswith(("points_per_s", "tiles_per_s")):
        return "1/s"
    if key.startswith("sim.cycles"):
        return "cycles"
    if key.endswith(("_s", ".s")):
        return "s"
    if key.startswith("gpu.us_per_tile"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
