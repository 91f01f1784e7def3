"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands:

* ``repro list`` — show the benchmark suite (Table II reconstruction).
* ``repro run --benchmark CCS --config libra --frames 8`` — simulate one
  benchmark under one GPU configuration and print the frame summary.
* ``repro compare --benchmark CCS --frames 8`` — baseline vs PTR vs LIBRA
  side by side.
* ``repro heatmap --benchmark SuS`` — ASCII per-tile DRAM heatmap (Fig. 2).
* ``repro trace tri_overlap --out trace.json`` — run with telemetry on
  and export a Chrome/Perfetto trace (``repro trace --benchmark GDL
  --out traces.jsonl.gz`` keeps the original frame-trace export).
* ``repro suite --benchmarks CCS,GDL --config libra [--workers N]`` —
  supervised sweep (timeouts, retries, graceful degradation, optional
  process-parallel execution; see ``repro.harness.run_suite``).
* ``repro sweep --spec fig18.yaml`` (or inline: ``repro sweep
  --benchmarks tri_overlap --axis raster_units=1,2,4 --axis
  supertile=2,4``) — declarative, resumable parameter-grid sweep with
  per-point crash-safe checkpoints, a speedup-matrix report and
  grid-wide merged telemetry counters (see ``repro.experiments``).
* ``repro perf record [--quick]`` / ``repro perf compare --baseline
  BENCH_1.json`` — record a fingerprinted performance baseline
  (median-of-k wall-clock + key simulated metrics over a curated case
  set) and compare a later run against it with MAD-based noise bands.
  Compare exits 0 when clean, 1 on a regression or simulated-metric
  drift, 2 on usage errors (see ``repro.perf``).
* ``repro report tri_overlap`` (or ``--events run.jsonl``) — run with
  telemetry (or post-process an exported JSONL stream) and emit a
  markdown analysis: DRAM bandwidth burstiness, per-RU load balance,
  FSM decision timeline, cache hit-ratio trends, anomaly flags.
* ``repro figures [--only FIG,...] [--quick] [--out DIR]`` — the
  one-command paper-reproduction pipeline: run the committed figure
  registry through the resumable sweep engine, evaluate every shape
  claim, and write ``figures_manifest.json`` plus a self-contained
  HTML dashboard (``--format md`` regenerates EXPERIMENTS.md instead).
  Exit 0 when every shape claim holds, 1 on any regression, 2 on
  usage errors (see ``repro.figures`` and ``docs/figures.md``).
* ``repro serve [--root DIR] [--host H] [--port P]`` / ``repro worker
  --root DIR`` / ``repro submit --server URL ...`` / ``repro status
  [JOB]`` — the distributed sweep service: a stdlib HTTP API accepting
  experiment specs as jobs, a worker fleet (any number of processes or
  hosts sharing the store directory) executing the grid under
  crash-safe point leases, and client commands that submit, stream
  progress and fetch the aggregated speedup matrix (see
  ``repro.service`` and ``docs/service.md``).
* ``repro fleet [--watch]`` — live service observability: the worker
  health roster (``GET /v1/fleet``) plus per-job progress and ETA,
  optionally as a self-refreshing terminal view; ``repro trace --store
  DIR`` merges a job's correlated per-point telemetry into one
  cross-worker Chrome/Perfetto timeline.

Flag conventions, shared across subcommands: single-target commands
take ``--benchmark``, sweep-style commands take ``--benchmarks`` (comma
list or ``all``); GPU variants are always ``--config KIND`` where KIND
follows the ``repro.config.parse_kind`` grammar (``baseline[N]``,
``ptr``, ``libra``, ``temperature[N]``, ``supertile[N]``);
``--frames/--width/--height`` work both globally and per subcommand,
and ``--workers/--timeout/--retries`` are shared by ``suite`` and
``sweep``.  The historical spellings (``--benchmarks`` on single-target
commands, ``--benchmark`` on sweep commands, ``--kind`` for
``--config``) still parse as hidden aliases that warn once per process.

Diagnostics go through the ``repro`` :mod:`logging` hierarchy; ``-v``
raises the level to INFO, ``-vv`` to DEBUG.

Exit-code contract, uniform across every subcommand (the full table
lives in ``docs/api.md``): **0** success (including a clean
SIGINT/SIGTERM shutdown of ``serve``/``worker``), **1** the work itself
failed — a :class:`~repro.errors.ReproError`, a perf/figures
regression, a sweep with failed points, a service job that ended
``failed``/``cancelled`` under ``submit --wait`` or ``status`` —
reported as a one-line stderr diagnostic, never a traceback, **2**
usage errors: unknown names or flags, an invalid spec or grid, an
unbindable ``serve`` address.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import warnings
from typing import List, Optional

from .config import GPUConfig, parse_kind
from .errors import ConfigValidationError, ReproError
from .gpu import GPUSimulator, RunResult
from .stats import format_table, render_ascii, tile_matrix
from .workloads import (TraceBuilder, benchmark_names,
                        make_scene_builder, micro_benchmark_names,
                        table2_rows)

DEFAULT_WIDTH = 960
DEFAULT_HEIGHT = 512
DEFAULT_TILE = 32

#: Historical tuple of the most common kinds (the full grammar is wider;
#: see :func:`repro.config.parse_kind`).  Kept for import compatibility.
CONFIG_NAMES = ("baseline", "ptr", "libra", "temperature")

logger = logging.getLogger("repro.cli")


class _DynamicStderrHandler(logging.StreamHandler):
    """StreamHandler that resolves ``sys.stderr`` at emit time.

    The stream must not be captured at handler-construction time: test
    harnesses (pytest's capsys) and daemonizing wrappers swap
    ``sys.stderr`` per scope, and a cached reference would write to a
    stale object.
    """

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


class _DiagnosticFormatter(logging.Formatter):
    """``level: message`` with a lowercase level name.

    Keeps the CLI's long-standing one-line diagnostic shape
    (``error: SimulationError: frame 3 of GDL failed``) now that the
    lines are emitted through :mod:`logging`.
    """

    def format(self, record: logging.LogRecord) -> str:
        record.levelname = record.levelname.lower()
        return super().format(record)


_HANDLER = _DynamicStderrHandler()
_HANDLER.setFormatter(_DiagnosticFormatter("%(levelname)s: %(message)s"))


def configure_logging(verbosity: int = 0) -> None:
    """Wire the ``repro`` logger hierarchy to stderr.

    Idempotent; ``verbosity`` counts ``-v`` flags (0 → WARNING,
    1 → INFO, 2+ → DEBUG).  Everything under the ``repro`` logger
    (harness retries, cachefile quarantines, CLI diagnostics) flows
    through one handler.
    """
    root = logging.getLogger("repro")
    if _HANDLER not in root.handlers:
        root.addHandler(_HANDLER)
    if verbosity >= 2:
        root.setLevel(logging.DEBUG)
    elif verbosity == 1:
        root.setLevel(logging.INFO)
    else:
        root.setLevel(logging.WARNING)


#: Option strings whose deprecation warning already fired this process.
_WARNED_ALIASES: set = set()


class _DeprecatedAlias(argparse.Action):
    """A hidden alias option that warns once, then behaves normally.

    Stores into the canonical option's ``dest``; the first use per
    process emits a one-line diagnostic (and a ``DeprecationWarning``
    for programmatic callers), later uses are silent.
    """

    def __init__(self, option_strings, dest, canonical="", **kwargs):
        kwargs.setdefault("help", argparse.SUPPRESS)
        super().__init__(option_strings, dest, **kwargs)
        self.canonical = canonical

    def __call__(self, parser, namespace, values, option_string=None):
        if option_string not in _WARNED_ALIASES:
            _WARNED_ALIASES.add(option_string)
            message = (f"option {option_string} is deprecated and will "
                       f"be removed in 2.0; use {self.canonical}")
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            logger.warning("%s", message)
        setattr(namespace, self.dest, values)


def _kind_arg(value: str) -> str:
    """argparse type for ``--config``: any kind :func:`parse_kind` accepts."""
    try:
        parse_kind(value)
    except ConfigValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _common_parent(frames_default: int = 8) -> argparse.ArgumentParser:
    """Shared ``--frames/--width/--height`` options for every subcommand.

    ``--width/--height`` default to ``SUPPRESS`` so a value given at the
    top level (``repro --width 256 run ...``) survives when the
    subcommand spelling (``repro run --width 256 ...``) is not used.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--frames", type=int, default=frames_default,
                        help="frames to simulate")
    parent.add_argument("--width", type=int, default=argparse.SUPPRESS,
                        help="screen width in pixels")
    parent.add_argument("--height", type=int, default=argparse.SUPPRESS,
                        help="screen height in pixels")
    return parent


def _supervision_parent() -> argparse.ArgumentParser:
    """Shared ``--workers/--timeout/--retries`` for suite and sweep."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = sequential)")
    parent.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock budget, seconds")
    parent.add_argument("--retries", type=int, default=1,
                        help="extra attempts for transient failures")
    return parent


def _add_config_option(parser, default: str = "libra") -> None:
    """The canonical ``--config KIND`` plus its ``--kind`` alias."""
    parser.add_argument(
        "--config", default=default, type=_kind_arg, metavar="KIND",
        help="GPU variant kind: baseline[N], ptr, libra, "
             "temperature[N], supertile[N]")
    parser.add_argument("--kind", dest="config", type=_kind_arg,
                        action=_DeprecatedAlias, canonical="--config",
                        metavar="KIND")


def _add_benchmark_option(parser, choices, required: bool = True) -> None:
    """The canonical ``--benchmark`` plus its ``--benchmarks`` alias."""
    if required:
        group = parser.add_mutually_exclusive_group(required=True)
    else:
        group = parser
    group.add_argument("--benchmark", choices=choices)
    group.add_argument("--benchmarks", dest="benchmark", choices=choices,
                       action=_DeprecatedAlias, canonical="--benchmark")


def _add_benchmarks_option(parser, default: Optional[str] = "all") -> None:
    """The canonical plural ``--benchmarks`` plus ``--benchmark`` alias."""
    parser.add_argument("--benchmarks", default=default,
                        help="comma-separated codes, or 'all'")
    parser.add_argument("--benchmark", dest="benchmarks",
                        action=_DeprecatedAlias, canonical="--benchmarks")


def _build_traces(benchmark: str, frames: int, width: int, height: int):
    builder = make_scene_builder(benchmark, width, height)
    return TraceBuilder(builder, width, height, DEFAULT_TILE).build_many(frames)


def _make_simulator(config_name: str, width: int, height: int) -> GPUSimulator:
    config, scheduler = GPUConfig.build(config_name, screen_width=width,
                                        screen_height=height)
    return GPUSimulator(config, scheduler=scheduler, name=config_name)


def _summarize(result: RunResult) -> List:
    return [result.config_name, result.num_frames, result.total_cycles,
            f"{result.fps:.1f}", f"{result.mean_texture_hit_ratio:.3f}",
            f"{result.mean_texture_latency:.1f}",
            result.raster_dram_accesses,
            f"{result.total_energy_j * 1000:.2f}"]


_SUMMARY_HEADERS = ("config", "frames", "cycles", "fps", "tex hit",
                    "tex lat", "dram", "energy mJ")


def cmd_list(args) -> int:
    """Handle ``repro list``."""
    rows = [[r["name"], r["title"], r["style"],
             "memory" if r["memory_intensive"] else "compute",
             r["textures"], f"{r['texture_mb']:.1f}"]
            for r in table2_rows(args.width, args.height)]
    print(format_table(
        ("code", "title", "style", "class", "textures", "tex MB"), rows,
        title="Benchmark suite (Table II reconstruction)"))
    return 0


def _export_telemetry(path: str, events, metrics) -> int:
    """Write collected telemetry events to ``path``.

    ``.json`` exports Chrome trace-event format (Perfetto-loadable);
    anything else streams one JSON object per event (gzipped when the
    name ends in ``.gz``).  Returns the number of records written.
    """
    from .telemetry import JsonlSink, write_chrome_trace
    if path.endswith(".json"):
        return write_chrome_trace(path, events, metrics=metrics)
    import gzip
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as stream:
        sink = JsonlSink(stream)
        for event in events:
            sink.handle(event)
    return len(events)


def _run_with_telemetry(sim: GPUSimulator, traces, out: Optional[str]):
    """Run ``sim`` with the telemetry hub on; returns (result, snapshot)."""
    from .telemetry import HUB, RecordingSink, telemetry_session
    sink = RecordingSink()
    with telemetry_session(sink):
        result = sim.run(traces)
        snapshot = HUB.metrics.snapshot()
    if out:
        count = _export_telemetry(out, sink.events, snapshot)
        print(f"wrote {count} telemetry records to {out}")
    return result, snapshot


def _format_metrics(snapshot: dict) -> str:
    rows = [[name, f"{value:g}"] for name, value in sorted(snapshot.items())]
    return format_table(("metric", "value"), rows,
                        title="Telemetry metrics snapshot")


def cmd_run(args) -> int:
    """Handle ``repro run``."""
    traces = _build_traces(args.benchmark, args.frames, args.width,
                           args.height)
    sim = _make_simulator(args.config, args.width, args.height)
    snapshot = None
    if args.telemetry or args.telemetry_out:
        result, snapshot = _run_with_telemetry(sim, traces,
                                               args.telemetry_out)
    else:
        result = sim.run(traces)
    print(format_table(_SUMMARY_HEADERS, [_summarize(result)],
                       title=f"{args.benchmark} on {args.config}"))
    rows = [[f.frame_index, f.geometry_cycles, f.raster_cycles, f.order,
             f.supertile_size, f"{f.texture_hit_ratio:.3f}",
             f.raster_dram_accesses] for f in result.frames]
    print()
    print(format_table(("frame", "geom cyc", "raster cyc", "order",
                        "supertile", "tex hit", "dram"), rows))
    if snapshot is not None:
        print()
        print(_format_metrics(snapshot))
    return 0


def cmd_compare(args) -> int:
    """Handle ``repro compare`` (through the :mod:`repro.api` façade,
    so a compare row equals the sweep point with the same settings)."""
    from .api import compare
    report = compare(args.benchmark, kinds=("baseline", "ptr", "libra"),
                     frames=args.frames, width=args.width,
                     height=args.height)
    print(report.format())
    return 0


def _trace_fleet(args) -> int:
    """``repro trace --store DIR``: merge a service job's per-point
    streams + progress log into one cross-worker Chrome timeline."""
    from pathlib import Path

    from .telemetry import write_fleet_trace
    root = Path(args.store)
    jobs_dir = root / "jobs"
    if jobs_dir.is_dir():
        ids = sorted(p.name for p in jobs_dir.iterdir()
                     if (p / "job.json").exists())
        if args.job:
            if args.job not in ids:
                logger.error("unknown job %r; store has: %s", args.job,
                             ", ".join(ids) or "none")
                return 2
            job_dir = jobs_dir / args.job
        elif len(ids) == 1:
            job_dir = jobs_dir / ids[0]
        else:
            logger.error("store has %d jobs; pick one with --job "
                         "(%s)", len(ids), ", ".join(ids) or "none")
            return 2
    elif (root / "events.jsonl").exists() or (root / "traces").is_dir():
        job_dir = root  # a job directory given directly
    else:
        logger.error("%s is neither a service root nor a job "
                     "directory", root)
        return 2
    out = args.out if args.out != "traces.jsonl.gz" else "fleet_trace.json"
    count = write_fleet_trace(out, job_dir)
    print(f"wrote {count} merged fleet trace events for job "
          f"{job_dir.name} to {out}")
    return 0


def cmd_trace(args) -> int:
    """Handle ``repro trace``.

    Three export modes:

    * ``--store DIR`` — no simulation: merge a sweep-service job's
      correlated per-point telemetry streams into one Chrome/Perfetto
      timeline with a process track per worker (fleet-wide load
      imbalance, the way per-RU tracks show per-simulation imbalance).
    * ``--format chrome`` (or ``auto`` with a ``.json`` output name) —
      simulate the benchmark with telemetry enabled and write a Chrome
      trace-event file (one process row per Raster Unit, FSM
      transitions as instants, DRAM bandwidth as a counter track).
    * ``--format frames`` — the original workload export: serialized
      :class:`~repro.gpu.workload.FrameTrace` objects as JSON lines.
    """
    if args.store:
        return _trace_fleet(args)
    benchmark = args.benchmark_pos or args.benchmark
    if benchmark is None:
        logger.error("trace needs a benchmark (positional or --benchmark)")
        return 2
    fmt = args.format
    if fmt == "auto":
        fmt = "chrome" if args.out.endswith(".json") else "frames"
    traces = _build_traces(benchmark, args.frames, args.width, args.height)
    if fmt == "frames":
        from .workloads import save_traces
        save_traces(traces, args.out)
        total_lines = sum(t.total_texture_lines() for t in traces)
        print(f"wrote {len(traces)} frame traces of {benchmark} to "
              f"{args.out} ({total_lines:,} texture lines total)")
        return 0
    from .telemetry import HUB, RecordingSink, telemetry_session
    from .telemetry import write_chrome_trace
    sim = _make_simulator(args.config, args.width, args.height)
    sink = RecordingSink()
    with telemetry_session(sink):
        result = sim.run(traces)
        snapshot = HUB.metrics.snapshot()
    count = write_chrome_trace(args.out, sink.events, metrics=snapshot)
    print(f"wrote {count} Chrome trace events for {benchmark} on "
          f"{args.config} ({result.num_frames} frames, "
          f"{result.total_cycles:,} cycles) to {args.out}")
    return 0


def cmd_suite(args) -> int:
    """Handle ``repro suite`` (the supervised sweep)."""
    from . import harness
    names = ([n.strip() for n in args.benchmarks.split(",") if n.strip()]
             if args.benchmarks != "all" else benchmark_names())
    valid = benchmark_names()
    if not names:
        logger.error("no benchmarks given; valid: %s", ", ".join(valid))
        return 2
    unknown = [n for n in names if n not in valid]
    if unknown:
        logger.error("unknown benchmark(s) %s; valid: %s",
                     ", ".join(unknown), ", ".join(valid))
        return 2
    if args.workers < 1:
        logger.error("--workers must be >= 1")
        return 2
    sink = None
    if args.telemetry or args.telemetry_out:
        from .telemetry import HUB, RecordingSink
        HUB.metrics.reset()
        sink = RecordingSink()
        HUB.enable(sink)
    try:
        report = harness.run_suite(
            names, kinds=(args.config,), frames=args.frames,
            timeout_s=args.timeout, max_attempts=args.retries + 1,
            workers=args.workers)
    finally:
        if sink is not None:
            from .telemetry import HUB
            HUB.disable()
    print(report.format())
    if sink is not None and args.telemetry_out:
        count = _export_telemetry(args.telemetry_out, sink.events,
                                  report.metrics)
        print(f"wrote {count} telemetry records to {args.telemetry_out}")
    return 0 if not report.failed else 1


def _resolve_spec(args, command: str):
    """The sweep/submit grid: ``--spec file`` or the inline options.

    Shared by ``repro sweep`` and ``repro submit`` so the inline grammar
    (``--benchmarks/--kinds/--axis/--baseline``) means exactly the same
    grid whichever path executes it.  Raises
    :class:`ConfigValidationError` for an unusable grid (callers map it
    to exit status 2 — a usage error, not a run failure).
    """
    from .experiments import ExperimentSpec, parse_axis_option
    if args.spec:
        spec = ExperimentSpec.from_file(args.spec)
    else:
        if not args.benchmarks:
            raise ConfigValidationError(
                f"{command} needs --spec or --benchmarks")
        names = (benchmark_names() if args.benchmarks == "all"
                 else [n.strip() for n in args.benchmarks.split(",")
                       if n.strip()])
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        axes = dict(parse_axis_option(a) for a in (args.axis or []))
        spec = ExperimentSpec(
            name=args.name, benchmarks=names, kinds=kinds, axes=axes,
            frames=args.frames, width=args.width, height=args.height,
            baseline_kind=args.baseline or (kinds[0] if kinds else ""))
    spec.validate()
    return spec


def cmd_sweep(args) -> int:
    """Handle ``repro sweep`` (the declarative, resumable grid sweep).

    The grid comes from ``--spec file.yaml`` or is assembled inline from
    ``--benchmarks/--kinds/--axis``.  Completed points are checkpointed
    per point under ``--out`` (default ``.repro_sweeps/<name>``); a
    rerun with the same grid resumes, skipping them.  Prints the
    per-point report, the speedup-vs-baseline matrix and the per-axis
    marginals.  Exit status: 2 for an unusable spec, 1 when any point
    failed or was quarantined by the circuit breaker, else 0.

    ``--chaos SEED`` runs the sweep under the deterministic fault
    harness (:mod:`repro.chaos`): seeded worker crashes, hangs, slow
    starts and cache faults are injected underneath the supervision
    layer, which must absorb them — the run terminates, and every
    non-quarantined point converges to the fault-free result.
    """
    from . import chaos
    from .experiments import run_sweep, speedup_matrix
    try:
        spec = _resolve_spec(args, command="sweep")
    except ConfigValidationError as exc:
        logger.error("%s", exc)
        return 2
    chaos_seed = getattr(args, "chaos", None)
    if chaos_seed is not None:
        faults = None
        if getattr(args, "chaos_faults", None):
            faults = tuple(f.strip()
                           for f in args.chaos_faults.split(",")
                           if f.strip())
            bad = [f for f in faults if f not in chaos.ALL_FAULTS]
            if bad:
                logger.error("unknown chaos fault(s) %s; valid: %s",
                             ", ".join(bad), ", ".join(chaos.ALL_FAULTS))
                return 2
        chaos_ctx = chaos.session(
            chaos_seed, faults=faults,
            curse=getattr(args, "chaos_curse", None) or "")
    else:
        chaos_ctx = contextlib.nullcontext()
    with chaos_ctx:
        result = run_sweep(spec, store_root=args.out,
                           workers=args.workers, timeout_s=args.timeout,
                           retries=args.retries,
                           point_telemetry=not args.no_point_telemetry)
    print(result.format())
    print()
    matrix = speedup_matrix(result)
    print(matrix.format())
    if matrix.axis_names:
        print()
        print(matrix.format_marginals())
    telemetry_table = matrix.format_telemetry()
    if telemetry_table:
        print()
        print(telemetry_table)
    return 1 if (result.failed or result.tripped) else 0


def _graceful_stop_signals(on_stop):
    """Route SIGINT/SIGTERM into ``on_stop`` (service exit-code 0 path).

    A service process asked to stop is a *success*, not an error: both
    signals trigger a clean drain instead of KeyboardInterrupt or
    sudden death, so supervisors (systemd, CI) see exit status 0.
    Returns the previous handlers for restoration.
    """
    import signal
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: on_stop())
    return previous


def cmd_serve(args) -> int:
    """Handle ``repro serve`` (the sweep-service HTTP API).

    Binds first, prints the resolved address (``--port 0`` picks a free
    port), then blocks in the request loop until SIGINT/SIGTERM — which
    exit 0.  A socket that cannot be bound (port in use, bad host) is a
    usage error: exit 2.
    """
    import threading

    from .service.server import create_server
    try:
        server = create_server(args.root, args.host, args.port)
    except OSError as exc:
        logger.error("cannot bind %s:%s: %s", args.host, args.port, exc)
        return 2
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(store root {args.root})", flush=True)

    def _stop():
        # shutdown() blocks until the loop exits, so it must run off
        # the main thread the loop occupies.
        threading.Thread(target=server.shutdown, daemon=True).start()

    _graceful_stop_signals(_stop)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    print("repro serve: shut down cleanly")
    return 0


def cmd_worker(args) -> int:
    """Handle ``repro worker`` (one member of the sweep-worker fleet).

    Drains the shared job store at ``--root`` until stopped
    (SIGINT/SIGTERM → finish the in-flight point, release the lease,
    exit 0), ``--once`` finds no work, ``--max-points`` is reached, or
    ``--idle-exit`` seconds pass without work.
    """
    import threading

    from .service import run_worker
    if args.poll <= 0 or args.lease_ttl <= 0:
        logger.error("--poll and --lease-ttl must be > 0")
        return 2
    if args.max_points is not None and args.max_points < 1:
        logger.error("--max-points must be >= 1")
        return 2
    stop = threading.Event()
    _graceful_stop_signals(stop.set)
    executed = run_worker(
        args.root, worker_id=args.id, poll_s=args.poll,
        lease_ttl_s=args.lease_ttl, idle_exit_s=args.idle_exit,
        max_points=args.max_points, once=args.once, stop=stop)
    print(f"repro worker: executed {executed} point(s)")
    return 0


def _format_eta(seconds) -> str:
    """A compact human ETA (``—`` while no throughput is established)."""
    if seconds is None:
        return "—"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _format_progress(progress) -> str:
    """One-line progress summary from a job's ``progress`` payload."""
    if not progress:
        return ""
    return (f"{progress.get('percent', 0.0):.1f}% done, "
            f"{progress.get('points_per_s', 0.0):.2f} pt/s, "
            f"ETA {_format_eta(progress.get('eta_s'))}")


def _print_job(record, points=None, progress=None) -> None:
    line = (f"job {record.job_id}: {record.state}  "
            f"({record.total_points} points")
    if points:
        line += (f": {points.get('completed', 0)} done, "
                 f"{points.get('failed', 0)} failed, "
                 f"{points.get('leased', 0)} leased, "
                 f"{points.get('pending', 0)} pending")
    line += ")"
    if progress:
        line += f"  [{_format_progress(progress)}]"
    if record.error:
        line += f"  error: {record.error}"
    print(line, flush=True)


def _render_fleet(client, stale_after=None) -> str:
    """The ``repro fleet`` view: worker roster + active-job progress."""
    lines = []
    fleet = client.fleet(stale_after_s=stale_after)
    workers = fleet.get("workers", [])
    if workers:
        rows = [[w.get("worker_id", "?"),
                 "stale" if w.get("stale") else w.get("state", "?"),
                 w.get("job_id") or "-",
                 w.get("point_id") or "-",
                 w.get("points_completed", 0),
                 w.get("points_failed", 0),
                 f"{w.get('points_per_s', 0.0):.2f}",
                 f"{w.get('age_s', 0.0):.0f}s"] for w in workers]
        lines.append(format_table(
            ("worker", "state", "job", "point", "done", "failed",
             "pt/s", "age"), rows,
            title=(f"fleet: {fleet.get('live', 0)} live, "
                   f"{fleet.get('stale', 0)} stale")))
    else:
        lines.append("no workers reporting")
    active = [r for r in client.jobs()
              if r.state in ("queued", "running")]
    lines.append("")
    if not active:
        lines.append("no active jobs")
    for record in active:
        status = client.status(record.job_id)
        points = getattr(status, "points", {}) or {}
        progress = getattr(status, "progress", {}) or {}
        line = f"job {record.job_id}: {status.state}"
        if points:
            line += (f"  {points.get('completed', 0)}/"
                     f"{points.get('total', 0)} done, "
                     f"{points.get('leased', 0)} leased, "
                     f"{points.get('pending', 0)} pending")
        if progress:
            line += f"  [{_format_progress(progress)}]"
        lines.append(line)
    return "\n".join(lines)


def cmd_fleet(args) -> int:
    """Handle ``repro fleet`` (live worker/job view of a service).

    One-shot by default; ``--watch`` refreshes every ``--interval``
    seconds until interrupted (Ctrl-C exits 0 — stopping a monitor is
    success, not failure).
    """
    import time as _time

    from .service import SweepClient
    client = SweepClient(args.server)
    if not args.watch:
        print(_render_fleet(client, stale_after=args.stale_after))
        return 0
    try:
        while True:
            view = _render_fleet(client, stale_after=args.stale_after)
            if sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(view, flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _follow_events(client, job_id: str, timeout_s: float) -> None:
    """Stream a job's progress events to stdout until it finishes."""
    for event in client.events(job_id, follow=True, timeout_s=timeout_s):
        kind = event.get("event", "?")
        detail = " ".join(
            f"{key}={event[key]}" for key in
            ("point_id", "owner", "cycles", "error_type", "error",
             "previous_owner", "counts")
            if event.get(key) not in (None, "", {}))
        print(f"  [{kind}] {detail}".rstrip(), flush=True)


def cmd_submit(args) -> int:
    """Handle ``repro submit`` (send a grid to a running service).

    The grid grammar is exactly ``repro sweep``'s (``--spec`` or the
    inline options).  Exit status: 2 for an unusable grid, 1 when the
    server rejects it / is unreachable or — with ``--wait``/
    ``--follow`` — the job ends ``failed``/``cancelled``, else 0.
    """
    from .service import SweepClient
    try:
        spec = _resolve_spec(args, command="submit")
    except ConfigValidationError as exc:
        logger.error("%s", exc)
        return 2
    client = SweepClient(args.server)
    record = client.submit(spec,
                           point_telemetry=not args.no_point_telemetry)
    _print_job(record)
    if not (args.wait or args.follow):
        return 0
    if args.follow:
        _follow_events(client, record.job_id, timeout_s=args.wait_timeout)
    record = client.wait(record.job_id, timeout_s=args.wait_timeout)
    _print_job(record)
    if record.state == "done":
        print()
        print(client.result(record.job_id).format())
        return 0
    return 1


def cmd_status(args) -> int:
    """Handle ``repro status`` (poll a job, or list every job).

    ``repro status JOB`` prints one job (``--follow`` streams its
    events until it finishes; ``--result`` prints the matrix of a
    finished job).  Without a job id, lists everything the server
    knows.  Exit status: 1 when the inspected job is ``failed`` or
    ``cancelled`` (so CI can gate on it), else 0.
    """
    from .service import SweepClient
    client = SweepClient(args.server)
    if not args.job:
        records = client.jobs()
        if not records:
            print("no jobs")
            return 0
        rows = [[r.job_id, r.state, r.total_points,
                 r.error or ""] for r in records]
        print(format_table(("job", "state", "points", "error"), rows,
                           title=f"jobs at {args.server}"))
        return 0
    record = client.status(args.job)
    _print_job(record, points=getattr(record, "points", None),
               progress=getattr(record, "progress", None))
    if args.watch and not record.terminal:
        import time as _time
        try:
            while not record.terminal:
                _time.sleep(args.interval)
                record = client.status(args.job)
                _print_job(record,
                           points=getattr(record, "points", None),
                           progress=getattr(record, "progress", None))
        except KeyboardInterrupt:
            return 0
    if args.follow and not record.terminal:
        _follow_events(client, record.job_id,
                       timeout_s=args.wait_timeout)
        record = client.wait(record.job_id,
                             timeout_s=args.wait_timeout)
        _print_job(record)
    if args.result and record.state in ("done", "failed"):
        print()
        print(client.result(record.job_id).format())
    return 1 if record.state in ("failed", "cancelled") else 0


def cmd_perf(args) -> int:
    """Handle ``repro perf record`` / ``repro perf compare``.

    ``record`` runs the curated case set (``--quick`` for the CI-sized
    subset), taking the median of ``--repeat`` timed runs per case, and
    writes a fingerprinted baseline to ``--out`` (default: the next
    free ``BENCH_<n>.json`` in the working directory).  ``compare``
    loads ``--baseline``, obtains a current record (``--current`` file,
    or a fresh measurement of the baseline's cases), and applies the
    MAD noise bands.  Exit status: 0 within bands, 1 on any regression
    / metric drift / missing case, 2 for usage errors.
    """
    from . import perf
    if args.repeat < 1:
        logger.error("--repeat must be >= 1")
        return 2
    progress = (lambda msg: print(f"  {msg}", file=sys.stderr))
    if args.perf_command == "record":
        cases = perf.QUICK_CASES if args.quick else perf.DEFAULT_CASES
        baseline = perf.record_baseline(cases=cases, repeat=args.repeat,
                                        progress=progress)
        path = perf.write_baseline(baseline,
                                   args.out or perf.next_bench_path())
        print(f"wrote perf baseline ({len(baseline.cases)} cases, "
              f"median of {args.repeat}) to {path}")
        return 0
    baseline = perf.load_baseline(args.baseline)
    if args.quick:
        quick_ids = {c.case_id for c in perf.QUICK_CASES}
        baseline.cases = {cid: c for cid, c in baseline.cases.items()
                          if cid in quick_ids}
        if not baseline.cases:
            logger.error("baseline %s has no quick cases", args.baseline)
            return 2
    if args.current:
        current = perf.load_baseline(args.current)
    else:
        cases = [c for c in perf.DEFAULT_CASES
                 if c.case_id in baseline.cases]
        if not cases:
            logger.error("baseline %s shares no case ids with the "
                         "current curated set; pass --current",
                         args.baseline)
            return 2
        current = perf.record_baseline(cases=cases, repeat=args.repeat,
                                       progress=progress)
    report = perf.compare_baselines(
        current, baseline, wall_threshold_pct=args.wall_threshold_pct,
        mad_factor=args.mad_factor, check_metrics=not args.no_metrics)
    print(report.format())
    return report.exit_code


def cmd_report(args) -> int:
    """Handle ``repro report`` (the telemetry analysis report).

    Either simulates the given benchmark with telemetry on, or — with
    ``--events`` — post-processes a JSONL stream a previous run
    exported via ``--telemetry-out``, so the expensive simulation and
    the analysis can live in different processes.
    """
    from .perf import build_report
    if args.events:
        from .telemetry import load_jsonl_events
        events = load_jsonl_events(args.events)
        metrics = None
        title = f"Telemetry analysis of {args.events}"
    else:
        benchmark = args.benchmark_pos or args.benchmark
        if benchmark is None:
            logger.error(
                "report needs a benchmark (positional or --benchmark) "
                "or --events PATH")
            return 2
        from .telemetry import HUB, RecordingSink, telemetry_session
        traces = _build_traces(benchmark, args.frames, args.width,
                               args.height)
        sim = _make_simulator(args.config, args.width, args.height)
        sink = RecordingSink()
        with telemetry_session(sink):
            sim.run(traces)
            metrics = HUB.metrics.snapshot()
        events = sink.events
        title = (f"{benchmark} on {args.config} "
                 f"({args.frames} frames, {args.width}x{args.height})")
    markdown = build_report(events, metrics=metrics, title=title)
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(markdown)
        print(f"wrote analysis report to {args.out}")
    else:
        print(markdown)
    return 0


def _split_csv(chunks: List[str]) -> List[str]:
    out: List[str] = []
    for chunk in chunks or []:
        out += [item.strip() for item in chunk.split(",")
                if item.strip()]
    return out


def cmd_figures(args) -> int:
    """Handle ``repro figures`` (the paper-reproduction pipeline).

    Exit contract: 0 every selected figure's shape claims hold, 1 any
    regression (or partial/error figure), 2 usage (unknown figure id).
    The manifest is always written, whatever the verdicts — CI wants
    the evidence most when the gate fails.
    """
    import json
    from pathlib import Path

    from .figures import (figure_registry, record_perf_analysis,
                          render_dashboard, render_experiments_md,
                          run_figures)
    only = _split_csv(args.only)
    seeded = _split_csv(args.seed_regression)
    known = list(figure_registry(quick=args.quick))
    unknown = [fid for fid in only + seeded if fid not in known]
    if unknown:
        logger.error("unknown figure id(s): %s (known: %s)",
                     ", ".join(sorted(set(unknown))), ", ".join(known))
        return 2
    report = run_figures(
        only=only or None, quick=args.quick, store_root=args.store,
        workers=args.workers, timeout_s=args.timeout,
        retries=args.retries, seed_regression=seeded or None)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "figures_manifest.json"
    manifest_path.write_text(
        json.dumps(report.to_manifest(), indent=2, sort_keys=True)
        + "\n")
    written = [manifest_path]
    if args.fmt in ("html", "both"):
        perf_md = None
        if any(f.fid == "fig7" for f in report.figures):
            perf_md = record_perf_analysis(quick=args.quick)
        html_path = out / "figures_dashboard.html"
        html_path.write_text(render_dashboard(report,
                                              perf_markdown=perf_md))
        written.append(html_path)
    if args.fmt in ("md", "both"):
        md_path = out / "EXPERIMENTS.md"
        md_path.write_text(render_experiments_md(report))
        written.append(md_path)

    badge = {"pass": "PASS", "fail": "FAIL", "partial": "PARTIAL",
             "error": "ERROR"}
    for outcome in report.figures:
        held = sum(1 for e in outcome.expectations if e.passed)
        print(f"{outcome.fid:<8} {badge.get(outcome.status, '?'):<8} "
              f"{held}/{len(outcome.expectations)} claims  "
              f"{outcome.title}")
    executed = sum(len(r.completed) - len(r.resumed)
                   for r in report.sweeps.values())
    resumed = sum(len(r.resumed) for r in report.sweeps.values())
    print(f"figures: {len(report.passed)}/{len(report.figures)} pass "
          f"({executed} points executed, {resumed} resumed)")
    for path in written:
        print(f"wrote {path}")
    return report.exit_code


def cmd_heatmap(args) -> int:
    """Handle ``repro heatmap``."""
    traces = _build_traces(args.benchmark, 2, args.width, args.height)
    sim = _make_simulator("baseline", args.width, args.height)
    result = sim.run(traces)
    frame = result.frames[-1]
    matrix = tile_matrix(frame.per_tile_dram, traces[0].tiles_x,
                         traces[0].tiles_y)
    print(f"Per-tile DRAM accesses, {args.benchmark} frame "
          f"{frame.frame_index} (darkest = hottest):")
    print(render_ascii(matrix))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LIBRA parallel tile rendering — simulator CLI")
    parser.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    parser.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: INFO diagnostics, -vv: DEBUG")
    sub = parser.add_subparsers(dest="command", required=True)
    all_names = benchmark_names() + micro_benchmark_names()

    sub.add_parser("list", help="show the benchmark suite")

    run = sub.add_parser("run", help="simulate one benchmark",
                         parents=[_common_parent(frames_default=8)])
    _add_benchmark_option(run, all_names, required=True)
    _add_config_option(run)
    run.add_argument("--telemetry", action="store_true",
                     help="collect telemetry metrics and print a "
                          "snapshot table")
    run.add_argument("--telemetry-out", default=None, metavar="PATH",
                     help="also export the telemetry events (.json = "
                          "Chrome trace, otherwise JSONL)")

    compare = sub.add_parser("compare",
                             help="baseline vs PTR vs LIBRA side by side",
                             parents=[_common_parent(frames_default=8)])
    _add_benchmark_option(compare, all_names, required=True)

    heatmap = sub.add_parser("heatmap", help="per-tile DRAM heatmap",
                             parents=[_common_parent(frames_default=2)])
    _add_benchmark_option(heatmap, benchmark_names(), required=True)

    trace = sub.add_parser(
        "trace", help="export frame traces (JSONL) or a Chrome/Perfetto "
                      "telemetry trace",
        parents=[_common_parent(frames_default=4)])
    trace.add_argument("benchmark_pos", nargs="?", default=None,
                       metavar="benchmark", choices=all_names,
                       help="benchmark code (alternative to --benchmark)")
    _add_benchmark_option(trace, all_names, required=False)
    _add_config_option(trace)
    trace.add_argument("--format", default="auto",
                       choices=("auto", "chrome", "frames"),
                       help="auto: .json out = chrome trace, otherwise "
                            "frame-trace JSONL")
    trace.add_argument("--out", default="traces.jsonl.gz")
    trace.add_argument("--store", default=None, metavar="DIR",
                       help="merge a sweep-service store's correlated "
                            "per-point streams into one cross-worker "
                            "timeline instead of simulating (DIR is "
                            "the service root or one job directory)")
    trace.add_argument("--job", default=None, metavar="ID",
                       help="with --store on a service root: which job "
                            "to merge (optional when there is exactly "
                            "one)")

    suite = sub.add_parser(
        "suite", help="supervised sweep (timeouts, retries, partial "
                      "results on failure)",
        parents=[_common_parent(frames_default=8), _supervision_parent()])
    _add_benchmarks_option(suite, default="all")
    _add_config_option(suite)
    suite.add_argument("--telemetry", action="store_true",
                       help="collect telemetry during the sweep and "
                            "attach the metrics snapshot to the report")
    suite.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="export harness telemetry events (.json = "
                            "Chrome trace, otherwise JSONL)")

    sweep = sub.add_parser(
        "sweep", help="declarative, resumable parameter-grid sweep "
                      "with per-point checkpoints and a speedup matrix",
        parents=[_common_parent(frames_default=8), _supervision_parent()])
    sweep.add_argument("--spec", default=None, metavar="PATH",
                       help="experiment spec file (.yaml/.yml/.json); "
                            "overrides the inline grid options")
    sweep.add_argument("--name", default="adhoc",
                       help="sweep name for the inline grid (names the "
                            "default artifact directory)")
    _add_benchmarks_option(sweep, default=None)
    sweep.add_argument("--kinds", default="baseline,libra",
                       help="comma-separated config kinds to compare")
    sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                       help="one sweep axis (repeatable): an alias like "
                            "supertile/dram_bandwidth, raster_units/"
                            "cores_per_unit, or a dotted GPUConfig path")
    sweep.add_argument("--baseline", default=None, metavar="KIND",
                       help="kind speedups are normalized against "
                            "(default: first of --kinds)")
    sweep.add_argument("--out", default=None, metavar="DIR",
                       help="artifact-store directory (default "
                            ".repro_sweeps/<name>); rerunning with the "
                            "same grid resumes it")
    sweep.add_argument("--no-point-telemetry", action="store_true",
                       help="skip per-point metrics collection (no "
                            "merged telemetry in the report)")
    sweep.add_argument("--chaos", default=None, type=int, metavar="SEED",
                       help="run under the deterministic chaos harness: "
                            "inject seeded worker crashes/hangs and "
                            "cache faults (forces the supervised "
                            "backend; results must still converge)")
    sweep.add_argument("--chaos-faults", default=None, metavar="F1,F2",
                       help="restrict injected faults (subset of: "
                            "crash, crash_late, hang, slow, corrupt, "
                            "enospc; default all)")
    sweep.add_argument("--chaos-curse", default=None, metavar="SUBSTR",
                       help="point ids containing SUBSTR fail on every "
                            "attempt — must trip the circuit breaker")

    serve = sub.add_parser(
        "serve", help="sweep-service HTTP API: accept job submissions, "
                      "serve status/events/results to many clients")
    serve.add_argument("--root", default=".repro_service", metavar="DIR",
                       help="job-store directory shared with the "
                            "workers (default .repro_service)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use "
                            "0.0.0.0 for a multi-host fleet)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port (default 8023; 0 picks a free "
                            "port and prints it)")

    worker = sub.add_parser(
        "worker", help="sweep-service worker: claim queued points from "
                       "the shared store and execute them")
    worker.add_argument("--root", default=".repro_service", metavar="DIR",
                        help="job-store directory shared with the "
                             "server (default .repro_service)")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker id recorded in leases/events "
                             "(default <hostname>-<pid>)")
    worker.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="longest idle wait between scans of the "
                             "store; a submit on this host wakes the "
                             "worker at once")
    worker.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="S",
                        help="lease freshness window; a lease not "
                             "renewed for this long is adopted by "
                             "another worker")
    worker.add_argument("--idle-exit", type=float, default=None,
                        metavar="S",
                        help="exit after this many seconds without "
                             "finding work (default: run forever)")
    worker.add_argument("--max-points", type=int, default=None,
                        metavar="N",
                        help="exit after executing N points")
    worker.add_argument("--once", action="store_true",
                        help="drain the currently queued work, then "
                             "exit instead of polling")

    submit = sub.add_parser(
        "submit", help="submit a sweep grid to a running service "
                       "(same --spec/inline grammar as sweep)",
        parents=[_common_parent(frames_default=8)])
    submit.add_argument("--server", default="http://127.0.0.1:8023",
                        metavar="URL",
                        help="service base URL (default "
                             "http://127.0.0.1:8023)")
    submit.add_argument("--spec", default=None, metavar="PATH",
                        help="experiment spec file (.yaml/.yml/.json); "
                             "overrides the inline grid options")
    submit.add_argument("--name", default="adhoc",
                        help="sweep name for the inline grid (part of "
                             "the content-addressed job id)")
    _add_benchmarks_option(submit, default=None)
    submit.add_argument("--kinds", default="baseline,libra",
                        help="comma-separated config kinds to compare")
    submit.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                        help="one sweep axis (repeatable), exactly as "
                             "for repro sweep")
    submit.add_argument("--baseline", default=None, metavar="KIND",
                        help="kind speedups are normalized against "
                             "(default: first of --kinds)")
    submit.add_argument("--no-point-telemetry", action="store_true",
                        help="workers skip per-point metrics collection")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print "
                             "the speedup matrix (exit 1 if it failed)")
    submit.add_argument("--follow", action="store_true",
                        help="stream progress events while waiting "
                             "(implies --wait)")
    submit.add_argument("--wait-timeout", type=float, default=3600.0,
                        metavar="S",
                        help="give up waiting/following after this "
                             "many seconds")

    status = sub.add_parser(
        "status", help="inspect a service job (or list all jobs)")
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list every job)")
    status.add_argument("--server", default="http://127.0.0.1:8023",
                        metavar="URL",
                        help="service base URL (default "
                             "http://127.0.0.1:8023)")
    status.add_argument("--follow", action="store_true",
                        help="stream the job's events until it "
                             "finishes")
    status.add_argument("--watch", action="store_true",
                        help="re-print the job line (with progress "
                             "and ETA) every --interval seconds until "
                             "it finishes")
    status.add_argument("--interval", type=float, default=2.0,
                        metavar="S",
                        help="refresh cadence for --watch (default 2)")
    status.add_argument("--result", action="store_true",
                        help="print the speedup matrix of a finished "
                             "job")
    status.add_argument("--wait-timeout", type=float, default=3600.0,
                        metavar="S",
                        help="give up following after this many "
                             "seconds")

    fleet = sub.add_parser(
        "fleet", help="live service observability: worker health "
                      "roster plus per-job progress and ETA")
    fleet.add_argument("--server", default="http://127.0.0.1:8023",
                       metavar="URL",
                       help="service base URL (default "
                            "http://127.0.0.1:8023)")
    fleet.add_argument("--watch", action="store_true",
                       help="refresh the view every --interval seconds "
                            "until interrupted (Ctrl-C exits 0)")
    fleet.add_argument("--interval", type=float, default=2.0,
                       metavar="S",
                       help="refresh cadence for --watch (default 2)")
    fleet.add_argument("--stale-after", type=float, default=None,
                       metavar="S",
                       help="flag workers whose status file is older "
                            "than this (default: the server's lease "
                            "TTL convention, 30s)")

    perf = sub.add_parser(
        "perf", help="performance baselines: record a fingerprinted "
                     "BENCH_<n>.json, compare with noise bands")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    record = perf_sub.add_parser(
        "record", help="measure the curated case set and write a "
                       "baseline file")
    record.add_argument("--out", default=None, metavar="PATH",
                        help="baseline file (default: next free "
                             "BENCH_<n>.json in the working directory)")
    record.add_argument("--repeat", type=int, default=3,
                        help="timed runs per case (median is kept)")
    record.add_argument("--quick", action="store_true",
                        help="CI-sized case subset (seconds, not "
                             "minutes)")
    pcompare = perf_sub.add_parser(
        "compare", help="compare a current record against a baseline "
                        "(exit 0 ok / 1 regression / 2 usage)")
    pcompare.add_argument("--baseline", required=True, metavar="PATH",
                          help="recorded BENCH_<n>.json to compare "
                               "against")
    pcompare.add_argument("--current", default=None, metavar="PATH",
                          help="current record (default: measure the "
                               "baseline's cases afresh)")
    pcompare.add_argument("--repeat", type=int, default=3,
                          help="timed runs per case when measuring "
                               "afresh")
    pcompare.add_argument("--wall-threshold-pct", type=float,
                          default=10.0, metavar="PCT",
                          help="relative wall-clock noise band")
    pcompare.add_argument("--mad-factor", type=float, default=3.0,
                          help="noise band is max(PCT, this many "
                               "baseline MADs)")
    pcompare.add_argument("--no-metrics", action="store_true",
                          help="skip the simulated-metric drift check")
    pcompare.add_argument("--quick", action="store_true",
                          help="compare only the quick case subset of "
                               "the baseline (so a --quick record can "
                               "be gated against a full baseline)")

    figures = sub.add_parser(
        "figures", help="one-command paper reproduction: run the "
                        "figure registry through resumable sweeps, "
                        "check every shape claim, render the dashboard",
        parents=[_supervision_parent()])
    figures.add_argument("--only", action="append", default=[],
                         metavar="FIG[,FIG...]",
                         help="restrict to these figure ids "
                              "(repeatable or comma-separated; "
                              "e.g. fig1,table2)")
    figures.add_argument("--quick", action="store_true",
                         help="CI-sized profile: smaller screen, fewer "
                              "frames, benchmark subsets (uses its own "
                              "artifact stores)")
    figures.add_argument("--out", default="figures_out", metavar="DIR",
                         help="output directory for the manifest, "
                              "dashboard and markdown")
    figures.add_argument("--store", default=None, metavar="DIR",
                         help="artifact-store root (default "
                              ".repro_figures); rerunning against the "
                              "same store resumes completed points")
    figures.add_argument("--format", default="html", dest="fmt",
                         choices=("html", "md", "both"),
                         help="html: dashboard; md: regenerate "
                              "EXPERIMENTS.md; both")
    figures.add_argument("--seed-regression", action="append",
                         default=[], metavar="FIG[,FIG...]",
                         help=argparse.SUPPRESS)

    report = sub.add_parser(
        "report", help="telemetry analysis report (markdown): DRAM "
                       "burstiness, RU load balance, FSM timeline, "
                       "cache trends",
        parents=[_common_parent(frames_default=2)])
    report.add_argument("benchmark_pos", nargs="?", default=None,
                        metavar="benchmark", choices=all_names,
                        help="benchmark code (alternative to "
                             "--benchmark)")
    _add_benchmark_option(report, all_names, required=False)
    _add_config_option(report)
    report.add_argument("--events", default=None, metavar="PATH",
                        help="analyse an exported JSONL event stream "
                             "instead of running a simulation")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the markdown here instead of "
                             "stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Unknown benchmark/config names exit 2 with the valid names (argparse
    ``choices`` or explicit checks); a :class:`ReproError` from a
    command becomes a one-line stderr diagnostic and exit 1.
    """
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "heatmap": cmd_heatmap,
        "trace": cmd_trace,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "status": cmd_status,
        "fleet": cmd_fleet,
        "perf": cmd_perf,
        "report": cmd_report,
        "figures": cmd_figures,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
