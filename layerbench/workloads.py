"""The three workloads: cold-point, warm-grid and service-jobs.

Each workload has the same shape: :meth:`setup` prepares one fresh
environment and returns its wall time (the benchmark calls it several
times and reports the median), :meth:`measure` runs whole iterations
until a time budget is spent and returns a :class:`Pass`, and
:meth:`checks` compares every result against the expected one.  At
most one child process runs at a time, and all load comes from this
process.

The CPU-bound workloads report host times rescaled to a reference host
speed (:class:`Speedometer`), so that the speed of the host's other
tenants does not show as a change of the program.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import probes

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: The experiment geometry (``repro.workloads.EXPERIMENT_WIDTH`` x
#: ``EXPERIMENT_HEIGHT``) and the harness's tile edge.
EXPERIMENT = (960, 512)
TILE = 32
#: A child that takes longer than this has hung; the run fails.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Pass:
    """What one measured pass (traced or not) produced."""

    #: The user's unit of waiting, one per iteration (host seconds).
    latencies: List[float] = field(default_factory=list)
    #: The host's slowdown during each latency (empty: not measured).
    slowdowns: List[float] = field(default_factory=list)
    #: The pool member each latency belongs to (empty: one member).
    groups: List[str] = field(default_factory=list)
    points: int = 0
    failed: int = 0
    tiles: int = 0
    wall_s: float = 0.0
    #: Peak resident set of the measured child processes (MB); the
    #: benchmark process's own is added when the metric is reported.
    rss_mb: float = 0.0
    #: Span lists, one per process that recorded spans.
    spans: List[List[list]] = field(default_factory=list)
    #: Latency window per iteration, for the layer shares (start, end).
    windows: List[Tuple[float, float]] = field(default_factory=list)
    import_s: List[float] = field(default_factory=list)
    #: Per iteration: point id -> simulated results.
    sims: List[Dict[str, dict]] = field(default_factory=list)
    #: Extra per-layer numbers a workload measures itself.
    extra: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def run_child(task: dict, cache_dir: Path, root: Path) -> Tuple[dict, float]:
    """Run one child to completion; (its output, Popen-to-exit seconds)."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH=str(root / "src"))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(task)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {task['task']} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["t_popen"] = started
    return out, elapsed


def time_left(started: float, seconds: float, done: int) -> bool:
    """Whether another iteration fits the budget (the first always runs).

    Stops when an iteration of average length would end past the
    budget, so a run lasts about ``seconds`` even when one iteration is
    a sizeable part of it.
    """
    elapsed = time.monotonic() - started
    return done == 0 or elapsed + elapsed / done <= seconds


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_of(records) -> float:
    """Geomean over grid cells of baseline cycles / libra cycles."""
    cells: Dict[tuple, Dict[str, int]] = {}
    for r in records:
        key = (r.get("cell"), r["benchmark"],
               json.dumps(r["axes"], sort_keys=True))
        cells.setdefault(key, {})[r["kind"]] = r["total_cycles"]
    return geomean(c["baseline"] / c["libra"] for c in cells.values())


def tiles_per_frame(geometry: Tuple[int, int]) -> int:
    return -(-geometry[0] // TILE) * -(-geometry[1] // TILE)


class Workload:
    name = ""
    GEOMETRY = EXPERIMENT

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.rng = random.Random(seed)
        self.seed = seed
        self.dirs = 0
        self.meter = Speedometer()

    def fresh_dir(self, label: str) -> Path:
        self.dirs += 1
        path = self.work / f"{label}-{self.dirs}"
        path.mkdir(parents=True)
        return path

    def checks(self) -> Tuple[List[str], List[dict]]:
        """(check failures, the distinct points' simulated results).

        An empty list of results means: use the first iteration's.
        """
        return [], []

    def close(self) -> None:
        pass

    def sweep_child(self, p: Pass, spec: dict, cache: Path, traced: bool,
                    sims: Dict[str, dict], wait_from: str,
                    group: str = "") -> None:
        """One measured ``repro.api.sweep`` in a fresh process.

        ``wait_from`` names where the user's wait starts: ``t_popen``
        (process start) or ``t_in`` (spec handed to the sweep).
        """
        out, _ = run_child({"task": "sweep", "trace": traced, "spec": spec,
                            "store": str(self.fresh_dir("store"))},
                           cache, self.root)
        p.latencies.append(out["t_out"] - out[wait_from])
        p.slowdowns.append(self.meter.slowdown(out[wait_from], out["t_out"]))
        p.groups.append(group)
        p.windows.append((out["t_popen"], out["t_out"]))
        p.import_s.append(out["import_s"])
        p.rss_mb = max(p.rss_mb, out["rss_kb"] / 1024)
        p.spans.append(out.get("spans", []))
        if out["partial"]:
            p.errors.append("partial matrix")
        for r in out["points"]:
            p.points += 1
            if r["status"] != "ok":
                p.failed += 1
                p.errors.append(f"point {r['id']} {r['status']}")
                continue
            p.tiles += tiles_per_frame(self.GEOMETRY) * len(r["frame_cycles"])
            sims[r["id"]] = r


# -- cold-point ---------------------------------------------------------------

class ColdPoint(Workload):
    """One ``libra`` point from an empty trace cache in a fresh process.

    The pool holds CCS-class memory-intensive games (about 5/6 of their
    tiles planned, the rest on the texture-line fallback).  The seed
    picks the order in which the pool is run; every run covers the
    whole pool in whole rounds, so every seed simulates the same points
    and the simulated counts repeat across seeds.
    """

    name = "cold-point"
    POOL = ("CCS", "HoW")
    FRAMES = 2

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.order = list(self.POOL)
        self.rng.shuffle(self.order)
        self.last_cache: Dict[str, Path] = {}
        #: point id -> the first cold result, for the warm check.
        self.cold: Dict[str, dict] = {}

    def spec(self, game: str, kinds=("libra",)) -> dict:
        return {"name": f"cold-{game}", "benchmarks": [game],
                "kinds": list(kinds), "baseline_kind": kinds[0],
                "frames": self.FRAMES, "width": self.GEOMETRY[0],
                "height": self.GEOMETRY[1]}

    def setup(self) -> float:
        # A fresh interpreter importing the package: brings the page
        # cache and bytecode cache to the state every later point sees.
        _, elapsed = run_child({"task": "import"}, self.fresh_dir("cache"),
                               self.root)
        return elapsed

    def measure(self, seconds: float, traced: bool) -> Pass:
        p = Pass()
        with self.meter.running():
            started = time.monotonic()
            while time_left(started, seconds, len(p.sims)):
                sims = {}
                for game in self.order:
                    cache = self.fresh_dir("cache")
                    self.sweep_child(p, self.spec(game), cache, traced,
                                     sims, "t_popen", game)
                    if game in self.last_cache:
                        shutil.rmtree(self.last_cache[game])
                    self.last_cache[game] = cache
                p.sims.append(sims)
                for key, record in sims.items():
                    self.cold.setdefault(key, record)
            p.wall_s = time.monotonic() - started
        return p

    def checks(self) -> Tuple[List[str], List[dict]]:
        """Each game's cold summary against the same point run warm.

        The warm run reuses the trace cache the last cold point wrote
        and also simulates ``baseline``, which gives libra_speedup.
        """
        errors, records = [], []
        for game in self.POOL:
            out, _ = run_child({"task": "sweep",
                                "spec": self.spec(game,
                                                  ("baseline", "libra")),
                                "store": str(self.fresh_dir("store"))},
                               self.last_cache[game], self.root)
            for r in out["points"]:
                records.append(r)
                cold = self.cold.get(r["id"])
                if r["kind"] == "libra" and cold != r:
                    errors.append(f"{game}: cold summary differs from "
                                  f"the same point run warm")
        return errors, records


# -- warm-grid ----------------------------------------------------------------

class WarmGrid(Workload):
    """A 24-point ``repro sweep`` per fresh process, over warm traces.

    Set-up writes the four games' traces to disk; every measured sweep
    starts a new interpreter, reads them, and pays the lazy
    ``tilestream`` derivation a real ``repro sweep`` pays.  The seed
    orders the games and the DRAM values in the spec; the grid is the
    same for every seed.
    """

    name = "warm-grid"
    MEMORY = ("CoC", "AmU")
    COMPUTE = ("GDL", "FlP")
    DRAM = (0.04, 0.08)
    FRAMES = 2

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        games = list(self.MEMORY + self.COMPUTE)
        dram = list(self.DRAM)
        self.rng.shuffle(games)
        self.rng.shuffle(dram)
        self.spec = {"name": "warm-grid", "benchmarks": games,
                     "kinds": ["baseline", "ptr", "libra"],
                     "axes": {"dram.requests_per_cycle": dram},
                     "frames": self.FRAMES, "width": self.GEOMETRY[0],
                     "height": self.GEOMETRY[1]}
        self.cache: Optional[Path] = None

    def setup(self) -> float:
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.cache = self.fresh_dir("cache")
        games = [[g, self.FRAMES, *self.GEOMETRY]
                 for g in self.MEMORY + self.COMPUTE]
        _, elapsed = run_child({"task": "traces", "games": games},
                               self.cache, self.root)
        return elapsed

    def measure(self, seconds: float, traced: bool) -> Pass:
        p = Pass()
        with self.meter.running():
            started = time.monotonic()
            while time_left(started, seconds, len(p.sims)):
                sims: Dict[str, dict] = {}
                self.sweep_child(p, self.spec, self.cache, traced, sims,
                                 "t_in")
                p.sims.append(sims)
            p.wall_s = time.monotonic() - started
        return p


# -- service-jobs -------------------------------------------------------------

class ServiceJobs(Workload):
    """Closed-loop jobs through an in-process server and worker.

    One client submits a small job, follows ``/events`` to its terminal
    event, fetches the result, thinks, and submits the next; a second
    connection scrapes ``/v1/metrics`` once a second on a fixed
    schedule.  The worker forks one supervised child per point, as
    ``repro worker`` does.  Jobs draw their grid from :data:`POOL` in
    seeded rounds (each round is a shuffle of the whole pool), so points
    recur across jobs and every run of at least one round covers the
    whole pool.

    Two seeded low-discrepancy sequences (golden-ratio and silver-ratio
    steps) spread the client's timing evenly over the service's two poll
    periods: a think time before each submit covers the worker's 0.5 s
    poll, and a delay between submit and opening ``/events`` covers the
    events tail's 0.2 s poll.  Without them the closed loop locks onto
    the polls: every job's latency lands on a 0.2 s grid (0.21, 0.41,
    0.61, 0.81 s) and the run's median flips between grid values from
    run to run (0.61, 0.72 and 0.81 s were all seen for one code
    version).  Users who submit and start following at arbitrary times
    land at every phase; the latency still counts from the submit.
    """

    name = "service-jobs"
    POOL = (("GDL", 0.04), ("GDL", 0.08), ("Jet", 0.04), ("Jet", 0.08))
    GEOMETRY = (320, 192)
    #: ``run_worker``'s and ``ProgressLog.tail``'s default poll periods.
    WORKER_POLL_S = 0.5
    TAIL_POLL_S = 0.2
    STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1)

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.server = self.stop = self.jobs_root = None
        self.threads: List[threading.Thread] = []
        self.reference: Dict[int, dict] = {}
        self.jobs = 0

    def grid_spec(self, index: int, name: str) -> dict:
        game, dram = self.POOL[index]
        return {"name": name, "benchmarks": [game],
                "kinds": ["baseline", "libra"],
                "axes": {"dram.requests_per_cycle": [dram]}, "frames": 1,
                "width": self.GEOMETRY[0], "height": self.GEOMETRY[1]}

    def setup(self) -> float:
        from repro.service.server import create_server
        from repro.service.worker import run_worker
        self.close()
        started = time.monotonic()
        cache = self.fresh_dir("cache")
        out, _ = run_child(
            {"task": "reference", "store": str(self.fresh_dir("ref")),
             "specs": [self.grid_spec(i, f"ref-{i}")
                       for i in range(len(self.POOL))]},
            cache, self.root)
        self.reference = dict(enumerate(out["grids"]))
        # The worker's point children read traces from the cache the
        # set-up child wrote, as a worker sharing a store would.
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        store = self.jobs_root = self.fresh_dir("jobs")
        self.server = create_server(store, port=0)
        self.stop = threading.Event()
        threads = [
            threading.Thread(target=self.server.serve_forever,
                             kwargs={"poll_interval": 0.2}, daemon=True),
            threading.Thread(target=run_worker, args=(store,),
                             kwargs={"worker_id": "bench-worker",
                                     "stop": self.stop}, daemon=True)]
        for t in threads:
            t.start()
        self.threads = threads
        return time.monotonic() - started

    def close(self) -> None:
        if self.server is None:
            return
        self.stop.set()
        self.server.shutdown()
        for t in self.threads:
            t.join(timeout=30)
        self.server.server_close()
        self.server = None

    def measure(self, seconds: float, traced: bool) -> Pass:
        from repro.api import SweepClient
        p = Pass()
        recorder = probes.Recorder() if traced else None
        saved = probes.install(recorder) if traced else None
        host, port = self.server.server_address[:2]
        url = f"http://{host}:{port}"
        submitted: Dict[str, float] = {}
        notified: Dict[str, float] = {}
        try:
            with Ticker(SweepClient(url, timeout_s=60.0).metrics_text) \
                    as scraper:
                self.run_jobs(p, SweepClient(url, timeout_s=60.0), seconds,
                              submitted, notified)
        finally:
            if saved is not None:
                probes.restore(saved)
        p.extra["service.scrape.p50_s"] = probes.median(scraper.latency)
        p.extra["service.scrape.late_s"] = max(scraper.late, default=0.0)
        if recorder is not None:
            spans = recorder.export()
            p.spans.append(spans)
            p.extra.update(service_waits(spans, submitted, notified))
            p.extra["service.http.requests"] = recorder.http[0]
            # Server-side failures plus scrapes that never got an answer.
            p.extra["service.http.errors"] = recorder.http[1] + scraper.errors
            p.extra["service.point_exec_s"] = self.point_exec_s(submitted)
        return p

    def run_jobs(self, p: Pass, client, seconds: float,
                 submitted: Dict[str, float],
                 notified: Dict[str, float]) -> None:
        """The closed loop: submit, follow to the end, fetch, repeat."""
        from repro.api import ExperimentSpec
        from repro.service.jobs import TERMINAL_EVENTS
        phases = [self.rng.random(), self.rng.random()]
        started = time.monotonic()
        while time_left(started, seconds, len(p.latencies)):
            order = list(range(len(self.POOL)))
            self.rng.shuffle(order)
            sims: Dict[str, dict] = {}
            for index in order:
                if not time_left(started, seconds, len(p.latencies)):
                    break
                phases = [(x + step) % 1.0
                          for x, step in zip(phases, self.STEPS)]
                time.sleep(phases[0] * self.WORKER_POLL_S)
                self.jobs += 1
                spec = self.grid_spec(index,
                                      f"bench-s{self.seed}-j{self.jobs}")
                t0 = time.monotonic()
                record = client.submit(ExperimentSpec.from_dict(spec))
                submitted[record.job_id] = time.monotonic()
                time.sleep(phases[1] * self.TAIL_POLL_S)
                terminal = ""
                for event in client.events(record.job_id, follow=True):
                    if event.get("event") in TERMINAL_EVENTS:
                        terminal = event["event"]
                        notified[record.job_id] = time.monotonic()
                payload = client.result_payload(record.job_id)
                t1 = time.monotonic()
                p.latencies.append(t1 - t0)
                p.windows.append((t0, t1))
                p.points += 2
                p.tiles += 2 * tiles_per_frame(self.GEOMETRY)
                ref = self.reference[index]
                if terminal != "job_done" or payload["partial"]:
                    p.failed += 1
                    p.errors.append(f"job {record.job_id} ended "
                                    f"{terminal or 'without an event'}")
                elif payload["markdown"] != ref["markdown"]:
                    p.failed += 1
                    p.errors.append(f"job {record.job_id}: matrix differs "
                                    f"from local run_sweep")
                for r in ref["points"]:
                    sims[f"{index}:{r['id']}"] = r
            p.sims.append(sims)
        p.wall_s = time.monotonic() - started

    def point_exec_s(self, job_ids) -> float:
        """Seconds the point children spent in ``execute_point``.

        The children are out of the probes' reach, but the worker's
        per-point trace streams (``<job>/traces/*.jsonl``) carry each
        point's ``sweep.point.<id>`` span, which is read back here.
        """
        from repro.service.jobs import JobStore
        store = JobStore(self.jobs_root)
        total = 0.0
        for job_id in job_ids:
            for path in store.traces_dir(job_id).glob("*.jsonl"):
                for line in path.read_text().splitlines():
                    event = json.loads(line)
                    if str(event.get("name", "")).startswith("sweep.point."):
                        total += event["wall_dur_s"]
        return total

    def checks(self) -> Tuple[List[str], List[dict]]:
        errors = [f"reference grid {i} is partial"
                  for i, grid in self.reference.items() if grid["partial"]]
        return errors, [dict(r, cell=i) for i, grid in self.reference.items()
                        for r in grid["points"]]


def service_waits(spans: List[list], submitted: Dict[str, float],
                  notified: Dict[str, float]) -> Dict[str, float]:
    """Submit-to-first-claim and terminal-event-to-client waits."""
    first_claim: Dict[str, float] = {}
    finalized: Dict[str, float] = {}
    for name, start, end, _parent, _tid, attrs in spans:
        if name == "service.queue.claim_point" and attrs.get("hit"):
            first_claim.setdefault(attrs["job_id"], end)
        elif name == "service.finalize" and attrs.get("done"):
            finalized[attrs["job_id"]] = end
    claim = [first_claim[j] - t for j, t in submitted.items()
             if j in first_claim]
    notify = [t - finalized[j] for j, t in notified.items()
              if j in finalized]
    return {"service.wait.claim_s": probes.median(claim),
            "service.wait.notify_s": probes.median(notify)}


class Speedometer:
    """How much slower than a reference speed the host runs Python now.

    The host's other tenants slow both of its CPUs by up to about 1.6x,
    in spells of seconds to minutes that a run of under a minute does
    not average away.  While :meth:`running`, a thread times a fixed
    pure-Python loop every ``PERIOD_S`` (about 4% of the CPU that the
    one measured child leaves free), and :meth:`slowdown` compares the
    loop times inside a window with ``REF_S``.  A CPU-bound time divided
    by the slowdown of its own window is the time at the reference speed.

    Not used while the benchmark process itself is busy (the in-process
    service), where the loop would time the GIL, not the host.
    """

    LOOP = 40_000
    PERIOD_S = 0.05
    SMOOTH = 5
    #: The loop's time at the reference speed: a 2-vCPU Xeon guest
    #: (2.1 GHz, Python 3.11) in its fast state, one child busy beside it.
    REF_S = 0.0015

    def __init__(self):
        #: (start, seconds) of every timed loop.
        self.samples: List[Tuple[float, float]] = []

    @contextlib.contextmanager
    def running(self):
        stop = threading.Event()
        thread = threading.Thread(target=self._run, args=(stop,),
                                  daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=30)

    def _run(self, stop: threading.Event) -> None:
        while not stop.wait(self.PERIOD_S):
            begun = time.monotonic()
            total = 0
            for i in range(self.LOOP):
                total += i
            self.samples.append((begun, time.monotonic() - begun))

    def slowdown(self, start: float, end: float) -> float:
        """Host seconds per reference second over [start, end).

        Each timed loop stands for the host's speed until the next one;
        its reading is the median of ``SMOOTH`` neighbouring loops, so a
        loop the scheduler preempted says nothing about the child.
        """
        samples = list(self.samples)
        if not samples or end <= start:
            return 1.0
        times = [t for t, _ in samples]
        half = self.SMOOTH // 2
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = max(bisect.bisect_left(times, end) - 1, first)
        ref_s = 0.0
        for i in range(first, last + 1):
            lo = start if i == first else times[i]
            hi = end if i == last else times[i + 1]
            near = [d for _, d in samples[max(i - half, 0):i + half + 1]]
            ref_s += (hi - lo) * self.REF_S / statistics.median(near)
        return (end - start) / ref_s


class Ticker:
    """Runs ``action`` once a second on a fixed schedule (open loop).

    Each run is timed from when it was due, so a stall counts against
    every run it delays; ``late`` is how late the loop started a run.
    With no action it only measures how late the host woke the thread.
    """

    PERIOD_S = 1.0

    def __init__(self, action=None):
        self.action = action
        self.latency: List[float] = []
        self.late: List[float] = []
        self.errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)

    def _run(self) -> None:
        due = time.monotonic() + self.PERIOD_S
        while not self._stop.wait(max(due - time.monotonic(), 0.0)):
            begun = time.monotonic()
            if self.action is not None:
                try:
                    self.action()
                except OSError:
                    self.errors += 1
            self.late.append(begun - due)
            self.latency.append(time.monotonic() - due)
            due += self.PERIOD_S


WORKLOADS = {w.name: w for w in (ColdPoint, WarmGrid, ServiceJobs)}
