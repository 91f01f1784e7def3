"""Worker-lifecycle supervision: heartbeats, preemption, circuit breaking.

A worker process that raises is easy to isolate, but one that hangs
(deadlocked C extension, livelocked retry loop) or is OOM-killed
mid-grid can stall or silently degrade an entire sweep.  This module is
the supervision layer that closes that gap; :func:`repro.harness.
run_pairs` runs every parallel (and every chaos-mode) suite or sweep
through it, and the sweep service runs every point through it.

The pieces:

* :class:`HeartbeatWriter` — a daemon thread in each worker touching a
  per-attempt heartbeat file.  Tolerant of unwritable filesystems
  (read-only, ENOSPC): it degrades to silence instead of killing the
  worker, and the supervisor falls back to deadline-only monitoring.
* :class:`Supervisor` / :func:`Supervisor.run` — runs each job in a
  monitored forked child.  A stale heartbeat (hung worker) or a blown
  deadline preempts the child with escalating SIGTERM → SIGKILL; a
  child that dies without returning (crash, OOM SIGKILL) is detected by
  its exit code.  Transient failures are retried with exponential
  backoff plus jitter (:func:`backoff_delay`).
* :class:`AdaptiveDeadline` — per-job deadlines derived from the median
  of completed durations times a factor, floored at the caller's
  ``timeout_s``, so one pathologically imbalanced grid point (the
  SLTarch-style workloads) cannot stall a sweep that has no global
  timeout configured.
* :class:`CircuitBreaker` — quarantines a key (the engine uses
  ``benchmark|kind``) after N systematic failures instead of burning
  retries on every remaining grid point of a doomed combination.
  Open breakers transition to half-open after a cooldown and admit a
  single probe; a successful probe closes the breaker.

Telemetry: the supervisor counts ``supervision.{preemptions,
heartbeat_gaps, worker_deaths, retries}`` and ``supervision.breaker.
{trips, short_circuits}``, and emits :class:`~repro.telemetry.events.
SupervisorEvent` records (plus per-job ``HarnessSpan``\\ s) when the hub
is enabled.

The chaos harness (:mod:`repro.chaos`) injects worker crashes, hangs
and I/O faults underneath this layer; ``tests/test_supervision.py`` and
``tests/test_chaos.py`` prove every chaos run terminates and converges.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cachefile import atomic_write_bytes
from .errors import ReproError, is_transient
from .telemetry import HUB, HarnessSpan, SupervisorEvent

logger = logging.getLogger(__name__)


def available() -> bool:
    """Whether the supervised backend can run here (needs ``fork``)."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- retry backoff -----------------------------------------------------------

#: Jitter source for retry backoff.  Module-level so tests can seed or
#: replace it; deliberately *not* derived from any simulation seed —
#: backoff randomness must decorrelate parallel workers, nothing else.
_JITTER = random.Random()


def backoff_delay(backoff_s: float, attempt: int,
                  jitter_frac: float = 0.5) -> float:
    """Exponential backoff with jitter for retry ``attempt`` (1-based).

    The base delay doubles per attempt; a uniform random fraction of up
    to ``jitter_frac`` of the base is added so parallel workers
    retrying the same transient fault (a quarantined shared cache
    entry, say) fan out instead of thundering back in lockstep.
    """
    base = backoff_s * (2 ** (attempt - 1))
    return base * (1.0 + _JITTER.uniform(0.0, jitter_frac))


# -- heartbeats --------------------------------------------------------------

#: The worker process's active writer (set by :func:`_child_main`), so
#: in-worker code — the chaos harness — can simulate a frozen process.
_ACTIVE_HEARTBEAT: Optional["HeartbeatWriter"] = None


class HeartbeatWriter(threading.Thread):
    """Daemon thread touching ``path`` every ``interval_s`` seconds.

    The supervisor watches the file's mtime; a worker whose main thread
    is alive keeps the mtime moving, and a frozen process goes silent.
    An unwritable destination (read-only filesystem, ENOSPC) must never
    take the worker down with it: the first ``OSError`` flips
    ``degraded`` and the thread stops touching the file, leaving the
    supervisor on deadline-only monitoring.

    ``payload`` customizes what each beat writes (default: pid + wall
    time).  The sweep service reuses this thread as its lease renewer —
    the lease file's mtime is the liveness signal exactly like a
    heartbeat, and the payload callable keeps the lease's JSON body
    (owner, claim time) intact across renewals; payload beats replace
    the file atomically.  A payload that raises is treated like an
    unwritable path: degrade, never crash the worker.  ``stop()`` does
    not wait for a beat in progress: ``join()`` before removing the file,
    or that beat can recreate it.
    """

    def __init__(self, path: os.PathLike, interval_s: float,
                 payload: Optional[Callable[[], str]] = None):
        super().__init__(name="repro-heartbeat", daemon=True)
        self.path = str(path)
        self.interval_s = interval_s
        self.payload = payload
        self.degraded = False
        # Named to avoid shadowing threading.Thread._stop(), which
        # CPython's after-fork fixup invokes on surviving thread objects.
        self._stop_requested = threading.Event()
        self._paused = threading.Event()

    def run(self) -> None:
        while not self._stop_requested.is_set():
            if not self._paused.is_set() and not self.degraded:
                try:
                    if self.payload is not None:
                        # A reader must never see a truncated body: a
                        # process killed mid-rewrite would leave an
                        # empty lease that names no owner.
                        atomic_write_bytes(self.path, self.payload().encode())
                    else:
                        # Bare beats are read by mtime only: touch in
                        # place, cheaply, at up to 20 Hz.
                        with open(self.path, "w") as handle:
                            handle.write(f"{os.getpid()} {time.time():.6f}\n")
                except Exception as exc:
                    self.degraded = True
                    logger.debug("heartbeat %s unwritable (%s); worker "
                                 "continues without heartbeats",
                                 self.path, exc)
            self._stop_requested.wait(self.interval_s)

    def pause(self) -> None:
        """Stop beating (used by chaos to simulate a frozen worker)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self) -> None:
        self._stop_requested.set()


def pause_heartbeat() -> None:
    """Silence the current worker's heartbeat (no-op outside a worker).

    The chaos harness calls this before hanging so the hang looks like
    a genuinely frozen process — main thread *and* heartbeats stalled —
    which is the failure mode heartbeat monitoring exists to catch.
    """
    if _ACTIVE_HEARTBEAT is not None:
        _ACTIVE_HEARTBEAT.pause()


# -- adaptive deadlines ------------------------------------------------------

class AdaptiveDeadline:
    """Per-job deadline from completed-run statistics.

    Grid points of one sweep are usually similar in cost, but pathological
    workloads (extreme tile imbalance, memory-latency cliffs) produce a
    long tail that defeats any single global timeout.  The deadline is
    ``median(completed durations) * factor``, floored at the caller's
    ``timeout_s`` — so it only ever *extends* an explicit budget — and
    engages once ``min_samples`` durations are in.  ``floor_s`` keeps a
    grid of sub-millisecond points from preempting normal variance.
    """

    def __init__(self, factor: float = 4.0, min_samples: int = 3,
                 floor_s: float = 0.5):
        self.factor = factor
        self.min_samples = min_samples
        self.floor_s = floor_s
        self.durations: List[float] = []

    def add(self, seconds: float) -> None:
        """Record one completed duration."""
        self.durations.append(seconds)

    def deadline_for(self, timeout_s: Optional[float]) -> Optional[float]:
        """The budget for the next attempt, or None (no limit yet)."""
        candidates: List[float] = []
        if timeout_s is not None and timeout_s > 0:
            candidates.append(timeout_s)
        if len(self.durations) >= self.min_samples:
            median = statistics.median(self.durations)
            candidates.append(max(median * self.factor, self.floor_s))
        return max(candidates) if candidates else None


# -- circuit breaker ---------------------------------------------------------

class CircuitBreaker:
    """Closed → open → half-open quarantine per failure key.

    ``record_failure`` counts failed attempts per key; hitting
    ``threshold`` consecutive failures opens the breaker, and
    :meth:`allow` then short-circuits every further attempt on that key
    — the sweep stops burning retries on a systematically broken
    (benchmark, config) combination and reports those cells as
    ``tripped``.  After ``cooldown_s`` an open breaker admits exactly
    one half-open probe; success closes it (and resets the count),
    failure reopens it.  State round-trips through :meth:`to_state` /
    :meth:`from_state` so the engine can persist trips in the
    :class:`~repro.experiments.store.ArtifactStore` and honour them on
    resume.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 300.0):
        self.threshold = max(int(threshold), 1)
        self.cooldown_s = cooldown_s
        self._cells: Dict[str, Dict[str, Any]] = {}
        self.trip_log: List[Dict[str, Any]] = []

    def _cell(self, key: str) -> Dict[str, Any]:
        return self._cells.setdefault(key, {
            "state": "closed", "failures": 0, "opened_at": 0.0,
            "trips": 0, "probing": False})

    def state_of(self, key: str) -> str:
        """``closed`` / ``open`` / ``half_open`` for one key."""
        return self._cells.get(key, {}).get("state", "closed")

    def allow(self, key: str, now: Optional[float] = None) -> bool:
        """Whether an attempt on ``key`` may run right now."""
        cell = self._cells.get(key)
        if cell is None or cell["state"] == "closed":
            return True
        now = time.time() if now is None else now
        if cell["state"] == "open":
            if now - cell["opened_at"] >= self.cooldown_s:
                cell["state"] = "half_open"
                cell["probing"] = True
                self._emit("breaker_probe", key,
                           f"half-open after {self.cooldown_s:.0f}s "
                           "cooldown; admitting one probe")
                return True
            return False
        # half-open: exactly one probe in flight.
        if not cell["probing"]:
            cell["probing"] = True
            return True
        return False

    def record_failure(self, key: str,
                       now: Optional[float] = None) -> bool:
        """Count one failed attempt; True when this call trips the key."""
        now = time.time() if now is None else now
        cell = self._cell(key)
        cell["failures"] += 1
        if cell["state"] == "half_open":
            cell.update(state="open", opened_at=now, probing=False)
            cell["trips"] += 1
            self._trip(key, cell, now, reprobe=True)
            return True
        if cell["state"] == "closed" and cell["failures"] >= self.threshold:
            cell.update(state="open", opened_at=now)
            cell["trips"] += 1
            self._trip(key, cell, now, reprobe=False)
            return True
        return False

    def record_success(self, key: str) -> None:
        """A run on ``key`` succeeded: close and reset the breaker."""
        cell = self._cells.get(key)
        if cell is None:
            return
        reclosed = cell["state"] != "closed"
        cell.update(state="closed", failures=0, probing=False)
        if reclosed:
            self._emit("breaker_close", key, "probe succeeded; closed")

    def _trip(self, key: str, cell: Dict[str, Any], now: float,
              reprobe: bool) -> None:
        entry = {"key": key, "failures": cell["failures"],
                 "tripped_at": now, "reprobe": reprobe}
        self.trip_log.append(entry)
        logger.warning(
            "circuit breaker OPEN for %s after %d failure(s)%s; further "
            "attempts are quarantined for %.0fs", key, cell["failures"],
            " (half-open probe failed)" if reprobe else "",
            self.cooldown_s)
        if HUB.enabled:
            HUB.metrics.counter("supervision.breaker.trips").inc()
            self._emit("breaker_trip", key,
                       f"{cell['failures']} failures", now)

    @staticmethod
    def _emit(kind: str, key: str, detail: str,
              now: Optional[float] = None) -> None:
        if HUB.enabled:
            HUB.emit(SupervisorEvent(
                kind=kind, target=key, detail=detail,
                wall_s=time.time() if now is None else now))

    @property
    def open_keys(self) -> List[str]:
        """Keys currently open or half-open (quarantined)."""
        return sorted(k for k, c in self._cells.items()
                      if c["state"] != "closed")

    def to_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot (inverse of :meth:`from_state`)."""
        return {"version": 1, "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "cells": {k: dict(v) for k, v in self._cells.items()},
                "trips": list(self.trip_log)}

    @classmethod
    def from_state(cls, state: Optional[Dict[str, Any]],
                   threshold: int = 3,
                   cooldown_s: float = 300.0) -> "CircuitBreaker":
        """Rebuild from a persisted snapshot (None/garbage → fresh)."""
        breaker = cls(threshold=threshold, cooldown_s=cooldown_s)
        if not isinstance(state, dict):
            return breaker
        cells = state.get("cells")
        if isinstance(cells, dict):
            for key, cell in cells.items():
                if isinstance(cell, dict) and "state" in cell:
                    breaker._cells[key] = dict(breaker._cell(key), **cell)
        trips = state.get("trips")
        if isinstance(trips, list):
            breaker.trip_log = list(trips)
        return breaker


# -- supervised execution ----------------------------------------------------

@dataclass
class SupervisionPolicy:
    """Tunables of the worker-lifecycle supervisor."""

    #: How often workers touch their heartbeat file.
    heartbeat_interval_s: float = 0.05
    #: Stale-heartbeat threshold: a worker whose heartbeat has not
    #: moved for this long is declared hung and preempted.  Only
    #: engages once a first heartbeat was observed, so a worker on a
    #: read-only filesystem degrades to deadline-only monitoring.
    hang_grace_s: float = 2.0
    #: SIGTERM → SIGKILL escalation grace.
    term_grace_s: float = 0.5
    #: Adaptive deadline = median(completed) * factor (see
    #: :class:`AdaptiveDeadline`).
    deadline_factor: float = 4.0
    deadline_min_samples: int = 3
    deadline_floor_s: float = 0.5
    #: Circuit-breaker policy (see :class:`CircuitBreaker`).
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 300.0
    #: Parent poll cadence.
    poll_interval_s: float = 0.05
    #: Where heartbeat files live (None: a private temp dir per run).
    heartbeat_root: Optional[Path] = None


@dataclass
class SupervisedJob:
    """One unit of supervised work: ``fn(*args, **kwargs)`` in a child."""

    label: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Circuit-breaker key ("" = not subject to the breaker).
    breaker_key: str = ""


@dataclass
class WorkerOutcome:
    """What happened to one supervised job across all its attempts."""

    label: str
    #: ``ok`` | ``failed`` | ``tripped`` (breaker short-circuit) |
    #: ``skipped`` (interrupted before any attempt finished).
    status: str = "failed"
    result: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    #: How many attempts the supervisor had to SIGTERM/SIGKILL.
    preemptions: int = 0
    #: Largest observed heartbeat gap before a hung-preemption, seconds.
    heartbeat_gap_s: float = 0.0
    #: ``completed`` (clean first attempt), ``degraded`` (recovered via
    #: retry or preemption), ``failed``, ``tripped`` or ``skipped``.
    provenance: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Attempt:
    """Parent-side bookkeeping of one in-flight worker process."""

    __slots__ = ("proc", "conn", "hb_path", "started", "deadline",
                 "hb_mtime", "hb_last_change", "hb_seen", "message",
                 "got_message", "preempt_reason", "preempt_at")

    def __init__(self, proc, conn, hb_path: Path, started: float,
                 deadline: Optional[float]):
        self.proc = proc
        self.conn = conn
        self.hb_path = hb_path
        self.started = started
        self.deadline = deadline
        self.hb_mtime: Optional[int] = None
        self.hb_last_change = started
        self.hb_seen = False
        self.message: Optional[tuple] = None
        self.got_message = False
        self.preempt_reason: Optional[str] = None
        self.preempt_at = 0.0


class _JobState:
    """Per-job retry/outcome bookkeeping."""

    __slots__ = ("index", "job", "attempts", "preemptions", "eligible_at",
                 "first_start", "outcome", "last_error", "last_error_type",
                 "max_gap_s")

    def __init__(self, index: int, job: SupervisedJob):
        self.index = index
        self.job = job
        self.attempts = 0
        self.preemptions = 0
        self.eligible_at = 0.0
        self.first_start: Optional[float] = None
        self.outcome: Optional[WorkerOutcome] = None
        self.last_error: Optional[str] = None
        self.last_error_type: Optional[str] = None
        self.max_gap_s = 0.0


class Supervisor:
    """Runs :class:`SupervisedJob`\\ s in monitored child processes.

    One instance supervises one campaign (a sweep, a suite): it owns the
    adaptive-deadline statistics and the circuit breaker for the whole
    job list, and :meth:`run` may be called once.  See the module
    docstring for the monitoring model.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.policy = policy or SupervisionPolicy()
        self.breaker = breaker
        self.adaptive = AdaptiveDeadline(
            factor=self.policy.deadline_factor,
            min_samples=self.policy.deadline_min_samples,
            floor_s=self.policy.deadline_floor_s)
        self._aborted = False

    # -- public entry point --------------------------------------------------

    def run(self, jobs: List[SupervisedJob],
            timeout_s: Optional[float] = None,
            max_attempts: int = 2,
            backoff_s: float = 0.25,
            workers: int = 1) -> List[WorkerOutcome]:
        """Execute every job; outcomes align with the ``jobs`` order.

        Never raises for job failures — crashes, hangs, OOM kills and
        breaker trips all land in the returned outcomes.  A
        ``KeyboardInterrupt`` (from the driver, or reported by a child)
        terminates the remaining workers and marks unfinished jobs
        ``skipped``, mirroring :func:`repro.harness.run_pairs`.
        """
        if not jobs:
            return []
        if not available():  # pragma: no cover - non-POSIX platforms
            raise ReproError("supervised execution needs the 'fork' "
                             "start method (POSIX)")
        ctx = multiprocessing.get_context("fork")
        policy = self.policy
        own_hb_root = policy.heartbeat_root is None
        hb_root = Path(tempfile.mkdtemp(prefix="repro-hb-")) \
            if own_hb_root else Path(policy.heartbeat_root)
        with contextlib.suppress(OSError):
            hb_root.mkdir(parents=True, exist_ok=True)

        states = [_JobState(i, job) for i, job in enumerate(jobs)]
        queue: deque = deque(range(len(jobs)))
        running: Dict[int, _Attempt] = {}
        try:
            while (queue or running) and not self._aborted:
                now = time.monotonic()
                self._schedule(queue, states, running, workers, ctx,
                               hb_root, timeout_s, now)
                self._await_messages(running, policy.poll_interval_s)
                now = time.monotonic()
                for index in list(running):
                    attempt = running[index]
                    state = states[index]
                    if attempt.got_message:
                        self._join(attempt)
                        del running[index]
                        self._finish_message(state, attempt, queue,
                                             max_attempts, backoff_s)
                    elif attempt.proc.exitcode is not None:
                        self._drain(attempt)
                        self._join(attempt)
                        del running[index]
                        if attempt.got_message:
                            self._finish_message(state, attempt, queue,
                                                 max_attempts, backoff_s)
                        else:
                            self._finish_death(state, attempt, queue,
                                               max_attempts, backoff_s)
                    else:
                        self._monitor(state, attempt, now)
        except KeyboardInterrupt:
            self._aborted = True
        finally:
            self._reap(running)
            for state in states:
                if state.outcome is None:
                    state.outcome = WorkerOutcome(
                        label=state.job.label, status="skipped",
                        error="suite interrupted",
                        error_type="KeyboardInterrupt",
                        attempts=state.attempts, provenance="skipped")
            if own_hb_root:
                shutil.rmtree(hb_root, ignore_errors=True)
        return [state.outcome for state in states]

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, queue, states, running, workers, ctx, hb_root,
                  timeout_s, now) -> None:
        deferred = []
        while queue and len(running) < workers:
            index = queue.popleft()
            state = states[index]
            if state.eligible_at > now:
                deferred.append(index)
                continue
            if not self._breaker_allows(state):
                continue
            self._launch(state, running, ctx, hb_root, timeout_s, now)
        queue.extendleft(reversed(deferred))

    def _breaker_allows(self, state: _JobState) -> bool:
        key = state.job.breaker_key
        if self.breaker is None or not key:
            return True
        if self.breaker.allow(key):
            return True
        detail = (f"circuit breaker open for {key!r} "
                  f"({self.breaker._cells[key]['failures']} failures); "
                  "quarantined without attempting")
        state.outcome = WorkerOutcome(
            label=state.job.label, status="tripped", error=detail,
            error_type="CircuitOpenError", attempts=state.attempts,
            preemptions=state.preemptions, provenance="tripped")
        logger.info("%s: %s", state.job.label, detail)
        if HUB.enabled:
            HUB.metrics.counter("supervision.breaker.short_circuits").inc()
        return False

    def _launch(self, state, running, ctx, hb_root, timeout_s,
                now) -> None:
        state.attempts += 1
        if state.first_start is None:
            state.first_start = now
        recv_end, send_end = ctx.Pipe(duplex=False)
        hb_path = hb_root / f"job{state.index}.a{state.attempts}.hb"
        proc = ctx.Process(
            target=_child_main,
            args=(send_end, str(hb_path),
                  self.policy.heartbeat_interval_s, state.job.label,
                  state.job.fn, state.job.args, state.job.kwargs),
            daemon=True)
        proc.start()
        send_end.close()
        deadline = self.adaptive.deadline_for(timeout_s)
        running[state.index] = _Attempt(
            proc, recv_end, hb_path, now,
            None if deadline is None else now + deadline)

    # -- monitoring ----------------------------------------------------------

    @staticmethod
    def _await_messages(running: Dict[int, _Attempt],
                        poll_s: float) -> None:
        conns = {a.conn: a for a in running.values() if not a.got_message}
        if not conns:
            time.sleep(poll_s)
            return
        for conn in connection.wait(list(conns), timeout=poll_s):
            attempt = conns[conn]
            attempt.got_message = True
            try:
                attempt.message = conn.recv()
            except (EOFError, OSError):
                attempt.message = None  # died mid-send: treat as death

    @staticmethod
    def _drain(attempt: _Attempt) -> None:
        """Last-chance read on a dead worker's pipe.

        A child can send its payload and exit between two waits; the
        data outlives the sender, and reading it here keeps a clean
        completion from being misclassified as a death.
        """
        with contextlib.suppress(EOFError, OSError):
            if attempt.conn.poll(0):
                attempt.message = attempt.conn.recv()
                attempt.got_message = attempt.message is not None

    def _monitor(self, state: _JobState, attempt: _Attempt,
                 now: float) -> None:
        try:
            mtime = os.stat(attempt.hb_path).st_mtime_ns
        except OSError:
            mtime = None
        if mtime is not None and mtime != attempt.hb_mtime:
            attempt.hb_mtime = mtime
            attempt.hb_last_change = now
            attempt.hb_seen = True
        if attempt.preempt_reason is not None:
            if (now - attempt.preempt_at >= self.policy.term_grace_s
                    and attempt.proc.exitcode is None):
                with contextlib.suppress(OSError):
                    os.kill(attempt.proc.pid, signal.SIGKILL)
            return
        if attempt.deadline is not None and now > attempt.deadline:
            self._preempt(state, attempt, "deadline", now)
            return
        gap = now - attempt.hb_last_change
        if attempt.hb_seen and gap > self.policy.hang_grace_s:
            state.max_gap_s = max(state.max_gap_s, gap)
            if HUB.enabled:
                HUB.metrics.counter("supervision.heartbeat_gaps").inc()
            self._preempt(state, attempt, "hung", now, gap)

    def _preempt(self, state: _JobState, attempt: _Attempt, reason: str,
                 now: float, gap: float = 0.0) -> None:
        attempt.preempt_reason = reason
        attempt.preempt_at = now
        state.preemptions += 1
        budget = (attempt.deadline - attempt.started
                  if attempt.deadline is not None else 0.0)
        detail = (f"no heartbeat for {gap:.2f}s" if reason == "hung"
                  else f"exceeded {budget:.2f}s deadline")
        logger.warning("%s: worker pid %s %s (%s); SIGTERM "
                       "(SIGKILL after %.1fs)", state.job.label,
                       attempt.proc.pid, reason, detail,
                       self.policy.term_grace_s)
        if HUB.enabled:
            HUB.metrics.counter("supervision.preemptions").inc()
            HUB.emit(SupervisorEvent(kind="preempt",
                                     target=state.job.label,
                                     detail=f"{reason}: {detail}",
                                     wall_s=time.time()))
        with contextlib.suppress(OSError):
            os.kill(attempt.proc.pid, signal.SIGTERM)

    @staticmethod
    def _join(attempt: _Attempt) -> None:
        attempt.proc.join(timeout=5.0)
        with contextlib.suppress(OSError):
            attempt.conn.close()
        with contextlib.suppress(OSError, FileNotFoundError):
            os.unlink(attempt.hb_path)

    # -- finalization --------------------------------------------------------

    def _finish_message(self, state, attempt, queue, max_attempts,
                        backoff_s) -> None:
        message = attempt.message
        if not message:
            # EOF without a payload: the child died (crash, preemption
            # taking effect) and closed the pipe — classify by exit
            # code like any other death.
            self._finish_death(state, attempt, queue, max_attempts,
                               backoff_s)
            return
        if message[0] == "ok":
            self.adaptive.add(time.monotonic() - attempt.started)
            self._record_success(state, message[1])
            return
        _, error_type, error, transient = message
        if error_type == "KeyboardInterrupt":
            state.outcome = WorkerOutcome(
                label=state.job.label, status="failed", error=error,
                error_type=error_type, attempts=state.attempts,
                elapsed_s=self._elapsed(state),
                preemptions=state.preemptions, provenance="failed")
            self._aborted = True
            return
        self._record_failure(state, queue, max_attempts, backoff_s,
                             error_type, error, transient)

    def _finish_death(self, state, attempt, queue, max_attempts,
                      backoff_s) -> None:
        exitcode = attempt.proc.exitcode
        if HUB.enabled:
            HUB.metrics.counter("supervision.worker_deaths").inc()
        if attempt.preempt_reason == "deadline":
            budget = attempt.deadline - attempt.started
            self._record_failure(
                state, queue, max_attempts, backoff_s,
                "BenchmarkTimeoutError",
                f"{state.job.label}: preempted after exceeding its "
                f"{budget:.2f}s supervised deadline", False)
            return
        if attempt.preempt_reason == "hung":
            self._record_failure(
                state, queue, max_attempts, backoff_s,
                "WorkerHungError",
                f"{state.job.label}: worker hung (heartbeat stalled "
                f"{state.max_gap_s:.2f}s) and was preempted", True)
            return
        if exitcode is not None and exitcode < 0:
            sig = -exitcode
            oom = " (SIGKILL — possible OOM kill)" if sig == 9 else ""
            detail = f"worker killed by signal {sig}{oom}"
        else:
            detail = f"worker exited with status {exitcode} before " \
                     "returning a result"
        if HUB.enabled:
            HUB.emit(SupervisorEvent(kind="worker_death",
                                     target=state.job.label,
                                     detail=detail, wall_s=time.time()))
        self._record_failure(state, queue, max_attempts, backoff_s,
                             "WorkerCrashError",
                             f"{state.job.label}: {detail}", True)

    def _record_success(self, state: _JobState, result: Any) -> None:
        if self.breaker is not None and state.job.breaker_key:
            self.breaker.record_success(state.job.breaker_key)
        degraded = state.attempts > 1 or state.preemptions > 0
        state.outcome = WorkerOutcome(
            label=state.job.label, status="ok", result=result,
            attempts=state.attempts, elapsed_s=self._elapsed(state),
            preemptions=state.preemptions,
            heartbeat_gap_s=state.max_gap_s,
            provenance="degraded" if degraded else "completed")
        self._emit_span(state, "ok")

    def _record_failure(self, state, queue, max_attempts, backoff_s,
                        error_type, error, transient) -> None:
        state.last_error = error
        state.last_error_type = error_type
        tripped_now = False
        if self.breaker is not None and state.job.breaker_key:
            tripped_now = self.breaker.record_failure(
                state.job.breaker_key)
        retryable = (transient and state.attempts < max_attempts
                     and not tripped_now and not self._aborted)
        logger.warning("%s attempt %d/%d failed (%s: %s)%s",
                       state.job.label, state.attempts, max_attempts,
                       error_type, error,
                       "; retrying" if retryable else "")
        if retryable:
            if HUB.enabled:
                HUB.metrics.counter("supervision.retries").inc()
            state.eligible_at = (time.monotonic()
                                 + backoff_delay(backoff_s,
                                                 state.attempts))
            queue.append(state.index)
            return
        state.outcome = WorkerOutcome(
            label=state.job.label, status="failed", error=error,
            error_type=error_type, attempts=state.attempts,
            elapsed_s=self._elapsed(state),
            preemptions=state.preemptions,
            heartbeat_gap_s=state.max_gap_s, provenance="failed")
        self._emit_span(state, "failed")

    def _emit_span(self, state: _JobState, status: str) -> None:
        if HUB.enabled:
            HUB.emit(HarnessSpan(
                name=state.job.label,
                wall_start_s=time.time() - self._elapsed(state),
                wall_dur_s=self._elapsed(state), status=status,
                attempts=state.attempts,
                args={"error": state.last_error_type}
                if status != "ok" and state.last_error_type else None))

    @staticmethod
    def _elapsed(state: _JobState) -> float:
        if state.first_start is None:
            return 0.0
        return time.monotonic() - state.first_start

    def _reap(self, running: Dict[int, _Attempt]) -> None:
        for attempt in running.values():
            if attempt.proc.exitcode is None:
                with contextlib.suppress(OSError):
                    os.kill(attempt.proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + self.policy.term_grace_s
        for attempt in running.values():
            attempt.proc.join(timeout=max(deadline - time.monotonic(),
                                          0.05))
            if attempt.proc.exitcode is None:
                with contextlib.suppress(OSError):
                    os.kill(attempt.proc.pid, signal.SIGKILL)
                attempt.proc.join(timeout=5.0)
            with contextlib.suppress(OSError):
                attempt.conn.close()


def _child_main(conn, hb_path: str, hb_interval: float, label: str,
                fn: Callable, args: Tuple, kwargs: Dict) -> None:
    """Worker entry: heartbeat + run + ship the result over the pipe."""
    global _ACTIVE_HEARTBEAT
    writer = HeartbeatWriter(hb_path, hb_interval)
    writer.start()
    _ACTIVE_HEARTBEAT = writer
    try:
        try:
            payload = ("ok", fn(*args, **kwargs))
        except BaseException as exc:  # ship, never raise across the pipe
            if isinstance(exc, KeyboardInterrupt):
                name, text = "KeyboardInterrupt", "interrupted"
            elif isinstance(exc, ReproError):
                name, text = type(exc).__name__, str(exc)
            else:
                name, text = "SimulationError", f"{label}: {exc!r}"
            payload = ("error", name, text, is_transient(exc))
        try:
            conn.send(payload)
        except Exception as exc:
            with contextlib.suppress(Exception):
                conn.send(("error", "WorkerCrashError",
                           f"{label}: result failed to serialize "
                           f"({exc!r})", False))
    finally:
        writer.stop()
        with contextlib.suppress(Exception):
            conn.close()
