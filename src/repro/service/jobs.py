"""Durable, cachefile-backed job store shared by server and workers.

One directory per service instance (the ``--root`` every ``repro
serve`` / ``repro worker`` / multi-host deployment points at, typically
over a shared filesystem)::

    <root>/jobs/<job_id>/
      job.json       # the JobRecord (schema.py), atomically replaced
      events.jsonl   # ProgressLog: submitted/claimed/point_done/...
      store/         # the sweep ArtifactStore (checkpoints, failures)
      leases/        # one <point_id>.lease per in-flight point
      traces/        # correlated per-point telemetry streams (JSONL)
      wake/          # one FIFO per /events follower, rung per event

plus one ``<root>/fleet/<worker_id>.json`` health snapshot per worker
(:mod:`repro.service.fleet`), aggregated by ``GET /v1/fleet``, and one
``<root>/wake/<worker_id>-<pid>.fifo`` doorbell per running
worker, rung by :meth:`JobStore.submit` (:mod:`repro.service.wake`).
The FIFOs are wake-up hints only — nothing reads state from them — and
any tool copying a store must skip them (a FIFO read blocks).

There is deliberately **no queue datastructure**: the queue *is* the
store.  A point is pending iff it has neither an artifact in
``store/points/`` nor a fresh lease in ``leases/`` nor a terminal
failure in ``store/failures.json`` — all derived from files whose
writes are atomic (:mod:`repro.cachefile`), so the whole service state
survives SIGKILL of any process at any instruction and needs no
recovery step beyond reading the directory again.

Job-record updates are read-modify-write under the record's sidecar
lock; every transition is mirrored into ``events.jsonl`` so clients can
follow a job without polling ``job.json``.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .. import cachefile
from ..errors import ConfigValidationError
from ..experiments import ArtifactStore, ExperimentSpec
from ..telemetry.progress import ProgressLog
from .schema import JobRecord
from .wake import WAKE_DIR, ring

logger = logging.getLogger(__name__)

JOBS_DIR = "jobs"
RECORD_NAME = "job.json"
EVENTS_NAME = "events.jsonl"
STORE_DIR = "store"
LEASES_DIR = "leases"
RESULT_NAME = "result.json"
TRACES_DIR = "traces"

#: Events that end a job's event stream (used by followers to stop).
TERMINAL_EVENTS = frozenset({"job_done", "job_failed", "job_cancelled"})


class JobStore:
    """All durable jobs under one service root."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- paths --------------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        """Directory holding one subdirectory per job."""
        return self.root / JOBS_DIR

    def job_dir(self, job_id: str) -> Path:
        """One job's directory."""
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        """Path of one job's record file."""
        return self.job_dir(job_id) / RECORD_NAME

    def sweep_store(self, job_id: str) -> ArtifactStore:
        """The job's sweep artifact store (checkpoints + failures)."""
        return ArtifactStore(self.job_dir(job_id) / STORE_DIR)

    def leases_dir(self, job_id: str) -> Path:
        """Directory of the job's per-point lease files."""
        return self.job_dir(job_id) / LEASES_DIR

    def events(self, job_id: str) -> ProgressLog:
        """The job's progress event stream (appends ring its followers)."""
        job_dir = self.job_dir(job_id)
        return ProgressLog(job_dir / EVENTS_NAME,
                           wake_dir=job_dir / WAKE_DIR)

    def result_path(self, job_id: str) -> Path:
        """Path of the cached aggregated matrix."""
        return self.job_dir(job_id) / RESULT_NAME

    def traces_dir(self, job_id: str) -> Path:
        """Directory of the job's correlated per-point trace streams."""
        return self.job_dir(job_id) / TRACES_DIR

    @property
    def wake_dir(self) -> Path:
        """Directory of the idle workers' doorbells (rung on submit)."""
        return self.root / WAKE_DIR

    @property
    def fleet_dir(self) -> Path:
        """Directory of the per-worker health snapshots (`/v1/fleet`)."""
        from .fleet import FLEET_DIR
        return self.root / FLEET_DIR

    # -- submission ---------------------------------------------------------

    def submit(self, spec: ExperimentSpec,
               point_telemetry: bool = True) -> JobRecord:
        """Persist a job for ``spec``; idempotent per grid fingerprint.

        The job id is content-addressed, so submitting the same grid
        twice returns the existing job — a client retrying a timed-out
        submit can never fork a duplicate sweep.  A terminal
        ``failed``/``cancelled`` job is re-queued instead (its completed
        checkpoints are still in the store, so only the missing points
        rerun); a ``done`` job is returned as-is and its cached result
        is immediately servable.
        """
        record = JobRecord.create(spec, point_telemetry=point_telemetry)
        path = self.record_path(record.job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with cachefile.file_lock(path):
            existing = self._read_unlocked(record.job_id)
            if existing is not None:
                if existing.state in ("failed", "cancelled"):
                    existing.state = "queued"
                    existing.error = ""
                    existing.finished_at = None
                    existing.updated_at = round(time.time(), 6)
                    self._write_unlocked(existing)
                    # Recorded failures made those points non-pending;
                    # a requeue is an explicit request to try them again.
                    store = self.sweep_store(record.job_id)
                    for point_id in list(store.load_point_failures()):
                        store.clear_point_failure(point_id)
                    try:
                        self.result_path(record.job_id).unlink()
                    except OSError:
                        pass
                    self.events(record.job_id).emit(
                        "job_requeued", job_id=record.job_id)
                    ring(self.wake_dir)
                return existing
            self._write_unlocked(record)
        self.sweep_store(record.job_id).initialize(spec)
        self.leases_dir(record.job_id).mkdir(parents=True, exist_ok=True)
        self.events(record.job_id).emit(
            "job_submitted", job_id=record.job_id, spec_name=spec.name,
            total_points=record.total_points,
            fingerprint=record.fingerprint)
        ring(self.wake_dir)
        return record

    # -- record I/O ---------------------------------------------------------

    def read(self, job_id: str) -> Optional[JobRecord]:
        """One job's record, or None when unknown."""
        with cachefile.file_lock(self.record_path(job_id)):
            return self._read_unlocked(job_id)

    def update(self, job_id: str,
               mutate: Callable[[JobRecord], None]) -> Optional[JobRecord]:
        """Atomically read-modify-write one record (None when unknown).

        ``mutate`` runs under the record lock; concurrent workers
        transitioning the same job (two workers finishing the last two
        points at once) serialize here instead of losing updates.
        """
        path = self.record_path(job_id)
        with cachefile.file_lock(path):
            record = self._read_unlocked(job_id)
            if record is None:
                return None
            mutate(record)
            record.updated_at = round(time.time(), 6)
            self._write_unlocked(record)
            return record

    def list_jobs(self) -> List[JobRecord]:
        """Every readable job, newest submission first."""
        if not self.jobs_dir.is_dir():
            return []
        records = []
        for entry in sorted(self.jobs_dir.iterdir()):
            if not (entry / RECORD_NAME).exists():
                continue
            record = self.read(entry.name)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (-r.submitted_at, r.job_id))
        return records

    def _read_unlocked(self, job_id: str) -> Optional[JobRecord]:
        path = self.record_path(job_id)
        if not path.exists():
            return None
        try:
            return JobRecord.from_dict(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError,
                ConfigValidationError) as exc:
            cachefile.quarantine(path, f"unreadable job record: {exc}")
            return None

    def _write_unlocked(self, record: JobRecord) -> None:
        cachefile.atomic_write_bytes(
            self.record_path(record.job_id),
            json.dumps(record.to_dict(), indent=2,
                       sort_keys=True).encode())

    # -- lifecycle ----------------------------------------------------------

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Move a non-terminal job to ``cancelled`` (workers stop at the
        next point boundary; in-flight points finish and checkpoint).

        Idempotent: cancelling an already-terminal job changes nothing
        and emits no second terminal event (followers stop at the first
        one, so a duplicate would strand late readers mid-stream)."""
        transitioned = []

        def mutate(record: JobRecord) -> None:
            if not record.terminal:
                record.state = "cancelled"
                record.finished_at = round(time.time(), 6)
                transitioned.append(True)

        record = self.update(job_id, mutate)
        if record is not None and transitioned:
            self.events(job_id).emit("job_cancelled", job_id=job_id)
        return record

    def counts(self, job_id: str,
               spec: Optional[ExperimentSpec] = None,
               lease_ttl_s: float = 30.0) -> Dict[str, int]:
        """Live point accounting: completed/failed/leased/pending."""
        record = self.read(job_id)
        if record is None:
            return {}
        spec = spec or record.experiment_spec()
        store = self.sweep_store(job_id)
        ids = [p.point_id for p in spec.expand()]
        done = set(store.completed_ids()) & set(ids)
        failed = set(store.load_point_failures()) & set(ids) - done
        leased = set()
        now = time.time()
        leases = self.leases_dir(job_id)
        if leases.is_dir():
            for lease in leases.glob("*.lease"):
                try:
                    fresh = now - lease.stat().st_mtime <= lease_ttl_s
                except OSError:
                    continue
                if fresh and lease.stem in ids:
                    leased.add(lease.stem)
        leased -= done | failed
        pending = [i for i in ids if i not in done | failed | leased]
        return {"total": len(ids), "completed": len(done),
                "failed": len(failed), "leased": len(leased),
                "pending": len(pending)}
