"""Durable multi-process progress streams (the service event log).

The hub's :class:`~repro.telemetry.hub.JsonlSink` serializes one
process's event stream; the sweep service needs the inverse shape — a
*shared* append-only JSONL file that many worker processes (possibly on
different hosts, over a shared filesystem) write concurrently and many
HTTP clients tail while it grows.  :class:`ProgressLog` is that file:

* appends are one ``write()`` of one newline-terminated JSON line under
  an ``fcntl`` sidecar lock, so concurrent writers interleave whole
  records, never bytes;
* every record is stamped with ``ts`` (wall clock) and the writer's
  ``pid`` — enough to order and attribute events across a fleet;
* reads are lock-free: a half-visible final line (reader raced the
  writer) is simply skipped and picked up by the next scan, which is
  what lets ``GET /v1/jobs/<id>/events`` stream the file with chunked
  transfer-encoding while workers keep appending;
* with a ``wake_dir``, every append rings the doorbells of the
  followers tailing the file on this host
  (:mod:`repro.service.wake`), so :meth:`ProgressLog.tail` rescans the
  moment a record lands; its ``poll_s`` only bounds the wait for
  appends the doorbell cannot carry (a writer on another host).

Like the heartbeat writer, appends must never take a worker down:
``OSError`` (read-only filesystem, ENOSPC) is swallowed after flipping
``degraded`` — progress reporting is observability, not correctness.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..cachefile import file_lock

logger = logging.getLogger(__name__)


class ProgressLog:
    """Append-only JSONL event stream shared by many processes."""

    def __init__(self, path: Union[str, Path],
                 wake_dir: Optional[Union[str, Path]] = None):
        self.path = Path(path)
        self.wake_dir = None if wake_dir is None else Path(wake_dir)
        self.degraded = False

    def emit(self, event: str, **fields) -> None:
        """Append one event record (atomic line, never raises).

        ``event`` becomes the record's discriminator; ``ts`` and
        ``pid`` are stamped here.  Caller-supplied fields must be
        JSON-serializable.
        """
        if self.degraded:
            return
        record: Dict[str, object] = {"event": event,
                                     "ts": round(time.time(), 6),
                                     "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True,
                          default=str) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(self.path):
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError as exc:
            self.degraded = True
            logger.debug("progress log %s unwritable (%s); events are "
                         "dropped from here on", self.path, exc)
            return
        if self.wake_dir is not None:
            # Imported here: the service package imports this module.
            from ..service.wake import ring
            ring(self.wake_dir)

    def read(self, offset: int = 0) -> List[dict]:
        """Parsed records from byte ``offset`` on (lock-free snapshot)."""
        records = []
        for record, _ in self._scan(offset):
            records.append(record)
        return records

    def tail(self, offset: int = 0,
             poll_s: float = 0.2,
             done_events: Optional[frozenset] = None,
             timeout_s: Optional[float] = None,
             heartbeat_s: Optional[float] = None) -> Iterator[dict]:
        """Yield records as they land, following the growing file.

        Stops after yielding a record whose ``event`` is in
        ``done_events`` (a terminal job event), or after ``timeout_s``
        of wall clock — never blocks a server thread forever on an
        abandoned job.

        ``heartbeat_s`` keeps an otherwise-idle stream audibly alive:
        whenever that long passes without a real record, a synthetic
        ``{"event": "heartbeat"}`` record is yielded.  Heartbeats are
        never written to the file — they exist so a chunked HTTP
        follower behind a read-timeout proxy sees periodic bytes while
        a long point simulates.

        With a ``wake_dir`` the follower waits between scans on its own
        doorbell in that directory (removed when the generator is
        closed), so an append is yielded at once instead of after up to
        ``poll_s``.
        """
        deadline = None if timeout_s is None else time.time() + timeout_s
        last_activity = time.time()
        bell = None
        if self.wake_dir is not None:
            from ..service.wake import Doorbell
            bell = Doorbell(self.wake_dir,
                            f"{os.getpid()}-{os.urandom(4).hex()}")
        try:
            while True:
                for record, offset in self._scan(offset):
                    last_activity = time.time()
                    yield record
                    if done_events and record.get("event") in done_events:
                        return
                now = time.time()
                if deadline is not None and now >= deadline:
                    return
                if (heartbeat_s is not None
                        and now - last_activity >= heartbeat_s):
                    last_activity = now
                    yield {"event": "heartbeat", "ts": round(now, 6),
                           "pid": os.getpid()}
                if bell is None:
                    time.sleep(poll_s)
                else:
                    bell.wait(poll_s)
        finally:
            if bell is not None:
                bell.close()

    def _scan(self, offset: int) -> Iterator[tuple]:
        """(record, next_offset) pairs of complete lines past offset.

        A trailing fragment with no newline yet (a writer mid-append)
        is left for the next scan; a line that fails to parse is
        skipped but its bytes are consumed, so one torn record can
        never wedge the stream.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return
        end = data.rfind(b"\n")
        if end < 0:
            return
        pos = offset
        for raw in data[:end + 1].split(b"\n")[:-1]:
            pos += len(raw) + 1
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if isinstance(record, dict):
                yield record, pos
