"""Doorbells: wake a waiting listener the moment there is news for it.

A :class:`Doorbell` is one listener's named FIFO in a *wake directory*.
The listener blocks in ``poll()`` on it with its poll period as the
timeout; whoever writes news to the store calls :func:`ring` on the
directory, which writes one byte to every FIFO in it.  Idle workers
listen in ``<root>/wake/`` (rung by a submit), ``/events`` followers in
``<root>/jobs/<id>/wake/`` (rung by every event append).

Doorbells carry no state: a woken listener rescans the store, and the
poll period stays the upper bound of every wait.  The polls are
therefore the fallback wherever a ring cannot arrive — a FIFO connects
processes on one host only, so workers on other hosts sharing a store
over NFS, and listeners whose ``mkfifo`` failed, poll as before.  A
FIFO left behind by a SIGKILLed listener has no reader; ringing it
fails with ``ENXIO`` and is skipped.
"""

from __future__ import annotations

import logging
import os
import select
import stat
import time
from pathlib import Path
from typing import Optional, Union

logger = logging.getLogger(__name__)

#: Name of a wake directory (``<root>/wake/``, ``<job>/wake/``).
WAKE_DIR = "wake"

#: Longest a doorbell wait goes without checking a caller's stop event.
STOP_CHECK_S = 0.05


def ring(directory: Union[str, Path]) -> None:
    """Wake every listener in ``directory``; never blocks or raises.

    Entries that are not FIFOs are skipped without being opened, and
    opens are non-blocking and refuse symlinks, so nothing in the
    directory can stall or redirect the writer.  A FIFO with no reader
    (a dead listener) fails the open with ``ENXIO``; a full one
    (``EAGAIN``) already holds an unread ring.
    """
    try:
        entries = list(os.scandir(directory))
    except OSError:
        return
    for entry in entries:
        try:
            if not stat.S_ISFIFO(entry.stat(follow_symlinks=False).st_mode):
                continue
            fd = os.open(entry.path,
                         os.O_WRONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
        except OSError:
            continue  # ENXIO: no listener; ENOENT: it just left
        try:
            os.write(fd, b"\0")
        except OSError:
            pass  # EAGAIN: the listener has not drained the last ring
        finally:
            os.close(fd)


class Doorbell:
    """One listener's FIFO ``<directory>/<name>.fifo``, removed on close.

    When the FIFO cannot be made (no ``mkfifo`` on this filesystem or
    platform), :meth:`wait` degrades to a plain sleep of the full
    period — the poll the listener would have done without a doorbell.
    """

    def __init__(self, directory: Union[str, Path], name: str):
        self.path = Path(directory) / f"{name}.fifo"
        self._fd: Optional[int] = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.mkfifo(self.path)
            except FileExistsError:  # left by a dead listener of this name
                self.path.unlink()
                os.mkfifo(self.path)
            # O_RDWR: the open never waits for a writer, and the FIFO
            # always has a reader, so a ring is never refused.
            self._fd = os.open(self.path, os.O_RDWR | os.O_NONBLOCK)
        except (OSError, AttributeError) as exc:
            logger.debug("no doorbell at %s (%s); polling instead",
                         self.path, exc)
            return
        # poll(), not select(): a server holding many connections can
        # hand out descriptors above select()'s FD_SETSIZE.
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)

    def wait(self, timeout_s: float, stop=None) -> None:
        """Sleep up to ``timeout_s``, returning early when rung.

        With ``stop`` (a ``threading.Event``) the wait also ends within
        :data:`STOP_CHECK_S` of the event being set.  Rings that
        arrived while the listener was busy are consumed here, so they
        end this wait at once instead of being lost.
        """
        if self._fd is None:
            if stop is not None:
                stop.wait(timeout_s)
            else:
                time.sleep(timeout_s)
            return
        deadline = time.monotonic() + timeout_s
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or (stop is not None and stop.is_set()):
                return
            step = left if stop is None else min(left, STOP_CHECK_S)
            if self._poller.poll(step * 1000.0):
                self._drain()
                return

    def _drain(self) -> None:
        try:
            while os.read(self._fd, 4096):
                pass
        except OSError:
            pass  # EAGAIN: empty again

    def close(self) -> None:
        """Stop listening and remove the FIFO (idempotent)."""
        if self._fd is not None:
            try:
                self.path.unlink()
            except OSError:
                pass
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "Doorbell":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
