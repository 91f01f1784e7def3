"""Synthetic micro perf case for the batched DRAM kernel.

The curated ``repro perf`` set historically timed only end-to-end
simulator runs, whose interval-sized batches (tens of lines) never
reach the regime the vectorized kernel is built for.  This case times
exactly that regime with a deterministic synthetic stream:

* ``dram_batch`` — interval-sized bursts through
  :meth:`~repro.memory.dram.DRAM.request_batch` followed by
  :meth:`~repro.memory.dram.DRAM.end_interval`: each burst mixes
  row-sequential runs (row hits) with cross-bank jumps (activations),
  exercising the stable-sort bank walk and the interval queueing model.

Streams are built once per call from a fixed seed; the returned
metrics (accesses, row-hit counts, integer service cycles) are
deterministic, so the perf baseline's metric-drift gate applies to
them exactly as it does to the simulator cases.
"""

from __future__ import annotations

from typing import Dict

from ..compat import require_numpy
from ..config import DRAMConfig
from ..errors import ConfigValidationError
from ..memory.dram import DRAM

np = require_numpy()

#: Built streams, keyed by (kind, chunk, chunks).  Mirrors the trace
#: memo of the simulator cases: the untimed warm-up repetition builds
#: the streams, so the timed repetitions measure the kernel.
_STREAM_MEMO: Dict[tuple, list] = {}


def _dram_stream(chunk: int, chunks: int) -> list:
    key = ("dram_batch", chunk, chunks)
    bursts = _STREAM_MEMO.get(key)
    if bursts is None:
        rng = np.random.default_rng(4096)
        run = 16                  # sequential lines per row visit
        bursts = []
        for i in range(chunks):
            starts = rng.integers(0, 1 << 20, size=-(-chunk // run),
                                  dtype=np.int64) * 32
            burst = (starts[:, None]
                     + np.arange(run, dtype=np.int64)).ravel()
            bursts.append(burst[:chunk])
        _STREAM_MEMO[key] = bursts
    return bursts


def micro_dram_batch(chunk: int = 4096,
                     chunks: int = 48) -> Dict[str, float]:
    """Drive interval-sized bursts through ``DRAM.request_batch``."""
    dram = DRAM(DRAMConfig(), interval_cycles=1000)
    service = 0.0
    for burst in _dram_stream(chunk, chunks):
        service += dram.request_batch(burst)
        dram.end_interval()
    stats = dram.stats
    return {"accesses": float(stats.accesses),
            "row_hits": float(stats.row_hits),
            "service_cycles": float(service)}


_MICRO_KERNELS = {
    "dram_batch": micro_dram_batch,
}


def run_micro(kind: str, chunk: int, chunks: int) -> Dict[str, float]:
    """Run one named micro kernel; returns its deterministic metrics."""
    kernel = _MICRO_KERNELS.get(kind)
    if kernel is None:
        raise ConfigValidationError(
            f"unknown micro perf kernel {kind!r} "
            f"(have: {', '.join(sorted(_MICRO_KERNELS))})")
    return kernel(chunk=chunk, chunks=chunks)
