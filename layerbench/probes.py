"""In-memory spans around the public functions of each layer of ``repro``.

The benchmark measures the program from outside: :func:`install` swaps
each function listed in :data:`PROBES` for a wrapper that records one
span per call (name, start, end, parent, thread, attributes) into a
:class:`Recorder`, and :func:`restore` puts every original object back.
Nothing inside ``repro`` changes.  Spans stay in memory and are handed
out once, by :meth:`Recorder.export`, when the traced run ends.

A wrapper only sees calls that go through the name it replaced, so each
probe names the binding its caller looks up at call time (for example
``repro.raster.pipeline.touched_lines``, not the defining module).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span-name prefix -> layer.  Cache-file spans have no layer of their
#: own and take their parent's: they serve both trace loads and point
#: checkpoints.
LAYERS: Dict[str, str] = {
    "workloads.": "trace", "geometry.": "trace", "tiling.": "trace",
    "raster.": "trace",
    "gpu.": "timing", "core.": "timing", "memory.": "timing",
    "experiments.": "harness", "telemetry.": "harness",
    "harness.": "harness",
    "service.": "service",
}

#: (module, attribute path, span name).  An attribute path with a dot
#: names a method on a class in that module.
PROBES: List[Tuple[str, str, str]] = [
    ("repro.api", "run_sweep", "experiments.run_sweep"),
    ("repro.experiments.engine", "execute_point",
     "experiments.execute_point"),
    ("repro.experiments.store", "ArtifactStore.save",
     "experiments.store.save"),
    ("repro.api", "speedup_matrix", "experiments.speedup_matrix"),
    ("repro.service.worker", "speedup_matrix",
     "experiments.speedup_matrix"),
    ("repro.experiments.engine", "SweepResult.merged_metrics",
     "telemetry.merged_metrics"),
    ("repro.harness", "run_pairs", "harness.run_pairs"),
    ("repro.harness", "get_traces", "workloads.get_traces"),
    ("repro.workloads.traces", "TraceBuilder.build_from_scene",
     "workloads.trace_build"),
    ("repro.workloads.scene", "SceneBuilder.frame", "workloads.scene"),
    ("repro.geometry.pipeline", "GeometryPipeline.run", "geometry.run"),
    ("repro.tiling.engine", "TilingEngine.tile_frame",
     "tiling.tile_frame"),
    ("repro.raster.pipeline", "RasterPipeline.process_tile",
     "raster.process_tile"),
    ("repro.raster.pipeline", "touched_lines", "raster.touched_lines"),
    ("repro.cachefile", "write_cache", "cachefile.write_cache"),
    ("repro.cachefile", "read_cache", "cachefile.read_cache"),
    ("repro.gpu.simulator", "GPUSimulator.run", "gpu.simulator.run"),
    ("repro.gpu.tilestream", "stream_uniq", "gpu.tilestream.stream_uniq"),
    ("repro.gpu.tilestream", "l1_layout", "gpu.tilestream.l1_layout"),
    ("repro.gpu.tilestream", "cadence", "gpu.tilestream.cadence"),
    ("repro.gpu.tilestream", "fb_runs", "gpu.tilestream.fb_runs"),
    ("repro.memory.hierarchy", "SharedMemory.access_batch",
     "memory.access_batch"),
    ("repro.memory.dram", "DRAM.request_batch",
     "memory.dram.request_batch"),
    ("repro.service.client", "SweepClient.submit",
     "service.client.submit"),
    ("repro.service.client", "SweepClient.result_payload",
     "service.client.result"),
    ("repro.service.client", "SweepClient.events",
     "service.client.events"),
    ("repro.service.jobs", "JobStore.submit", "service.jobs.submit"),
    ("repro.service.worker", "claim_point", "service.queue.claim_point"),
    ("repro.service.worker", "_maybe_finalize", "service.finalize"),
]

#: Modules whose scheduler classes get begin_frame/end_frame probes.
SCHEDULER_MODULES = ("repro.core.scheduler", "repro.core.libra",
                     "repro.core.alternatives")


class Recorder:
    """Spans of one traced run, kept in memory until :meth:`export`.

    A span is ``[name, start, end, parent, thread, attrs]`` with times
    from :func:`time.monotonic` (CLOCK_MONOTONIC, shared by every
    process on the host, so a child's spans line up with the parent's
    clock).  ``parent`` indexes the enclosing span on the same thread.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: HTTP requests the service finished, and how many failed.
        self.http = [0, 0]

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.monotonic(), 0.0, parent,
                threading.get_ident(), {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._local.stack.pop()

    def export(self) -> List[list]:
        """Every span (the traced run's output); unfinished ones end now."""
        now = time.monotonic()
        with self._lock:
            return [s[:2] + [s[2] or now] + s[3:] for s in self.spans]


# -- attribute hooks: what a span learns from its call -----------------------

def _tiles(args, kwargs, result) -> dict:
    traces = args[1] if len(args) > 1 else kwargs["traces"]
    return {"tiles": sum(len(t.workloads) for t in traces)}


def _point(args, kwargs, result) -> dict:
    point = args[0] if args else kwargs["point"]
    return {"benchmark": point.benchmark, "kind": point.kind}


def _planned(args, kwargs, result) -> dict:
    return {"planned": result is not None}


def _outcomes(args, kwargs, result) -> dict:
    return {"elapsed": sum(o.elapsed_s for o in result.outcomes),
            "retries": sum(max(o.attempts - 1, 0) for o in result.outcomes),
            "failed": len(result.failed)}


def _claim(args, kwargs, result) -> dict:
    return {"job_id": args[1], "hit": result is not None,
            "adopted": bool(result is not None and result.adopted_from)}


def _finalized(args, kwargs, result) -> dict:
    return {"job_id": args[1], "done": bool(result)}


def _submitted(args, kwargs, result) -> dict:
    return {"job_id": result.job_id}


HOOKS: Dict[str, Callable] = {
    "gpu.simulator.run": _tiles,
    "experiments.execute_point": _point,
    "gpu.tilestream.l1_layout": _planned,
    "harness.run_pairs": _outcomes,
    "service.queue.claim_point": _claim,
    "service.finalize": _finalized,
    "service.client.submit": _submitted,
}


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            recorder.spans[index][5] = hook(args, kwargs, result)
        return result
    return probe


def _wrap_generator(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """A span over a generator's whole iteration, not just its creation."""

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        index = recorder.open(name)
        try:
            yield from fn(*args, **kwargs)
        finally:
            recorder.close(index)
    return probe


def _wrap_http(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def probe(self, label, method, status, elapsed_s):
        with recorder._lock:
            recorder.http[0] += 1
            recorder.http[1] += int(not 200 <= status < 400)
        return fn(self, label, method, status, elapsed_s)
    return probe


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) for every probe point."""
    targets = []
    for module_name, path, name in PROBES:
        owner = importlib.import_module(module_name)
        attr = path
        if "." in path:
            cls, attr = path.split(".")
            owner = getattr(owner, cls)
        targets.append((owner, attr, name))
    for module_name in SCHEDULER_MODULES:
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for attr in ("begin_frame", "end_frame"):
                if attr in vars(cls) and not getattr(
                        vars(cls)[attr], "__isabstractmethod__", False):
                    targets.append((cls, attr, f"core.scheduler.{attr}"))
    server = importlib.import_module("repro.service.server")
    targets.append((server.SweepServiceServer, "observe_request",
                    "service.http"))
    return targets


def install(recorder: Recorder) -> List[Tuple[object, str, object]]:
    """Replace every probed function; returns what :func:`restore` needs."""
    saved = []
    for owner, attr, name in _targets():
        original = vars(owner)[attr]
        if name == "service.http":
            replacement = _wrap_http(recorder, original)
        elif name == "service.client.events":
            replacement = _wrap_generator(recorder, name, original)
        else:
            replacement = _wrap(recorder, name, original)
        setattr(owner, attr, replacement)
        saved.append((owner, attr, original))
    return saved


def restore(saved: List[Tuple[object, str, object]]) -> None:
    """Put back every original object :func:`install` replaced."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- from spans to per-layer metrics ----------------------------------------

def _layer_of(spans: List[list], index: int) -> Optional[str]:
    while index >= 0:
        for prefix, layer in LAYERS.items():
            if spans[index][0].startswith(prefix):
                return layer
        index = spans[index][3]
    return None


def _has_ancestor(spans: List[list], index: int, name: str) -> bool:
    index = spans[index][3]
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans: List[list],
              until: float = float("inf")) -> Dict[str, float]:
    """Raw per-layer totals of one list of spans (one process).

    Times are host seconds summed over the list, counts are exact.
    Callers divide by their number of iterations.  ``layer.<name>`` sums
    the self time of the layer's spans that ended by ``until`` (the end
    of the wait a user sees).
    """
    own = self_times(spans)
    built = set()
    for i, span in enumerate(spans):
        if span[0] == "workloads.trace_build":
            while i >= 0 and spans[i][0] != "workloads.get_traces":
                i = spans[i][3]
            built.add(i)
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, span in enumerate(spans):
        name, start, end, _parent, _tid, attrs = span
        dur = end - start
        layer = _layer_of(spans, i)
        if layer and end <= until:
            add(f"layer.{layer}", own[i])
        if name in ("cachefile.write_cache", "cachefile.read_cache") \
                and not _has_ancestor(spans, i, "workloads.get_traces"):
            continue  # a point checkpoint, not a trace-cache access
        add(f"{name}.s", dur)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own[i])
        if name == "gpu.simulator.run":
            cls = attrs["class"]
            add(f"gpu.sim_s.{cls}", dur)
            add(f"gpu.tiles.{cls}", attrs.get("tiles", 0))
        elif name == "gpu.tilestream.l1_layout":
            add("gpu.l1_layout.planned", int(attrs.get("planned", False)))
        elif name == "harness.run_pairs":
            add("harness.run_pairs.elapsed_s", attrs.get("elapsed", 0.0))
            add("harness.retries", attrs.get("retries", 0))
            add("harness.failed", attrs.get("failed", 0))
        elif name == "service.queue.claim_point":
            add("service.queue.claim_hits", int(attrs.get("hit", False)))
            add("service.lease.adoptions", int(attrs.get("adopted", False)))
        elif name == "workloads.get_traces":
            add("workloads.trace_cache.hits", int(i not in built))
    return out


def tag_classes(spans: List[list], memory_games) -> None:
    """Label each simulator span with its game's class (memory/compute)."""
    for span in spans:
        if span[0] != "gpu.simulator.run":
            continue
        index = span[3]
        while index >= 0 and spans[index][0] != "experiments.execute_point":
            index = spans[index][3]
        game = spans[index][5].get("benchmark") if index >= 0 else None
        span[5]["class"] = "memory" if game in memory_games else "compute"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
