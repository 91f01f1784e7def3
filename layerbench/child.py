"""One fresh Python process of the benchmark: set-up, a sweep, or a check.

Run as ``python3 layerbench/child.py '<task json>'`` with ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` set by the parent.  The task
names what to do:

* ``import`` — start the interpreter and import ``repro``, nothing else;
* ``traces`` — build the traces of ``games`` into the trace cache;
* ``sweep`` — run ``spec`` through :func:`repro.api.sweep` into
  ``store`` (the user's ``repro sweep``), then aggregate it;
* ``reference`` — run each of ``specs`` the same way, one store each.

With ``"trace": true`` the layer probes are installed after the import
and the spans come back in the output.  The last line of standard
output is one JSON object.
"""

import json
import resource
import sys
import time

T_MAIN = time.monotonic()


def point_record(outcome) -> dict:
    """The simulated results of one grid point (what must repeat)."""
    record = {"id": outcome.point.point_id,
              "benchmark": outcome.point.benchmark,
              "kind": outcome.point.kind, "axes": outcome.point.axis_values,
              "status": outcome.status}
    if outcome.ok:
        s = outcome.summary
        record.update(total_cycles=s.total_cycles,
                      raster_dram_accesses=s.raster_dram_accesses,
                      texture_hit_ratio=s.texture_hit_ratio,
                      texture_latency=s.texture_latency,
                      frame_cycles=list(s.frame_cycles),
                      energy_j=s.energy_j)
    return record


def run_spec(api, spec_dict: dict, store: str) -> dict:
    spec = api.ExperimentSpec.from_dict(spec_dict)
    t_in = time.monotonic()
    result = api.sweep(spec, store_root=store)
    t_out = time.monotonic()
    matrix = api.speedup_matrix(result)
    return {"t_in": t_in, "t_out": t_out,
            "points": [point_record(o) for o in result.outcomes],
            "partial": result.partial or matrix.partial,
            "markdown": matrix.to_markdown()}


def main() -> None:
    task = json.loads(sys.argv[1])
    t0 = time.monotonic()
    import repro  # noqa: F401  (the import a user's first command pays)
    from repro import api
    from repro.workloads import memory_intensive_names
    out = {"t_main": T_MAIN, "import_s": time.monotonic() - t0}
    recorder = saved = None
    if task.get("trace"):
        import probes
        recorder = probes.Recorder()
        saved = probes.install(recorder)
    try:
        if task["task"] == "traces":
            for game, frames, width, height in task["games"]:
                api.build_traces(game, frames, width, height)
        elif task["task"] == "sweep":
            out.update(run_spec(api, task["spec"], task["store"]))
        elif task["task"] == "reference":
            out["grids"] = [run_spec(api, spec, f"{task['store']}/{i}")
                            for i, spec in enumerate(task["specs"])]
    finally:
        if saved is not None:
            probes.restore(saved)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        out["spans"] = recorder.export()
        probes.tag_classes(out["spans"], set(memory_intensive_names()))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
