"""One unit of a benchmark run: set up and solve one workload once.

Run by ``run.py`` in a fresh process, so that every unit pays the import,
the lazily built tables and its own peak memory:

    python3 perfbench/unit.py '{"workload": ..., "seed": ..., "unit": ...,
                               "spawned": <time.time() before spawning>,
                               "src": <path of the package sources>,
                               "spans": <path for the spans, or null>}'

Prints one JSON line with the timings, the search summary and, when traced,
the per-layer statistics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_package(src):
    sys.path.insert(0, src)
    import spreadrank

    where = os.path.dirname(os.path.abspath(spreadrank.__file__))
    if where != os.path.join(os.path.abspath(src), "spreadrank"):
        raise SystemExit(f"spreadrank imported from {where}, not from {src}")
    return spreadrank


def main(argv):
    job = json.loads(argv[1])
    sr = _import_package(job["src"])
    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]]
    data = workload.setup(sr, job["seed"], job["unit"])
    setup_s = time.time() - job["spawned"]

    tracer = None
    if job["spans"]:
        from tracing import instrument

        tracer = instrument(sr)

    level_s = {}
    spaces = {"done": 0, "dim": None, "level": 0}
    c0 = time.process_time()
    t0 = last = time.perf_counter()

    def progress(event):
        # the time since the previous event is charged to the event's level;
        # a final level reports only its partial events ("parents_done"),
        # whose space counts are cumulative within the level
        nonlocal last
        now = time.perf_counter()
        key = str(event["dim"])
        level_s[key] = level_s.get(key, 0.0) + now - last
        last = now
        if key != spaces["dim"]:
            spaces["done"] += spaces["level"]
            spaces["dim"] = key
        spaces["level"] = event.get("spaces", 0)

    summary = workload.solve(sr, data, progress)
    solve_s = time.perf_counter() - t0
    solve_cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.verify is not None:
        workload.verify(sr, data, summary)

    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "level_s": level_s,
        "level_spaces": spaces["done"] + spaces["level"],
        "summary": summary,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_stats()
        tracer.write(job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
