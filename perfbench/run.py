"""Benchmark of the spreadrank searches.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats one workload (see ``workloads.py``) in fresh processes, one
after another, until ``--seconds`` are used, and checks every repetition
("unit") against the frozen counts.

With ``--trace 0`` it reports, as medians over the units:

* ``solve_s``: wall time of the search call, lazily built tables included;
* ``setup_s``: from spawning the process to the input being ready
  (interpreter start, ``import spreadrank``, building the input);
* ``peak_rss_mb``: peak resident memory of the unit's process.

With ``--trace 1`` it alternates an untraced and a traced unit on the same
input and reports per-layer metrics from the traced units (see
``tracing.py``), level timings from the untraced ones, and
``trace.overhead_s``, the traced minus the untraced median ``solve_s``.
A traced unit must reproduce the untraced unit's summary exactly.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, the package version and the units.  Both also go to
``perfbench/out/``, with the spans of the last traced unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HARD_LIMIT_S = 170.0  # a run must end within 180 s

# Per-layer metrics.  Every traced entry point reports its calls and
# counters, with hits and passes as shares of the calls.  Self time is
# reported per entry point only where every workload calls it, and per module
# as the sum over the module's traced entry points, so that no reported time
# is identically zero on some workload.
SELF_TIMED = [
    "gf.rref",
    "gf.rank_batch",
    "gf.nullspace",
    "gf.mat_inverse",
    "algebra.MatSpace.extend",
    "equivalence.equivalence_classes",
    "equivalence._conjugators",
    "equivalence.space_data",
    "search.extension_groups",
    "search._point_orbit_reps",
]
MODULES = ["gf", "equivalence", "search"]
RATIOS = {"hits": "hit_ratio", "passed": "pass_ratio"}
LEVELS = ["5", "6"]  # the dimensions every workload passes through


def layer_metrics(layers):
    """Flat per-layer metrics of one traced unit."""
    out = {}
    for name, stats in layers.items():
        calls = stats["calls"]
        for key, value in stats.items():
            if key in RATIOS:
                out[f"{name}.{RATIOS[key]}"] = (value / calls if calls else 0.0, "ratio")
            elif key not in ("self_s", "total_s"):
                out[f"{name}.{key}"] = (value, "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (
            sum(v["self_s"] for k, v in layers.items() if k.split(".")[0] == module), "s")
    out["equivalence.automorphism_group.total_s"] = (
        layers["equivalence.automorphism_group"]["total_s"], "s")
    return out


def level_metrics(unit):
    out = {f"search.level{d}_s": (unit["level_s"][d], "s") for d in LEVELS}
    out["search.spaces_per_s"] = (
        unit["level_spaces"] / sum(unit["level_s"].values()), "1/s")
    return out


def median_metrics(per_unit):
    """Median of each metric over the units."""
    return {
        name: {"value": statistics.median(m[name][0] for m in per_unit), "unit": unit}
        for name, (_, unit) in per_unit[0].items()
    }


def run_unit(workload, seed, unit, spans, deadline):
    """One unit in a fresh process; returns (result or None, error text)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    job = {"workload": workload, "seed": seed, "unit": unit, "src": str(SRC),
           "spans": spans, "spawned": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "unit timed out"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def machine_record():
    digest = hashlib.sha256()
    for path in sorted((SRC / "spreadrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "spreadrank" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'spreadrank'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    check = WORKLOADS[args.workload].check
    tag = f"{args.workload}-seed{args.seed}"
    spans_path = str(OUT / f"{tag}.spans.json") if args.trace else None
    start = time.monotonic()
    measure_end = start + args.seconds
    hard_end = start + HARD_LIMIT_S

    untraced, pairs, errors, durations = [], [], [], []
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        attempted += 1
        unit, err = run_unit(args.workload, args.seed, attempted - 1, None, hard_end)
        problems = [err] if unit is None else check(unit["summary"])
        if unit is not None and args.trace:
            traced_unit, err = run_unit(args.workload, args.seed, attempted - 1,
                                        spans_path, hard_end)
            if traced_unit is None:
                problems.append(err)
            else:
                problems += check(traced_unit["summary"])
                if traced_unit["summary"] != unit["summary"]:
                    problems.append("traced summary differs from the untraced one")
                pairs.append((unit, traced_unit))
        if unit is not None:
            untraced.append(unit)
        if problems:
            failed += 1
            errors.append({"unit": attempted - 1, "problems": problems})
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if now + statistics.median(durations) > measure_end or now + max(durations) > hard_end:
            break

    if not untraced or (args.trace and not pairs):
        print(json.dumps({"errors": errors}), file=sys.stderr)
        return 1
    if args.trace:
        metrics = median_metrics([{**layer_metrics(t["layers"]), **level_metrics(u)}
                                  for u, t in pairs])
        overhead = (statistics.median(t["solve_s"] for _, t in pairs)
                    - statistics.median(u["solve_s"] for u, _ in pairs))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = median_metrics([
            {key: (u[key], unit) for key, unit in
             (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))}
            for u in untraced
        ])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine_record(),
        "summary": untraced[0]["summary"],
        "units": [{k: u[k] for k in ("solve_s", "solve_cpu_s", "setup_s", "peak_rss_mb",
                                     "level_s")}
                  for u in untraced],
        "errors": errors,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
