"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload pl-verify --seed 1 --mode run --trace 0

``--mode setup`` imports lkpolar, builds the inputs, times the host speed
probe of ``speed.py`` once and stops; ``--mode run`` then runs every row,
timing the probe again after each.  The last stdout line is one JSON object;
``ready`` is the ``time.monotonic()`` reading when the inputs were ready,
which the parent compares with its own reading at spawn to get the set-up
time from interpreter start.  ``task_s`` holds the time of each call of
``workloads.tasks`` at reference speed (``speed.scaled`` around the call),
``verify_s`` their sum and ``verify_wall_s`` the wall time of the calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports lkpolar)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.build(args.workload, args.seed)
    out = {"ready": time.monotonic()}
    import speed  # after set-up, which it is not part of

    speed.warm_up()
    before = out["probe_s"] = speed.probe()
    if args.mode == "run":
        rows, wall, task_s = [], 0.0, []
        for task in workloads.tasks(args.workload, inputs, args.seed):
            t0 = time.perf_counter()
            done = task()
            seconds = time.perf_counter() - t0
            after = speed.probe(seconds)
            wall += seconds
            task_s.append(speed.scaled(seconds, before, after))
            for row in done:  # per-plane and per-direction times, likewise
                for timed in (row.polar, row.exchange):
                    if timed is not None:
                        timed["seconds"] = speed.scaled(timed["seconds"], before, after)
            rows.extend(done)
            before = after
        out["task_s"] = task_s
        out["verify_s"] = sum(task_s)
        out["verify_wall_s"] = wall
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["digest"] = workloads.digest(rows)
        out["rows"] = [_row_record(r) for r in rows]
        if tracer is not None:
            out["spans"] = tracer.summary()
            out["within"] = {
                "polar_sample_in_polar_length":
                    tracer.count_within("polar.polar_sample", "polar.polar_length"),
                "sphere_in_exchange":
                    tracer.count_within("geomkit.sample_unit_sphere", "lkmeasure.exchange_lambda0"),
                "grassmannian_in_local_polar":
                    tracer.count_within("geomkit.sample_grassmannian", "germ.local_polar_length"),
            }
    print(json.dumps(out))
    return 0


def _row_record(row: workloads.RowResult) -> dict:
    rec = {"name": row.name, "ok": row.ok, "error": row.error,
           "estimates": [[m, e.value, e.std_error, e.n_samples, ref]
                         for m, e, ref in row.estimates]}
    for key in ("polar", "exchange"):
        if getattr(row, key) is not None:
            rec[key] = getattr(row, key)
    if row.germ_planes:
        rec["germ_planes"] = row.germ_planes
    return rec


if __name__ == "__main__":
    sys.exit(main())
