"""Benchmark of the two-route verifier.

    python3 perfbench/run.py --workload smooth-verify --seed 1 --seconds 44 --trace 0

Workloads (rows and budgets in ``workloads.py``):

- ``smooth-verify``: ``verify`` rows on the six smooth catalog shapes plus the
  exchange formula on the sphere and the torus.  Its time goes to the polar
  route's silhouette tracing, overlap tests and fold alpha, and to the smooth
  shapes' Newton solves; it never touches ``plstrata``.
- ``pl-verify``: ``verify`` rows on four catalog complexes and a seeded,
  rotated 3x3x3 Kuhn grid of the unit cube (883 cells), plus the exchange
  formula on three of them.  Its time goes to normal links and Morse indices,
  the normal-sphere Monte Carlo and per-cell span SVDs; it runs no smooth code.
- ``germ-local``: the local identity table of four cone germs.  Its time goes
  to slice Euler characteristics and local polar lengths; it never calls the
  polar route or smooth shapes.

The load is a closed loop with one client: serial library calls in one
process, ``threads`` at its default of 1, BLAS pinned to one thread.  Each
repetition runs in a fresh interpreter (``rep.py``), because the polar
route's normal-link cache is global and a CLI user pays the cold build on
every run.  A run starts SETUP_PROBES interpreters that only set up, repeats
the workload while the next repetition is expected to end within
``--seconds``, fills the time left with more set-up probes, and reports
medians.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  Times
are in seconds at the reference speed of ``speed.py``, from probes of the
host's speed taken just before and after each piece of timed work; the wall
times are in the ``INFO`` line.

- ``setup_s``: interpreter start to inputs ready (``import lkpolar`` and every
  shape, grid and germ), median over every interpreter of the run;
- ``verify_s``: seconds for all rows: the sum over the workload's calls (a
  verify or exchange row, or a germ) of the call's median over repetitions,
  so that a slow spell of the host in one repetition is outvoted call by call;
- ``pass_frac``: rows passed over rows attempted.  A fraction failed would be
  0 on most seeds, and one chance 3-sigma miss would move it by more than any
  bound; the raw counts are the result's ``failed`` and ``attempted``;
- ``rel_se_rms``: RMS over every estimate of se / (1 + |reference, else
  value|); exact estimates count as 0, and it repeats exactly for a seed;
- ``peak_rss_mb``: peak resident memory of a repetition, median.

With ``--trace 1`` it carries the per-layer metrics: untraced and traced
repetitions alternate, span metrics are medians over the traced ones,
per-plane and per-direction times (at reference speed) medians over the
untraced ones, and ``trace.overhead_frac`` compares the two.

A repetition whose estimates differ bit for bit from the first one, or which
gives a value that is not finite, makes the result ``"correct": false``.
Every failed row is named on stdout before the result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "lkpolar"

SETUP_PROBES = 3  # before the repetitions; more fill the time left after them
HARD_LIMIT_S = 170  # a run gives up, stopping its child, after this long
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SPANS = (  # spans reported by call count and inclusive seconds
    "polar.polar_length",
    "polar.polar_sample",
    "polar.trace_silhouette",
    "polar.check_genericity",
    "polar.alpha_index",
    "smoothshape.height_critical_points",
    "smoothshape.integrate_stratum",
    "plstrata.normal_link",
    "plstrata.link_cells",
    "plstrata.normal_morse_index",
    "plstrata.normal_morse_index_many",
    "plstrata.pl_morse_indices",
    "lkmeasure.lk_measure",
    "lkmeasure.exchange_lambda0",
    "germ.sigma_invariant",
    "germ.local_polar_length",
    "germ.local_lambda",
    "germ.slice_chi_stabilized",
    "geomkit.sample_grassmannian",
    "geomkit.sample_unit_sphere",
)
SELF_TIME = ("polar.polar_length", "lkmeasure.lk_measure")
REJECT_REASONS = ("fold", "double", "limit", "span", "alpha", "other")


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, trace: int, give_up: float) -> dict:
    """Run rep.py in a fresh interpreter and return its record, with
    ``setup_s`` measured from just before the spawn and scaled to reference
    speed by the probes just before the spawn and just after set-up.  The
    child is killed at the ``time.monotonic()`` reading ``give_up``."""
    env = dict(os.environ, **BLAS_ENV)
    before = speed.probe()
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(give_up - t0, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"run exceeded {HARD_LIMIT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    rec = json.loads(lines[-1])
    rec["setup_wall_s"] = rec["ready"] - t0
    rec["setup_s"] = speed.scaled(rec["setup_wall_s"], before, rec["probe_s"])
    return rec


def src_line_count() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py")))


def median(values):
    return statistics.median(values) if values else 0.0


def rms(values):
    return math.sqrt(math.fsum(v * v for v in values) / len(values)) if values else 0.0


def estimates(rep: dict) -> list:
    """(module, value, std_error, n_samples, reference) of every estimate."""
    return [e for row in rep["rows"] for e in row["estimates"]]


def se_sqrt_s(rep: dict, module: str) -> float:
    """RMS of se * sqrt(n_samples) / (1 + |value|) over the module's estimates."""
    return rms([se * math.sqrt(n) / (1.0 + abs(v))
                for m, v, se, n, _ in estimates(rep) if m == module])


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    rows = reps[0]["rows"]
    failed = sum(not r["ok"] for r in rows)
    rel_se = [se / (1.0 + abs(v if ref is None else ref)) for _, v, se, _, ref in estimates(reps[0])]
    return {
        "setup_s": (median(setups), "s"),
        "verify_s": (sum(median(ts) for ts in zip(*(r["task_s"] for r in reps))), "s"),
        "pass_frac": ((len(rows) - failed) / len(rows), "fraction"),
        "rel_se_rms": (rms(rel_se), "ratio"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: spans from the traced repetitions, row timings from
    the untraced ones, counts from the first repetition (they repeat)."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    out = {}

    def span_median(name, key):
        return median([t["spans"].get(name, {}).get(key, 0.0) for t in traced])

    for span in SPANS:
        out[f"{span}.calls"] = (span_median(span, "calls"), "count")
        out[f"{span}.s"] = (span_median(span, "s"), "s")
        if span in SELF_TIME:
            out[f"{span}.self_s"] = (span_median(span, "self_s"), "s")
    for span in tracing.PER_SAMPLE:
        out[f"{span}.p50_ms"] = (span_median(span, "p50_ms"), "ms")
        out[f"{span}.tail_ms"] = (span_median(span, "tail_ms"), "ms")

    rows = plain[0]["rows"]
    for shape, q in workloads.POLAR_ROWS:
        times = [r["polar"]["seconds"] / r["polar"]["n_planes"]
                 for rep in plain for r in rep["rows"]
                 if r.get("polar") and (r["polar"]["shape"], r["polar"]["q"]) == (shape, q)]
        out[f"polar.ms_per_plane.{shape.replace(':', '-')}.q{q}"] = (1e3 * median(times), "ms")

    polar = [r["polar"] for r in rows if r.get("polar")]
    n_planes = sum(p["n_planes"] for p in polar)
    drawn = traced[0]["within"]["polar_sample_in_polar_length"]
    out["polar.planes_rejected"] = (sum(p["n_rejected"] for p in polar), "count")
    out["polar.accept_ratio"] = (n_planes / drawn if drawn else 0.0, "ratio")
    for reason in REJECT_REASONS:
        out[f"polar.reject.{reason}"] = (sum(p["reasons"].get(reason, 0) for p in polar), "count")
    out["polar.se_sqrt_s"] = (se_sqrt_s(plain[0], "polar"), "ratio")

    exch = [r["exchange"] for r in rows if r.get("exchange")]
    n_dirs = sum(e["n_dirs"] for e in exch)
    exch_s = median([sum(r["exchange"]["seconds"] for r in rep["rows"] if r.get("exchange"))
                     for rep in plain])
    dirs_drawn = traced[0]["within"]["sphere_in_exchange"]
    out["lkmeasure.exchange.ms_per_dir"] = (1e3 * exch_s / n_dirs if n_dirs else 0.0, "ms")
    out["lkmeasure.exchange.accept_ratio"] = (n_dirs / dirs_drawn if dirs_drawn else 0.0, "ratio")
    out["lkmeasure.se_sqrt_s"] = (se_sqrt_s(plain[0], "lkmeasure"), "ratio")

    germ_planes = sum(r.get("germ_planes", 0) for r in rows)
    germ_drawn = traced[0]["within"]["grassmannian_in_local_polar"]
    out["germ.planes_accept_ratio"] = (germ_planes / germ_drawn if germ_drawn else 0.0, "ratio")
    out["germ.se_sqrt_s"] = (se_sqrt_s(plain[0], "germ"), "ratio")

    untraced = median([r["verify_s"] for r in plain])
    out["trace.overhead_frac"] = (median([t["verify_s"] for t in traced]) / untraced - 1.0, "ratio")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int):
    """Set-up probes, then repetitions while the next one is expected to end
    before the deadline, then more set-up probes in the time left."""
    start = time.monotonic()
    deadline = start + seconds
    give_up = start + HARD_LIMIT_S
    setups: list[float] = []
    probe_s: list[float] = []
    speed.warm_up()

    def probe():
        t0 = time.monotonic()
        setups.append(spawn(workload, seed, "setup", 0, give_up)["setup_s"])
        probe_s.append(time.monotonic() - t0)

    if not trace:  # per-layer metrics carry no set-up time
        for _ in range(SETUP_PROBES):
            probe()
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        kind = 1 if trace and len(traced) < len(plain) else 0
        t0 = time.monotonic()
        rec = spawn(workload, seed, "run", kind, give_up)
        durations.append(time.monotonic() - t0)
        (traced if kind else plain).append(rec)
        if not kind:
            setups.append(rec["setup_s"])
        need_more = trace and not traced
        if not need_more and time.monotonic() + median(durations) > deadline:
            break
    while not trace and time.monotonic() + median(probe_s) < deadline:
        probe()
    return setups, len(probe_s), plain, traced, time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("smooth-verify", "pl-verify", "germ-local"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no lkpolar sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setups, probes, plain, traced, elapsed = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    reps = plain + traced
    digests = sorted({r["digest"] for r in reps})
    rows = plain[0]["rows"]
    correct = len(digests) == 1 and all(
        math.isfinite(v) and math.isfinite(se) for rep in reps for _, v, se, _, _ in estimates(rep))
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print(f"FAILED {r['name']}: " + (r["error"] or _estimates_text(r)))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": BLAS_ENV, "src_lines": src_line_count(), "digest": digests,
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "setup_probes": probes, "elapsed_s": elapsed,
        "verify_s_each": [r["verify_s"] for r in plain],
        "verify_wall_s_each": [r["verify_wall_s"] for r in plain],
        "pass_frac_base": f"{len(rows) - len(failed)} passed / {len(rows)} rows",
        "failed_rows": [r["name"] for r in failed],
    }
    if args.trace:
        info["tail_pct"] = {k: v["tail_pct"] for k, v in traced[0]["spans"].items()
                            if "tail_pct" in v}
    print("INFO " + json.dumps(info))
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    print(json.dumps({
        "correct": correct, "attempted": len(rows), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _estimates_text(row: dict) -> str:
    parts = [f"{m} {v:.6g} +- {se:.2g}" + ("" if ref is None else f" (reference {ref:g})")
             for m, v, se, _, ref in row["estimates"]]
    return "; ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
