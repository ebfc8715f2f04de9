"""Command-line entry point: seeded estimator runs and verification reports.

Subcommands:

  measure    curvature measures of a catalog shape
  polar      polar lengths of a catalog shape (optionally with per-plane CSV)
  verify     both routes side by side, pass/fail per order
  kinematic  kinematic-formula ratios across one or more shapes
  local      local identity table of a germ
  catalog    write a catalog complex in the PLSTRAT format

Every run is reproducible from the config echo embedded in the JSON report;
the exit status is 0 exactly when all report rows pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import germ as germs
from . import plstrata
from .geomkit import RandomSource, ball_volume
from .lkmeasure import CATALOG, kinematic_check, lk_measure, shape_from_name
from .polar import polar_length

SCHEMA_VERSION = 1

# closed-form references for the catalog, used for the plot-data column
REFERENCES = {
    "cube": {0: 1.0, 1: 3.0, 2: 3.0, 3: 1.0},
    "sphere:1": {0: 2.0, 1: 0.0, 2: 4 * math.pi},
    "torus:2:1": {0: 0.0, 1: 0.0, 2: 8 * math.pi**2},
    "disk:1": {0: 1.0, 1: math.pi, 2: math.pi},
    "hemisphere:1": {0: 1.0, 1: math.pi, 2: 2 * math.pi},
    "ball:1": {0: 1.0, 1: 4.0, 2: 2 * math.pi, 3: 4 * math.pi / 3},
    "circle:1": {0: 0.0, 1: 2 * math.pi},
}


def _reference(shape: str, k: int):
    return REFERENCES.get(shape, {}).get(k)


def combined_pass(a_val, a_se, b_val, b_se, tolerance: float) -> bool:
    scale = 1.0 + abs(a_val) + abs(b_val)
    return abs(a_val - b_val) <= tolerance * math.hypot(a_se, b_se) + 1e-9 * scale


def _row(quantity, k, est, *, shape=None, reference=None, ok=True, extra=None):
    row = {
        "quantity": quantity,
        "k": k,
        "value": est.value,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "seed": est.seed,
        "method": est.method,
        "pass": bool(ok),
    }
    if shape is not None:
        row["shape"] = shape
    if reference is not None:
        row["reference"] = reference
    if extra:
        row.update(extra)
    return row


def _checked_orders(text: str, name: str, lo: int, hi: int) -> list[int]:
    """The orders of ``text`` (all of lo..hi if it names none), each checked
    against the range that ``name`` allows, so a bad order fails before any work."""
    orders = [int(t) for t in text.split(",") if t != ""] or list(range(lo, hi + 1))
    bad = [k for k in orders if not lo <= k <= hi]
    if bad:
        raise ValueError(
            f"order(s) {','.join(map(str, bad))} out of range for {name}: valid orders are {lo}..{hi}")
    return orders


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return echo


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, int(1000 * (time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_measure(args) -> dict:
    X = shape_from_name(args.shape)
    rows = []
    for k in _checked_orders(args.k, args.shape, 0, X.ambient_dim):
        (est, ms) = _timed(lambda k=k: lk_measure(X, k, RandomSource(args.seed, k)))
        ref = _reference(args.shape, k)
        ok = ref is None or combined_pass(est.value, est.std_error, ref, 0.0, args.tolerance)
        rows.append(_row("Lambda", k, est, shape=args.shape, reference=ref, ok=ok,
                         extra={"wall_time_ms": ms}))
    return {"rows": rows}


def cmd_polar(args) -> dict:
    X = shape_from_name(args.shape)
    rows = []
    csv_rows = []
    resamples = {}
    for q in _checked_orders(args.q, args.shape, 0, X.ambient_dim):
        (res, ms) = _timed(
            lambda q=q: polar_length(
                X, q, args.samples, RandomSource(args.seed, q), keep_rows=args.csv is not None
            )
        )
        ref = _reference(args.shape, q)
        est = res.estimate
        ok = ref is None or combined_pass(est.value, est.std_error, ref, 0.0, args.tolerance)
        rows.append(_row("L", q, est, shape=args.shape, reference=ref, ok=ok,
                         extra={"wall_time_ms": ms, "n_rejected": res.n_rejected}))
        resamples[str(q)] = res.reject_reasons
        for i, basis, per_stratum, reason in res.per_plane:
            csv_rows.append((q, i, basis, per_stratum, reason))
    report = {"rows": rows, "resamples": resamples}
    if args.csv:
        _write_polar_csv(args.csv, csv_rows)
    return report


def _write_polar_csv(path, csv_rows):
    keys = sorted({k for _, _, _, per, _ in csv_rows for k in per})
    with open(path, "w") as fh:
        header = ["q", "sample_index", "plane_frame"] + [f"m:{k}" for k in keys] + ["degenerate"]
        fh.write(",".join(header) + "\n")
        for q, i, basis, per, reason in csv_rows:
            frame = ";".join(repr(float(x)) for x in np.asarray(basis).ravel())
            vals = [repr(float(per[k])) if k in per else "" for k in keys]
            fh.write(",".join([str(q), str(i), frame] + vals + [reason or "ok"]) + "\n")


def cmd_verify(args) -> dict:
    X = shape_from_name(args.shape)
    rows = []
    resamples = {}
    for q in _checked_orders(args.q, args.shape, 0, X.ambient_dim):
        (lam, ms1) = _timed(lambda q=q: lk_measure(X, q, RandomSource(args.seed, q)))
        (res, ms2) = _timed(
            lambda q=q: polar_length(X, q, args.samples, RandomSource(args.seed, 1000 + q))
        )
        pol = res.estimate
        ok = combined_pass(lam.value, lam.std_error, pol.value, pol.std_error, args.tolerance)
        ref = _reference(args.shape, q)
        rows.append(
            {
                "quantity": "Lambda_vs_L",
                "k": q,
                "shape": args.shape,
                "value": lam.value,
                "std_error": lam.std_error,
                "value_b": pol.value,
                "std_error_b": pol.std_error,
                "n_samples": lam.n_samples,
                "n_samples_b": pol.n_samples,
                "seed": args.seed,
                "reference": ref,
                "pass": ok,
                "wall_time_ms": ms1 + ms2,
                "n_rejected": res.n_rejected,
            }
        )
        resamples[str(q)] = res.reject_reasons
    return {"rows": rows, "resamples": resamples}


def cmd_kinematic(args) -> dict:
    shapes = args.shape.split("+")
    rows = []
    ratios: dict[int, list] = {}
    checked = []
    for name in shapes:
        X = shape_from_name(name)
        checked.append((name, X, _checked_orders(args.k, name, 1, X.ambient_dim - 1)))
    for name, X, orders in checked:
        n = X.ambient_dim
        for k in orders:
            (chk, ms) = _timed(
                lambda X=X, k=k: kinematic_check(X, k, args.samples, RandomSource(args.seed, k))
            )
            # the ratio is the constant b_k b_(n-k) / (C(n, k) b_n) of the
            # kinematic formula; when Lambda_(n-k) vanishes, so does the numerator
            if chk.ratio is not None:
                est = chk.ratio
                ref = ball_volume(k) * ball_volume(n - k) / (math.comb(n, k) * ball_volume(n))
            else:
                est, ref = chk.numerator, 0.0
            rows.append(
                _row(
                    "kinematic_ratio" if chk.ratio is not None else "kinematic_numerator",
                    k,
                    est,
                    shape=name,
                    reference=ref,
                    ok=combined_pass(est.value, est.std_error, ref, 0.0, args.tolerance),
                    extra={"wall_time_ms": ms, "flagged_division": chk.flagged_division},
                )
            )
            if chk.ratio is not None:
                ratios.setdefault(k, []).append(chk.ratio.value)
    constants = {}
    for k, vals in ratios.items():
        spread_ok = (max(vals) - min(vals)) <= 0.05 * max(abs(v) for v in vals)
        constants[str(k)] = {"fitted": sum(vals) / len(vals), "pass": spread_ok}
        rows.append(
            {
                "quantity": "kinematic_constancy",
                "k": k,
                "shape": "+".join(shapes),
                "value": max(vals) - min(vals),
                "std_error": 0.0,
                "n_samples": args.samples,
                "seed": args.seed,
                "pass": spread_ok,
            }
        )
    return {"rows": rows, "fitted_constants": constants}


def cmd_local(args) -> dict:
    g = germs.germ_from_name(args.germ)
    n = g.ambient_dim
    wanted = set(_checked_orders(args.k, args.germ, 0, n))
    (report, ms) = _timed(
        lambda: germs.verify_local_identities(
            g, RandomSource(args.seed), n_samples=args.samples, n_planes=args.samples
        )
    )
    rows = []
    for row in report.rows:
        if row.k not in wanted:
            continue
        for name, est in (
            ("sigma_diff", row.sigma_diff),
            ("L_loc", row.polar),
            ("lambda_loc", row.curvature),
        ):
            rows.append(_row(name, row.k, est, shape=args.germ, ok=row.agrees(args.tolerance),
                             extra={"wall_time_ms": ms}))
    ok = germs.agree(report.refined_lhs, report.refined_rhs, args.tolerance)
    rows.append(_row("refined_L0", 0, report.refined_lhs, shape=args.germ,
                     reference=report.refined_rhs.value, ok=ok))
    return {"rows": rows}


def cmd_catalog(args) -> dict:
    if args.name not in CATALOG:
        raise ValueError(f"unknown catalog complex {args.name!r}")
    K = CATALOG[args.name][0]()
    if not isinstance(K, plstrata.StratifiedComplex):
        raise ValueError(f"{args.name!r} is a smooth shape, not a catalog complex")
    plstrata.save_plstrat(K, args.out)
    return {"rows": [{"quantity": "catalog", "k": 0, "value": float(len(K.vertices)),
                      "std_error": 0.0, "n_samples": 1, "seed": 0, "pass": True,
                      "shape": args.name, "path": args.out}]}


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def emit_plot_data(report: dict, path: str) -> None:
    """CSV of (quantity, k, value, std_error, reference) for external plotting."""
    with open(path, "w") as fh:
        fh.write("quantity,k,value,std_error,reference\n")
        for row in report.get("rows", []):
            ref = row.get("reference")
            fh.write(
                f"{row['quantity']},{row['k']},{row['value']!r},{row['std_error']!r},"
                f"{'' if ref is None else repr(ref)}\n"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkpolar",
        description="Curvature measures of stratified sets, by two independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shape=True, orders="--k"):
        if shape:
            p.add_argument("--shape", required=True, help="catalog shape, e.g. torus:2:1")
        p.add_argument(orders, default="", help="comma-separated orders (default: all valid)")
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=3.0,
                       help="pass tolerance in combined standard errors")
        p.add_argument("--report", default=None, help="write the JSON report here")
        p.add_argument("--csv", default=None, help="write per-sample/plot CSV here")

    p = sub.add_parser("measure", help="curvature measures")
    common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("polar", help="polar lengths")
    common(p, orders="--q")
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("verify", help="two-route comparison")
    common(p, orders="--q")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kinematic", help="kinematic-formula ratios; join shapes with +")
    common(p)
    p.set_defaults(func=cmd_kinematic)

    p = sub.add_parser("local", help="local identities of a germ")
    p.add_argument("--germ", required=True, help="germ, e.g. rays:3")
    common(p, shape=False)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("catalog", help="write a catalog complex as PLSTRAT")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog)
    return parser


def run(argv=None) -> tuple[dict, int]:
    """Execute a CLI invocation and return (report, exit_status)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        tolerance = getattr(args, "tolerance", 1.0)
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"--tolerance must be finite and > 0, not {tolerance!r}")
        seed = getattr(args, "seed", 0)
        if seed < 0:
            raise ValueError(f"--seed must be >= 0, not {seed}")
        samples = getattr(args, "samples", 1)
        if samples < 1:
            raise ValueError(f"--samples must be >= 1, not {samples}")
        body = args.func(args)
        report = {
            "schema": SCHEMA_VERSION,
            "config": _config_echo(args),
            "wall_time_ms": int(1000 * (time.perf_counter() - t0)),
        }
        report.update(body)
        if getattr(args, "report", None):
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=2)
        if getattr(args, "csv", None) and args.command != "polar":
            emit_plot_data(report, args.csv)
    # a report says as plainly as bad input that a resample quota ran out
    # (RuntimeError) or that an output path cannot be written (OSError)
    except (ValueError, NotImplementedError, RuntimeError, OSError) as err:
        error = f"cannot write {err.filename!r}: {err.strerror}" if isinstance(err, OSError) else err
        return {"schema": SCHEMA_VERSION, "error": str(error), "config": _config_echo(args)}, 2
    status = 0 if all(r.get("pass", True) for r in report.get("rows", [])) else 1
    return report, status


def main(argv=None) -> int:
    report, status = run(argv)
    rows = report.get("rows", [])
    for row in rows:
        ref = row.get("reference")
        tail = "" if ref is None else f" (reference {ref:g})"
        flag = "pass" if row.get("pass", True) else "FAIL"
        extra = "" if "value_b" not in row else f" | other route {row['value_b']:.6g} +- {row['std_error_b']:.2g}"
        print(
            f"[{flag}] {row.get('shape', '')} {row['quantity']}[{row['k']}] = "
            f"{row['value']:.6g} +- {row['std_error']:.2g}{extra}{tail}"
        )
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
