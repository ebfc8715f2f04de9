"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Budgets are wall-clock upper bounds, generous on purpose;
all Monte-Carlo runs are seeded, so the suite is deterministic."""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ellipe

from lkpolar.cli import run as cli_run
from lkpolar.geomkit import RandomSource, ball_volume, sample_grassmannian, sample_unit_sphere
from lkpolar.germ import germ_from_name, verify_local_identities
from lkpolar.lkmeasure import (
    exchange_lambda0,
    kinematic_check,
    lk_measure,
    shape_from_name,
)
from lkpolar.plstrata import (
    DegenerateDirectionError,
    cube_boundary,
    euler_characteristic,
    octahedron_boundary,
    pl_morse_indices,
    torus_7vertex,
)
from lkpolar.polar import polar_length, polar_sample

from oracles import steiner_oracle


def _report(name, ok, elapsed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f} s){' - ' + detail if detail else ''}"
    print(line)
    assert ok, line


def combined_ok(a, b, mult=3.0):
    scale = 1.0 + abs(a.value) + abs(b.value)
    return abs(a.value - b.value) <= mult * math.hypot(a.std_error, b.std_error) + 1e-9 * scale


def test_criterion_1_pl_morse_equals_euler():
    t0 = time.perf_counter()
    gen = RandomSource(101).generator()
    ok = True
    for K in (octahedron_boundary(), torus_7vertex(), cube_boundary()):
        chi = euler_characteristic(K)
        done = 0
        while done < 100:
            v = sample_unit_sphere(K.ambient_dim, gen)
            try:
                idx = pl_morse_indices(K, v)
            except DegenerateDirectionError:
                continue
            done += 1
            ok &= sum(idx.values()) == chi
    elapsed = time.perf_counter() - t0
    _report("1 (PL Morse = Euler characteristic)", ok and elapsed < 10.0, elapsed)


def test_criterion_2_exchange_formula():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for name, ref, n in (("sphere:1", 2.0, 2000), ("torus:2:1", 0.0, 2000), ("octahedron", 2.0, 2000)):
        est = exchange_lambda0(shape_from_name(name), n, RandomSource(102))
        good = abs(est.value - ref) <= 3 * est.std_error + 1e-9
        ok &= good
        detail.append(f"{name}={est.value:.4f}")
    elapsed = time.perf_counter() - t0
    _report("2 (exchange formula)", ok and elapsed < 60.0, elapsed, ", ".join(detail))


def test_criterion_3_intrinsic_volumes_and_steiner():
    t0 = time.perf_counter()
    cube = shape_from_name("cube")
    lam = [lk_measure(cube, k, RandomSource(103, k)) for k in range(4)]
    refs = [1.0, 3.0, 3.0, 1.0]
    ok = all(
        abs(e.value - r) <= max(0.01 * r, 3 * e.std_error) for e, r in zip(lam, refs)
    )
    fit = steiner_oracle(cube, np.linspace(0.1, 1.5, 12), 600_000, RandomSource(104))
    for k in range(4):
        target = lam[k].value * ball_volume(3 - k)
        ok &= abs(fit.coefficients[k] - target) <= 0.02 * abs(target)
    elapsed = time.perf_counter() - t0
    _report(
        "3 (intrinsic volumes + Steiner fit)",
        ok and elapsed < 120.0,
        elapsed,
        "Lambda=" + ",".join(f"{e.value:.4f}" for e in lam),
    )


@pytest.mark.parametrize(
    "shape,refs,n_planes",
    [
        ("cube", (1.0, 3.0, 3.0, 1.0), 2000),
        ("disk:1", (1.0, math.pi, math.pi), 800),
        ("sphere:1", (2.0, 0.0, 4 * math.pi), 500),
        ("torus:2:1", (0.0, 0.0, 8 * math.pi**2), 500),
        # the other smooth catalog shapes at every order, with planes per
        # order near the benchmark's budgets
        ("ball:1", (1.0, 4.0, 2 * math.pi, 4 * math.pi / 3), (10, 3, 3, 1)),
        ("hemisphere:1", (1.0, math.pi, 2 * math.pi, 0.0), (10, 60, 10, 1)),
        ("circle:1", (0.0, 2 * math.pi, 0.0, 0.0), (10, 300, 10, 1)),
        # a plane curve: Lambda_1 is the perimeter 4 a E(1 - b^2 / a^2)
        ("ellipse:2:1", (0.0, 8.0 * ellipe(0.75), 0.0), (10, 10, 1)),
    ],
)
def test_criterion_4_main_theorem(shape, refs, n_planes):
    t0 = time.perf_counter()
    X = shape_from_name(shape)
    ok = True
    detail = []
    for q, ref in enumerate(refs):
        lam = lk_measure(X, q, RandomSource(105, q))
        planes = n_planes[q] if isinstance(n_planes, tuple) else n_planes
        pol = polar_length(X, q, planes, RandomSource(106, q)).estimate
        good = combined_ok(lam, pol)
        # both routes must also sit on the closed form; the curvature route
        # is exact up to quadrature, far inside 1e-9 of the scale, and so is
        # the polar route at q = n - 1, which values the one plane R^n
        scale = 1.0 + abs(ref)
        good &= abs(lam.value - ref) <= 3 * lam.std_error + 1e-9 * scale
        slack = 1e-9 if q == X.ambient_dim - 1 else 0.01
        good &= abs(pol.value - ref) <= 3 * pol.std_error + slack * scale
        ok &= good
        detail.append(f"q{q}: {lam.value:.4f}|{pol.value:.4f}")
    elapsed = time.perf_counter() - t0
    _report(
        f"4 (L_q = Lambda_q, {shape})", ok and elapsed < 180.0, elapsed, ", ".join(detail)
    )


@pytest.mark.parametrize("shape", ["cube-boundary", "octahedron", "torus7"])
def test_criterion_4_closed_pl_surfaces(shape):
    # the curvature route is exact: chi, 0 and the area; the polar route sits
    # within 3 se of each at 90 planes per order
    t0 = time.perf_counter()
    X = shape_from_name(shape)
    K = X.pl
    tri = K.vertices[np.array(K.cells[2])]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area = math.fsum((0.5 * np.linalg.norm(cross, axis=1)).tolist())
    ok = True
    detail = []
    for q, ref in enumerate((euler_characteristic(K), 0.0, area)):
        lam = lk_measure(X, q, RandomSource(112, q))
        pol = polar_length(X, q, 90, RandomSource(113, q)).estimate
        scale = 1.0 + abs(ref)
        ok &= abs(lam.value - ref) <= 1e-12 * scale and lam.std_error == 0.0
        ok &= abs(pol.value - ref) <= 3 * pol.std_error + 1e-9 * scale
        ok &= combined_ok(lam, pol)
        detail.append(f"q{q}: {lam.value:.6g}|{pol.value:.6g}+-{pol.std_error:.2g}")
    elapsed = time.perf_counter() - t0
    _report(f"4 (L_q = Lambda_q, {shape})", ok and elapsed < 60.0, elapsed, ", ".join(detail))


def test_criterion_5_kinematic_constancy():
    t0 = time.perf_counter()
    ratios = {}
    for name in ("cube", "ball:1", "ball:2"):
        X = shape_from_name(name)
        for k in (1, 2):
            chk = kinematic_check(X, k, 2500, RandomSource(107, k))
            ratios[(name, k)] = chk.ratio.value
    ok = True
    for k in (1, 2):
        vals = [ratios[(n, k)] for n in ("cube", "ball:1", "ball:2")]
        ok &= (max(vals) - min(vals)) <= 0.05 * max(abs(v) for v in vals)
    elapsed = time.perf_counter() - t0
    _report(
        "5 (kinematic constancy)",
        ok and elapsed < 180.0,
        elapsed,
        ", ".join(f"{k}:{v:.4f}" for k, v in ratios.items()),
    )


@pytest.mark.parametrize("spec", ["rays:2", "rays:3", "rays:5", "halfplane:3", "cone-circle:0.6"])
def test_criterion_6_local_identities(spec):
    t0 = time.perf_counter()
    g = germ_from_name(spec)
    report = verify_local_identities(g, RandomSource(108), n_samples=4000, n_planes=1500)
    ok = report.passes
    if spec.startswith("rays:"):
        m = int(spec.split(":")[1])
        row1, row0 = report.rows[1], report.rows[0]
        for est in (row1.sigma_diff, row1.polar, row1.curvature):
            ok &= abs(est.value - m / 2.0) <= 3 * est.std_error + 1e-9
        for est in (row0.sigma_diff, row0.polar, row0.curvature):
            ok &= abs(est.value - (1.0 - m / 2.0)) <= 3 * est.std_error + 1e-9
    if spec == "halfplane:3":
        row2 = report.rows[2]
        for est in (row2.sigma_diff, row2.polar, row2.curvature):
            ok &= abs(est.value - 0.5) <= 3 * est.std_error + 1e-9
    # refined identity at the apex stratum
    gap = abs(report.refined_lhs.value - report.refined_rhs.value)
    tol = 3 * math.hypot(report.refined_lhs.std_error, report.refined_rhs.std_error) + 1e-9
    ok &= gap <= tol
    elapsed = time.perf_counter() - t0
    _report(f"6 (local identities, {spec})", ok and elapsed < 120.0, elapsed)


def test_criterion_7_degeneracy_discipline():
    from lkpolar.geomkit import LinearSubspace

    t0 = time.perf_counter()
    ok = True
    detail = []
    for name in ("cube", "sphere:1", "torus:2:1", "disk:1", "hemisphere:1"):
        X = shape_from_name(name)
        gen = RandomSource(109).generator()
        n = 150
        rejected = 0
        for _ in range(n):
            P = sample_grassmannian(3, 2, gen)
            rejected += polar_sample(X, P).degenerate
        ok &= rejected / n < 0.01
        detail.append(f"{name}:{rejected}/{n}")
    # deliberately degenerate planes are flagged every time
    cube = shape_from_name("cube")
    for basis in (
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    ):
        P = LinearSubspace(3, np.array(basis))
        ok &= polar_sample(cube, P).degenerate
    torus = shape_from_name("torus:2:1")
    for t in np.linspace(0.0, math.pi, 8, endpoint=False):
        w = np.array([math.cos(t), math.sin(t), 0.0])
        P = LinearSubspace.from_vectors(np.array([[0.0, 0.0, 1.0], w]))
        ok &= polar_sample(torus, P).degenerate
    elapsed = time.perf_counter() - t0
    _report("7 (degeneracy discipline)", ok, elapsed, ", ".join(detail))


def test_criterion_8_determinism():
    t0 = time.perf_counter()

    def strip(report):
        rows = json.loads(json.dumps(report.get("rows", [])))
        for row in rows:
            row.pop("wall_time_ms", None)
        return rows

    ok = True
    argv = ["verify", "--shape", "cube", "--q", "0,1", "--samples", "200", "--seed", "42"]
    a, _ = cli_run(argv)
    b, _ = cli_run(argv)
    ok &= strip(a) == strip(b)
    # estimator-level bitwise check, rerun with the same seed
    X = shape_from_name("disk:1")
    r1 = polar_length(X, 1, 60, RandomSource(110))
    r2 = polar_length(X, 1, 60, RandomSource(110))
    ok &= r1.estimate.value == r2.estimate.value
    ok &= r1.estimate.std_error == r2.estimate.std_error
    e1 = exchange_lambda0(X, 80, RandomSource(111))
    e2 = exchange_lambda0(X, 80, RandomSource(111))
    ok &= (e1.value, e1.std_error) == (e2.value, e2.std_error)
    elapsed = time.perf_counter() - t0
    _report("8 (bitwise determinism)", ok, elapsed)
