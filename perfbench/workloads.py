"""Inputs and rows of the three benchmark workloads.

Every input is derived from the workload seed: the ``RandomSource`` master
seed of each route and the rotation of the Kuhn grid.  The routes are seeded
the way ``lkpolar verify`` seeds them, ``(seed, q)`` for ``lk_measure`` and
``(seed, 1000 + q)`` for ``polar_length``.

Library functions are looked up on their module at call time (``polar.
polar_length``, not a name bound at import), so that the traced run sees
every call through the wrappers of ``tracing.py``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from lkpolar import cli, germ, lkmeasure, plstrata, polar
from lkpolar.geomkit import RandomSource

TOLERANCE = 3.0  # combined standard errors, as in ``lkpolar verify``

# Budgets per row.  Plane counts differ by row so that the cheap rows whose
# Monte-Carlo error is not exactly zero (disk, hemisphere, circle q=1) carry
# enough planes for their standard errors, and hence ``rel_se_rms``, to be
# steady from seed to seed, while the expensive fold rows (q=1 on closed
# surfaces, the ball at q=1 and q=2) keep a few planes each.
SMOOTH_SHAPES = ("sphere:1", "torus:2:1", "disk:1", "hemisphere:1", "ball:1", "circle:1")
SMOOTH_PLANES = {
    ("sphere:1", 1): 3,
    ("torus:2:1", 1): 3,
    ("ball:1", 1): 3,
    ("ball:1", 2): 3,
    ("hemisphere:1", 1): 60,
    ("disk:1", 1): 80,
    ("circle:1", 1): 300,
}
SMOOTH_DEFAULT_PLANES = 10
SMOOTH_EXCHANGE = {"sphere:1": 2.0, "torus:2:1": 0.0}  # shape -> Euler characteristic
SMOOTH_EXCHANGE_DIRS = 40

# The grid is paid mostly in per-shape set-up (normal links, built once and
# cached by the polar route); the small complexes mostly in per-sample
# kernels.  The budgets give each half about the same share of ``verify_s``.
PL_SHAPES = ("cube", "cube-boundary", "octahedron", "torus7")
GRID = "grid"
GRID_SIZE = 3  # 3x3x3 unit cubes, 6 Kuhn tetrahedra each: 883 cells
PL_PLANES = 90
N_DIRS = 4000  # normal-sphere directions per cell; smooth shapes ignore it
# Grid planes per order: q=0 and q=2 values are exact per plane, q=1 needs
# enough planes for its standard error to be a fair yardstick
GRID_PLANES = {0: 2, 1: 6, 2: 2, 3: 1}
GRID_DIRS = 400
# References that cli.REFERENCES lacks: chi for Lambda_0, and Lambda_1 = 0 on
# closed surfaces, as for sphere:1 and torus:2:1.  The grid has the unit
# cube's, which subdivision and rotation leave unchanged.
PL_REFERENCES = {
    "cube-boundary": {0: 2.0, 1: 0.0},
    "octahedron": {0: 2.0, 1: 0.0},
    "torus7": {0: 0.0, 1: 0.0},
    GRID: {0: 1.0, 1: 3.0, 2: 3.0, 3: 1.0},
}
PL_EXCHANGE = {"octahedron": 2.0, "torus7": 0.0, GRID: 1.0}
PL_EXCHANGE_DIRS = {"octahedron": 1500, "torus7": 1500, GRID: 20}

GERMS = ("rays:3", "rays:5", "halfplane:3", "cone-circle:0.6")
GERM_SAMPLES = 1300
GERM_PLANES = 1300

WORKLOADS = ("smooth-verify", "pl-verify", "germ-local")

# (shape, q) of every verify row that draws planes: q <= dim, q < 3
SHAPE_DIMS = {"sphere:1": 2, "torus:2:1": 2, "disk:1": 2, "hemisphere:1": 2, "ball:1": 3,
              "circle:1": 1, "cube": 3, "cube-boundary": 2, "octahedron": 2, "torus7": 2,
              GRID: 3}
POLAR_ROWS = [(s, q) for s, d in SHAPE_DIMS.items() for q in range(min(d, 2) + 1)]

# errors a row may raise without stopping the run; the row counts as failed
ROW_ERRORS = (RuntimeError, ValueError, NotImplementedError)


@dataclass
class RowResult:
    """One checked row.  ``estimates`` holds (module, Estimate, reference)."""

    name: str
    ok: bool = False
    error: str | None = None
    estimates: list = field(default_factory=list)
    polar: dict | None = None  # shape, q, n_planes, n_rejected, reasons, seconds
    exchange: dict | None = None  # n_dirs, seconds
    germ_planes: int = 0


def kuhn_grid(m: int, rotation: np.ndarray) -> plstrata.StratifiedComplex:
    """The unit cube cut into m^3 small cubes of 6 Kuhn tetrahedra each,
    rotated about its centre."""
    index = {p: i for i, p in enumerate(itertools.product(range(m + 1), repeat=3))}
    verts = np.array(list(index), dtype=float) / m
    tets = []
    for base in itertools.product(range(m), repeat=3):
        for perm in itertools.permutations(range(3)):
            pt = list(base)
            chain = [index[tuple(pt)]]
            for axis in perm:
                pt[axis] += 1
                chain.append(index[tuple(pt)])
            tets.append(tuple(chain))
    centre = np.full(3, 0.5)
    verts = (verts - centre) @ rotation.T + centre
    return plstrata.StratifiedComplex.from_maximal_cells(verts, tets)


def random_rotation(seed: int) -> np.ndarray:
    """Uniform rotation of R^3 from the workload seed."""
    gen = RandomSource(seed, 7000).generator()
    q, r = np.linalg.qr(gen.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def build(workload: str, seed: int) -> dict:
    """Every input of the workload: shapes, the grid or the germs."""
    if workload == "smooth-verify":
        return {name: lkmeasure.shape_from_name(name) for name in SMOOTH_SHAPES}
    if workload == "pl-verify":
        shapes = {name: lkmeasure.shape_from_name(name) for name in PL_SHAPES}
        grid = kuhn_grid(GRID_SIZE, random_rotation(seed))
        shapes[GRID] = lkmeasure.Shape(name=GRID, pl=grid)
        return shapes
    if workload == "germ-local":
        return {name: germ.germ_from_name(name) for name in GERMS}
    raise ValueError(f"unknown workload {workload!r}")


def _reference(shape: str, q: int):
    return {**cli.REFERENCES, **PL_REFERENCES}.get(shape, {}).get(q)


def _near(est, ref) -> bool:
    """Criterion 4: within 3 se plus 1% of (1 + |ref|) of the closed form."""
    return abs(est.value - ref) <= 3 * est.std_error + 0.01 * (1.0 + abs(ref))


def _guarded(row: RowResult, fn) -> RowResult:
    try:
        fn(row)
    except ROW_ERRORS as err:
        row.ok = False
        row.error = f"{type(err).__name__}: {err}"
    return row


def verify_row(shape: str, X, q: int, seed: int, n_planes: int, n_dirs: int) -> RowResult:
    """Both routes at order q, checked against each other and the reference."""

    def body(row: RowResult):
        lam = lkmeasure.lk_measure(X, q, RandomSource(seed, q), n_dirs=n_dirs)
        ref = _reference(shape, q)
        row.estimates.append(("lkmeasure", lam, ref))
        t0 = time.perf_counter()
        res = polar.polar_length(X, q, n_planes, RandomSource(seed, 1000 + q))
        seconds = time.perf_counter() - t0
        pol = res.estimate
        row.estimates.append(("polar", pol, ref))
        if res.n_planes:
            row.polar = {"shape": shape, "q": q, "n_planes": res.n_planes,
                         "n_rejected": res.n_rejected, "reasons": dict(res.reject_reasons),
                         "seconds": seconds}
        ok = cli.combined_pass(lam.value, lam.std_error, pol.value, pol.std_error, TOLERANCE)
        if ref is not None:
            ok = ok and _near(lam, ref) and _near(pol, ref)
        row.ok = ok

    return _guarded(RowResult(f"verify {shape} q{q}"), body)


def exchange_row(shape: str, X, chi: float, seed: int, n_dirs: int) -> RowResult:
    """Criterion 2: the mean Morse index sum is within 3 se of chi."""

    def body(row: RowResult):
        t0 = time.perf_counter()
        est = lkmeasure.exchange_lambda0(X, n_dirs, RandomSource(seed, 2000))
        row.exchange = {"n_dirs": n_dirs, "seconds": time.perf_counter() - t0}
        row.estimates.append(("lkmeasure", est, chi))
        row.ok = abs(est.value - chi) <= 3 * est.std_error + 1e-9

    return _guarded(RowResult(f"exchange {shape}"), body)


# closed forms of criterion 6: germ -> {k: value}
GERM_REFERENCES = {
    "rays:3": {1: 1.5, 0: -0.5},
    "rays:5": {1: 2.5, 0: -1.5},
    "halfplane:3": {2: 0.5},
}


def germ_rows(name: str, X, seed: int) -> list[RowResult]:
    """One row per ``LocalIdentityRow`` plus one for the top-density and
    refined identities of the germ."""
    head = RowResult(f"local {name}")
    try:
        report = germ.verify_local_identities(
            X, RandomSource(seed), n_samples=GERM_SAMPLES, n_planes=GERM_PLANES
        )
    except ROW_ERRORS as err:
        head.error = f"{type(err).__name__}: {err}"
        return [head]
    refs = GERM_REFERENCES.get(name, {})
    rows = []
    for r in report.rows:
        row = RowResult(f"local {name} k{r.k}")
        ref = refs.get(r.k)
        ests = (r.sigma_diff, r.polar, r.curvature)
        row.estimates = [("germ", e, ref) for e in ests]
        row.ok = r.passes and (ref is None or all(
            abs(e.value - ref) <= 3 * e.std_error + 1e-9 for e in ests))
        if r.k < X.ambient_dim and r.k <= X.dim:
            row.germ_planes = GERM_PLANES
        rows.append(row)
    top_gap = abs(report.sigma_top.value - report.density_top)
    refined_gap = abs(report.refined_lhs.value - report.refined_rhs.value)
    refined_tol = TOLERANCE * math.hypot(report.refined_lhs.std_error,
                                         report.refined_rhs.std_error) + 1e-9
    head.name = f"local {name} top+refined"
    head.estimates = [("germ", report.sigma_top, report.density_top),
                      ("germ", report.refined_rhs, None)]
    head.ok = top_gap <= 3 * report.sigma_top.std_error + 1e-9 and refined_gap <= refined_tol
    rows.append(head)
    return rows


def tasks(workload: str, inputs: dict, seed: int) -> list:
    """Every row of the workload, in a fixed order, as calls that each
    return the rows they checked: one per verify or exchange row, one per
    germ."""
    out = []
    if workload == "smooth-verify":
        for shape, X in inputs.items():
            for q in range(X.dim + 1):
                planes = SMOOTH_PLANES.get((shape, q), SMOOTH_DEFAULT_PLANES)
                out.append(functools.partial(_one, verify_row, shape, X, q, seed, planes, N_DIRS))
        for shape, chi in SMOOTH_EXCHANGE.items():
            out.append(functools.partial(_one, exchange_row, shape, inputs[shape], chi, seed,
                                         SMOOTH_EXCHANGE_DIRS))
    elif workload == "pl-verify":
        for shape, X in inputs.items():
            grid = shape == GRID
            for q in range(X.dim + 1):
                out.append(functools.partial(_one, verify_row, shape, X, q, seed,
                                             GRID_PLANES[q] if grid else PL_PLANES,
                                             GRID_DIRS if grid else N_DIRS))
        for shape, chi in PL_EXCHANGE.items():
            out.append(functools.partial(_one, exchange_row, shape, inputs[shape], chi, seed,
                                         PL_EXCHANGE_DIRS[shape]))
    elif workload == "germ-local":
        for name, X in inputs.items():
            out.append(functools.partial(germ_rows, name, X, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _one(check, *args) -> list[RowResult]:
    return [check(*args)]


def digest(rows: list[RowResult]) -> str:
    """SHA-256 of every estimate's (value, std_error), bit for bit."""
    h = hashlib.sha256()
    for row in rows:
        h.update(row.name.encode())
        for _, est, _ in row.estimates:
            h.update(struct.pack("<dd", est.value, est.std_error))
    return h.hexdigest()
