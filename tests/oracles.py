"""Slow, independent routes that the tests check the package against.

None of these is on a route of the package; each recomputes something that
the package computes faster, or by another formula:

- :func:`sampled_mean_normal_index` samples the normal sphere of a PL cell,
  against the exterior-angle sum of ``plstrata.mean_normal_index``;
- :func:`geometric_normal_index` clips the normal link at a level and counts
  cells, against the combinatorial PL normal index;
- :func:`fold_alpha_slice_chi` marches the slice curve through a smooth fold,
  against the half-branch rule of ``alpha_index``;
- :func:`span_intersection` takes principal angles of one cell, against the
  stacked ``polar._span_flags``;
- :func:`pl_slice_chi` (cone germs, by radial reduction onto the link) and
  :func:`chi_slice_pl_hyperplane` and :func:`chi_slice_pl_line` (hyperplanes
  and lines in R^3) count slice cells one cell at a time, against the one
  slice rule ``plstrata.slice_chi``;
- :func:`crofton_volume` and :func:`projected_volume` measure lengths by
  Cauchy-Crofton line counts and by averaged projections;
- :func:`lkw_curvature` integrates sigma_i of the second fundamental form,
  weighted by the normal index, over the normal sphere one point and one
  direction at a time (QR frames and eigenvalues), against the closed-form
  stacked smooth densities;
- :func:`trace_silhouette_loop` classifies the cells of the sign grid one at
  a time, finds each edge crossing on its own and re-snaps every segment
  midpoint in each refinement round, against the array-based
  ``polar.trace_silhouette``; :func:`halving_crossings` halves every bracket
  40 times, the precision reference of its Illinois crossings;
- :func:`chain_segments_sets` chains segments through a set of edge tuples,
  and :func:`overlap_fraction_dense` prefilters every probe against every
  segment, against the neighbour-array walk and the windowed prefilter of
  ``polar``;
- :func:`height_critical_points_loop` runs the multistart Newton of one
  direction at a time and merges duplicates point by point, against the
  stacked ``smoothshape.height_critical_points_many``;
- :func:`steiner_oracle` fits the dilation-volume polynomial of a convex
  catalog body (cube, segment, ball) by point counting, against the
  intrinsic volumes of ``lk_measure``;
- :func:`reference_generator` seeds a generator by numpy's own
  ``SeedSequence``, against the vectorised seeding of
  ``RandomSource.substream_generators``;
- :func:`kinematic_numerator_loop` builds and slices one flat at a time,
  against the stacked flats of ``lkmeasure.kinematic_check``;
- the hand-written catalog builders (:func:`sphere_shape` to
  :func:`ball_shape`) write every first and second chart derivative, normal
  and conormal out entry by entry, against the product charts of
  ``smoothshape``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lkpolar.geomkit import (
    MAX_REDRAWS,
    AffineFlat,
    DegenerateDirectionError,
    Estimate,
    LinearSubspace,
    RandomSource,
    ball_volume,
    beta_coeff,
    fmean,
    mean_estimate,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
    sample_unit_sphere,
)
from lkpolar.lkmeasure import Shape, slice_euler_characteristic
from lkpolar.plstrata import (
    DegenerateSliceError,
    NormalLink,
    StratifiedComplex,
    normal_link,
    normal_morse_index_many,
)
from lkpolar.polar import SPAN_RANK_TOL
from lkpolar.silhouette import (
    CHORD_TOL,
    CROSSING_BRACKET,
    CROSSING_EVALS,
    TRACE_GRID,
    _silhouette_value,
    _surface_normals,
)
from lkpolar.smoothshape import (
    CLUSTER_TOL,
    DET_FLOOR,
    EIGEN_FLOOR,
    NEWTON_ITERS,
    NEWTON_STARTS_PER_AXIS,
    SETTLE_TOL,
    Chart,
    CriticalPoint,
    DegenerateHeightError,
    SmoothShape,
    SmoothStratum,
    frames,
    height_hessian_eigenvalues,
    second_form,
)


def reference_generator(rng: RandomSource) -> np.random.Generator:
    """The generator of a random source as numpy builds it: its SeedSequence
    hashes the master seed and the spawn key (stream id, *substream path)."""
    ss = np.random.SeedSequence(rng.master_seed, spawn_key=(rng.stream_id, *rng.substream_path))
    return np.random.default_rng(ss)


def kinematic_numerator_loop(X: Shape, k: int, n_flats: int, rng: RandomSource) -> Estimate:
    """The numerator of ``lkmeasure.kinematic_check``, one flat at a time.

    Flat i draws from the generator of ``rng.substream(i)``: a uniform
    k-plane, then the unit vector and the uniform number of a point of the
    (n-k)-ball of the bounding radius, mapped into the plane's complement
    as a lone flat is built.  The shape is sliced by the flat through the
    bounding centre plus that point with ``slice_euler_characteristic``,
    and a degenerate slice draws the flat again."""
    n = X.ambient_dim
    m = n - k
    center, radius = X.bounding_ball()
    weight = ball_volume(m) * radius**m
    vals = []
    for i in range(n_flats):
        gen = rng.substream(i).generator()
        for _ in range(MAX_REDRAWS):
            direction = sample_grassmannian(n, k, gen)
            comp = direction.orthogonal_complement().basis
            u = sample_unit_sphere(m, gen)
            offset = (radius * gen.uniform() ** (1.0 / m) * u) @ comp
            flat = AffineFlat(direction, offset + center - direction.project(center))
            try:
                vals.append(weight * slice_euler_characteristic(X, flat))
                break
            except DegenerateSliceError:
                pass
        else:
            raise RuntimeError(f"flat {i}: {MAX_REDRAWS} degenerate slices")
    return mean_estimate(vals, seed=rng.master_seed)


# ---------------------------------------------------------------------------
# PL normal indices
# ---------------------------------------------------------------------------

def sampled_mean_normal_index(K: StratifiedComplex, cell, n_dirs: int, rng: RandomSource) -> Estimate:
    """Mean of the normal Morse index over the unit normal sphere of a cell,
    by sampling: the oracle of the exact ``plstrata.mean_normal_index``.

    Exact for an empty link (index 1) and for a single normal direction (the
    mean of the two unit normals); otherwise a Monte-Carlo mean over at least
    ``n_dirs`` uniform normal directions, redrawing wall-aligned ones.
    """
    link = normal_link(K, cell)
    if len(link.vertex_ids) == 0:
        return Estimate(1.0, 0.0, 1, rng.master_seed, method="empty-link")
    comp = LinearSubspace(K.ambient_dim, K.cell_span(cell)).orthogonal_complement().basis
    m = comp.shape[0]  # dimension of the normal space
    if m == 1:
        idx, ok = normal_morse_index_many(K, cell, np.stack([comp[0], -comp[0]]))
        if not ok.all():
            raise DegenerateDirectionError("wall-aligned facet normal")
        return Estimate(fmean(idx.astype(float).tolist()), 0.0, 2, rng.master_seed,
                        method="two-point")
    gen = rng.generator()
    vals: list[float] = []
    attempts = 0
    while len(vals) < n_dirs:
        batch = max(n_dirs - len(vals), 64)
        g = gen.standard_normal((batch, m))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        idx, ok = normal_morse_index_many(K, cell, g @ comp)
        attempts += batch
        if attempts > 50 * n_dirs:
            raise DegenerateDirectionError("persistent wall alignment in normal sampling")
        vals.extend(idx[ok].astype(float).tolist())
    return mean_estimate(vals, seed=rng.master_seed, method="normal-sphere-mc")


def geometric_normal_index(K, cell, v: np.ndarray, link: NormalLink) -> int:
    """Slow cross-check of the PL normal index: clip the link cells at
    the hyperplane <v, y> = -eta, triangulate the clipped polytopes, and count
    cells of the resulting sublevel complex."""
    if len(link.vertex_ids) == 0:
        return 1
    vals = link.directions @ v
    if np.min(np.abs(vals)) <= 1e-8 * np.linalg.norm(v):
        raise DegenerateDirectionError("wall-aligned direction")
    eta = 0.5 * float(np.min(np.abs(vals)))
    simplices: set = set()
    cut_id: dict = {}

    def cut_vertex(i, j):
        key = ("c", min(i, j), max(i, j))
        return cut_id.setdefault(key, key)

    def add_closure(ids):
        ids = tuple(sorted(ids, key=repr))
        for size in range(1, len(ids) + 1):
            for f in itertools.combinations(ids, size):
                simplices.add(f)

    for c in link.link_cells:
        below = [i for i in c if vals[i] <= -eta]
        above = [i for i in c if vals[i] > -eta]
        if not below:
            continue
        if not above:
            add_closure([("v", i) for i in c])
            continue
        if len(c) == 2:
            add_closure([("v", below[0]), cut_vertex(below[0], above[0])])
        elif len(c) == 3:
            if len(below) == 1:
                b = below[0]
                add_closure([("v", b), cut_vertex(b, above[0]), cut_vertex(b, above[1])])
            else:
                b0, b1 = below
                a = above[0]
                c0, c1 = cut_vertex(b0, a), cut_vertex(b1, a)
                add_closure([("v", b0), ("v", b1), c0])
                add_closure([("v", b1), c0, c1])
        else:
            raise NotImplementedError("geometric sublevel supports links of dimension <= 2")
    chi = sum((-1) ** (len(s) - 1) for s in simplices)
    return 1 - chi


# ---------------------------------------------------------------------------
# principal angles of one cell
# ---------------------------------------------------------------------------

def span_intersection(span_a: np.ndarray, span_b: np.ndarray):
    """(dim of intersection, clearance angle beyond it) via principal angles;
    the one-cell reference for ``polar._span_flags``."""
    if span_a.shape[0] == 0 or span_b.shape[0] == 0:
        return 0, math.pi / 2
    sv = np.linalg.svd(span_a @ span_b.T, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    dim = int(np.sum(sv > 1.0 - SPAN_RANK_TOL))
    rest = sv[dim:] if dim < len(sv) else np.array([])
    clearance = math.acos(float(rest[0])) if len(rest) else math.pi / 2
    return dim, clearance


# ---------------------------------------------------------------------------
# PL slice Euler characteristics, one cell at a time
# ---------------------------------------------------------------------------

def pl_slice_chi(X, A: np.ndarray, v: np.ndarray, delta: float) -> int:
    """chi((H + delta v) cap X cap B_1), where H^perp has orthonormal row
    basis A and v is a unit vector of H^perp.

    Radial reduction: y = t u with u on the link and t in (0, 1] solves
    A y = delta (A v) exactly when h(u) := <A u, A v> >= delta (k = 1), or
    when u further satisfies the alignment equations (k >= 2); the slice is
    homeomorphic to that subset of the link polyhedron.
    """
    link = X.link
    k = A.shape[0]
    n = X.ambient_dim
    c = A @ v  # unit coordinates of v in H^perp
    if k == n:
        return point_membership_chi(X, v)
    Au = link.vertices @ A.T  # (V, k)
    h = Au @ c
    if k == 1:
        return superlevel_chi(link, h, delta)
    if k == 2 and n == 3:
        # split the condition A u || c into {g = 0} and {h >= delta}
        c_perp = np.array([-c[1], c[0]])
        g = Au @ c_perp
        return hyperplane_superlevel_chi(link, g, h, delta)
    raise NotImplementedError(f"slice for codimension k={k} in R^{n}")


def superlevel_chi(link: StratifiedComplex, h: np.ndarray, delta: float) -> int:
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.min(np.abs(h - delta)) < 1e-12 * scale:
        raise DegenerateSliceError("vertex value at the slice level")
    chi = 0
    for d, cells in link.cells.items():
        for cell in cells:
            if all(h[i] > delta for i in cell):
                chi += (-1) ** d
    return chi


def hyperplane_superlevel_chi(link, g, h, delta) -> int:
    """chi of {g = 0, h >= delta} on the link polyhedron (additivity of the
    compact-support Euler characteristic over open link cells)."""
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.min(np.abs(g)) < 1e-12 * scale:
        raise DegenerateSliceError("vertex on the alignment hyperplane")
    chi = 0
    for d, cells in link.cells.items():
        for cell in cells:
            gs = g[list(cell)]
            if gs.min() > 0 or gs.max() < 0:
                continue  # the hyperplane misses the open cell
            # crossing points on the below/above vertex pairs
            vals = []
            for i in cell:
                for j in cell:
                    if g[i] < 0 < g[j]:
                        t = -g[i] / (g[j] - g[i])
                        vals.append(h[i] + t * (h[j] - h[i]))
            if not vals:
                continue
            if min(vals) > delta:
                chi += (-1) ** (d - 1)
            # a piece cut by {h = delta} or entirely below contributes 0
    return chi


def point_membership_chi(X, v: np.ndarray) -> int:
    """chi of the zero-dimensional slice {delta v} cap X: is v in the cone?"""
    link = X.link
    for d, cells in link.cells.items():
        for cell in cells:
            D = link.vertices[list(cell)].T  # (n, d+1)
            t, res, *_ = np.linalg.lstsq(D, v, rcond=None)
            if np.linalg.norm(D @ t - v) > 1e-9:
                continue
            if np.all(t > 1e-9):
                return 1
    return 0


def chi_slice_pl_hyperplane(K: StratifiedComplex, normal: np.ndarray, level: float) -> int:
    """chi of (complex intersect {<normal, x> = level}).

    Additivity of chi over open cells: an open d-cell cut by the hyperplane
    contributes (-1)^(d-1); cells on one side contribute nothing.
    """
    heights = K.vertices @ normal - level
    scale = max(1.0, float(np.max(np.abs(K.vertices @ normal))))
    if np.min(np.abs(heights)) < 1e-9 * scale:
        raise DegenerateSliceError("vertex on the slicing hyperplane")
    chi = 0
    for d, cells in K.cells.items():
        if d == 0:
            continue
        for c in cells:
            h = heights[list(c)]
            if h.min() < 0.0 < h.max():
                chi += (-1) ** (d - 1)
    return chi


def chi_slice_pl_line(K: StratifiedComplex, origin: np.ndarray, direction: np.ndarray) -> int:
    """chi of (complex intersect line): crossings of open triangles count +1,
    open chords of tetrahedra count -1."""
    tol = 1e-9 * max(1.0, float(np.max(np.abs(K.vertices))))
    chi = 0
    for tri in K.cells.get(2, []):
        pts = K.vertices[list(tri)]
        n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        nn = np.linalg.norm(n)
        n = n / nn
        denom = float(n @ direction)
        if abs(denom) < 1e-9:
            raise DegenerateSliceError("line nearly parallel to a triangle")
        t = float(n @ (pts[0] - origin)) / denom
        p = origin + t * direction
        # barycentric membership, strictly interior
        A = np.stack([pts[1] - pts[0], pts[2] - pts[0]], axis=1)
        sol, res, _, _ = np.linalg.lstsq(A, p - pts[0], rcond=None)
        resid = np.linalg.norm(A @ sol - (p - pts[0]))
        if resid > tol:
            continue
        u, w = sol
        edge_margin = min(u, w, 1.0 - u - w)
        if abs(edge_margin) < 1e-9:
            raise DegenerateSliceError("line grazes a triangle edge")
        if edge_margin < 0:
            continue
        chi += 1
    for tet in K.cells.get(3, []):
        pts = K.vertices[list(tet)]
        tmin, tmax = -np.inf, np.inf
        ok = True
        for i in range(4):
            face = np.delete(np.arange(4), i)
            q = pts[face]
            n = np.cross(q[1] - q[0], q[2] - q[0])
            if n @ (pts[i] - q[0]) < 0:
                n = -n
            n = n / np.linalg.norm(n)
            denom = float(n @ direction)
            offset = float(n @ (q[0] - origin))
            if abs(denom) < 1e-12:
                if offset < 0:
                    ok = False
                    break
                continue
            t = offset / denom
            if denom > 0:
                tmin = max(tmin, t)
            else:
                tmax = min(tmax, t)
        if ok and tmax - tmin > 1e-9:
            chi -= 1
    return chi


# ---------------------------------------------------------------------------
# smooth folds and curvature integrands
# ---------------------------------------------------------------------------

def fold_alpha_slice_chi(X: Shape, S: SmoothStratum, params, P, delta: float = 1e-3,
                         epsilon: float = 1e-1) -> float:
    """Slow cross-check of alpha at a fold: build the slice curve and
    count level-set points.

    Follows the curve through the fold along the kernel direction and counts
    solutions of <nu, y> = <nu, x> - delta inside the epsilon ball; the index
    is 1 - (that count), evaluated for both conormal signs.  ``delta`` and
    ``epsilon`` are relative to the shape diameter.
    """
    # nu: normal of the image curve inside P; at a fold it is also normal to S
    _, normal = frames(S, params)
    nu = normal[0] - P.orthogonal_complement().project(normal[0])
    nrm = np.linalg.norm(nu)
    if nrm < 1e-12:
        raise DegenerateDirectionError("stratum normal orthogonal to the plane")
    nu = nu / nrm
    diameter = X.diameter
    delta = delta * diameter
    eps = epsilon * diameter
    x0 = S.chart.r(np.asarray(params, dtype=float))
    # march the slice curve in the chart: directions solving the constraints
    # <w_j, y - x0> = 0 for w_j spanning P meet nu-perp
    w_dirs = slice_constraint_dirs(P, nu)
    pts = march_slice_curve(S, params, w_dirs, x0, eps, diameter)
    vals = (pts - x0) @ nu
    counts = {}
    for sign in (1.0, -1.0):
        f = sign * vals - (-delta)
        crossings = int(np.sum(f[:-1] * f[1:] < 0))
        counts[sign] = 1 - crossings
    return 0.5 * (counts[1.0] + counts[-1.0])


def slice_constraint_dirs(P: LinearSubspace, nu: np.ndarray) -> np.ndarray:
    basis = P.basis
    coords = basis @ nu
    # orthonormal directions of P orthogonal to nu
    u, s, vt = np.linalg.svd(coords[None, :], full_matrices=True)
    rest = vt[1:]
    return rest @ basis


def march_slice_curve(S, params0, w_dirs, x0, eps, diameter, steps=400):
    chart = S.chart
    h = eps / 60.0
    out = []
    for direction in (1.0, -1.0):
        p = np.asarray(params0, dtype=float).copy()
        prev_t = None
        side = []
        for _ in range(steps):
            J = chart.dr(p)
            # tangent of the slice curve in the chart: kernel of w_dirs . J^T
            A = w_dirs @ J.T  # (n_constraints, 2)
            _, _, vt = np.linalg.svd(A)
            t = vt[-1]
            if prev_t is not None and float(t @ prev_t) < 0:
                t = -t
            elif prev_t is None:
                t = t * direction
            prev_t = t
            p = p + h * t / max(float(np.linalg.norm(J.T @ t)), 1e-12)
            p = project_onto_constraints(S, p, w_dirs, x0)
            x = chart.r(p)
            if np.linalg.norm(x - x0) > eps:
                break
            side.append(x)
        if direction == 1.0:
            out = side[::-1] + [x0]
        else:
            out = out + side
    return np.array(out)


def project_onto_constraints(S, p, w_dirs, x0, iters=25):
    chart = S.chart
    for _ in range(iters):
        x = chart.r(p)
        c = w_dirs @ (x - x0)
        if np.max(np.abs(c)) < 1e-12:
            break
        J = chart.dr(p)
        A = w_dirs @ J.T
        step, *_ = np.linalg.lstsq(A, -c, rcond=None)
        p = p + step
    return p


def elementary_symmetric(eigenvalues: np.ndarray, i: int) -> float:
    """i-th elementary symmetric function of the given values."""
    e = np.zeros(i + 1)
    e[0] = 1.0
    for lam in np.atleast_1d(eigenvalues):
        upper = min(i, len(e) - 1)
        for j in range(upper, 0, -1):
            e[j] += lam * e[j - 1]
    return float(e[i])


def sigma_of_form(S: SmoothStratum, params, v: np.ndarray, i: int) -> float:
    m = second_form(S, params, v).matrix
    return elementary_symmetric(np.linalg.eigvalsh(m), i)


def lkw_curvature(S: SmoothStratum, params, i: int, circle_rule: int = 64) -> float:
    """Integral of ind_nor(v) sigma_i(II_{x,v}) over the unit normal sphere
    at the point, one point and one direction at a time: the test oracle of
    the stacked curvature densities.  ind_nor(v) is 1 on a top stratum and
    [<v, w> > 0] on a rim or a solid boundary, w its inward conormal.

    Codimension 1 uses the exact two-point rule.  A curve in R^3 uses a
    uniform circle rule on a top stratum, and a Gauss-Legendre rule in the
    angle from w over the half circle {<v, w> > 0} on a rim; both are exact
    to rounding here, as the integrand is a trigonometric polynomial of
    degree <= 1 in the normal angle.
    """
    if not 0 <= i <= S.dim:
        raise ValueError(f"curvature order {i} out of range for dim {S.dim}")
    tangent, normal = frames(S, params)
    codim = normal.shape[0]
    w = None if S.role == "top" else S.inward_conormal(params)
    if codim == 1:
        nu = normal[0]
        return float(sum(sigma_of_form(S, params, v, i) for v in (nu, -nu) if w is None or v @ w > 0))
    if codim == 2 and S.dim == 1:
        if w is None:
            angles = np.arange(circle_rule) * (2 * math.pi / circle_rule)
            weights = np.full(circle_rule, 2 * math.pi / circle_rule)
            e0, e1 = normal
        else:
            t, weights = np.polynomial.legendre.leggauss(circle_rule)
            angles, weights = 0.5 * math.pi * t, 0.5 * math.pi * weights
            e0, e1 = w, np.cross(tangent[0], w)
        return float(sum(wt * sigma_of_form(S, params, math.cos(t) * e0 + math.sin(t) * e1, i)
                         for t, wt in zip(angles, weights)))
    raise NotImplementedError(f"normal sphere quadrature for codimension {codim}")


# ---------------------------------------------------------------------------
# Cauchy-Crofton and multiplicity-free projected volumes
# ---------------------------------------------------------------------------

def crofton_volume(segments: np.ndarray, ambient_dim: int, n_lines: int, rng: RandomSource,
                   radius: float | None = None) -> Estimate:
    """Length (codimension-1 volume for triangles) of a piecewise-linear set
    by counting intersections with random affine lines.

    ``segments`` is (S, 2, m) for polylines in the plane (m = 2) or
    (S, 3, 3) for triangles in space.  The Crofton normalization divides the
    weighted crossing count by the mean projection coefficient.
    """
    segments = np.asarray(segments, dtype=float)
    if segments.size == 0:
        return Estimate(0.0, 0.0, max(n_lines, 1), rng.master_seed, method="crofton")
    m = ambient_dim
    if radius is None:
        radius = float(np.max(np.linalg.norm(segments.reshape(-1, m), axis=1))) + 1e-9

    def one(i: int) -> float:
        gen = rng.substream(i).generator()
        flat, weight = sample_affine_flats_hitting_ball(m, 1, radius, gen)
        o = flat.offset
        d = flat.direction.basis[0]
        if m == 2:
            return weight * count_segment_crossings(segments, o, d)
        return weight * count_triangle_crossings(segments, o, d)

    vals = [one(i) for i in range(n_lines)]
    est = mean_estimate(vals, seed=rng.master_seed, method="crofton")
    return est.scaled(1.0 / beta_coeff(m, 1))


def count_segment_crossings(segments, o, d) -> int:
    a = segments[:, 0]
    b = segments[:, 1]
    nrm = np.array([-d[1], d[0]])
    fa = (a - o) @ nrm
    fb = (b - o) @ nrm
    cross = fa * fb < 0
    # crossing parameter along the line must exist (always does for a line)
    return int(np.sum(cross))


def count_triangle_crossings(triangles, o, d) -> int:
    count = 0
    for tri in triangles:
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        nn = np.linalg.norm(n)
        if nn < 1e-15:
            continue
        n = n / nn
        denom = float(n @ d)
        if abs(denom) < 1e-12:
            continue
        t = float(n @ (tri[0] - o)) / denom
        p = o + t * d
        A = np.stack([tri[1] - tri[0], tri[2] - tri[0]], axis=1)
        sol, *_ = np.linalg.lstsq(A, p - tri[0], rcond=None)
        u, w = sol
        if u > 0 and w > 0 and u + w < 1:
            count += 1
    return count


def projected_volume(X: Shape, n_planes: int, rng: RandomSource) -> Estimate:
    """Mean projected volume route to vol(X): for a d-dimensional shape the
    average d-volume of its image over planes of dimension d+1, times the
    polar-length constant, recovers the volume (injective projections)."""
    if X.smooth is None or X.dim != 1:
        raise NotImplementedError("projected volumes implemented for smooth curves")
    n = X.ambient_dim
    d = X.dim
    S = [s for s in X.smooth.strata if s.dim == 1][0]
    params, w = S.chart.grid(256)

    def one(i: int) -> float:
        gen = rng.substream(i).generator()
        P = sample_grassmannian(n, d + 1, gen)
        J = S.chart.dr(params) @ P.basis.T
        element = np.linalg.norm(J[:, 0, :], axis=1)
        return float(math.fsum((w * element).tolist()))

    vals = [one(i) for i in range(n_planes)]
    est = mean_estimate(vals, seed=rng.master_seed, method="projected-volume")
    return est.scaled(polar_length_constant(n, d))


# ---------------------------------------------------------------------------
# silhouette tracing, one cell at a time
# ---------------------------------------------------------------------------

def trace_silhouette_loop(S: SmoothStratum, u: np.ndarray, diameter: float, *,
                          crossing_rule=None, refine: bool = True):
    """The reference tracer of ``polar.trace_silhouette``: a Python loop over
    the active cells of the sign grid, with edges named by tuples, the
    crossing of each edge found on its own (:func:`illinois_crossings_loop`
    unless ``crossing_rule`` names another rule, such as
    :func:`halving_crossings`), and a refinement that re-snaps the midpoint
    of every segment in every round.  Same result as ``trace_silhouette``."""
    chart = S.chart
    g = TRACE_GRID
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    nx = [g if chart.periodic[i] else g + 1 for i in range(2)]
    axes = [np.linspace(lo[i], hi[i], nx[i], endpoint=not chart.periodic[i]) for i in range(2)]
    steps = [(hi[i] - lo[i]) / (nx[i] if chart.periodic[i] else nx[i] - 1) for i in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = (_surface_normals(S, P) @ u).reshape(nx[0], nx[1])  # one gemv, as the tracer's grid

    def node(i, j):
        ii = i % nx[0] if chart.periodic[0] else i
        jj = j % nx[1] if chart.periodic[1] else j
        return ii, jj

    def node_param(i, j):
        return np.array([lo[0] + i * steps[0], lo[1] + j * steps[1]])

    ncells = [nx[0] if chart.periodic[0] else nx[0] - 1, nx[1] if chart.periodic[1] else nx[1] - 1]

    # wrap-aware corner value grids over the cell lattice
    i0 = np.arange(ncells[0])
    j0 = np.arange(ncells[1])
    ip = (i0 + 1) % nx[0] if chart.periodic[0] else i0 + 1
    jp = (j0 + 1) % nx[1] if chart.periodic[1] else j0 + 1
    f00 = vals[np.ix_(i0, j0)]
    f10 = vals[np.ix_(ip, j0)]
    f11 = vals[np.ix_(ip, jp)]
    f01 = vals[np.ix_(i0, jp)]
    fmin = np.minimum(np.minimum(f00, f10), np.minimum(f11, f01))
    fmax = np.maximum(np.maximum(f00, f10), np.maximum(f11, f01))
    active = np.argwhere((fmin < 0) & (fmax > 0))

    def canon(edge):
        kind, i, j = edge
        if kind == "v" and chart.periodic[0]:
            i = i % nx[0]
        if kind == "h" and chart.periodic[1]:
            j = j % nx[1]
        return (kind, i, j)

    crossings: dict = {}
    segments = []
    pending_edges = []
    for i, j in active:
        f = [f00[i, j], f10[i, j], f11[i, j], f01[i, j]]
        edges = [
            canon(("h", i, j)),
            canon(("v", i + 1, j)),
            canon(("h", i, j + 1)),
            canon(("v", i, j)),
        ]
        fpairs = [(f[0], f[1]), (f[1], f[2]), (f[3], f[2]), (f[0], f[3])]
        crossed = [e for e, (fa, fb) in zip(edges, fpairs) if fa * fb < 0]
        if len(crossed) == 2:
            segments.append(tuple(crossed))
        elif len(crossed) == 4:
            # saddle cell: pair by the sign at the center
            center = node_param(i + 0.5, j + 0.5)
            fc = float(_silhouette_value(S, center, u)[0])
            if (fc > 0) == (f[0] > 0):
                segments.append((edges[0], edges[1]))
                segments.append((edges[2], edges[3]))
            else:
                segments.append((edges[0], edges[3]))
                segments.append((edges[1], edges[2]))
        for e in crossed:
            if e not in crossings:
                crossings[e] = None
                pending_edges.append(e)

    # the crossing of every crossed edge, from the grid values at its ends
    if pending_edges:
        A = np.empty((len(pending_edges), 2))
        B = np.empty((len(pending_edges), 2))
        FA = np.empty(len(pending_edges))
        FB = np.empty(len(pending_edges))
        for idx, (kind, i, j) in enumerate(pending_edges):
            A[idx] = node_param(i, j)
            B[idx] = node_param(i + 1, j) if kind == "h" else node_param(i, j + 1)
            FA[idx] = vals[node(i, j)]
            FB[idx] = vals[node(i + 1, j) if kind == "h" else node(i, j + 1)]
        M = (crossing_rule or illinois_crossings_loop)(S, u, A, B, FA, FB)
        for idx, e in enumerate(pending_edges):
            crossings[e] = M[idx]

    # chain segments into polylines
    polylines = [([crossings[e] for e in chain], closed)
                 for chain, closed in chain_segments_sets(segments)]

    out = []
    for params, closed in polylines:
        if closed:
            params = params + [params[0]]
        params = unwrap_params_loop(np.array(params), lo, hi, chart.periodic)
        if refine:
            params = refine_polyline_all(S, params, u, CHORD_TOL * diameter)
        out.append((params, chart.r(params), closed))
    return out


def illinois_crossings_loop(S, u, A, B, FA, FB):
    """The crossing rule of ``polar._fold_crossings``, one edge at a time:
    Illinois regula falsi on A + t (B - A) from the values FA, FB at the
    ends, with one evaluation of <nu, u> per step, until the bracket is at
    most CROSSING_BRACKET or the value is 0, for at most CROSSING_EVALS
    steps."""
    out = np.empty_like(A)
    for idx in range(len(A)):
        a, b, fa, fb = 0.0, 1.0, float(FA[idx]), float(FB[idx])
        d = B[idx] - A[idx]
        for _ in range(CROSSING_EVALS):
            t = b - fb * (b - a) / (fb - fa)
            ft = float(_silhouette_value(S, A[idx] + t * d, u)[0])
            if ft * fb < 0:
                a, fa = b, fb
            else:
                fa = 0.5 * fa
            b, fb = t, ft
            if abs(b - a) <= CROSSING_BRACKET or ft == 0:
                break
        out[idx] = A[idx] + b * d
    return out


def halving_crossings(S, u, A, B, FA, FB):
    """The crossings of the same edges by 40 halvings of every bracket, the
    precision reference of the Illinois rule: the midpoint of a final
    bracket 2^-40 of its edge long."""
    A, B, FA = A.copy(), B.copy(), FA.copy()
    for _ in range(40):
        M = 0.5 * (A + B)
        FM = _silhouette_value(S, M, u)
        right = FA * FM <= 0
        B[right] = M[right]
        A[~right] = M[~right]
        FA[~right] = FM[~right]
    return 0.5 * (A + B)


def unwrap_params_loop(params, lo, hi, periodic):
    """Shift chart parameters by whole periods, row by row, so that no step
    along the polyline jumps by more than half a period."""
    out = params.copy()
    for i in range(params.shape[1]):
        if not periodic[i]:
            continue
        span = hi[i] - lo[i]
        for r in range(1, len(out)):
            d = out[r, i] - out[r - 1, i]
            if d > span / 2:
                out[r:, i] -= span
            elif d < -span / 2:
                out[r:, i] += span
    return out


def refine_polyline_all(S, params, u, tol, max_depth=8):
    """Split every segment whose snapped midpoint lies farther than tol from
    its chord, re-snapping the midpoint of every segment in every round."""
    pts = np.asarray(params, dtype=float)
    for _ in range(max_depth):
        mids = snap_to_contour_all(S, 0.5 * (pts[:-1] + pts[1:]), u)
        X = S.chart.r(pts)
        Xm = S.chart.r(mids)
        err = np.linalg.norm(Xm - 0.5 * (X[:-1] + X[1:]), axis=1)
        split = err > tol
        if not np.any(split):
            break
        rows = [pts[0]]
        for i in range(len(pts) - 1):
            if split[i]:
                rows.append(mids[i])
            rows.append(pts[i + 1])
        pts = np.array(rows)
    return pts


def snap_to_contour_all(S, P: np.ndarray, u, iters=25):
    """Gradient-step refinement of chart points onto {<nu, u> = 0}: every
    point of the batch is evaluated and stepped at each round, except those
    that already lay within 1e-12 of the contour, which stay put."""
    P = np.atleast_2d(np.asarray(P, dtype=float)).copy()
    settled = np.zeros(len(P), dtype=bool)
    h = 1e-7
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    for _ in range(iters):
        g = _silhouette_value(S, P, u)
        settled |= np.abs(g) < 1e-12
        if np.all(settled):
            break
        g0 = (_silhouette_value(S, P + e0, u) - _silhouette_value(S, P - e0, u)) / (2 * h)
        g1 = (_silhouette_value(S, P + e1, u) - _silhouette_value(S, P - e1, u)) / (2 * h)
        n2 = np.maximum(g0 * g0 + g1 * g1, 1e-18)
        step = ~settled
        P[step, 0] -= (g * g0 / n2)[step]
        P[step, 1] -= (g * g1 / n2)[step]
    return P


def chain_segments_sets(segments: list) -> list:
    """The reference of ``polar._chain_segments``: segments (pairs of edge
    ids) chained into maximal walks through a dict of neighbour lists and a
    set of unused (edge, edge) tuples, open ones from their ends first, then
    closed loops.  Returns (edge ids, closed) pairs."""
    adjacency: dict = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    unused = set()
    for a, b in segments:
        unused.add((a, b))
        unused.add((b, a))

    def walk(start):
        chain = [start]
        while True:
            cur = chain[-1]
            nxt = None
            for cand in adjacency[cur]:
                if (cur, cand) in unused:
                    nxt = cand
                    break
            if nxt is None:
                return chain, False
            unused.discard((cur, nxt))
            unused.discard((nxt, cur))
            if nxt == chain[0]:
                return chain, True
            chain.append(nxt)

    ends = [e for e, nb in adjacency.items() if len(nb) == 1]
    chains = []
    visited = set()
    for start in ends + list(adjacency):
        if start in visited or not any((start, c) in unused for c in adjacency[start]):
            continue
        chain, closed = walk(start)
        visited.update(chain)
        chains.append((chain, closed))
    return chains


def overlap_fraction_dense(a_img, a_src, b_img, b_src, dist_tol, src_tol) -> float:
    """The reference of one test (a, b) of ``polar._overlap_fractions``,
    with its midpoint prefilter taken densely: every probe against every
    segment midpoint, in one (probes, segments) distance array summed axis
    by axis, before the closest-point and source tests of the pairs that
    pass."""
    ka = np.linspace(0, len(a_img) - 1, min(len(a_img), 256)).astype(int)
    kb = np.linspace(0, len(b_img) - 1, min(len(b_img), 512)).astype(int)
    pa, sa = a_img[ka], a_src[ka]
    qb, sb = b_img[kb], b_src[kb]
    if len(pa) == 0 or len(qb) < 2:
        return 0.0
    seg_a, seg_b = qb[:-1], qb[1:]
    seg = seg_b - seg_a
    seg2 = np.sum(seg**2, axis=1)
    seg_len2 = np.maximum(seg2, 1e-300)
    mid = 0.5 * (seg_a + seg_b)
    reach = (dist_tol + 0.5 * np.sqrt(seg2)) * (1 + 1e-9)
    d2_mid = np.zeros((len(pa), len(mid)))
    for k in range(pa.shape[1]):
        d2_mid += (pa[:, k, None] - mid[None, :, k]) ** 2
    n, m = np.nonzero(d2_mid <= reach**2)
    hit = np.zeros(len(pa), dtype=bool)
    if len(n):
        rel = pa[n] - seg_a[m]
        t = np.clip(np.einsum("kd,kd->k", rel, seg[m]) / seg_len2[m], 0.0, 1.0)
        closest = seg_a[m] + t[:, None] * seg[m]
        d2_img = np.sum((pa[n] - closest) ** 2, axis=1)
        d2_src = np.minimum(
            np.sum((sa[n] - sb[m]) ** 2, axis=1),
            np.sum((sa[n] - sb[m + 1]) ** 2, axis=1),
        )
        hit[n[(d2_img <= dist_tol**2) & (d2_src >= src_tol**2)]] = True
    return float(np.mean(hit))


# ---------------------------------------------------------------------------
# height critical points, one direction at a time
# ---------------------------------------------------------------------------

def height_critical_points_loop(S: SmoothStratum, v: np.ndarray, scale: float = 1.0) -> list[CriticalPoint]:
    """Critical points of the height <v, .> on the stratum by multistart Newton.

    Uses the exact chart gradient <v, dr> and Hessian <v, d2r>, solved by
    LAPACK; duplicates are merged by ambient distance, relative to ``scale``
    (the shape diameter), and the floors scale as in the stacked solver.
    Directions whose critical points drift into a chart edge, or whose
    Hessian is near-singular, raise DegenerateHeightError so the caller can
    redraw.
    """
    v = np.asarray(v, dtype=float)
    chart = S.chart
    d = chart.dim
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    axes = [
        np.linspace(lo[i], hi[i], NEWTON_STARTS_PER_AXIS, endpoint=not chart.periodic[i])
        for i in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([m.ravel() for m in mesh], axis=-1)
    span = hi - lo
    caps = 0.2 * span

    # iterate only the still-moving starts; quadratic convergence settles the
    # useful ones quickly while strays are cut off by the iteration cap
    active = np.ones(len(P), dtype=bool)
    for _ in range(NEWTON_ITERS):
        Q0 = P[active]
        g = chart.dr(Q0) @ v  # (M, d)
        H = chart.d2r(Q0) @ v  # (M, d, d)
        dets = np.abs(np.linalg.det(H))
        ok = dets > DET_FLOOR * np.float64(scale) ** d
        step = np.zeros_like(Q0)
        if np.any(ok):
            step[ok] = np.linalg.solve(H[ok], -g[ok][..., None])[..., 0]
        step = np.clip(step, -caps, caps)
        Q = Q0 + step
        for i in range(d):
            if chart.periodic[i]:
                Q[:, i] = lo[i] + np.mod(Q[:, i] - lo[i], span[i])
            else:
                Q[:, i] = np.clip(Q[:, i], lo[i], hi[i])
        P[active] = Q
        # a start is done when its clamped position stops moving (this also
        # freezes strays pressed against a chart edge)
        moved = np.zeros(len(Q))
        for i in range(d):
            di = np.abs(Q[:, i] - Q0[:, i])
            if chart.periodic[i]:
                di = np.minimum(di, span[i] - di)
            moved = np.maximum(moved, di / span[i])
        settled = moved < SETTLE_TOL
        idx = np.flatnonzero(active)
        active[idx[settled]] = False
        if not np.any(active):
            break

    # criticality is judged by the chart-independent tangential component of v
    J = chart.dr(P)  # (N, d, n)
    q_all = np.linalg.qr(np.swapaxes(J, -1, -2))[0]  # (N, n, d)
    tang_norm = np.linalg.norm(np.einsum("pnd,n->pd", q_all, v), axis=1)
    inside = np.ones(len(P), dtype=bool)
    for i in range(d):
        if not chart.periodic[i]:
            margin = 1e-5 * (hi[i] - lo[i])
            inside &= (P[:, i] > lo[i] + margin) & (P[:, i] < hi[i] - margin)
    # a near-critical point pressed against a chart edge means the direction
    # is unresolvable in this chart: resample rather than silently miss it
    if np.any((tang_norm < 1e-4 * np.linalg.norm(v)) & ~inside):
        raise DegenerateHeightError("critical point at a chart edge")
    P = P[(tang_norm < 1e-9 * np.linalg.norm(v)) & inside]
    if len(P) == 0:
        return []

    pts = chart.r(P)
    out: list[CriticalPoint] = []
    taken: list[np.ndarray] = []
    for p, x in zip(P, pts):
        if any(np.linalg.norm(x - y) < CLUSTER_TOL * scale for y in taken):
            continue
        taken.append(x)
        eig = height_hessian_eigenvalues(S, p, v)
        if np.min(np.abs(eig)) < EIGEN_FLOOR / scale:
            raise DegenerateHeightError("near-degenerate height critical point")
        out.append(CriticalPoint(params=p, point=x, hessian_eigenvalues=eig))
    return out


# ---------------------------------------------------------------------------
# Steiner dilation oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexBody:
    """Distance oracle for the Steiner fit."""

    ambient_dim: int
    distance: Callable  # (N, n) points -> (N,) distances to the body
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray


def _cube_body(side: float) -> ConvexBody:
    lo, hi = np.zeros(3), np.full(3, side)

    def dist(pts):
        pts = np.atleast_2d(pts)
        excess = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        return np.linalg.norm(excess, axis=1)

    return ConvexBody(3, dist, lo, hi)


def _ball_body(radius: float) -> ConvexBody:
    def dist(pts):
        pts = np.atleast_2d(pts)
        return np.maximum(np.linalg.norm(pts, axis=1) - radius, 0.0)

    return ConvexBody(3, dist, -radius * np.ones(3), radius * np.ones(3))


def _segment_body(length: float) -> ConvexBody:
    def dist(pts):
        pts = np.atleast_2d(pts)
        t = np.clip(pts[:, 0], 0.0, length)
        return np.hypot(pts[:, 0] - t, pts[:, 1])

    return ConvexBody(2, dist, np.array([0.0, 0.0]), np.array([length, 0.0]))


# catalog name -> convex body of the given size (default 1); a moved shape,
# whose name ends in "*", has none
CONVEX_BODIES = {"cube": _cube_body, "ball": _ball_body, "segment": _segment_body}


@dataclass(frozen=True)
class SteinerFit:
    coefficients: np.ndarray  # c_k multiplying eps^(n-k), k = 0..n
    volumes: np.ndarray
    epsilons: np.ndarray
    condition_number: float
    n_samples: int
    seed: int


def steiner_oracle(X: Shape, epsilons, n_mc: int, rng: RandomSource) -> SteinerFit:
    """Fit the dilation-volume polynomial of a convex catalog body.

    Samples points in a common bounding box, measures vol(X_eps) for each
    dilation radius by point counting, and least-squares fits
    sum_k c_k eps^(n-k); for convex bodies c_k recovers Lambda_k * b_(n-k).
    """
    head, _, rest = X.name.partition(":")
    if head not in CONVEX_BODIES or X.name.endswith("*"):
        raise ValueError(f"shape {X.name} has no convex-body oracle")
    body = CONVEX_BODIES[head](float(rest) if rest else 1.0)
    eps = np.asarray(sorted(float(e) for e in epsilons))
    if len(eps) < X.ambient_dim + 1 or len(set(eps.tolist())) != len(eps):
        raise ValueError("need at least n+1 distinct dilation radii")
    if eps[0] <= 0:
        raise ValueError("dilation radii must be positive")
    n = body.ambient_dim
    # each dilation gets its own tight box: the hit fraction stays near one
    # for small radii, which keeps the fit's input volumes sharp
    vols = np.empty(len(eps))
    ses = np.empty(len(eps))
    for j, e in enumerate(eps):
        lo = body.bbox_lo - e
        hi = body.bbox_hi + e
        boxvol = float(np.prod(hi - lo))
        gen = rng.substream(j).generator()
        pts = lo + (hi - lo) * gen.uniform(size=(n_mc, n))
        p = float(np.mean(body.distance(pts) <= e))
        vols[j] = boxvol * p
        ses[j] = boxvol * math.sqrt(max(p * (1.0 - p), 1e-12) / n_mc)
    design = np.stack([eps ** (n - k) for k in range(n + 1)], axis=1)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise ValueError(
            f"ill-conditioned dilation fit (cond={cond:.2e}); spread the radii ladder"
        )
    w = 1.0 / ses
    coeffs, *_ = np.linalg.lstsq(design * w[:, None], vols * w, rcond=None)
    return SteinerFit(
        coefficients=coeffs,
        volumes=vols,
        epsilons=eps,
        condition_number=cond,
        n_samples=n_mc,
        seed=rng.master_seed,
    )


# ---------------------------------------------------------------------------
# the catalog's charts, written out by hand
# ---------------------------------------------------------------------------

def _trig(p, axis: int):
    """cos and sin of one chart coordinate of a (..., d) parameter array,
    each computed once; a chart then fills one preallocated array with
    products of them."""
    t = np.asarray(p, dtype=float)[..., axis]
    return np.cos(t), np.sin(t)


def sphere_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)

    def r(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        out = np.empty(ct.shape + (3,))
        out[..., 0] = ct * sp
        out[..., 1] = st * sp
        out[..., 2] = cp
        out *= R
        return out

    def dr(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        out = np.empty(ct.shape + (2, 3))
        out[..., 0, 0] = -(st * sp)
        out[..., 0, 1] = ct * sp
        out[..., 0, 2] = 0.0
        out[..., 1, 0] = ct * cp
        out[..., 1, 1] = st * cp
        out[..., 1, 2] = -sp
        out *= R
        return out

    def d2r(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        out = np.empty(ct.shape + (2, 2, 3))
        out[..., 0, 0, 0] = out[..., 1, 1, 0] = -(ct * sp)
        out[..., 0, 0, 1] = out[..., 1, 1, 1] = -(st * sp)
        out[..., 0, 0, 2] = out[..., 0, 1, 2] = 0.0
        out[..., 0, 1, 0] = -(st * cp)
        out[..., 0, 1, 1] = ct * cp
        out[..., 1, 1, 2] = -cp
        out[..., 1, 0, :] = out[..., 0, 1, :]
        out *= R
        return out

    chart = Chart(dim=2, bounds=((0.0, 2 * math.pi), (1e-6, math.pi - 1e-6)),
                  periodic=(True, False), r=r, dr=dr, d2r=d2r)
    stratum = SmoothStratum(
        name="sphere",
        dim=2,
        chart=chart,
        role="top",
        unit_normal=lambda p: r(p) / R,
    )
    return SmoothShape(3, (stratum,), f"sphere:{radius:g}", 2 * R)


def torus_shape(R: float = 2.0, r: float = 1.0) -> SmoothShape:
    R, r = float(R), float(r)
    if not R > r > 0:
        raise ValueError("need R > r > 0 for an embedded torus")

    def rr(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        w = R + r * cp
        out = np.empty(ct.shape + (3,))
        out[..., 0] = w * ct
        out[..., 1] = w * st
        out[..., 2] = r * sp
        return out

    def dr(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        w, rs = R + r * cp, r * sp
        out = np.empty(ct.shape + (2, 3))
        out[..., 0, 0] = -(w * st)
        out[..., 0, 1] = w * ct
        out[..., 0, 2] = 0.0
        out[..., 1, 0] = -(rs * ct)
        out[..., 1, 1] = -(rs * st)
        out[..., 1, 2] = r * cp
        return out

    def d2r(p):
        (ct, st), (cp, sp) = _trig(p, 0), _trig(p, 1)
        rc, rs = r * cp, r * sp
        w = R + rc
        out = np.empty(ct.shape + (2, 2, 3))
        out[..., 0, 0, 0] = -(w * ct)
        out[..., 0, 0, 1] = -(w * st)
        out[..., 0, 0, 2] = out[..., 0, 1, 2] = 0.0
        out[..., 0, 1, 0] = rs * st
        out[..., 0, 1, 1] = -(rs * ct)
        out[..., 1, 1, 0] = -(rc * ct)
        out[..., 1, 1, 1] = -(rc * st)
        out[..., 1, 1, 2] = -rs
        out[..., 1, 0, :] = out[..., 0, 1, :]
        return out

    def unit_normal(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        return np.stack(
            [np.cos(ph) * np.cos(th), np.cos(ph) * np.sin(th), np.sin(ph)], axis=-1
        )

    chart = Chart(dim=2, bounds=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                  periodic=(True, True), r=rr, dr=dr, d2r=d2r)
    stratum = SmoothStratum(name="torus", dim=2, chart=chart, role="top", unit_normal=unit_normal)
    return SmoothShape(3, (stratum,), f"torus:{R:g}:{r:g}", 2 * (R + r))


def _circle_chart(R: float) -> Chart:
    """The circle of radius R about the origin of the xy-plane of R^3."""
    def r(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (3,))
        out[..., 0] = R * c
        out[..., 1] = R * s
        out[..., 2] = 0.0
        return out

    def dr(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (1, 3))
        out[..., 0, 0] = -R * s
        out[..., 0, 1] = R * c
        out[..., 0, 2] = 0.0
        return out

    def d2r(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (1, 1, 3))
        out[..., 0, 0, 0] = -R * c
        out[..., 0, 0, 1] = -R * s
        out[..., 0, 0, 2] = 0.0
        return out

    return Chart(dim=1, bounds=((0.0, 2 * math.pi),), periodic=(True,), r=r, dr=dr, d2r=d2r)


def circle_shape(radius: float = 1.0) -> SmoothShape:
    """The circle of the given radius in the xy-plane of R^3."""
    R = float(radius)
    stratum = SmoothStratum(name="circle", dim=1, chart=_circle_chart(R), role="top")
    return SmoothShape(3, (stratum,), f"circle:{radius:g}", 2 * R)


def disk_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)

    def r(p):
        rho = np.asarray(p, dtype=float)[..., 0]
        c, s = _trig(p, 1)
        out = np.empty(c.shape + (3,))
        out[..., 0] = rho * c
        out[..., 1] = rho * s
        out[..., 2] = 0.0
        return out

    def dr(p):
        rho = np.asarray(p, dtype=float)[..., 0]
        c, s = _trig(p, 1)
        out = np.empty(c.shape + (2, 3))
        out[..., 0, 0] = c
        out[..., 0, 1] = s
        out[..., 1, 0] = -rho * s
        out[..., 1, 1] = rho * c
        out[..., :, 2] = 0.0
        return out

    def d2r(p):
        rho = np.asarray(p, dtype=float)[..., 0]
        c, s = _trig(p, 1)
        out = np.zeros(c.shape + (2, 2, 3))
        out[..., 0, 1, 0] = out[..., 1, 0, 0] = -s
        out[..., 0, 1, 1] = out[..., 1, 0, 1] = c
        out[..., 1, 1, 0] = -rho * c
        out[..., 1, 1, 1] = -rho * s
        return out

    def unit_normal(p):
        # the chart's normalised cross product d_rho x d_psi is (+-0, +-0, 1)
        nu = np.zeros(np.shape(p)[:-1] + (3,))
        nu[..., 2] = 1.0
        return nu

    top_chart = Chart(dim=2, bounds=((1e-9 * R, R), (0.0, 2 * math.pi)),
                      periodic=(False, True), r=r, dr=dr, d2r=d2r)
    top = SmoothStratum(
        name="disk",
        dim=2,
        chart=top_chart,
        role="top",
        unit_normal=unit_normal,
    )

    def rim_conormal(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)

    rim = SmoothStratum(
        name="rim",
        dim=1,
        chart=_circle_chart(R),
        role="rim",
        inward_conormal=rim_conormal,
    )
    return SmoothShape(3, (top, rim), f"disk:{radius:g}", 2 * R)


def hemisphere_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)
    base = sphere_shape(R)
    sph = base.stratum("sphere")
    top_chart = replace(sph.chart, bounds=((0.0, 2 * math.pi), (1e-6, math.pi / 2)))
    top = replace(sph, name="cap", chart=top_chart)

    def rim_conormal(p):
        # tangent to the sphere at the equator, pointing toward the pole
        t = np.asarray(p, dtype=float)[..., 0]
        z = np.zeros_like(t)
        return np.stack([z, z, np.ones_like(t)], axis=-1)

    rim = SmoothStratum(
        name="rim",
        dim=1,
        chart=_circle_chart(R),
        role="rim",
        inward_conormal=rim_conormal,
    )
    return SmoothShape(3, (top, rim), f"hemisphere:{radius:g}", 2 * R)


def ellipse_shape(a: float = 2.0, b: float = 1.0) -> SmoothShape:
    a, b = float(a), float(b)

    def r(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (2,))
        out[..., 0] = a * c
        out[..., 1] = b * s
        return out

    def dr(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (1, 2))
        out[..., 0, 0] = -a * s
        out[..., 0, 1] = b * c
        return out

    def d2r(p):
        c, s = _trig(p, 0)
        out = np.empty(c.shape + (1, 1, 2))
        out[..., 0, 0, 0] = -a * c
        out[..., 0, 0, 1] = -b * s
        return out

    chart = Chart(dim=1, bounds=((0.0, 2 * math.pi),), periodic=(True,), r=r, dr=dr, d2r=d2r)
    stratum = SmoothStratum(
        name="ellipse",
        dim=1,
        chart=chart,
        role="top",
    )
    return SmoothShape(2, (stratum,), f"ellipse:{a:g}:{b:g}", 2 * max(a, b))


def ball_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)
    boundary = sphere_shape(R).stratum("sphere")

    def inward(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        return -np.stack([np.cos(th) * np.sin(ph), np.sin(th) * np.sin(ph), np.cos(ph)], axis=-1)

    boundary = replace(boundary, name="boundary", role="solid_boundary", inward_conormal=inward)
    interior = SmoothStratum(
        name="interior",
        dim=3,
        chart=None,
        role="solid",
        volume=4.0 / 3.0 * math.pi * R**3,
    )
    return SmoothShape(3, (boundary, interior), f"ball:{radius:g}", 2 * R)
