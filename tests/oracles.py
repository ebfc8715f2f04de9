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
- :func:`crofton_volume` and :func:`projected_volume` measure lengths by
  Cauchy-Crofton line counts and by averaged projections;
- :func:`lkw_curvature` integrates sigma_i of the second fundamental form
  over the normal sphere one point and one direction at a time, against the
  stacked smooth densities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from lkpolar.geomkit import (
    DegenerateDirectionError,
    Estimate,
    LinearSubspace,
    RandomSource,
    beta_coeff,
    fmean,
    mean_estimate,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
)
from lkpolar.lkmeasure import Shape
from lkpolar.plstrata import NormalLink, StratifiedComplex, normal_link, normal_morse_index_many
from lkpolar.polar import SPAN_RANK_TOL
from lkpolar.smoothshape import SmoothStratum, frames, second_form


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
        idx, ok = normal_morse_index_many(K, cell, np.stack([comp[0], -comp[0]]), link)
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
        idx, ok = normal_morse_index_many(K, cell, g @ comp, link)
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
    """Integral of sigma_i(II_{x,v}) over the unit normal sphere at the point,
    one point and one direction at a time: the test oracle of the stacked
    curvature densities.

    Codimension 1 uses the exact two-point rule; a curve in R^3 uses a uniform
    circle rule, exact here because the integrand is a trigonometric
    polynomial of degree <= 1 in the normal angle.
    """
    if not 0 <= i <= S.dim:
        raise ValueError(f"curvature order {i} out of range for dim {S.dim}")
    _, normal = frames(S, params)
    codim = normal.shape[0]
    if codim == 1:
        nu = normal[0]
        return sigma_of_form(S, params, nu, i) + sigma_of_form(S, params, -nu, i)
    if codim == 2 and S.dim == 1:
        total = 0.0
        for t in np.arange(circle_rule) * (2 * math.pi / circle_rule):
            v = math.cos(t) * normal[0] + math.sin(t) * normal[1]
            total += sigma_of_form(S, params, v, i)
        return total * (2 * math.pi / circle_rule)
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
