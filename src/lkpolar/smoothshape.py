"""Catalog of smooth shapes with exact differential data.

Each shape is a list of strata; every stratum carries a chart with exact
first and second derivatives, so tangent/normal frames, second fundamental
forms and curvature integrands are evaluated without numerical
differentiation.  Every catalog chart is a product chart: each coordinate is
a constant times one function of each chart parameter, and
:func:`_product_chart` gets the chart's derivatives from its factors' by the
product rule.  Quadrature uses the trapezoid rule on periodic chart axes
(spectrally exact for the trigonometric integrands of the catalog) and
Gauss-Legendre nodes otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geomkit import Estimate, sphere_volume

__all__ = [
    "Chart",
    "SmoothStratum",
    "SmoothShape",
    "SecondFormAt",
    "CriticalPoint",
    "DegenerateHeightError",
    "HeightCriticalPoints",
    "frames",
    "second_form",
    "tangent_frame_form",
    "hypersurface_normals",
    "normal_index_many",
    "normal_circle_moments",
    "integrate_stratum",
    "height_critical_points",
    "height_critical_points_many",
    "height_hessian_eigenvalues",
    "chart_solve",
    "chart_det",
    "chart_gram",
    "area_element",
    "rim_curvature_vector",
    "sphere_shape",
    "torus_shape",
    "circle_shape",
    "disk_shape",
    "hemisphere_shape",
    "ellipse_shape",
    "ball_shape",
]


@functools.lru_cache(maxsize=8)
def _leggauss(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only; the polar
    route asks for the same few resolutions on every plane."""
    t, w = np.polynomial.legendre.leggauss(resolution)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@dataclass(frozen=True)
class Chart:
    """Parametrization of a stratum over a box domain.

    ``r`` maps (..., d) parameter arrays to (..., n) points; ``dr`` returns
    (..., d, n) first derivatives and ``d2r`` (..., d, d, n) second
    derivatives.  ``periodic[i]`` marks axes whose endpoints are identified.
    """

    dim: int
    bounds: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]
    r: Callable
    dr: Callable
    d2r: Callable

    def grid(self, resolution: int):
        """Tensor quadrature nodes and weights on the chart domain."""
        axes, weights = [], []
        for (lo, hi), per in zip(self.bounds, self.periodic):
            if per:
                x = np.linspace(lo, hi, resolution, endpoint=False)
                w = np.full(resolution, (hi - lo) / resolution)
            else:
                t, w = _leggauss(resolution)
                x = 0.5 * (hi - lo) * (t + 1.0) + lo
                w = 0.5 * (hi - lo) * w
            axes.append(x)
            weights.append(w)
        mesh = np.meshgrid(*axes, indexing="ij")
        params = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*weights, indexing="ij")
        wtot = np.ones(params.shape[0])
        for w in wmesh:
            wtot = wtot * w.ravel()
        return params, wtot


@dataclass(frozen=True)
class SmoothStratum:
    """One smooth stratum of a catalog shape.

    role:
      - "top":   stratum whose normal slice in the shape is a point
                 (closed manifolds and interiors of bounded ones);
      - "rim":   boundary curve of a surface stratum, with an inward conormal
                 field tangent to the adjacent surface;
      - "solid_boundary": hypersurface bounding a full-dimensional body, with
                 the inward conormal pointing into the body;
      - "solid": full-dimensional interior (volume only, no chart).

    ``unit_normal``, when present, is a closed-form unit normal field used as
    a fast path by silhouette tracing (codimension-one strata only).
    """

    name: str
    dim: int
    chart: Chart | None
    role: str = "top"
    inward_conormal: Callable | None = None  # params -> unit vector into the shape
    volume: float | None = None  # for role == "solid"
    unit_normal: Callable | None = None  # params -> unit normal (codim 1)


@dataclass(frozen=True)
class SmoothShape:
    """Strata of one shape.  The shape lies in the ball of radius
    ``diameter / 2`` about ``center`` (the origin when None), which
    :meth:`transformed` moves with the shape."""

    ambient_dim: int
    strata: tuple[SmoothStratum, ...]
    name: str
    diameter: float
    center: tuple[float, ...] | None = None

    def stratum(self, name: str) -> SmoothStratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def dim(self) -> int:
        return max(s.dim for s in self.strata)

    def bounding_ball(self) -> tuple[np.ndarray, float]:
        center = np.zeros(self.ambient_dim) if self.center is None else np.array(self.center)
        return center, self.diameter / 2.0

    def transformed(self, rotation=None, translation=None, scale: float = 1.0) -> "SmoothShape":
        rot = None if rotation is None else np.asarray(rotation, dtype=float)
        tr = None if translation is None else np.asarray(translation, dtype=float)
        strata = tuple(_transform_stratum(s, rot, tr, scale) for s in self.strata)
        center = _moved(self.bounding_ball()[0], rot, tr, scale)
        return SmoothShape(self.ambient_dim, strata, f"{self.name}*", self.diameter * scale,
                           tuple(center.tolist()))


def _rotated(x, rot):
    """x @ rot.T, summed column by column: a row's bits then do not depend
    on how many rows share the call, as a one-row matmul takes another
    BLAS path."""
    return sum(x[..., j, None] * rot[:, j] for j in range(rot.shape[1]))


def _moved(x, rot, tr, scale):
    """x scaled, then rotated, then translated (tr is None for vectors)."""
    y = scale * x
    if rot is not None:
        y = _rotated(y, rot)
    if tr is not None:
        y = y + tr
    return y


def _transform_stratum(s: SmoothStratum, rot, tr, scale) -> SmoothStratum:
    if s.chart is None:
        vol = None if s.volume is None else s.volume * scale**s.dim
        return replace(s, volume=vol)
    base = s.chart
    chart = replace(
        base,
        r=lambda p: _moved(base.r(p), rot, tr, scale),
        dr=lambda p: _moved(base.dr(p), rot, None, scale),
        d2r=lambda p: _moved(base.d2r(p), rot, None, scale),
    )
    def rotated_field(inner):
        def field(p, _inner=inner):
            w = _inner(p)
            if rot is not None:
                w = _rotated(w, rot)
            return w

        return field

    conormal = None if s.inward_conormal is None else rotated_field(s.inward_conormal)
    normal = None if s.unit_normal is None else rotated_field(s.unit_normal)
    return replace(s, chart=chart, inward_conormal=conormal, unit_normal=normal)


@dataclass(frozen=True)
class SecondFormAt:
    """Second fundamental form at a point, in an orthonormal tangent frame."""

    point: np.ndarray
    tangent_frame: np.ndarray  # (d, n) rows
    normal_direction: np.ndarray
    matrix: np.ndarray  # (d, d) symmetric


def frames(S: SmoothStratum, params) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (tangent, normal) frames at a chart point, as row stacks."""
    params = np.asarray(params, dtype=float)
    J = S.chart.dr(params)  # (d, n)
    q, r = np.linalg.qr(J.T)
    # relative to the longest chart tangent, so that the test holds at any scale
    if np.min(np.abs(np.diag(r))) <= 1e-10 * np.max(np.linalg.norm(J, axis=-1)):
        raise ValueError("rank-deficient chart Jacobian (degenerate chart point)")
    tangent = q.T  # (d, n)
    u, _, _ = np.linalg.svd(tangent.T, full_matrices=True)
    normal = u[:, S.dim :].T
    return tangent, normal


def second_form(S: SmoothStratum, params, v: np.ndarray) -> SecondFormAt:
    """Second fundamental form in the normal direction v.

    Entries are <v, D^2 r (W_i, W_j)> in the orthonormal tangent frame, which
    makes the unit sphere with outward normal come out as -Identity.
    """
    params = np.asarray(params, dtype=float)
    v = np.asarray(v, dtype=float)
    tangent, mat = tangent_frame_form(S.chart.dr(params), S.chart.d2r(params) @ v)
    if np.max(np.abs(tangent @ v)) > 1e-8 * np.linalg.norm(v):
        raise ValueError("direction is not normal to the stratum")
    mat = 0.5 * (mat + mat.T)
    return SecondFormAt(
        point=S.chart.r(params),
        tangent_frame=tangent,
        normal_direction=v,
        matrix=mat,
    )


def tangent_frame_form(J: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent frames, and second-derivative matrices carried
    into them, at a chart point or a stack of them.

    J (..., d, n) holds chart Jacobians and H (..., d, d) matrices of second
    derivatives in chart coordinates.  With J^T = Q R, the rows of Q^T are an
    orthonormal tangent frame, J = R^T Q^T, and R^-T H R^-1 is H in that
    frame.  Returns (Q^T, R^-T H R^-1)."""
    q, r = np.linalg.qr(np.swapaxes(J, -1, -2))
    rinv = np.linalg.inv(np.swapaxes(r, -1, -2))
    return np.swapaxes(q, -1, -2), rinv @ H @ np.swapaxes(rinv, -1, -2)


def hypersurface_normals(J: np.ndarray) -> np.ndarray:
    """Unit normals of a codimension-one stratum from a stack of chart
    Jacobians: the cross product of the two tangents of a surface in R^3, or
    the tangent of a curve in the plane turned by a right angle."""
    if J.shape[-2:] == (2, 3):
        nu = np.cross(J[..., 0, :], J[..., 1, :])
    elif J.shape[-2:] == (1, 2):
        nu = np.stack([-J[..., 0, 1], J[..., 0, 0]], axis=-1)
    else:
        raise NotImplementedError(f"hypersurface normals for Jacobians of shape {J.shape[-2:]}")
    return nu / np.linalg.norm(nu, axis=-1, keepdims=True)


def normal_index_many(S: SmoothStratum, params, vs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal Morse index of the stratum at each of a stack of chart points,
    along the normal direction v given for it (one direction may serve all)
    and along -v, and a mask of the points on the wall of the rule.

    This is the half-branch rule, the smooth counterpart of
    :func:`lkpolar.plstrata.normal_morse_index`: the index is 1 - chi of the
    part of the normal slice below the point along v.  A top stratum has the
    point itself as normal slice, so the index is 1.  A rim or a solid
    boundary has the half-line along the inward conormal w, whose lower part
    is empty exactly when <v, w> > 0, so the index is 1 or 0 by that sign.
    Both signs come from one dot product <v, w> (negation is exact).  A
    direction with |<v, w>| < 1e-9 lies on the wall: its indices are not to
    be used, and a caller raises DegenerateDirectionError or redraws."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if S.role == "top":
        ones = np.ones(len(params))
        return ones, ones, np.zeros(len(params), dtype=bool)
    w = np.atleast_2d(S.inward_conormal(params))
    dots = np.einsum("ij,ij->i", np.broadcast_to(vs, w.shape), w)
    return (dots > 0).astype(float), (dots < 0).astype(float), np.abs(dots) < 1e-9


def normal_circle_moments(S: SmoothStratum, params) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ind(v) and of ind(v) v over the unit normal circle of a
    curve in R^3, at each of a stack of chart points, with ind the
    half-branch rule of :func:`normal_index_many`: (2 pi, 0) on a top curve, and
    (pi, 2 w) on a rim, whose half circle {<v, w> > 0} has its centroid
    along the inward conormal w."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if S.role == "top":
        return np.full(len(params), sphere_volume(1)), np.zeros((len(params), 3))
    w = np.atleast_2d(S.inward_conormal(params))
    return np.full(len(params), 0.5 * sphere_volume(1)), 2.0 * w


def area_element(J: np.ndarray) -> np.ndarray:
    """Volume element sqrt(det G) of a stack of chart Jacobians J (..., d, n),
    with G = :func:`chart_gram` (J) and det G by :func:`chart_det`: |J_0| on
    a curve, sqrt(G_00 G_11 - G_01^2) on a surface, clamped at 0 against
    rounding."""
    return np.sqrt(np.maximum(chart_det(chart_gram(J)), 0.0))


def integrate_stratum(
    S: SmoothStratum,
    density: Callable,
    region: Callable | None = None,
    resolution: int = 64,
) -> Estimate:
    """Integral over the stratum of density(points, params) dArea.

    The error estimate is the difference against the half-resolution rule;
    region predicates (arrays of points -> bool) simply mask quadrature nodes.
    """
    if S.chart is None:
        raise ValueError("stratum has no chart to integrate over")

    def run(res: int) -> float:
        params, w = S.chart.grid(res)
        pts = S.chart.r(params)
        dens = np.asarray(density(pts, params), dtype=float)
        vals = w * area_element(S.chart.dr(params)) * dens
        if region is not None:
            vals = vals * np.asarray(region(pts), dtype=bool)
        return float(math.fsum(vals.tolist()))

    coarse = run(max(8, resolution // 2))
    fine = run(resolution)
    return Estimate(
        value=fine,
        std_error=abs(fine - coarse),
        n_samples=resolution ** S.dim,
        seed=0,
        method="chart-quadrature",
    )


def rim_curvature_vector(S: SmoothStratum, params) -> np.ndarray:
    """Curvature vector of a 1-dimensional stratum at a chart point, or at
    each of a stack of them."""
    params = np.asarray(params, dtype=float)
    J = S.chart.dr(params)[..., 0, :]
    H = S.chart.d2r(params)[..., 0, 0, :]
    speed2 = np.sum(J * J, axis=-1, keepdims=True)
    tang = J / np.sqrt(speed2)
    return (H - np.sum(H * tang, axis=-1, keepdims=True) * tang) / speed2


@dataclass(frozen=True)
class CriticalPoint:
    params: np.ndarray
    point: np.ndarray
    hessian_eigenvalues: np.ndarray

    @property
    def morse_index(self) -> int:
        return int(np.sum(self.hessian_eigenvalues < 0.0))


class DegenerateHeightError(ValueError):
    """Height function is non-Morse on the stratum for this direction."""


# multistart Newton of height_critical_points, with floors that scale with
# the shape's diameter s: the Hessian determinant in chart coordinates below
# DET_FLOOR * s^d takes no step, a start whose step is below SETTLE_TOL of
# each chart axis's range has settled, points closer than CLUSTER_TOL * s are
# one, and a kept point with a Hessian eigenvalue (a curvature) below
# EIGEN_FLOOR / s is degenerate
NEWTON_STARTS_PER_AXIS = 12
NEWTON_ITERS = 60
DET_FLOOR = 1e-14
SETTLE_TOL = 1e-13
CLUSTER_TOL = 1e-6
EIGEN_FLOOR = 1e-8


def chart_det(A: np.ndarray) -> np.ndarray:
    """det A for a stack of d x d matrices A (..., d, d), written out: a
    chart has d <= 2, and a 2 x 2 determinant costs a few vector operations
    where a batched LAPACK call costs one call per item."""
    d = A.shape[-1]
    if d == 1:
        return A[..., 0, 0]
    if d == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    raise NotImplementedError(f"closed-form chart algebra for a chart of dimension {d}")


def chart_solve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det A and A^-1 b for a stack of d x d matrices A (..., d, d) and
    right-hand sides b (..., d), in closed form by Cramer's rule (see
    :func:`chart_det`).  Where det A is 0 the solution is inf or NaN and is
    not to be used."""
    det = chart_det(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        if A.shape[-1] == 1:
            return det, b / det[..., None]
        a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        b0, b1 = b[..., 0], b[..., 1]
        x = np.empty(b.shape)
        np.divide(a11 * b0 - a01 * b1, det, out=x[..., 0])
        np.divide(a00 * b1 - a10 * b0, det, out=x[..., 1])
        return det, x


def chart_gram(J: np.ndarray) -> np.ndarray:
    """J J^T for a stack of chart Jacobians J (..., d, n), entry by entry:
    a few dot products, exactly symmetric, where a stacked matmul of small
    matrices costs more than they do."""
    d = J.shape[-2]
    G = np.empty(J.shape[:-1] + (d,))
    for k in range(d):
        for m in range(k, d):
            G[..., k, m] = G[..., m, k] = np.einsum("...n,...n->...", J[..., k, :], J[..., m, :])
    return G


def height_hessian_eigenvalues(S: SmoothStratum, params, v: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hessian of the height <v, .> on the stratum at a
    critical point, in an orthonormal tangent frame of the chart."""
    params = np.asarray(params, dtype=float)
    return np.linalg.eigvalsh(tangent_frame_form(S.chart.dr(params), S.chart.d2r(params) @ v)[1])


@dataclass(frozen=True)
class HeightCriticalPoints:
    """Critical points of the heights along a stack of D directions, in
    direction order, then start order.  Row k is a critical point of the
    height along direction ``direction[k]``.  A direction flagged in
    ``degenerate`` is to be redrawn and has no rows."""

    direction: np.ndarray  # (K,) direction of each point
    params: np.ndarray  # (K, d)
    points: np.ndarray  # (K, n)
    hessian_eigenvalues: np.ndarray  # (K, d)
    degenerate: np.ndarray  # (D,) bools

    @property
    def morse_indices(self) -> np.ndarray:
        return np.sum(self.hessian_eigenvalues < 0.0, axis=1)


def height_critical_points_many(S: SmoothStratum, V, scale: float = 1.0) -> HeightCriticalPoints:
    """Critical points of the heights <v, .> on the stratum along each row v
    of a (D, n) stack, by one multistart Newton over (direction, start).

    Uses the exact chart gradient <v, dr> and Hessian <v, d2r>, and takes
    each step by :func:`chart_solve`; every start steps until its clamped
    position stops moving.  Duplicates are merged greedily in start order,
    by ambient distance relative to ``scale`` (the shape diameter): each
    direction takes its first remaining start and drops the starts within
    CLUSTER_TOL of it, for all directions at once.  A direction whose
    critical points drift into a chart edge, or whose Hessian is
    near-singular at a kept point, is flagged degenerate so the caller can
    redraw it.  Every stacked call treats a row as a lone one would, so each
    direction gets the points of a stack of one.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    chart = S.chart
    d = chart.dim
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    span = hi - lo
    axes = [
        np.linspace(lo[i], hi[i], NEWTON_STARTS_PER_AXIS, endpoint=not chart.periodic[i])
        for i in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=-1)
    D, N = len(V), len(starts)
    P = np.tile(starts, (D, 1))  # row k: start k % N of direction k // N
    caps = 0.2 * span
    det_floor = DET_FLOOR * np.float64(scale) ** d  # inf past overflow

    # iterate only the still-moving starts; quadratic convergence settles the
    # useful ones quickly while strays are cut off by the iteration cap
    live = np.arange(D * N)
    for _ in range(NEWTON_ITERS):
        Q0 = np.take(P, live, axis=0)
        v = np.take(V, live // N, axis=0)
        g = np.einsum("mkn,mn->mk", chart.dr(Q0), v)
        det, x = chart_solve(np.einsum("mkln,mn->mkl", chart.d2r(Q0), v), g)
        step = np.where((np.abs(det) > det_floor)[:, None], -x, 0.0)
        Q = Q0 + np.clip(step, -caps, caps)
        # a start is done when its clamped position stops moving (this also
        # freezes strays pressed against a chart edge)
        moved = np.zeros(len(Q))
        for i in range(d):
            if chart.periodic[i]:
                Q[:, i] = lo[i] + np.mod(Q[:, i] - lo[i], span[i])
                di = np.abs(Q[:, i] - Q0[:, i])
                di = np.minimum(di, span[i] - di)
            else:
                Q[:, i] = np.clip(Q[:, i], lo[i], hi[i])
                di = np.abs(Q[:, i] - Q0[:, i])
            moved = np.maximum(moved, di / span[i])
        P[live] = Q
        live = np.compress(~(moved < SETTLE_TOL), live)
        if not len(live):
            break

    # criticality is judged by the chart-independent tangential component of
    # v: |P_T v|^2 = g^T G^-1 g, with g = J v and G = J J^T
    J = chart.dr(P)
    g = np.einsum("mkn,mn->mk", J, np.repeat(V, N, axis=0))
    tang2 = np.einsum("mk,mk->m", g, chart_solve(chart_gram(J), g)[1])
    tang2 = tang2.reshape(D, N)
    inside = np.ones(D * N, dtype=bool)
    for i in range(d):
        if not chart.periodic[i]:
            margin = 1e-5 * span[i]
            inside &= (P[:, i] > lo[i] + margin) & (P[:, i] < hi[i] - margin)
    inside = inside.reshape(D, N)
    vnorm2 = np.einsum("dn,dn->d", V, V)[:, None]
    # a near-critical point pressed against a chart edge means the direction
    # is unresolvable in this chart: resample rather than silently miss it
    degenerate = np.any((tang2 < 1e-8 * vnorm2) & ~inside, axis=1)
    remaining = (tang2 < 1e-18 * vnorm2) & inside
    pts = np.zeros((D * N, V.shape[1]))
    found = np.flatnonzero(remaining)
    pts[found] = chart.r(np.take(P, found, axis=0))
    grouped = pts.reshape(D, N, -1)

    kept = np.zeros((D, N), dtype=bool)
    tol2 = np.square(CLUSTER_TOL * np.float64(scale))
    while np.any(remaining):
        dirs = np.flatnonzero(remaining.any(axis=1))
        first = remaining[dirs].argmax(axis=1)
        kept[dirs, first] = True
        gap = np.take(grouped, dirs, axis=0) - grouped[dirs, first][:, None]
        remaining[dirs] &= np.einsum("kpn,kpn->kp", gap, gap) >= tol2

    own, at = np.nonzero(kept)
    rows = own * N + at
    params = np.take(P, rows, axis=0)
    eig = np.linalg.eigvalsh(tangent_frame_form(
        chart.dr(params), np.einsum("kijn,kn->kij", chart.d2r(params), np.take(V, own, axis=0)))[1])
    degenerate[own[np.min(np.abs(eig), axis=1, initial=np.inf) < EIGEN_FLOOR / scale]] = True
    good = ~degenerate[own]
    return HeightCriticalPoints(direction=own[good], params=params[good], points=pts[rows][good],
                                hessian_eigenvalues=eig[good], degenerate=degenerate)


def height_critical_points(S: SmoothStratum, v: np.ndarray, scale: float = 1.0) -> list[CriticalPoint]:
    """Critical points of the height <v, .> on the stratum: the one-direction
    view of :func:`height_critical_points_many`.  A degenerate direction
    raises DegenerateHeightError so the caller can redraw."""
    crit = height_critical_points_many(S, np.asarray(v, dtype=float)[None], scale)
    if crit.degenerate[0]:
        raise DegenerateHeightError("critical point at a chart edge, or a degenerate one")
    return [CriticalPoint(params=p, point=x, hessian_eigenvalues=e)
            for p, x, e in zip(crit.params, crit.points, crit.hessian_eigenvalues)]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _cos(c, s):
    """cos t as a product factor, from c = cos t and s = sin t."""
    return (1, c), (-1, s), (-1, c)


def _sin(c, s):
    """sin t as a product factor, from c = cos t and s = sin t."""
    return (1, s), (1, c), (-1, s)


def _product_entry(out, coord, orders):
    """Write into ``out`` the partial derivative, of the given order in each
    parameter, of one product coordinate (c, f_0, f_1, ...) (see
    :func:`_product_chart`): the product of its factors' terms in order,
    times c, or times -c when their signs multiply to -1.  Where it is
    identically 0, ``out`` keeps its +0.0."""
    c, arrays = coord[0], []
    for factor, m in zip(coord[1:], orders):
        if factor is None:
            if m:
                return
            continue
        term = factor[m]
        if term is None:
            return
        if term[0] < 0:
            c = -c
        arrays.append(term[1])
    if c != 1.0 or not arrays:
        arrays.append(c)
    if len(arrays) == 1:
        out[...] = arrays[0]
    else:
        np.multiply(functools.reduce(np.multiply, arrays[:-1]), arrays[-1], out=out)


def _product_chart(bounds, periodic, coords) -> Chart:
    """Chart whose coordinates are products x_k = c_k f_k(p_0) g_k(p_1) of
    one function of each parameter, with dr and d2r by the product rule.

    ``coords(*columns)`` takes the parameter columns of a (..., d) array and
    returns one entry per coordinate: None for a coordinate that is
    identically 0, else (c_k, f_k, g_k) with a factor per parameter.  A
    factor is None for the constant 1, else its value, first and second
    derivative, each (sign, array or 1.0), or None where that derivative is
    identically 0.  Every entry is the product of its factors' arrays in
    order, then times c_k, or times -c_k when the signs of its factors'
    terms multiply to -1: -(a b c) and (-a) b c round alike, so the sign can
    ride on the scalar.  An entry that is identically 0 is +0.0."""
    d = len(bounds)
    axes = range(d)

    def deriv(*wrt):
        """the order of d/dp_wrt[0] d/dp_wrt[1] ... in each parameter"""
        return tuple(wrt.count(i) for i in axes)

    def filled(shape, slots):
        """p -> the (..., *shape, n) array that holds, for each (orders,
        index, *mirrors) of ``slots``, the derivatives of those orders at
        ``out[index]``, copied to each ``out[mirror]``; the others stay +0.0."""
        def f(p):
            p = np.asarray(p, dtype=float)
            cs = coords(*(p[..., i] for i in axes))
            out = np.zeros(p.shape[:-1] + shape + (len(cs),))
            for k, coord in enumerate(cs):
                if coord is not None:
                    for orders, index, *mirrors in slots:
                        entry = out[index + (k,)]
                        _product_entry(entry, coord, orders)
                        for mirror in mirrors:
                            out[mirror + (k,)] = entry
            return out

        return f

    # d2r is symmetric: an entry off the diagonal is written once and copied
    second = [(deriv(i, j), (..., i, j)) + (((..., j, i),) if i < j else ())
              for i in axes for j in axes[i:]]
    return Chart(dim=d, bounds=tuple(bounds), periodic=tuple(periodic),
                 r=filled((), [(deriv(), (...,))]),
                 dr=filled((d,), [(deriv(i), (..., i)) for i in axes]), d2r=filled((d, d), second))


def _sphere_chart(R: float) -> Chart:
    """The sphere of radius R about the origin of R^3, by longitude theta
    and colatitude phi: R (cos theta sin phi, sin theta sin phi, cos phi)."""
    def coords(theta, phi):
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        return (R, _cos(ct, st), _sin(cp, sp)), (R, _sin(ct, st), _sin(cp, sp)), (R, None, _cos(cp, sp))

    return _product_chart(((0.0, 2 * math.pi), (1e-6, math.pi - 1e-6)), (True, False), coords)


def sphere_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)
    chart = _sphere_chart(R)
    stratum = SmoothStratum(name="sphere", dim=2, chart=chart, role="top",
                            unit_normal=lambda p: chart.r(p) / R)
    return SmoothShape(3, (stratum,), f"sphere:{radius:g}", 2 * R)


def torus_shape(R: float = 2.0, r: float = 1.0) -> SmoothShape:
    R, r = float(R), float(r)
    if not R > r > 0:
        raise ValueError("need R > r > 0 for an embedded torus")

    def coords(theta, phi):
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        rc, rs = r * cp, r * sp
        w = (1, R + rc), (-1, rs), (-1, rc)  # R + r cos phi
        return (1.0, _cos(ct, st), w), (1.0, _sin(ct, st), w), (r, None, _sin(cp, sp))

    def normal(theta, phi):
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        return (1.0, _cos(ct, st), _cos(cp, sp)), (1.0, _sin(ct, st), _cos(cp, sp)), (1.0, None, _sin(cp, sp))

    bounds, periodic = ((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (True, True)
    stratum = SmoothStratum(name="torus", dim=2, chart=_product_chart(bounds, periodic, coords),
                            role="top", unit_normal=_product_chart(bounds, periodic, normal).r)
    return SmoothShape(3, (stratum,), f"torus:{R:g}:{r:g}", 2 * (R + r))


def _circle_chart(a: float, b: float, n: int) -> Chart:
    """The ellipse (a cos t, b sin t) about the origin of R^2, or of the
    xy-plane of R^3 when n = 3."""
    def coords(t):
        c, s = np.cos(t), np.sin(t)
        return ((a, _cos(c, s)), (b, _sin(c, s))) + (None,) * (n - 2)

    return _product_chart(((0.0, 2 * math.pi),), (True,), coords)


def circle_shape(radius: float = 1.0) -> SmoothShape:
    """The circle of the given radius in the xy-plane of R^3."""
    R = float(radius)
    stratum = SmoothStratum(name="circle", dim=1, chart=_circle_chart(R, R, 3), role="top")
    return SmoothShape(3, (stratum,), f"circle:{radius:g}", 2 * R)


def disk_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)

    def coords(rho, psi):
        c, s = np.cos(psi), np.sin(psi)
        linear = (1, rho), (1, 1.0), None
        return (1.0, linear, _cos(c, s)), (1.0, linear, _sin(c, s)), None

    bounds, periodic = ((1e-9 * R, R), (0.0, 2 * math.pi)), (False, True)
    # the chart's normalised cross product d_rho x d_psi is (+-0, +-0, 1)
    up = _product_chart(bounds, periodic, lambda rho, psi: (None, None, (1.0, None, None))).r
    top = SmoothStratum(name="disk", dim=2, chart=_product_chart(bounds, periodic, coords), role="top",
                        unit_normal=up)
    rim = SmoothStratum(name="rim", dim=1, chart=_circle_chart(R, R, 3), role="rim",
                        inward_conormal=_circle_chart(-1.0, -1.0, 3).r)
    return SmoothShape(3, (top, rim), f"disk:{radius:g}", 2 * R)


def hemisphere_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)
    sph = sphere_shape(R).stratum("sphere")
    top = replace(sph, name="cap", chart=replace(sph.chart, bounds=((0.0, 2 * math.pi), (1e-6, math.pi / 2))))
    # the rim's conormal is tangent to the sphere at the equator, toward the pole
    pole = _product_chart(((0.0, 2 * math.pi),), (True,), lambda t: (None, None, (1.0, None))).r
    rim = SmoothStratum(name="rim", dim=1, chart=_circle_chart(R, R, 3), role="rim", inward_conormal=pole)
    return SmoothShape(3, (top, rim), f"hemisphere:{radius:g}", 2 * R)


def ellipse_shape(a: float = 2.0, b: float = 1.0) -> SmoothShape:
    a, b = float(a), float(b)
    stratum = SmoothStratum(name="ellipse", dim=1, chart=_circle_chart(a, b, 2), role="top")
    return SmoothShape(2, (stratum,), f"ellipse:{a:g}:{b:g}", 2 * max(a, b))


def ball_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)
    boundary = replace(sphere_shape(R).stratum("sphere"), name="boundary", role="solid_boundary",
                       inward_conormal=_sphere_chart(-1.0).r)
    interior = SmoothStratum(name="interior", dim=3, chart=None, role="solid",
                             volume=4.0 / 3.0 * math.pi * R**3)
    return SmoothShape(3, (boundary, interior), f"ball:{radius:g}", 2 * R)
