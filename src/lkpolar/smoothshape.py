"""Catalog of smooth shapes with exact differential data.

Each shape is a list of strata; every stratum carries a chart with closed-form
first and second derivatives, so tangent/normal frames, second fundamental
forms and curvature integrands are evaluated without numerical
differentiation.  Quadrature uses the trapezoid rule on periodic chart axes
(spectrally exact for the trigonometric integrands of the catalog) and
Gauss-Legendre nodes otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geomkit import DegenerateDirectionError, Estimate, sphere_volume

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
    "normal_index",
    "normal_index_many",
    "normal_circle_moments",
    "integrate_stratum",
    "height_critical_points",
    "height_critical_points_many",
    "height_hessian_eigenvalues",
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


def _moved(x, rot, tr, scale):
    """x scaled, then rotated, then translated (tr is None for vectors)."""
    y = scale * x
    if rot is not None:
        y = y @ rot.T
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
                w = w @ rot.T
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
    if np.min(np.abs(np.diag(r))) <= 1e-10:
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


def normal_index(S: SmoothStratum, params, vs) -> np.ndarray:
    """Normal Morse index of the stratum at each of a stack of chart points,
    along the normal direction given for it (one direction may serve all).

    This is the half-branch rule, the smooth counterpart of
    :func:`lkpolar.plstrata.normal_morse_index`: the index is 1 - chi of the
    part of the normal slice below the point along v.  A top stratum has the
    point itself as normal slice, so the index is 1.  A rim or a solid
    boundary has the half-line along the inward conormal w, whose lower part
    is empty exactly when <v, w> > 0, so the index is 1 or 0 by that sign.  A
    direction with |<v, w>| < 1e-9 raises DegenerateDirectionError.
    """
    index, wall = normal_index_many(S, params, vs)
    if np.any(wall):
        raise DegenerateDirectionError("direction tangent to the inward conormal")
    return index


def normal_index_many(S: SmoothStratum, params, vs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normal_index` at a stack of points, and a mask of the points
    whose direction lies within 1e-9 of the wall <v, w> = 0, where
    normal_index raises; their index is not to be used."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if S.role == "top":
        return np.ones(len(params)), np.zeros(len(params), dtype=bool)
    w = np.atleast_2d(S.inward_conormal(params))
    dots = np.einsum("ij,ij->i", np.broadcast_to(vs, w.shape), w)
    return (dots > 0).astype(float), np.abs(dots) < 1e-9


def normal_circle_moments(S: SmoothStratum, params) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ind(v) and of ind(v) v over the unit normal circle of a
    curve in R^3, at each of a stack of chart points, with ind the
    half-branch rule of :func:`normal_index`: (2 pi, 0) on a top curve, and
    (pi, 2 w) on a rim, whose half circle {<v, w> > 0} has its centroid
    along the inward conormal w."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if S.role == "top":
        return np.full(len(params), sphere_volume(1)), np.zeros((len(params), 3))
    w = np.atleast_2d(S.inward_conormal(params))
    return np.full(len(params), 0.5 * sphere_volume(1)), 2.0 * w


def area_element(S: SmoothStratum, params_batch: np.ndarray) -> np.ndarray:
    """Riemannian volume element sqrt(det J J^T) at a batch of chart points."""
    J = S.chart.dr(params_batch)  # (N, d, n)
    gram = J @ np.swapaxes(J, -1, -2)
    if S.dim == 1:
        return np.sqrt(gram[..., 0, 0])
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0))


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
        vals = w * area_element(S, params) * dens
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

    @property
    def tangential_index(self) -> int:
        return (-1) ** self.morse_index


class DegenerateHeightError(ValueError):
    """Height function is non-Morse on the stratum for this direction."""


# multistart Newton of height_critical_points
NEWTON_STARTS_PER_AXIS = 12
NEWTON_ITERS = 60
CLUSTER_TOL = 1e-6  # critical points this close (relative to scale) are one


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

    Uses the exact chart gradient <v, dr> and Hessian <v, d2r>; every start
    steps until its clamped position stops moving.  Duplicates are merged
    greedily in start order, by ambient distance relative to ``scale`` (the
    shape diameter): each direction takes its first remaining start and
    drops the starts within CLUSTER_TOL of it, for all directions at once.
    A direction whose critical points drift into a chart edge, or whose
    Hessian is near-singular at a kept point, is flagged degenerate so the
    caller can redraw it.  Every stacked call treats a row as a lone one
    would, so each direction gets the points of a stack of one.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    chart = S.chart
    d = chart.dim
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    axes = [
        np.linspace(lo[i], hi[i], NEWTON_STARTS_PER_AXIS, endpoint=not chart.periodic[i])
        for i in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=-1)
    D, N = len(V), len(starts)
    P = np.broadcast_to(starts, (D, N, d)).copy()
    caps = 0.2 * (hi - lo)
    unit = max(scale, 1.0)

    # iterate only the still-moving starts; quadratic convergence settles the
    # useful ones quickly while strays are cut off by the iteration cap
    active = np.ones((D, N), dtype=bool)
    for _ in range(NEWTON_ITERS):
        rows = np.nonzero(active)
        Q0 = P[rows]
        v = V[rows[0]]
        g = (chart.dr(Q0) @ v[:, :, None])[..., 0]  # (M, d)
        H = (chart.d2r(Q0) @ v[:, None, :, None])[..., 0]  # (M, d, d)
        dets = np.abs(np.linalg.det(H))
        ok = dets > 1e-14 * unit ** d
        step = np.zeros_like(Q0)
        if np.any(ok):
            step[ok] = np.linalg.solve(H[ok], -g[ok][..., None])[..., 0]
        step = np.clip(step, -caps, caps)
        Q = Q0 + step
        for i in range(d):
            if chart.periodic[i]:
                span = hi[i] - lo[i]
                Q[:, i] = lo[i] + np.mod(Q[:, i] - lo[i], span)
            else:
                Q[:, i] = np.clip(Q[:, i], lo[i], hi[i])
        P[rows] = Q
        # a start is done when its clamped position stops moving (this also
        # freezes strays pressed against a chart edge)
        moved = np.zeros(len(Q))
        for i in range(d):
            di = np.abs(Q[:, i] - Q0[:, i])
            if chart.periodic[i]:
                di = np.minimum(di, (hi[i] - lo[i]) - di)
            moved = np.maximum(moved, di)
        settled = moved < 1e-13 * unit
        active[rows[0][settled], rows[1][settled]] = False
        if not np.any(active):
            break

    # criticality is judged by the chart-independent tangential component of v
    q_all = np.linalg.qr(np.swapaxes(chart.dr(P), -1, -2))[0]  # (D, N, n, d)
    tang_norm = np.linalg.norm(np.einsum("dpnk,dn->dpk", q_all, V), axis=-1)
    inside = np.ones((D, N), dtype=bool)
    for i in range(d):
        if not chart.periodic[i]:
            margin = 1e-5 * (hi[i] - lo[i])
            inside &= (P[..., i] > lo[i] + margin) & (P[..., i] < hi[i] - margin)
    vnorm = np.linalg.norm(V, axis=1)[:, None]
    # a near-critical point pressed against a chart edge means the direction
    # is unresolvable in this chart: resample rather than silently miss it
    degenerate = np.any((tang_norm < 1e-4 * vnorm) & ~inside, axis=1)
    remaining = (tang_norm < 1e-9 * vnorm) & inside
    pts = np.zeros(P.shape[:2] + (V.shape[1],))
    pts[remaining] = chart.r(P[remaining])

    kept = np.zeros((D, N), dtype=bool)
    while np.any(remaining):
        dirs = np.flatnonzero(remaining.any(axis=1))
        first = remaining[dirs].argmax(axis=1)
        kept[dirs, first] = True
        near = np.linalg.norm(pts[dirs] - pts[dirs, first][:, None], axis=-1) < CLUSTER_TOL * unit
        remaining[dirs] &= ~near

    own, at = np.nonzero(kept)
    params = P[own, at]
    v = V[own]
    eig = np.linalg.eigvalsh(tangent_frame_form(
        chart.dr(params), (chart.d2r(params) @ v[:, None, :, None])[..., 0])[1])
    degenerate[own[np.min(np.abs(eig), axis=1, initial=np.inf) < 1e-8 * unit]] = True
    good = ~degenerate[own]
    return HeightCriticalPoints(direction=own[good], params=params[good], points=pts[own, at][good],
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

def _chart_2d(bounds, periodic, r, dr, d2r) -> Chart:
    return Chart(dim=2, bounds=bounds, periodic=periodic, r=r, dr=dr, d2r=d2r)


def sphere_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)

    def r(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        return R * np.stack(
            [np.cos(th) * np.sin(ph), np.sin(th) * np.sin(ph), np.cos(ph)], axis=-1
        )

    def dr(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        dth = R * np.stack([-np.sin(th) * np.sin(ph), np.cos(th) * np.sin(ph), np.zeros_like(th)], axis=-1)
        dph = R * np.stack([np.cos(th) * np.cos(ph), np.sin(th) * np.cos(ph), -np.sin(ph)], axis=-1)
        return np.stack([dth, dph], axis=-2)

    def d2r(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        z = np.zeros_like(th)
        d_thth = R * np.stack([-np.cos(th) * np.sin(ph), -np.sin(th) * np.sin(ph), z], axis=-1)
        d_thph = R * np.stack([-np.sin(th) * np.cos(ph), np.cos(th) * np.cos(ph), z], axis=-1)
        d_phph = R * np.stack([-np.cos(th) * np.sin(ph), -np.sin(th) * np.sin(ph), -np.cos(ph)], axis=-1)
        row0 = np.stack([d_thth, d_thph], axis=-2)
        row1 = np.stack([d_thph, d_phph], axis=-2)
        return np.stack([row0, row1], axis=-3)

    chart = _chart_2d(((0.0, 2 * math.pi), (1e-6, math.pi - 1e-6)), (True, False), r, dr, d2r)
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
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        w = R + r * np.cos(ph)
        return np.stack([w * np.cos(th), w * np.sin(th), r * np.sin(ph)], axis=-1)

    def dr(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        w = R + r * np.cos(ph)
        z = np.zeros_like(th)
        dth = np.stack([-w * np.sin(th), w * np.cos(th), z], axis=-1)
        dph = np.stack([-r * np.sin(ph) * np.cos(th), -r * np.sin(ph) * np.sin(th), r * np.cos(ph)], axis=-1)
        return np.stack([dth, dph], axis=-2)

    def d2r(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        w = R + r * np.cos(ph)
        z = np.zeros_like(th)
        d_thth = np.stack([-w * np.cos(th), -w * np.sin(th), z], axis=-1)
        d_thph = np.stack([r * np.sin(ph) * np.sin(th), -r * np.sin(ph) * np.cos(th), z], axis=-1)
        d_phph = np.stack([-r * np.cos(ph) * np.cos(th), -r * np.cos(ph) * np.sin(th), -r * np.sin(ph)], axis=-1)
        row0 = np.stack([d_thth, d_thph], axis=-2)
        row1 = np.stack([d_thph, d_phph], axis=-2)
        return np.stack([row0, row1], axis=-3)

    def unit_normal(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        return np.stack(
            [np.cos(ph) * np.cos(th), np.cos(ph) * np.sin(th), np.sin(ph)], axis=-1
        )

    chart = _chart_2d(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (True, True), rr, dr, d2r)
    stratum = SmoothStratum(name="torus", dim=2, chart=chart, role="top", unit_normal=unit_normal)
    return SmoothShape(3, (stratum,), f"torus:{R:g}:{r:g}", 2 * (R + r))


def _circle_chart(R: float) -> Chart:
    """The circle of radius R about the origin of the xy-plane of R^3."""
    def r(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([R * np.cos(t), R * np.sin(t), np.zeros_like(t)], axis=-1)

    def dr(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([-R * np.sin(t), R * np.cos(t), np.zeros_like(t)], axis=-1)[..., None, :]

    def d2r(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([-R * np.cos(t), -R * np.sin(t), np.zeros_like(t)], axis=-1)[..., None, None, :]

    return Chart(dim=1, bounds=((0.0, 2 * math.pi),), periodic=(True,), r=r, dr=dr, d2r=d2r)


def circle_shape(radius: float = 1.0) -> SmoothShape:
    """The circle of the given radius in the xy-plane of R^3."""
    R = float(radius)
    stratum = SmoothStratum(name="circle", dim=1, chart=_circle_chart(R), role="top")
    return SmoothShape(3, (stratum,), f"circle:{radius:g}", 2 * R)


def disk_shape(radius: float = 1.0) -> SmoothShape:
    R = float(radius)

    def r(p):
        p = np.asarray(p, dtype=float)
        rho, psi = p[..., 0], p[..., 1]
        return np.stack([rho * np.cos(psi), rho * np.sin(psi), np.zeros_like(rho)], axis=-1)

    def dr(p):
        p = np.asarray(p, dtype=float)
        rho, psi = p[..., 0], p[..., 1]
        z = np.zeros_like(rho)
        drho = np.stack([np.cos(psi), np.sin(psi), z], axis=-1)
        dpsi = np.stack([-rho * np.sin(psi), rho * np.cos(psi), z], axis=-1)
        return np.stack([drho, dpsi], axis=-2)

    def d2r(p):
        p = np.asarray(p, dtype=float)
        rho, psi = p[..., 0], p[..., 1]
        z = np.zeros_like(rho)
        zero3 = np.stack([z, z, z], axis=-1)
        d_rhopsi = np.stack([-np.sin(psi), np.cos(psi), z], axis=-1)
        d_psipsi = np.stack([-rho * np.cos(psi), -rho * np.sin(psi), z], axis=-1)
        row0 = np.stack([zero3, d_rhopsi], axis=-2)
        row1 = np.stack([d_rhopsi, d_psipsi], axis=-2)
        return np.stack([row0, row1], axis=-3)

    def unit_normal(p):
        # the chart's normalised cross product d_rho x d_psi is (+-0, +-0, 1)
        nu = np.zeros(np.shape(p)[:-1] + (3,))
        nu[..., 2] = 1.0
        return nu

    top_chart = _chart_2d(((1e-9, R), (0.0, 2 * math.pi)), (False, True), r, dr, d2r)
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
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

    def dr(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)[..., None, :]

    def d2r(p):
        t = np.asarray(p, dtype=float)[..., 0]
        return np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1)[..., None, None, :]

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
