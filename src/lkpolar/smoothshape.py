"""Catalog of smooth shapes with exact differential data.

Each shape is a list of strata; every stratum carries a chart with closed-form
first and second derivatives, so tangent/normal frames, second fundamental
forms and curvature integrands are evaluated without numerical
differentiation.  Quadrature uses the trapezoid rule on periodic chart axes
(spectrally exact for the trigonometric integrands of the catalog) and
Gauss-Legendre nodes otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geomkit import Estimate

__all__ = [
    "Chart",
    "SmoothStratum",
    "SmoothShape",
    "SecondFormAt",
    "CriticalPoint",
    "DegenerateHeightError",
    "frames",
    "second_form",
    "lkw_curvature",
    "integrate_stratum",
    "height_critical_points",
    "rim_curvature_vector",
    "sphere_shape",
    "torus_shape",
    "circle_shape",
    "disk_shape",
    "hemisphere_shape",
    "ellipse_shape",
    "ball_shape",
]


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
                t, w = np.polynomial.legendre.leggauss(resolution)
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
    implicit: Callable | None = None  # maps (..., n) -> (..., codim)
    implicit_jac: Callable | None = None
    inward_conormal: Callable | None = None  # params -> unit vector into the shape
    volume: float | None = None  # for role == "solid"
    unit_normal: Callable | None = None  # params -> unit normal (codim 1)


@dataclass(frozen=True)
class SmoothShape:
    ambient_dim: int
    strata: tuple[SmoothStratum, ...]
    name: str
    diameter: float

    def stratum(self, name: str) -> SmoothStratum:
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def dim(self) -> int:
        return max(s.dim for s in self.strata)

    def transformed(self, rotation=None, translation=None, scale: float = 1.0) -> "SmoothShape":
        rot = None if rotation is None else np.asarray(rotation, dtype=float)
        tr = None if translation is None else np.asarray(translation, dtype=float)
        strata = tuple(_transform_stratum(s, rot, tr, scale, self.ambient_dim) for s in self.strata)
        return SmoothShape(self.ambient_dim, strata, f"{self.name}*", self.diameter * scale)


def _transform_stratum(s: SmoothStratum, rot, tr, scale, n) -> SmoothStratum:
    if s.chart is None:
        vol = None if s.volume is None else s.volume * scale**s.dim
        return replace(s, volume=vol, implicit=None, implicit_jac=None)
    base = s.chart

    def apply_pt(x):
        y = scale * x
        if rot is not None:
            y = y @ rot.T
        if tr is not None:
            y = y + tr
        return y

    def apply_vec(x):
        y = scale * x
        if rot is not None:
            y = y @ rot.T
        return y

    chart = replace(
        base,
        r=lambda p: apply_pt(base.r(p)),
        dr=lambda p: apply_vec(base.dr(p)),
        d2r=lambda p: apply_vec(base.d2r(p)),
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
    return replace(
        s, chart=chart, inward_conormal=conormal, unit_normal=normal,
        implicit=None, implicit_jac=None,
    )


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
    n = J.shape[1]
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
    J = S.chart.dr(params)  # (d, n)
    H = S.chart.d2r(params) @ v  # (d, d)
    q, r = np.linalg.qr(J.T)
    tangent = q.T
    if np.max(np.abs(tangent @ v)) > 1e-8 * np.linalg.norm(v):
        raise ValueError("direction is not normal to the stratum")
    rinv = np.linalg.inv(r.T)  # J = r.T @ tangent
    mat = rinv @ H @ rinv.T
    mat = 0.5 * (mat + mat.T)
    return SecondFormAt(
        point=S.chart.r(params),
        tangent_frame=tangent,
        normal_direction=v,
        matrix=mat,
    )


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
    """Integral of sigma_i(II_{x,v}) over the unit normal sphere at the point.

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
    """Curvature vector of a 1-dimensional stratum at a chart point."""
    J = S.chart.dr(np.asarray(params, dtype=float))[0]
    H = S.chart.d2r(np.asarray(params, dtype=float))[0, 0]
    speed2 = float(J @ J)
    tang = J / math.sqrt(speed2)
    return (H - (H @ tang) * tang) / speed2


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


def height_critical_points(
    S: SmoothStratum,
    v: np.ndarray,
    starts_per_axis: int = 12,
    newton_iters: int = 60,
    scale: float = 1.0,
    cluster_tol: float = 1e-6,
) -> list[CriticalPoint]:
    """Critical points of the height <v, .> on the stratum by multistart Newton.

    Uses the exact chart gradient <v, dr> and Hessian <v, d2r>; duplicates are
    merged by ambient distance.  Directions whose critical points drift into a
    chart edge, or whose Hessian is near-singular, raise
    DegenerateHeightError so the caller can resample.
    """
    v = np.asarray(v, dtype=float)
    chart = S.chart
    d = chart.dim
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    axes = [
        np.linspace(lo[i], hi[i], starts_per_axis, endpoint=not chart.periodic[i])
        for i in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([m.ravel() for m in mesh], axis=-1)
    caps = 0.2 * (hi - lo)

    # iterate only the still-moving starts; quadratic convergence settles the
    # useful ones quickly while strays are cut off by the iteration cap
    active = np.ones(len(P), dtype=bool)
    for _ in range(newton_iters):
        Q0 = P[active]
        g = chart.dr(Q0) @ v  # (M, d)
        H = chart.d2r(Q0) @ v  # (M, d, d)
        dets = np.abs(np.linalg.det(H))
        ok = dets > 1e-14 * max(scale, 1.0) ** d
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
        P[active] = Q
        # a start is done when its clamped position stops moving (this also
        # freezes strays pressed against a chart edge)
        moved = np.zeros(len(Q))
        for i in range(d):
            di = np.abs(Q[:, i] - Q0[:, i])
            if chart.periodic[i]:
                di = np.minimum(di, (hi[i] - lo[i]) - di)
            moved = np.maximum(moved, di)
        settled = moved < 1e-13 * max(scale, 1.0)
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
        if any(np.linalg.norm(x - y) < cluster_tol * max(scale, 1.0) for y in taken):
            continue
        taken.append(x)
        H = chart.d2r(p) @ v
        q, r = np.linalg.qr(chart.dr(p).T)
        rinv = np.linalg.inv(r.T)
        eig = np.linalg.eigvalsh(rinv @ H @ rinv.T)
        if np.min(np.abs(eig)) < 1e-8 * max(scale, 1.0):
            raise DegenerateHeightError("near-degenerate height critical point")
        out.append(CriticalPoint(params=p, point=x, hessian_eigenvalues=eig))
    return out


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
        implicit=lambda x: (np.sum(np.asarray(x) ** 2, axis=-1) - R * R)[..., None],
        implicit_jac=lambda x: 2.0 * np.asarray(x)[..., None, :],
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

    def implicit(x):
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        return ((rho - R) ** 2 + x[..., 2] ** 2 - r * r)[..., None]

    def implicit_jac(x):
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        g = np.stack(
            [
                2 * (rho - R) * x[..., 0] / rho,
                2 * (rho - R) * x[..., 1] / rho,
                2 * x[..., 2],
            ],
            axis=-1,
        )
        return g[..., None, :]

    def unit_normal(p):
        p = np.asarray(p, dtype=float)
        th, ph = p[..., 0], p[..., 1]
        return np.stack(
            [np.cos(ph) * np.cos(th), np.cos(ph) * np.sin(th), np.sin(ph)], axis=-1
        )

    chart = _chart_2d(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (True, True), rr, dr, d2r)
    stratum = SmoothStratum(
        name="torus", dim=2, chart=chart, role="top", implicit=implicit,
        implicit_jac=implicit_jac, unit_normal=unit_normal,
    )
    return SmoothShape(3, (stratum,), f"torus:{R:g}:{r:g}", 2 * (R + r))


def _circle_chart(R: float, z: float = 0.0, ambient: int = 3) -> Chart:
    def r(p):
        t = np.asarray(p, dtype=float)[..., 0]
        out = np.stack([R * np.cos(t), R * np.sin(t)] + [np.full_like(t, z)] * (ambient - 2), axis=-1)
        return out

    def dr(p):
        t = np.asarray(p, dtype=float)[..., 0]
        out = np.stack([-R * np.sin(t), R * np.cos(t)] + [np.zeros_like(t)] * (ambient - 2), axis=-1)
        return out[..., None, :]

    def d2r(p):
        t = np.asarray(p, dtype=float)[..., 0]
        out = np.stack([-R * np.cos(t), -R * np.sin(t)] + [np.zeros_like(t)] * (ambient - 2), axis=-1)
        return out[..., None, None, :]

    return Chart(dim=1, bounds=((0.0, 2 * math.pi),), periodic=(True,), r=r, dr=dr, d2r=d2r)


def circle_shape(radius: float = 1.0, ambient_dim: int = 3) -> SmoothShape:
    R = float(radius)

    def implicit(x):
        x = np.asarray(x, dtype=float)
        parts = [x[..., 0] ** 2 + x[..., 1] ** 2 - R * R]
        parts += [x[..., i] for i in range(2, ambient_dim)]
        return np.stack(parts, axis=-1)

    stratum = SmoothStratum(
        name="circle", dim=1, chart=_circle_chart(R, ambient=ambient_dim), role="top", implicit=implicit
    )
    return SmoothShape(ambient_dim, (stratum,), f"circle:{radius:g}", 2 * R)


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
        implicit=lambda x: np.asarray(x, dtype=float)[..., 2:3],
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
        implicit=lambda x: np.stack(
            [
                np.asarray(x)[..., 0] ** 2 + np.asarray(x)[..., 1] ** 2 - R * R,
                np.asarray(x)[..., 2],
            ],
            axis=-1,
        ),
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
        implicit=lambda x: np.stack(
            [
                np.asarray(x)[..., 0] ** 2 + np.asarray(x)[..., 1] ** 2 - R * R,
                np.asarray(x)[..., 2],
            ],
            axis=-1,
        ),
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
        implicit=lambda x: (
            (np.asarray(x)[..., 0] / a) ** 2 + (np.asarray(x)[..., 1] / b) ** 2 - 1.0
        )[..., None],
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
