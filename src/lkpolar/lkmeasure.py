"""Lipschitz-Killing curvature measures of catalog shapes.

The k-th measure of a stratified set is the sum over strata of the integral
of the local density

    lambda_k(x) = (1/s_(n-k-1)) Int_{unit normal sphere}
                      ind_nor(v) * sigma_(d_S - k)(II_{x,v}) dv,

where ind_nor is the normal Morse index of the downward slice.  Flat cells
only contribute at k = dim(cell); smooth interior strata have ind_nor = 1;
boundary strata use the half-branch rule ind_nor(v) = [<v, inward> > 0],
whose sigma_0 / sigma_1 weighted integrals over half-circles are evaluated in
closed form.  The module also hosts the independent checks: the exchange
formula (Morse counting over random heights), the linear kinematic formula
(random flats), and the Steiner dilation-volume oracle for convex bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geomkit import (
    Estimate,
    RandomSource,
    mean_estimate,
    sample_affine_flats_hitting_ball,
    sample_unit_sphere,
    sphere_volume,
)
from . import plstrata
from .plstrata import (
    DegenerateDirectionError,
    StratifiedComplex,
    mean_normal_index,
    pl_morse_indices,
)
from . import smoothshape as sm
from .smoothshape import (
    DegenerateHeightError,
    SmoothShape,
    SmoothStratum,
    height_critical_points,
    integrate_stratum,
    lkw_curvature,
    rim_curvature_vector,
    sigma_of_form,
)

__all__ = [
    "Shape",
    "shape_from_name",
    "LkVector",
    "lambda_density",
    "lk_measure",
    "lk_vector",
    "exchange_lambda0",
    "KinematicCheck",
    "kinematic_check",
    "SteinerFit",
    "steiner_oracle",
    "slice_euler_characteristic",
]

MAX_RESAMPLES = 200


@dataclass(frozen=True)
class ConvexBody:
    """Distance oracle for the Steiner fit."""

    ambient_dim: int
    distance: Callable  # (N, n) points -> (N,) distances to the body
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray


@dataclass(frozen=True)
class Shape:
    """A catalog shape: a stratified simplicial complex or a smooth shape,
    together with an optional open region predicate."""

    name: str
    pl: StratifiedComplex | None = None
    smooth: SmoothShape | None = None
    region: Callable | None = None  # (N, n) points -> (N,) bools
    convex: ConvexBody | None = None

    def __post_init__(self):
        if (self.pl is None) == (self.smooth is None):
            raise ValueError("shape needs exactly one of a PL complex or a smooth shape")

    @property
    def ambient_dim(self) -> int:
        return self.pl.ambient_dim if self.pl is not None else self.smooth.ambient_dim

    @property
    def dim(self) -> int:
        return self.pl.dim if self.pl is not None else self.smooth.dim

    @property
    def diameter(self) -> float:
        if self.pl is not None:
            v = self.pl.vertices
            return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
        return self.smooth.diameter

    def bounding_ball(self) -> tuple[np.ndarray, float]:
        if self.pl is not None:
            v = self.pl.vertices
            center = 0.5 * (v.max(axis=0) + v.min(axis=0))
            radius = float(np.max(np.linalg.norm(v - center, axis=1)))
            return center, radius
        return np.zeros(self.ambient_dim), self.smooth.diameter / 2.0

    def with_region(self, region: Callable) -> "Shape":
        return replace(self, region=region)

    def transformed(self, rotation=None, translation=None, scale: float = 1.0) -> "Shape":
        if self.pl is not None:
            return replace(
                self,
                name=self.name + "*",
                pl=self.pl.transformed(rotation, translation, scale),
                convex=None,
            )
        return replace(
            self,
            name=self.name + "*",
            smooth=self.smooth.transformed(rotation, translation, scale),
            convex=None,
        )


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


def shape_from_name(spec: str) -> Shape:
    """Build a catalog shape from its CLI name, e.g. ``torus:2:1``."""
    head, _, rest = spec.partition(":")
    if head == "pl":
        try:
            return Shape(name=spec, pl=plstrata.load_plstrat(rest))
        except OSError as err:
            raise ValueError(f"cannot read PLSTRAT file {rest!r}: {err.strerror or err}") from err
    args = [float(a) for a in rest.split(":")] if rest else []
    if head == "cube":
        side = args[0] if args else 1.0
        return Shape(name=spec, pl=plstrata.solid_cube(side), convex=_cube_body(side))
    if head == "octahedron":
        return Shape(name=spec, pl=plstrata.octahedron_boundary())
    if head == "cube-boundary":
        return Shape(name=spec, pl=plstrata.cube_boundary(args[0] if args else 1.0))
    if head == "torus7":
        return Shape(name=spec, pl=plstrata.torus_7vertex())
    if head == "segment":
        length = args[0] if args else 1.0
        return Shape(name=spec, pl=plstrata.segment_complex(length), convex=_segment_body(length))
    if head == "sphere":
        return Shape(name=spec, smooth=sm.sphere_shape(*(args or [1.0])))
    if head == "torus":
        return Shape(name=spec, smooth=sm.torus_shape(*(args or [2.0, 1.0])))
    if head == "circle":
        return Shape(name=spec, smooth=sm.circle_shape(*(args or [1.0])))
    if head == "disk":
        return Shape(name=spec, smooth=sm.disk_shape(*(args or [1.0])))
    if head == "hemisphere":
        return Shape(name=spec, smooth=sm.hemisphere_shape(*(args or [1.0])))
    if head == "ellipse":
        return Shape(name=spec, smooth=sm.ellipse_shape(*(args or [2.0, 1.0])))
    if head == "ball":
        radius = args[0] if args else 1.0
        return Shape(name=spec, smooth=sm.ball_shape(radius), convex=_ball_body(radius))
    raise ValueError(f"unknown shape {spec!r}")


# ---------------------------------------------------------------------------
# lambda densities
# ---------------------------------------------------------------------------

def lambda_density(X: Shape, stratum, x_params, k: int, rng: RandomSource, n_dirs: int = 2000) -> Estimate:
    """Pointwise k-th curvature density on one stratum.

    PL cells have flat geometry, so the density is constant on the open cell
    and only k = dim(cell) contributes (x_params is ignored); smooth strata
    evaluate at the given chart point.
    """
    n = X.ambient_dim
    if X.pl is not None:
        cell = stratum
        d = len(cell) - 1
        if k > d:
            return Estimate(0.0, 0.0, 1, rng.master_seed)
        if d == n and k == n:
            return Estimate(1.0, 0.0, 1, rng.master_seed)
        if k < d:
            return Estimate(0.0, 0.0, 1, rng.master_seed, method="flat-cell")
        return mean_normal_index(X.pl, cell, n_dirs, rng)
    S = stratum
    if k > S.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    if S.role == "solid":
        return Estimate(1.0 if k == n else 0.0, 0.0, 1, rng.master_seed)
    value = _smooth_lambda_value(n, S, np.asarray(x_params, dtype=float), k)
    return Estimate(value, 0.0, 1, rng.master_seed, method="closed-form")


def _smooth_lambda_batch(n: int, S: SmoothStratum, params: np.ndarray, k: int) -> np.ndarray:
    """Vectorized lambda_k over a batch of chart points (surfaces in R^3)."""
    params = np.atleast_2d(params)
    if not (S.dim == 2 and n == 3 and S.role in ("top", "solid_boundary")):
        return np.array([_smooth_lambda_value(n, S, p, k) for p in params])
    norm = sphere_volume(n - k - 1)
    J = S.chart.dr(params)  # (N, 2, 3)
    nu = np.cross(J[:, 0], J[:, 1])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)  # (N, 2, 2)
    r = np.linalg.qr(np.swapaxes(J, -1, -2))[1]  # (N, 2, 2) upper triangular
    rinv = np.linalg.inv(np.swapaxes(r, -1, -2))
    M = rinv @ H @ np.swapaxes(rinv, -1, -2)
    i = S.dim - k
    if i == 0:
        sig = np.ones(len(params))
    elif i == 1:
        sig = np.trace(M, axis1=-2, axis2=-1)
    else:
        sig = np.linalg.det(M)
    if S.role == "top":
        # both normal directions; odd orders cancel
        return sig * (1.0 + (-1.0) ** i) / norm
    w = np.atleast_2d(S.inward_conormal(params))
    sign = np.sign(np.einsum("pn,pn->p", w, nu))
    return sig * sign**i / norm


def _smooth_lambda_value(n: int, S: SmoothStratum, params, k: int) -> float:
    """Exact lambda_k at a chart point of a smooth stratum."""
    d = S.dim
    norm = sphere_volume(n - k - 1)
    if S.role == "top":
        # interior point: the normal slice is the point itself, ind_nor = 1
        return lkw_curvature(S, params, d - k) / norm
    if S.role == "solid_boundary":
        # only the inward normal sees an empty downward slice
        w = np.atleast_2d(S.inward_conormal(np.atleast_2d(params)))[0]
        return sigma_of_form(S, params, w, d - k) / norm
    if S.role == "rim":
        w = np.atleast_2d(S.inward_conormal(np.atleast_2d(params)))[0]
        if k == d:
            # sigma_0 = 1 over the half normal sphere {<v, w> > 0}
            return 0.5 * sphere_volume(n - d - 1) / norm
        if k == d - 1:
            # Int_{half sphere} <kappa, v> dv = 2 b_(n-d-1)-type moment; in the
            # catalog the rim is a curve in R^3, where the moment is 2 <kappa, w>
            if n != 3 or d != 1:
                raise NotImplementedError("rim strata supported for curves in R^3")
            kappa = rim_curvature_vector(S, params)
            return 2.0 * float(kappa @ w) / norm
        return 0.0
    raise ValueError(f"unknown stratum role {S.role}")


def lk_measure(X: Shape, k: int, rng: RandomSource, n_dirs: int = 4000, resolution: int = 64) -> Estimate:
    """Total k-th curvature measure of the shape over its region.

    PL cells integrate exactly (densities are constant per cell); only the
    normal-sphere Monte-Carlo contributes error.  Smooth strata use chart
    quadrature of the closed-form densities.
    """
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for ambient dim {n}")
    if k > X.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed, method="dimension")
    if X.pl is not None:
        return _lk_measure_pl(X, k, rng, n_dirs)
    return _lk_measure_smooth(X, k, rng, resolution)


def _lk_measure_pl(X: Shape, k: int, rng: RandomSource, n_dirs: int) -> Estimate:
    if X.region is not None:
        raise NotImplementedError("region restriction on PL shapes is not supported")
    K = X.pl
    total = Estimate(0.0, 0.0, 0, rng.master_seed, method="pl-cells")
    cells = K.cells.get(k, [])
    for i, cell in enumerate(cells):
        vol = K.cell_volume(cell)
        dens = lambda_density(X, cell, None, k, rng.substream(i), n_dirs=n_dirs)
        total = total + dens.scaled(vol)
    return replace(total, n_samples=max(total.n_samples, 1), seed=rng.master_seed)


def _lk_measure_smooth(X: Shape, k: int, rng: RandomSource, resolution: int) -> Estimate:
    n = X.ambient_dim
    total = Estimate(0.0, 0.0, 0, rng.master_seed)
    method = ""
    for S in X.smooth.strata:
        if k > S.dim:
            continue
        if S.role == "solid":
            if k == n:
                if X.region is not None:
                    raise NotImplementedError("region restriction on solid strata")
                total = total + Estimate(S.volume, 0.0, 1, rng.master_seed, method="volume")
            continue
        if S.role == "rim" and k == S.dim - 1 and n == 3:
            method = method or "rim-closed-form"

        def dens(pts, params, S=S):
            return _smooth_lambda_batch(n, S, params, k)

        est = integrate_stratum(S, dens, region=X.region, resolution=resolution)
        if S.role == "top" and k == 0:
            est = replace(est, method="exact Gauss-Bonnet route")
        total = total + est
    if total.n_samples == 0:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    return replace(total, seed=rng.master_seed)


@dataclass(frozen=True)
class LkVector:
    """All curvature measures of one shape, index 0..n."""

    values: tuple[Estimate, ...]

    def __getitem__(self, k: int) -> Estimate:
        return self.values[k]


def lk_vector(X: Shape, rng: RandomSource, n_dirs: int = 4000, resolution: int = 64) -> LkVector:
    return LkVector(
        tuple(
            lk_measure(X, k, RandomSource(rng.master_seed, rng.stream_id + 31 * k), n_dirs, resolution)
            for k in range(X.ambient_dim + 1)
        )
    )


# ---------------------------------------------------------------------------
# exchange formula
# ---------------------------------------------------------------------------

def _morse_sum_pl(X: Shape, v: np.ndarray) -> int:
    idx = pl_morse_indices(X.pl, v)
    if X.region is None:
        return sum(idx.values())
    pts = X.pl.vertices
    keep = np.asarray(X.region(pts), dtype=bool)
    return sum(val for vert, val in idx.items() if keep[vert])


def _morse_sum_smooth(X: Shape, v: np.ndarray) -> int:
    total = 0
    scale = X.diameter
    for S in X.smooth.strata:
        if S.role == "solid":
            continue  # a linear height has no interior critical points
        crits = height_critical_points(S, v, scale=scale)
        for c in crits:
            if X.region is not None and not np.asarray(X.region(c.point[None, :]))[0]:
                continue
            ind = c.tangential_index
            if S.role in ("rim", "solid_boundary"):
                w = np.atleast_2d(S.inward_conormal(np.atleast_2d(c.params)))[0]
                dot = float(v @ w)
                if abs(dot) < 1e-9:
                    raise DegenerateHeightError("height tangent to the inward conormal")
                ind *= 1 if dot > 0 else 0
            total += ind
    return total


def exchange_lambda0(X: Shape, n_dirs: int, rng: RandomSource) -> Estimate:
    """Mean over uniform directions of the total stratified Morse index.

    Equals the 0-th curvature measure; per-direction sums are exact integers,
    non-generic directions are resampled within their substream.
    """
    values = _per_sample_values(n_dirs, rng, lambda gen: _exchange_one(X, gen))
    return mean_estimate(values, seed=rng.master_seed, method="morse-counting")


def _exchange_one(X: Shape, gen: np.random.Generator) -> float:
    for _ in range(MAX_RESAMPLES):
        v = sample_unit_sphere(X.ambient_dim, gen)
        try:
            if X.pl is not None:
                return float(_morse_sum_pl(X, v))
            return float(_morse_sum_smooth(X, v))
        except (DegenerateDirectionError, DegenerateHeightError):
            continue
    raise RuntimeError("resample quota exceeded in exchange formula")


def _per_sample_values(n_samples: int, rng: RandomSource, fn) -> list[float]:
    """Evaluate fn on one generator per sample index; order-independent."""
    return [fn(rng.substream(i).generator()) for i in range(n_samples)]


# ---------------------------------------------------------------------------
# slice Euler characteristics and the kinematic formula
# ---------------------------------------------------------------------------

class DegenerateSliceError(ValueError):
    pass


def _chi_slice_pl_hyperplane(K: StratifiedComplex, normal: np.ndarray, level: float) -> int:
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


def _chi_slice_pl_line(K: StratifiedComplex, origin: np.ndarray, direction: np.ndarray) -> int:
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


def slice_euler_characteristic(X: Shape, flat) -> int:
    """chi of the compact slice of the shape by an affine flat."""
    n = X.ambient_dim
    k = flat.direction.dim
    if X.pl is not None:
        if k == n - 1:
            normal = flat.direction.orthogonal_complement().basis[0]
            level = float(normal @ flat.offset)
            return _chi_slice_pl_hyperplane(X.pl, normal, level)
        if k == 1:
            return _chi_slice_pl_line(X.pl, flat.offset, flat.direction.basis[0])
        raise NotImplementedError(f"PL slice for flat dimension {k}")
    name = X.smooth.name.split(":")[0]
    if name == "ball":
        radius = float(X.smooth.name.split(":")[1])
        return 1 if flat.distance_to(np.zeros(n)) < radius - 1e-12 else 0
    if name == "sphere":
        radius = float(X.smooth.name.split(":")[1])
        d = flat.distance_to(np.zeros(n))
        if abs(d - radius) < 1e-9:
            raise DegenerateSliceError("tangent flat")
        if d > radius:
            return 0
        # transversal slice of the sphere: a (k-1)-sphere
        return 1 + (-1) ** (k - 1)
    raise NotImplementedError(f"slice chi for smooth shape {X.smooth.name}")


@dataclass(frozen=True)
class KinematicCheck:
    numerator: Estimate  # weighted flat integral of chi(X ∩ E)
    denominator: Estimate  # Lambda_(n-k)(X)
    ratio: Estimate | None  # None when the denominator vanishes
    flagged_division: bool


def kinematic_check(
    X: Shape, k: int, n_flats: int, rng: RandomSource, n_dirs: int = 4000
) -> KinematicCheck:
    """Monte-Carlo check of the linear kinematic formula at codimension k.

    Estimates the flat integral of chi(X ∩ E) over k-flats meeting the
    bounding ball and divides by Lambda_(n-k); the formula says the ratio is
    a constant depending only on (n, k).
    """
    n = X.ambient_dim
    if not 1 <= k <= n - 1:
        raise ValueError("flat dimension k must be in 1..n-1")
    center, radius = X.bounding_ball()

    def one(gen: np.random.Generator) -> float:
        for _ in range(MAX_RESAMPLES):
            flat, weight = sample_affine_flats_hitting_ball(n, k, radius, gen)
            shifted = type(flat)(direction=flat.direction, offset=flat.offset + (
                center - flat.direction.project(center)))
            try:
                return weight * slice_euler_characteristic(X, shifted)
            except DegenerateSliceError:
                continue
        raise RuntimeError("resample quota exceeded in kinematic check")

    numer = mean_estimate(
        _per_sample_values(n_flats, rng, one), seed=rng.master_seed, method="flat-mc"
    )
    denom = lk_measure(X, n - k, RandomSource(rng.master_seed, rng.stream_id + 7919), n_dirs=n_dirs)
    flagged = abs(denom.value) <= max(5.0 * denom.std_error, 1e-9)
    ratio = None
    if not flagged:
        r = numer.value / denom.value
        se = math.hypot(numer.std_error / denom.value, r * denom.std_error / denom.value)
        ratio = Estimate(r, se, numer.n_samples, rng.master_seed, method="kinematic-ratio")
    return KinematicCheck(numerator=numer, denominator=denom, ratio=ratio, flagged_division=flagged)


# ---------------------------------------------------------------------------
# Steiner dilation oracle
# ---------------------------------------------------------------------------

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
    if X.convex is None:
        raise ValueError(f"shape {X.name} has no convex-body oracle")
    eps = np.asarray(sorted(float(e) for e in epsilons))
    if len(eps) < X.ambient_dim + 1 or len(set(eps.tolist())) != len(eps):
        raise ValueError("need at least n+1 distinct dilation radii")
    if eps[0] <= 0:
        raise ValueError("dilation radii must be positive")
    body = X.convex
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
