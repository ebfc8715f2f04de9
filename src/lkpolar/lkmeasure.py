"""Lipschitz-Killing curvature measures of catalog shapes.

The k-th measure of a stratified set is the sum over strata of the integral
of the local density

    lambda_k(x) = (1/s_(n-k-1)) Int_{unit normal sphere}
                      ind_nor(v) * sigma_(d_S - k)(II_{x,v}) dv,

where ind_nor is the normal Morse index of the downward slice.  Flat cells
only contribute at k = dim(cell), where the integral is the exterior-angle
mean of ind_nor, exact from the link's pairwise angles.  On a smooth stratum
ind_nor is the half-branch rule of :func:`lkpolar.smoothshape.normal_index`:
1 on a top stratum, [<v, inward> > 0] on a rim or a solid boundary.  The
normal sphere of a hypersurface is the two points +-nu; over the normal
circle of a curve in R^3 the weighted sigma_0 and sigma_1 integrals are
closed forms.  The module
also hosts the independent checks: the exchange formula (Morse counting over
random heights) and the linear kinematic formula (random flats).  The
Steiner dilation-volume oracle for convex bodies lives with the other test
oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geomkit import (
    Estimate,
    RandomSource,
    each_draw,
    mean_estimate,
    per_sample_values,
    sample_affine_flats_hitting_ball,
    sample_unit_sphere,
    simplex_volumes,
    sphere_volume,
)
from . import plstrata
from .plstrata import (
    DegenerateDirectionError,
    DegenerateSliceError,
    StratifiedComplex,
    mean_normal_index,
    pl_morse_indices,
    slice_chi,
)
from . import smoothshape as sm
from .smoothshape import (
    SmoothShape,
    SmoothStratum,
    height_critical_points_many,
    hypersurface_normals,
    integrate_stratum,
    normal_circle_moments,
    normal_index,
    normal_index_many,
    rim_curvature_vector,
    tangent_frame_form,
)

__all__ = [
    "Shape",
    "shape_from_name",
    "lambda_density",
    "lk_measure",
    "exchange_lambda0",
    "KinematicCheck",
    "kinematic_check",
    "slice_euler_characteristic",
]


@dataclass(frozen=True)
class Shape:
    """A catalog shape: a stratified simplicial complex or a smooth shape,
    together with an optional open region predicate."""

    name: str
    pl: StratifiedComplex | None = None
    smooth: SmoothShape | None = None
    region: Callable | None = None  # (N, n) points -> (N,) bools

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
        return self.smooth.bounding_ball()

    def in_region(self, pts: np.ndarray) -> np.ndarray:
        """Which of the (N, n) points lie in the region: all without one."""
        if self.region is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self.region(pts), dtype=bool)

    def with_region(self, region: Callable) -> "Shape":
        return replace(self, region=region)

    def transformed(self, rotation=None, translation=None, scale: float = 1.0) -> "Shape":
        if self.pl is not None:
            return replace(
                self,
                name=self.name + "*",
                pl=self.pl.transformed(rotation, translation, scale),
            )
        return replace(
            self,
            name=self.name + "*",
            smooth=self.smooth.transformed(rotation, translation, scale),
        )


def shape_from_name(spec: str) -> Shape:
    """Build a catalog shape from its CLI name, e.g. ``torus:2:1``."""
    head, _, rest = spec.partition(":")
    if head == "pl":
        try:
            return Shape(name=spec, pl=plstrata.load_plstrat(rest))
        except OSError as err:
            raise ValueError(f"cannot read PLSTRAT file {rest!r}: {err.strerror or err}") from err
    arity = {"cube": 1, "octahedron": 0, "cube-boundary": 1, "square": 1, "torus7": 0,
             "segment": 1, "sphere": 1, "torus": 2, "circle": 1, "disk": 1, "hemisphere": 1,
             "ellipse": 2, "ball": 1}
    if head not in arity:
        raise ValueError(f"unknown shape {spec!r}")
    args = [float(a) for a in rest.split(":")] if rest else []
    if len(args) > arity[head]:
        raise ValueError(f"shape {spec!r}: {head} takes at most {arity[head]} parameters")
    if not all(math.isfinite(a) and a > 0 for a in args):
        raise ValueError(f"shape {spec!r}: every parameter must be finite and > 0")
    if head == "cube":
        return Shape(name=spec, pl=plstrata.solid_cube(args[0] if args else 1.0))
    if head == "octahedron":
        return Shape(name=spec, pl=plstrata.octahedron_boundary())
    if head == "cube-boundary":
        return Shape(name=spec, pl=plstrata.cube_boundary(args[0] if args else 1.0))
    if head == "square":
        return Shape(name=spec, pl=plstrata.square_boundary(args[0] if args else 1.0))
    if head == "torus7":
        return Shape(name=spec, pl=plstrata.torus_7vertex())
    if head == "segment":
        return Shape(name=spec, pl=plstrata.segment_complex(args[0] if args else 1.0))
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
    return Shape(name=spec, smooth=sm.ball_shape(*(args or [1.0])))  # the ball


# ---------------------------------------------------------------------------
# lambda densities
# ---------------------------------------------------------------------------

def lambda_density(X: Shape, stratum, x_params, k: int, rng: RandomSource) -> Estimate:
    """Pointwise k-th curvature density on one stratum.

    PL cells have flat geometry, so the density is constant on the open cell
    and only k = dim(cell) contributes (x_params is ignored): it is the exact
    mean normal index of :func:`lkpolar.plstrata.mean_normal_index`.  Smooth
    strata evaluate at the given chart point.
    """
    n = X.ambient_dim
    if X.pl is not None:
        cell = stratum
        d = len(cell) - 1
        if k > d:
            return Estimate(0.0, 0.0, 1, rng.master_seed)
        if k < d:
            return Estimate(0.0, 0.0, 1, rng.master_seed, method="flat-cell")
        dens = mean_normal_index(X.pl, d)[X.pl.plan.rows[tuple(sorted(cell))]]
        return Estimate(float(dens), 0.0, 1, rng.master_seed, method="exterior-angle")
    S = stratum
    if k > S.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    if S.role == "solid":
        return Estimate(1.0 if k == n else 0.0, 0.0, 1, rng.master_seed)
    value = float(_smooth_lambda_batch(n, S, np.asarray(x_params, dtype=float), k)[0])
    return Estimate(value, 0.0, 1, rng.master_seed, method="closed-form")


def _smooth_lambda_batch(n: int, S: SmoothStratum, params: np.ndarray, k: int) -> np.ndarray:
    """lambda_k at a stack of chart points of a smooth stratum.

    The density integrates ind_nor(v) sigma_i(II_{x,v}), i = dim S - k, over
    the unit normal sphere, with ind_nor from :func:`normal_index`.  A
    hypersurface has the two normals +-nu, and sigma_i(II_{x,-nu}) is
    (-1)^i sigma_i(II_{x,nu}).  On the normal circle of a curve in R^3,
    sigma_0 = 1 and sigma_1(II_{x,v}) = <kappa, v>, so the density is closed
    in the moments of :func:`normal_circle_moments`.
    """
    params = np.atleast_2d(params)
    d, i = S.dim, S.dim - k
    norm = sphere_volume(n - k - 1)
    if n - d == 1:
        J = S.chart.dr(params)  # (N, d, n)
        nu = hypersurface_normals(J)
        if i == 0:
            sig = np.ones(len(params))
        else:
            H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)  # (N, d, d)
            M = tangent_frame_form(J, H)[1]
            sig = np.trace(M, axis1=-2, axis2=-1) if i == 1 else np.linalg.det(M)
        weight = normal_index(S, params, nu) + normal_index(S, params, -nu) * (-1.0) ** i
        return sig * weight / norm
    if n == 3 and d == 1:
        m0, m1 = normal_circle_moments(S, params)
        if i == 0:
            return m0 / norm
        return np.einsum("pn,pn->p", rim_curvature_vector(S, params), m1) / norm
    raise NotImplementedError(f"curvature density of a {d}-stratum in R^{n}")


def lk_measure(X: Shape, k: int, rng: RandomSource, n_dirs: int = 4000, resolution: int = 64) -> Estimate:
    """Total k-th curvature measure of the shape over its region.

    PL k-cells integrate exactly: cell volume times the exact mean normal
    index, so the estimate has se 0.  Smooth strata use chart quadrature of
    the closed-form densities.  ``n_dirs`` is read by nothing; it stays so
    that callers that pass it keep working.
    """
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for ambient dim {n}")
    if k > X.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed, method="dimension")
    if X.pl is not None:
        return _lk_measure_pl(X, k, rng)
    return _lk_measure_smooth(X, k, rng, resolution)


def _lk_measure_pl(X: Shape, k: int, rng: RandomSource) -> Estimate:
    if X.region is not None:
        raise NotImplementedError("region restriction on PL shapes is not supported")
    K = X.pl
    vols = simplex_volumes(K.vertices[K.plan.cells[k]])
    value = math.fsum((vols * mean_normal_index(K, k)).tolist())
    return Estimate(value, 0.0, 1, rng.master_seed, method="exterior-angle")


def _lk_measure_smooth(X: Shape, k: int, rng: RandomSource, resolution: int) -> Estimate:
    n = X.ambient_dim
    total = Estimate(0.0, 0.0, 0, rng.master_seed)
    for S in X.smooth.strata:
        if k > S.dim:
            continue
        if S.role == "solid":
            if k == n:
                if X.region is not None:
                    raise NotImplementedError("region restriction on solid strata")
                total = total + Estimate(S.volume, 0.0, 1, rng.master_seed, method="volume")
            continue

        def dens(pts, params, S=S):
            return _smooth_lambda_batch(n, S, params, k)

        est = integrate_stratum(S, dens, region=X.region, resolution=resolution)
        if S.role == "top" and k == 0:
            est = replace(est, method="exact Gauss-Bonnet route")
        total = total + est
    if total.n_samples == 0:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    return replace(total, seed=rng.master_seed)


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


def _morse_sums_smooth(X: Shape, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The total stratified Morse index of the height along each direction of
    a (B, n) stack, with one stacked Newton solve per stratum, and a mask of
    the directions to redraw: non-Morse heights, and directions on the wall
    of a normal index."""
    totals = np.zeros(len(V), dtype=int)
    redraw = np.zeros(len(V), dtype=bool)
    for S in X.smooth.strata:
        if S.role == "solid":
            continue  # a linear height has no interior critical points
        crit = height_critical_points_many(S, V, scale=X.diameter)
        redraw |= crit.degenerate
        keep = X.in_region(crit.points)
        own = crit.direction[keep]
        index, wall = normal_index_many(S, crit.params[keep], V[own])
        redraw[own[wall]] = True
        tangential = np.where(crit.morse_indices[keep] % 2, -1, 1)
        np.add.at(totals, own, tangential * index.astype(int))
    return totals, redraw


def exchange_lambda0(X: Shape, n_heights: int, rng: RandomSource) -> Estimate:
    """Mean over uniform directions of the total stratified Morse index.

    Equals the 0-th curvature measure; per-direction sums are exact integers,
    non-generic directions are redrawn within their substream.  A smooth
    shape evaluates a block of directions at once.
    """
    def heights(_, draws):
        return _morse_sums_smooth(X, np.array(draws))

    if X.pl is not None:
        values = each_draw(lambda _, v: _morse_sum_pl(X, v), DegenerateDirectionError)
    else:
        values = heights
    values = per_sample_values(
        n_heights, rng, lambda gen: sample_unit_sphere(X.ambient_dim, gen), values,
        "exchange formula")
    return mean_estimate(values, seed=rng.master_seed, method="morse-counting")


# ---------------------------------------------------------------------------
# slice Euler characteristics and the kinematic formula
# ---------------------------------------------------------------------------

def slice_euler_characteristic(X: Shape, flat) -> int:
    """chi of the compact slice of the shape by an affine flat; PL shapes
    take flats of every dimension (:func:`lkpolar.plstrata.slice_chi`)."""
    if X.pl is not None:
        A = flat.direction.orthogonal_complement().basis
        return slice_chi(X.pl, A, A @ flat.offset)
    k = flat.direction.dim
    # round catalog shapes: the ball and the sphere fill their bounding ball
    # and bound it, so its centre and radius are theirs
    kind = X.smooth.name.split(":")[0]
    center, radius = X.smooth.bounding_ball()
    if kind == "ball":
        return 1 if flat.distance_to(center) < radius - 1e-12 else 0
    if kind == "sphere":
        d = flat.distance_to(center)
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
    X: Shape, k: int, n_flats: int, rng: RandomSource
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

    def one(_, draw) -> float:
        flat, weight = draw
        shifted = type(flat)(direction=flat.direction, offset=flat.offset + (
            center - flat.direction.project(center)))
        return weight * slice_euler_characteristic(X, shifted)

    numer = mean_estimate(
        per_sample_values(n_flats, rng,
                          lambda gen: sample_affine_flats_hitting_ball(n, k, radius, gen),
                          each_draw(one, DegenerateSliceError), "kinematic check"),
        seed=rng.master_seed, method="flat-mc",
    )
    denom = lk_measure(X, n - k, RandomSource(rng.master_seed, rng.stream_id + 7919))
    flagged = abs(denom.value) <= max(5.0 * denom.std_error, 1e-9)
    ratio = None
    if not flagged:
        r = numer.value / denom.value
        se = math.hypot(numer.std_error / denom.value, r * denom.std_error / denom.value)
        ratio = Estimate(r, se, numer.n_samples, rng.master_seed, method="kinematic-ratio")
    return KinematicCheck(numerator=numer, denominator=denom, ratio=ratio, flagged_division=flagged)
