"""Lipschitz-Killing curvature measures of catalog shapes.

The k-th measure of a stratified set is the sum over strata of the integral
of the local density

    lambda_k(x) = (1/s_(n-k-1)) Int_{unit normal sphere}
                      ind_nor(v) * sigma_(d_S - k)(II_{x,v}) dv,

where ind_nor is the normal Morse index of the downward slice.  Flat cells
only contribute at k = dim(cell), where the integral is the exterior-angle
mean of ind_nor, exact from the link's pairwise angles.  On a smooth stratum
ind_nor is the half-branch rule of :func:`lkpolar.smoothshape.normal_index_many`:
1 on a top stratum, [<v, inward> > 0] on a rim or a solid boundary.  The
normal sphere of a hypersurface is the two points +-nu; over the normal
circle of a curve in R^3 the weighted sigma_0 and sigma_1 integrals are
closed forms.  The sigma_i of a hypersurface are those of the Weingarten map
G^-1 H, G the chart Gram matrix and H = <d2r, nu>: sigma_1 = tr(G^-1 H) and
sigma_2 = det H / det G, written out for charts of dimension <= 2, as is the
area element sqrt(det G) of the chart quadrature.  The module
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
    DegenerateDirectionError,
    Estimate,
    RandomSource,
    affine_flats_hitting_ball,
    draw_affine_flat,
    mean_estimate,
    per_sample_values,
    sample_unit_sphere,
    simplex_volumes,
    sphere_volume,
)
from . import plstrata
from .plstrata import (
    DegenerateSliceError,
    StratifiedComplex,
    mean_normal_index,
    pl_morse_indices_many,
    sample_chunks,
    slice_chi,
    slice_chi_many,
)
from . import smoothshape as sm
from .smoothshape import (
    SmoothShape,
    SmoothStratum,
    chart_det,
    chart_gram,
    height_critical_points_many,
    hypersurface_normals,
    integrate_stratum,
    normal_circle_moments,
    normal_index_many,
    rim_curvature_vector,
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


# name -> (builder, most parameters); the builder's defaults stand in for
# the parameters a name leaves out
CATALOG = {
    "cube": (plstrata.solid_cube, 1), "octahedron": (plstrata.octahedron_boundary, 0),
    "cube-boundary": (plstrata.cube_boundary, 1), "square": (plstrata.square_boundary, 1),
    "torus7": (plstrata.torus_7vertex, 0), "segment": (plstrata.segment_complex, 1),
    "sphere": (sm.sphere_shape, 1), "torus": (sm.torus_shape, 2), "circle": (sm.circle_shape, 1),
    "disk": (sm.disk_shape, 1), "hemisphere": (sm.hemisphere_shape, 1),
    "ellipse": (sm.ellipse_shape, 2), "ball": (sm.ball_shape, 1),
}


def shape_from_name(spec: str) -> Shape:
    """Build a catalog shape from its CLI name, e.g. ``torus:2:1``."""
    head, _, rest = spec.partition(":")
    if head == "pl":
        try:
            return Shape(name=spec, pl=plstrata.load_plstrat(rest))
        except OSError as err:
            raise ValueError(f"cannot read PLSTRAT file {rest!r}: {err.strerror or err}") from err
    if head not in CATALOG:
        raise ValueError(f"unknown shape {spec!r}")
    build, most = CATALOG[head]
    try:
        args = [float(a) for a in rest.split(":")] if rest else []
    except ValueError as err:
        raise ValueError(f"shape {spec!r}: every parameter must be a number ({err})") from None
    if len(args) > most:
        raise ValueError(f"shape {spec!r}: {head} takes at most {most} parameters")
    if not all(math.isfinite(a) and a > 0 for a in args):
        raise ValueError(f"shape {spec!r}: every parameter must be finite and > 0")
    made = build(*args)
    if isinstance(made, StratifiedComplex):
        return Shape(name=spec, pl=made)
    return Shape(name=spec, smooth=made)


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


_WALL = "direction tangent to the inward conormal"  # the error of a normal index on its wall


def _smooth_lambda_batch(n: int, S: SmoothStratum, params: np.ndarray, k: int) -> np.ndarray:
    """lambda_k at a stack of chart points of a smooth stratum.

    The density integrates ind_nor(v) sigma_i(II_{x,v}), i = dim S - k, over
    the unit normal sphere, with ind_nor along +-nu from one
    :func:`normal_index_many` call.  A hypersurface has the two normals
    +-nu, and sigma_i(II_{x,-nu}) is (-1)^i sigma_i(II_{x,nu}).  The
    sigma_i of the Weingarten map G^-1 H, with G = J J^T from
    :func:`chart_gram` and H = <d2r, nu>, are written out, with no batched
    LAPACK call: sigma_1 = H / G on a curve in the plane, and on a surface
    sigma_1 = tr(G^-1 H) = (G_11 H_00 - 2 G_01 H_01 + G_00 H_11) / det G and
    sigma_2 = det H / det G; a chart of dimension above 2 raises
    NotImplementedError.  On the
    normal circle of a curve in R^3, sigma_0 = 1 and sigma_1(II_{x,v}) =
    <kappa, v>, so the density is closed in the moments of
    :func:`normal_circle_moments`.
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
            G = chart_gram(J)
            det_g = chart_det(G)
            H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)  # (N, d, d)
            if i == d:
                sig = chart_det(H) / det_g
            else:  # i = 1 on a surface: tr(adj(G) H) / det G
                sig = (G[:, 1, 1] * H[:, 0, 0] - 2.0 * G[:, 0, 1] * H[:, 0, 1]
                       + G[:, 0, 0] * H[:, 1, 1]) / det_g
        along, against, wall = normal_index_many(S, params, nu)
        if np.any(wall):
            raise DegenerateDirectionError(_WALL)
        weight = along + against * (-1.0) ** i
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

def _q0_weights(S: SmoothStratum, params: np.ndarray, V: np.ndarray, lam: np.ndarray):
    """The two Morse weights of a stack of critical points of heights on a
    stratum of dimension d, each of the height along its row of V (or along
    one v for all), with Morse indices lam: (-1)^lam ind(v), the index of
    the downward slice, and (-1)^(d - lam) ind(-v), that of the upward
    one, with ind the half-branch rule read from one
    :func:`normal_index_many` call; and the mask of the points whose v is
    on its wall, whose weights are not to be used.  alpha at q = 0 is half
    their sum."""
    along, against, wall = normal_index_many(S, params, V)
    return (-1.0) ** lam * along, (-1.0) ** (S.dim - lam) * against, wall


def exchange_lambda0(X: Shape, n_heights: int, rng: RandomSource) -> Estimate:
    """Mean over uniform directions of the total stratified Morse index.

    Equals the 0-th curvature measure; per-direction sums are exact integers,
    non-generic directions are redrawn within their substream.  A block of
    directions is evaluated at once: on a complex, one stacked Morse pass
    per chunk of directions (:func:`lkpolar.plstrata.pl_morse_indices_many`)
    sums the indices of the vertices in the region.  On a smooth shape, one
    stacked Newton solve per stratum finds the critical points of every
    height, whose downward weights (:func:`_q0_weights`) in the region are
    summed, exactly; a non-Morse height or a point on the wall flags it.
    """
    def heights(_, V):
        sums, flagged = np.zeros(len(V)), np.zeros(len(V), dtype=bool)
        for S in X.smooth.strata:
            if S.role == "solid":
                continue  # a linear height has no interior critical points
            crit = height_critical_points_many(S, V, scale=X.diameter)
            keep = X.in_region(crit.points)
            own = crit.direction[keep]
            down, _, wall = _q0_weights(S, crit.params[keep], V[own], crit.morse_indices[keep])
            sums += np.bincount(own, weights=down, minlength=len(V))
            flagged |= crit.degenerate
            flagged[own[wall]] = True
        return sums, flagged

    def pl_heights(_, V):
        sums, degenerate = np.zeros(len(V)), np.zeros(len(V), dtype=bool)
        for part in sample_chunks(X.pl, len(V)):
            index, degenerate[part] = pl_morse_indices_many(X.pl, V[part])
            sums[part] = index[:, keep].sum(axis=1)
        return sums, degenerate

    keep = X.in_region(X.pl.vertices) if X.pl is not None else None
    values = per_sample_values(
        n_heights, rng, lambda gen: sample_unit_sphere(X.ambient_dim, gen),
        heights if X.pl is None else pl_heights, "exchange formula")
    return mean_estimate(values, seed=rng.master_seed, method="morse-counting")


# ---------------------------------------------------------------------------
# slice Euler characteristics and the kinematic formula
# ---------------------------------------------------------------------------

def slice_euler_characteristic(X: Shape, flat) -> int:
    """chi of the compact slice of the shape by an affine flat: on a complex
    by :func:`lkpolar.plstrata.slice_chi`, else by :func:`_round_slices`."""
    if X.pl is not None:
        A = flat.direction.orthogonal_complement().basis
        return slice_chi(X.pl, A, A @ flat.offset)
    center, _ = X.smooth.bounding_ball()
    chi, tangent = _round_slices(X, flat.direction.dim, np.array([flat.distance_to(center)]))
    if tangent[0]:
        raise DegenerateSliceError("tangent flat")
    return int(chi[0])


def _round_slices(X: Shape, k: int, dist: np.ndarray):
    """chi of the slices of a round shape (the ball or sphere of its
    bounding ball) by k-flats at the distances ``dist`` (S,) from its centre,
    and a mask of the tangent ones; thresholds are relative to the radius.

    The strata tell the shape: it is round when every stratum but a solid
    one is a hypersurface whose chart grid points lie on the bounding
    sphere, within 1e-9 of the radius plus a few ulps of their coordinates
    (a small sphere far from the origin rounds its points at that scale),
    and a solid stratum makes it the ball."""
    center, radius = X.smooth.bounding_ball()
    for S in X.smooth.strata:
        if S.role == "solid":
            continue
        if S.dim == X.ambient_dim - 1:
            pts = S.chart.r(S.chart.grid(8)[0])
            off = np.abs(np.linalg.norm(pts - center, axis=1) - radius)
            if np.all(off <= 1e-9 * radius + 16 * np.spacing(np.max(np.abs(pts)))):
                continue
        raise NotImplementedError(f"slice chi for smooth shape {X.smooth.name}")
    if any(S.role == "solid" for S in X.smooth.strata):
        return (dist < radius * (1 - 1e-12)).astype(int), np.zeros(len(dist), dtype=bool)
    # a transversal slice of the sphere is a (k-1)-sphere
    chi = np.where(dist > radius, 0, 1 + (-1) ** (k - 1))
    return chi, np.abs(dist - radius) < 1e-9 * radius


@dataclass(frozen=True)
class KinematicCheck:
    numerator: Estimate  # weighted flat integral of chi(X ∩ E)
    denominator: Estimate  # Lambda_(n-k)(X)
    ratio: Estimate | None  # None when the denominator vanishes
    flagged_division: bool


def kinematic_check(X: Shape, k: int, n_flats: int, rng: RandomSource) -> KinematicCheck:
    """Monte-Carlo check of the linear kinematic formula at codimension k.

    Estimates the flat integral of chi(X ∩ E) over k-flats meeting the
    bounding ball and divides by Lambda_(n-k); the formula says the ratio is
    a constant depending only on (n, k).  A block of flats is one stacked
    :func:`lkpolar.geomkit.affine_flats_hitting_ball` call, sliced by one
    :func:`lkpolar.plstrata.slice_chi_many` per chunk on a complex, by
    :func:`_round_slices` of the offset norms on a round shape.  A region
    raises NotImplementedError: the slices would count all of X.  The
    division is flagged within 5 se of 0, or below 1e-9 radius^(n-k).
    """
    n = X.ambient_dim
    if not 1 <= k <= n - 1:
        raise ValueError("flat dimension k must be in 1..n-1")
    if X.region is not None:
        raise NotImplementedError("region restriction on kinematic slices")
    center, radius = X.bounding_ball()

    def values(_, draws):
        _, A, offsets, full, weight = affine_flats_hitting_ball(draws, radius)
        if X.pl is None:
            # the flat through center + offset lies at distance |offset| from the centre
            chi, flagged = _round_slices(X, k, np.linalg.norm(offsets, axis=1))
        else:
            # the flat through center + offset along D is {x : A x = A (center + offset)}
            at = center + offsets
            images = X.pl.vertices @ A.swapaxes(1, 2) - (A @ at[:, :, None]).swapaxes(1, 2)
            chi, wall = np.zeros(len(at), dtype=int), np.zeros(len(at), dtype=int)
            for part in sample_chunks(X.pl, len(at)):
                chi[part], wall[part] = slice_chi_many(X.pl, images[part])
            flagged = wall >= 0
        return weight * chi, flagged | ~full

    numer = mean_estimate(
        per_sample_values(n_flats, rng, lambda gen: draw_affine_flat(n, k, gen), values,
                          "kinematic check"),
        seed=rng.master_seed, method="flat-mc",
    )
    denom = lk_measure(X, n - k, RandomSource(rng.master_seed, rng.stream_id + 7919))
    flagged = abs(denom.value) <= max(5.0 * denom.std_error, 1e-9 * radius ** (n - k))
    ratio = None
    if not flagged:
        r = numer.value / denom.value
        se = math.hypot(numer.std_error / denom.value, r * denom.std_error / denom.value)
        ratio = Estimate(r, se, numer.n_samples, rng.master_seed, method="kinematic-ratio")
    return KinematicCheck(numerator=numer, denominator=denom, ratio=ratio, flagged_division=flagged)
