"""Local theory at cone germs: densities, polar invariants, localized
curvature measures and localized polar lengths.

Germs are restricted to exact cones: a PL link on the unit sphere (the germ
is the polyhedral cone over it) or the round circular cone.  Cones are
scale-invariant, which turns the iterated limits of the local theory into
finite computations: affine slices near the apex are slices of the cone
truncated at radius 1 (for the round cone, arcs of its link circle),
densities are spherical cell volumes, and the truncated-cone curvature
measures are exact in the truncation radius.

The three quantities the verification table compares are

    sigma_k  - sigma_(k+1)   (mean Euler characteristic of affine slices),
    L_k^loc                  (mean alpha-weighted density of projected cones),
    Lambda_k(X, B_eps)/(b_k eps^k)   (curvature measure of the truncated cone),

which the local identity says are all equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geomkit import (
    DegenerateDirectionError,
    Estimate,
    RandomSource,
    ball_volume,
    image_normals,
    mean_estimate,
    per_sample_values,
    sample_grassmannian,
    sample_unit_sphere,
)
from .plstrata import (
    DegenerateSliceError,
    StratifiedComplex,
    load_plstrat,
    mean_normal_index,
    pl_alpha_many,
    slice_chi,
)

__all__ = [
    "ConeGerm",
    "germ_from_name",
    "rays_germ",
    "halfplane_germ",
    "round_cone_germ",
    "cone_link_germ",
    "density",
    "sigma_invariant",
    "local_lambda",
    "local_polar_length",
    "verify_local_identities",
    "LocalIdentityRow",
]

SLICE_DELTA = 1e-3  # first slice offset of slice_chi_stabilized
SLICE_HALVINGS = 10  # halvings of the offset before a slice counts as unstable


@dataclass(frozen=True)
class ConeGerm:
    """Germ at the origin of a closed cone.

    PL germs carry their link as a simplicial complex with vertices on the
    unit sphere; the germ is the cone over it, stratified by the apex and the
    open cone cells.  The round cone over a circle of spherical radius theta
    is the one smooth catalog germ.
    """

    name: str
    ambient_dim: int
    link: StratifiedComplex | None = None
    theta: float | None = None  # round cone half-angle
    model: StratifiedComplex | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.link is None) == (self.theta is None):
            raise ValueError("germ needs exactly one of a PL link or a round-cone angle")
        if self.link is not None:
            norms = np.linalg.norm(self.link.vertices, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-10:
                raise ValueError("link vertices must lie on the unit sphere")
            object.__setattr__(self, "model", _cone_model(self.link))
        else:
            if not 0 < self.theta < math.pi / 2:
                raise ValueError("round-cone angle must be in (0, pi/2)")

    @property
    def is_round(self) -> bool:
        return self.theta is not None

    @property
    def dim(self) -> int:
        if self.is_round:
            return 2
        if not self.link.cells:
            return 0
        return self.link.dim + 1


def _cone_model(link: StratifiedComplex) -> StratifiedComplex:
    """Simplicial model of the unit cone: apex joined to every link cell."""
    verts = np.vstack([np.zeros((1, link.ambient_dim)), link.vertices])
    cells: dict[int, list] = {0: [(0,)]}
    for d, cs in link.cells.items():
        for c in cs:
            shifted = tuple(v + 1 for v in c)
            cells.setdefault(d, []).append(shifted)
            cells.setdefault(d + 1, []).append(tuple(sorted((0,) + shifted)))
    return StratifiedComplex(verts, cells)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def rays_germ(m: int) -> ConeGerm:
    """m equally spaced half-lines from the origin of the plane."""
    if m < 1:
        raise ValueError("need at least one ray")
    ang = 2 * math.pi * np.arange(m) / m + 0.1  # offset avoids axis alignment
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    link = StratifiedComplex(verts, {0: [(i,) for i in range(m)]})
    return ConeGerm(name=f"rays:{m}", ambient_dim=2, link=link)


def halfplane_germ(ambient_dim: int = 3) -> ConeGerm:
    """Half-plane germ {(a, b, 0, ...) : b >= 0}: the cone over a half circle
    realized as two quarter-plane sheets."""
    if ambient_dim < 2:
        raise ValueError("ambient dimension must be >= 2")
    e1 = np.zeros(ambient_dim)
    e1[0] = 1.0
    e2 = np.zeros(ambient_dim)
    e2[1] = 1.0
    verts = np.stack([e1, e2, -e1])
    link = StratifiedComplex.from_maximal_cells(verts, [(0, 1), (1, 2)])
    return ConeGerm(name=f"halfplane:{ambient_dim}", ambient_dim=ambient_dim, link=link)


def round_cone_germ(theta: float) -> ConeGerm:
    return ConeGerm(name=f"cone-circle:{theta:g}", ambient_dim=3, theta=float(theta))


def cone_link_germ(path: str) -> ConeGerm:
    link = load_plstrat(path)
    verts = link.vertices
    norms = np.linalg.norm(verts, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("link vertex at the origin")
    normalized = StratifiedComplex(verts / norms, {d: list(c) for d, c in link.cells.items()})
    return ConeGerm(name=f"cone-link:{path}", ambient_dim=link.ambient_dim, link=normalized)


def germ_from_name(spec: str) -> ConeGerm:
    head, _, rest = spec.partition(":")
    if head == "rays":
        return rays_germ(int(rest))
    if head == "halfplane":
        return halfplane_germ(int(rest))
    if head == "cone-circle":
        return round_cone_germ(float(rest))
    if head == "cone-link":
        try:
            return cone_link_germ(rest)
        except OSError as err:
            raise ValueError(f"cannot read cone link file {rest!r}: {err.strerror or err}") from err
    raise ValueError(f"unknown germ {spec!r}")


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _spherical_simplex_volume(units: np.ndarray) -> float:
    """Volume of the spherical simplex spanned by the given unit vectors (a
    point counts 1)."""
    if len(units) == 1:
        return 1.0
    if units.shape[1] > 3:
        raise NotImplementedError(f"spherical volumes in R^{units.shape[1]}: closed forms stop at R^3")
    if len(units) == 2:
        a, b = units
        return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))
    if len(units) == 3:
        a, b, c = units
        num = abs(float(np.linalg.det(np.stack([a, b, c]))))
        den = 1.0 + float(a @ b) + float(b @ c) + float(a @ c)
        return 2.0 * abs(math.atan2(num, den))
    raise NotImplementedError("spherical volumes implemented up to dimension 2")


def _free_link_cells(link: StratifiedComplex, d: int):
    """d-cells of the link not contained in any higher cell (the d-dimensional
    part of the cone is the union of their cones)."""
    higher = set()
    for dd, cells in link.cells.items():
        if dd <= d:
            continue
        for c in cells:
            for f in itertools.combinations(c, d + 1):
                higher.add(tuple(sorted(f)))
    return [c for c in link.cells.get(d, []) if c not in higher]


def density(X: ConeGerm, k: int) -> float:
    """k-density of the germ at the origin: vol_k(X cap B_1) / b_k of the
    k-dimensional part, exact for cones via spherical link volumes."""
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range")
    if X.is_round:
        return math.sin(X.theta) if k == 2 else 0.0
    if k == 0:
        return 1.0 if not X.link.cells else 0.0
    total = 0.0
    for cell in _free_link_cells(X.link, k - 1):
        total += _spherical_simplex_volume(X.link.vertices[list(cell)]) / k
    return total / ball_volume(k)


# ---------------------------------------------------------------------------
# exact affine slices of cones
# ---------------------------------------------------------------------------

def _round_slice_chi(X: ConeGerm, A: np.ndarray, v: np.ndarray, delta: float) -> int:
    """Slices of the round cone: radial reduction onto the link circle."""
    k = A.shape[0]
    theta = X.theta
    st, ct = math.sin(theta), math.cos(theta)
    c = A @ v
    # h(psi) = <A u(psi), c> = a cos(psi) + b sin(psi) + d
    e1 = A @ np.array([1.0, 0.0, 0.0])
    e2 = A @ np.array([0.0, 1.0, 0.0])
    e3 = A @ np.array([0.0, 0.0, 1.0])
    if k == 1:
        a = st * float(np.dot(e1, c))
        b = st * float(np.dot(e2, c))
        d = ct * float(np.dot(e3, c))
        return _trig_superlevel_chi(a, b, d, delta)
    if k == 2:
        c_perp = np.array([-c[1], c[0]])
        ag = st * float(e1 @ c_perp)
        bg = st * float(e2 @ c_perp)
        dg = ct * float(e3 @ c_perp)
        ah = st * float(e1 @ c)
        bh = st * float(e2 @ c)
        dh = ct * float(e3 @ c)
        amp = math.hypot(ag, bg)
        if amp < 1e-12:
            raise DegenerateSliceError("alignment function is constant")
        phase = math.atan2(bg, ag)
        val = -dg / amp
        if abs(val) >= 1.0 - 1e-12:
            return 0
        roots = [phase + math.acos(val), phase - math.acos(val)]
        count = 0
        for psi in roots:
            if ah * math.cos(psi) + bh * math.sin(psi) + dh > delta:
                count += 1
        return count
    if k == 3:
        return 0  # the slice point misses the two-dimensional cone surface
    raise NotImplementedError


def _trig_superlevel_chi(a: float, b: float, d: float, delta: float) -> int:
    """chi of {psi : a cos(psi) + b sin(psi) + d >= delta} on the circle."""
    amp = math.hypot(a, b)
    lo, hi = d - amp, d + amp
    if abs(lo - delta) < 1e-12 or abs(hi - delta) < 1e-12:
        raise DegenerateSliceError("tangent slice level")
    if lo > delta:
        return 0  # the whole circle
    if hi < delta:
        return 0  # empty
    return 1  # one arc


def slice_chi_stabilized(X: ConeGerm, A: np.ndarray, v: np.ndarray) -> int:
    """chi((H + delta v) cap X cap B_1), where H^perp has orthonormal row
    basis A and v is a unit vector of H^perp.  The slice at delta and
    delta/2 must agree; halve until it does.

    A PL germ's cone model is the cone over the link polyhedron truncated at
    radius 1, so its slice is :func:`lkpolar.plstrata.slice_chi` of the
    model by {A x = delta A v}.
    """
    def fn(delta):
        if X.is_round:
            return _round_slice_chi(X, A, v, delta)
        return slice_chi(X.model, A, delta * (A @ v))

    delta = SLICE_DELTA
    prev = fn(delta)
    for _ in range(SLICE_HALVINGS):
        cur = fn(delta / 2)
        if cur == prev:
            return cur
        prev = cur
        delta /= 2
    raise DegenerateSliceError("slice Euler characteristic failed to stabilize")


# ---------------------------------------------------------------------------
# polar invariants sigma_k
# ---------------------------------------------------------------------------

def sigma_invariant(X: ConeGerm, k: int, n_samples: int, rng: RandomSource) -> Estimate:
    """Mean over (H, v) of the Euler characteristic of the slice
    (H + delta v) cap X cap B_1, H uniform of codimension k."""
    n = X.ambient_dim
    if k == 0:
        return Estimate(1.0, 0.0, 1, rng.master_seed, method="definition")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range")

    def one(_, gen: np.random.Generator) -> float:
        A = sample_grassmannian(n, k, gen).basis
        v = sample_unit_sphere(k, gen) @ A
        return float(slice_chi_stabilized(X, A, v))

    vals = per_sample_values(n_samples, rng, one, DegenerateSliceError, "affine slices")
    return mean_estimate(vals, seed=rng.master_seed, method="affine-slices")


# ---------------------------------------------------------------------------
# localized curvature measures
# ---------------------------------------------------------------------------

def local_lambda(X: ConeGerm, k: int, rng: RandomSource, n_dirs: int = 4000) -> Estimate:
    """Lambda_k(X, X cap B_1) / b_k on the cone truncated at radius 1.

    Lambda_k is homogeneous of degree k, so for a cone the ratio
    Lambda_k(X, B_eps) / (b_k eps^k) is the same at every radius eps.
    """
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range")
    norm = ball_volume(k)
    if X.is_round:
        if k == 2:
            # flat normal slices on the sheet: lambda_2 = 1, area pi sin(theta)
            area = math.pi * math.sin(X.theta)
            return Estimate(area / norm, 0.0, 1, rng.master_seed, method="round-exact")
        if k == 1:
            # sigma_1(II) integrates to zero over the two-point normal sphere
            return Estimate(0.0, 0.0, 1, rng.master_seed, method="round-exact")
        if k == 0:
            return _apex_lambda0_round(X, rng, n_dirs)
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    T = X.model
    if k not in T.cells:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    # the apex (0,) is plan row 0 of the 0-cells, and a cone k-cell of the
    # unit cone has volume (spherical volume of its rays) / k
    dens = mean_normal_index(T, k)
    if k == 0:
        value = float(dens[0])
    else:
        value = math.fsum(
            dens[r] * _spherical_simplex_volume(T.vertices[T.plan.cells[k][r, 1:]]) / k
            for r in _cone_rows(T, k)) / norm
    return Estimate(value, 0.0, 1, rng.master_seed, method="exterior-angle")


def _apex_lambda0_round(X: ConeGerm, rng: RandomSource, n_dirs: int) -> Estimate:
    def one(_, gen: np.random.Generator) -> float:
        v = sample_unit_sphere(3, gen)
        return 1.0 - slice_chi_stabilized(X, v[None, :], -v)

    vals = per_sample_values(n_dirs, rng, one, DegenerateSliceError, "apex slices")
    return mean_estimate(vals, seed=rng.master_seed, method="apex-slices")


# ---------------------------------------------------------------------------
# localized polar lengths
# ---------------------------------------------------------------------------

def local_polar_length(X: ConeGerm, k: int, n_planes: int, rng: RandomSource) -> Estimate:
    """Mean over planes P of dimension k+1 of the weighted densities of the
    projected polar cone components."""
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range")
    if k == n:
        return Estimate(density(X, n), 0.0, 1, rng.master_seed, method="density")
    if k > X.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    if X.is_round and k == 1:
        # fold rays of the round cone: the slice curve has a minimum for one
        # normal sign and a maximum for the other, so alpha = 0 on them
        return Estimate(0.0, 0.0, 1, rng.master_seed, method="round-exact")

    def one(_, gen: np.random.Generator) -> float:
        P = sample_grassmannian(n, k + 1, gen)
        if X.is_round:
            return _round_local_polar_one(X, P)
        return _pl_local_polar_one(X, k, P)

    vals = per_sample_values(n_planes, rng, one, (DegenerateDirectionError, DegenerateSliceError),
                             "local polar planes")
    return mean_estimate(vals, seed=rng.master_seed, method="local-polar-mc")


def _cone_rows(T: StratifiedComplex, k: int) -> np.ndarray:
    """Plan rows of the k-cells of a cone model that contain the apex
    (vertex 0, the first of every such cell)."""
    return np.flatnonzero(T.plan.cells[k][:, 0] == 0)


def _pl_local_polar_one(X: ConeGerm, k: int, P) -> float:
    T = X.model
    if k == 0:
        return float(pl_alpha_many(T, 0, [0], P.basis[:1])[0])
    rows = _cone_rows(T, k)
    rays = T.vertices[T.plan.cells[k][rows, 1:]]  # (C, k, n)
    proj = rays @ P.basis.T  # ray directions inside P
    norms = np.linalg.norm(proj, axis=2)
    if np.min(norms) < 1e-8:
        raise DegenerateDirectionError("projected ray collapses")
    # alpha is link-combinatorial, hence exactly constant along the cone
    # cell; no second-point stability probe is needed
    alphas = pl_alpha_many(T, k, rows, image_normals(T.plan.spans[k][rows], P))
    total = 0.0
    for alpha, unit in zip(alphas, proj / norms[:, :, None]):
        total += alpha * _spherical_simplex_volume(unit) / (k * ball_volume(k))
    return total


def _round_local_polar_one(X: ConeGerm, P) -> float:
    """One plane at k = 2 or k = 0 (k = 1 is exactly 0)."""
    if P.dim == 3:
        # identity projection: one sheet component, point slices, alpha = 1
        return density(X, 2)
    v = P.basis[0]
    down = 1 - slice_chi_stabilized(X, v[None, :], -v)
    up = 1 - slice_chi_stabilized(X, v[None, :], v)
    return 0.5 * (down + up)


# ---------------------------------------------------------------------------
# verification table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalIdentityRow:
    k: int
    sigma_diff: Estimate
    polar: Estimate
    curvature: Estimate

    @property
    def passes(self) -> bool:
        vals = [self.sigma_diff, self.polar, self.curvature]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(vals[i].value - vals[j].value)
                tol = 3 * math.hypot(vals[i].std_error, vals[j].std_error) + 1e-9
                if gap > tol:
                    return False
        return True


@dataclass(frozen=True)
class LocalIdentityReport:
    rows: tuple[LocalIdentityRow, ...]
    sigma_top: Estimate
    density_top: float
    refined_lhs: Estimate  # L_0^loc
    refined_rhs: Estimate  # 1 - sigma_1

    @property
    def passes(self) -> bool:
        ok = all(r.passes for r in self.rows)
        gap = abs(self.sigma_top.value - self.density_top)
        ok &= gap <= 3 * self.sigma_top.std_error + 1e-9
        gap = abs(self.refined_lhs.value - self.refined_rhs.value)
        tol = 3 * math.hypot(self.refined_lhs.std_error, self.refined_rhs.std_error) + 1e-9
        return ok and gap <= tol


def verify_local_identities(
    X: ConeGerm,
    rng: RandomSource,
    n_samples: int = 3000,
    n_planes: int = 2000,
) -> LocalIdentityReport:
    """Table over k of (sigma_k - sigma_(k+1), L_k^loc, local Lambda_k), plus
    the top-density identity sigma_n = L_n^loc and the refined identity
    L_0^loc = 1 - sigma_1 at the apex stratum."""
    n = X.ambient_dim
    sigmas = [sigma_invariant(X, k, n_samples, rng.substream(1000 + k)) for k in range(n + 1)]
    sigmas.append(Estimate(0.0, 0.0, 1, rng.master_seed))
    rows = []
    for k in range(n + 1):
        sdiff = sigmas[k] - sigmas[k + 1]
        pol = local_polar_length(X, k, n_planes, rng.substream(2000 + k))
        lam = local_lambda(X, k, rng.substream(3000 + k), n_dirs=n_samples)
        rows.append(LocalIdentityRow(k=k, sigma_diff=sdiff, polar=pol, curvature=lam))
    refined_rhs = Estimate(1.0, 0.0, 1, rng.master_seed) - sigmas[1]
    return LocalIdentityReport(
        rows=tuple(rows),
        sigma_top=sigmas[n],
        density_top=density(X, n),
        refined_lhs=rows[0].polar,
        refined_rhs=refined_rhs,
    )
