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
    draw_grassmannian,
    grassmannian_bases,
    mean_estimate,
    per_sample_values,
    sample_unit_sphere,
)
from .plstrata import (
    DegenerateSliceError,
    StratifiedComplex,
    _pl_alphas_many,
    load_plstrat,
    mean_normal_index,
    slice_chi_many,
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
    "agree",
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
    try:
        if head == "rays":
            return rays_germ(int(rest))
        if head == "halfplane":
            return halfplane_germ(int(rest))
        if head == "cone-circle":
            return round_cone_germ(float(rest))
    except ValueError as err:
        raise ValueError(f"germ {spec!r}: expected rays:<m >= 1>, halfplane:<n >= 2> or "
                         f"cone-circle:<angle in (0, pi/2)> ({err})") from None
    if head == "cone-link":
        try:
            return cone_link_germ(rest)
        except OSError as err:
            raise ValueError(f"cannot read cone link file {rest!r}: {err.strerror or err}") from err
    raise ValueError(f"unknown germ {spec!r}")


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of two stacks of vectors, by the kernel that a lone
    ``a @ b`` of two vectors calls, so each has the lone bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _spherical_simplex_volumes(units: np.ndarray) -> np.ndarray:
    """Volumes of a stack (..., m, n) of spherical simplices, each spanned
    by m unit vectors (a point counts 1).  The angles come from
    ``math.atan2`` one simplex at a time: numpy's arctan2 differs from it
    in the last bit."""
    m, n = units.shape[-2:]
    if m == 1:
        return np.ones(units.shape[:-2])
    if n > 3:
        raise NotImplementedError(f"spherical volumes in R^{n}: closed forms stop at R^3")
    if m == 2:
        a, b = units[..., 0, :], units[..., 1, :]
        w = np.cross(a, b)
        num, den = np.sqrt(_dot(w, w)), _dot(a, b)
        scale = 1.0
    elif m == 3:
        a, b, c = units[..., 0, :], units[..., 1, :], units[..., 2, :]
        num = np.abs(np.linalg.det(units))
        den = 1.0 + _dot(a, b) + _dot(b, c) + _dot(a, c)
        scale = 2.0
    else:
        raise NotImplementedError("spherical volumes implemented up to dimension 2")
    angles = [abs(math.atan2(y, x)) for y, x in zip(num.ravel().tolist(), den.ravel().tolist())]
    return scale * np.array(angles).reshape(num.shape)


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
        total += float(_spherical_simplex_volumes(X.link.vertices[list(cell)])) / k
    return total / ball_volume(k)


# ---------------------------------------------------------------------------
# exact affine slices of cones
# ---------------------------------------------------------------------------

def _round_slices(X: ConeGerm, A: np.ndarray, v: np.ndarray):
    """The slices of the round cone by a stack of flats (A (S, k, 3), v
    (S, 3), as in :func:`_slice_chi_stabilized_many`), as a function
    ``chis(live, delta)`` that returns chi and a degenerate mask for the
    flats ``live`` at the offset delta.

    Radial reduction onto the link circle: the slice is a superlevel set of
    a trigonometric height (k = 1), or the points of an alignment function's
    zero set that pass a height test (k = 2); a tangent level or a constant
    alignment function is degenerate.  Everything but the comparison with
    delta is computed once.  The hypot, atan2 and acos values come from
    ``math`` one flat at a time, as numpy's differ from them in the last
    bit."""
    k = A.shape[1]
    theta = X.theta
    st, ct = math.sin(theta), math.cos(theta)
    c = (A @ v[:, :, None])[:, :, 0]
    # h(psi) = <A u(psi), c> = a cos(psi) + b sin(psi) + d; A e_j is column j of A
    e1, e2, e3 = np.ascontiguousarray(A.transpose(2, 0, 1))
    if k == 1:
        a = st * (e1[:, 0] * c[:, 0])
        b = st * (e2[:, 0] * c[:, 0])
        d = ct * (e3[:, 0] * c[:, 0])
        amp = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())])
        lo, hi = d - amp, d + amp

        def chis(live, delta):
            # 0 on the whole circle (lo > delta) or on none of it (hi < delta), 1 on an arc
            degenerate = (np.abs(lo[live] - delta) < 1e-12) | (np.abs(hi[live] - delta) < 1e-12)
            return ((lo[live] <= delta) & (hi[live] >= delta)).astype(int), degenerate

        return chis
    if k == 2:
        c_perp = np.stack([-c[:, 1], c[:, 0]], axis=1)
        ag, bg, dg = st * _dot(e1, c_perp), st * _dot(e2, c_perp), ct * _dot(e3, c_perp)
        ah, bh, dh = st * _dot(e1, c), st * _dot(e2, c), ct * _dot(e3, c)
        amp = np.array([math.hypot(x, y) for x, y in zip(ag.tolist(), bg.tolist())])
        flat = amp < 1e-12
        phase = np.array([math.atan2(y, x) for x, y in zip(ag.tolist(), bg.tolist())])
        val = -dg / np.where(flat, 1.0, amp)
        cuts = ~flat & (np.abs(val) < 1.0 - 1e-12)
        turn = np.array([math.acos(x) if cut else 0.0 for x, cut in zip(val.tolist(), cuts)])
        heights = [np.where(cuts, ah * np.cos(psi) + bh * np.sin(psi) + dh, -np.inf)
                   for psi in (phase + turn, phase - turn)]

        def chis(live, delta):
            return (heights[0][live] > delta) + (heights[1][live] > delta).astype(int), flat[live]

        return chis
    if k == 3:
        # the slice point misses the two-dimensional cone surface
        return lambda live, delta: (np.zeros(len(live), dtype=int),
                                    np.zeros(len(live), dtype=bool))
    raise NotImplementedError


def slice_chi_stabilized(X: ConeGerm, A: np.ndarray, v: np.ndarray) -> int:
    """chi((H + delta v) cap X cap B_1), where H^perp has orthonormal row
    basis A and v is a unit vector of H^perp: the one-flat view of
    :func:`_slice_chi_stabilized_many`.  A degenerate or unsettled slice
    raises DegenerateSliceError."""
    chi, unstable = _slice_chi_stabilized_many(X, np.asarray(A)[None], np.asarray(v)[None])
    if unstable[0]:
        raise DegenerateSliceError("slice through a face boundary, or failed to stabilize")
    return int(chi[0])


def _slice_chi_stabilized_many(X: ConeGerm, A: np.ndarray, v: np.ndarray):
    """chi((H + delta v) cap X cap B_1) for a stack of flats: A (S, k, n) the
    orthonormal row bases of the H^perp, v (S, n) unit vectors of them.  The
    slice at delta and delta/2 must agree; halve until it does, starting
    from SLICE_DELTA.  Only the flats that have not settled are sliced
    again.

    A PL germ's cone model is the cone over the link polyhedron truncated at
    radius 1, so its slice is :func:`lkpolar.plstrata.slice_chi_many` of the
    model by {A x = delta A v}.  Returns chi (S,) and a mask of the flats to
    redraw: degenerate at some offset, or unsettled after SLICE_HALVINGS
    halvings.
    """
    if X.is_round:
        chis = _round_slices(X, A, v)
    else:
        images = X.model.vertices @ A.swapaxes(1, 2)  # (S, V, k), shared by every offset
        Av = (A @ v[:, :, None])[:, :, 0]

        def chis(live, delta):
            chi, wall = slice_chi_many(X.model, images[live] - (delta * Av[live])[:, None, :])
            return chi, wall >= 0

    chi = np.zeros(len(A), dtype=int)
    unstable = np.zeros(len(A), dtype=bool)
    live = np.arange(len(A))
    delta = SLICE_DELTA
    prev, degenerate = chis(live, delta)
    for _ in range(SLICE_HALVINGS):
        unstable[live[degenerate]] = True
        live, prev = live[~degenerate], prev[~degenerate]
        if not len(live):
            break
        cur, degenerate = chis(live, delta / 2)
        settled = ~degenerate & (cur == prev)
        chi[live[settled]] = cur[settled]
        live, prev, degenerate = live[~settled], cur[~settled], degenerate[~settled]
        delta /= 2
    unstable[live] = True
    return chi, unstable


# ---------------------------------------------------------------------------
# polar invariants sigma_k
# ---------------------------------------------------------------------------

def sigma_invariant(X: ConeGerm, k: int, n_samples: int, rng: RandomSource) -> Estimate:
    """Mean over (H, v) of the Euler characteristic of the slice
    (H + delta v) cap X cap B_1, H uniform of codimension k, a block of
    samples per stacked call (one QR, one slice kernel per halving).  At
    k > dim X a generic flat misses the germ: exact 0, with no draw."""
    n = X.ambient_dim
    if k == 0:
        return Estimate(1.0, 0.0, 1, rng.master_seed, method="definition")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range")
    if k > X.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed, method="dimension")

    def values(_, draws):
        G, w = draws
        A, full = grassmannian_bases(G)
        chi, unstable = _slice_chi_stabilized_many(X, A, (w[:, None, :] @ A)[:, 0])
        return chi, unstable | ~full

    vals = per_sample_values(
        n_samples, rng, lambda gen: (draw_grassmannian(n, k, gen), sample_unit_sphere(k, gen)),
        values, "affine slices")
    return mean_estimate(vals, seed=rng.master_seed, method="affine-slices")


# ---------------------------------------------------------------------------
# localized curvature measures
# ---------------------------------------------------------------------------

def local_lambda(X: ConeGerm, k: int, rng: RandomSource) -> Estimate:
    """Lambda_k(X, X cap B_1) / b_k on the cone truncated at radius 1.

    Lambda_k is homogeneous of degree k, so for a cone the ratio
    Lambda_k(X, B_eps) / (b_k eps^k) is the same at every radius eps.
    """
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range")
    norm = ball_volume(k)
    if X.is_round:
        # the apex: a great circle orthogonal to a uniform direction u meets the
        # link circle when |<u, axis>| < sin(theta), and <u, axis> is uniform on
        # [-1, 1]; the fold rays: sigma_1(II) integrates to zero over the
        # two-point normal sphere; the sheet: lambda_2 = 1 on area pi sin(theta)
        s = math.sin(X.theta)
        value = {0: 1.0 - s, 2: math.pi * s / norm}.get(k, 0.0)
        return Estimate(value, 0.0, 1, rng.master_seed, method="round-exact")
    T = X.model
    if k not in T.cells:
        return Estimate(0.0, 0.0, 1, rng.master_seed)
    # the apex (0,) is plan row 0 of the 0-cells, and a cone k-cell of the
    # unit cone has volume (spherical volume of its rays) / k
    dens = mean_normal_index(T, k)
    if k == 0:
        value = float(dens[0])
    else:
        rows = _cone_rows(T, k)
        vols = _spherical_simplex_volumes(T.vertices[T.plan.cells[k][rows, 1:]])
        value = math.fsum(dens[r] * vol / k for r, vol in zip(rows, vols)) / norm
    return Estimate(value, 0.0, 1, rng.master_seed, method="exterior-angle")


# ---------------------------------------------------------------------------
# localized polar lengths
# ---------------------------------------------------------------------------

def local_polar_length(X: ConeGerm, k: int, n_planes: int, rng: RandomSource) -> Estimate:
    """Mean over planes P of dimension k+1 of the weighted densities of the
    projected polar cone components, a block of planes per stacked call.
    At k = n - 1 every plane is R^n, so the identity plane is valued with no
    draw (method "full-space"); a flag on it raises DegenerateDirectionError."""
    n = X.ambient_dim
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range")
    if k == n:
        return Estimate(density(X, n), 0.0, 1, rng.master_seed, method="density")
    if k > X.dim:
        return Estimate(0.0, 0.0, 1, rng.master_seed, method="dimension")
    if X.is_round and k:
        # alpha = 0 on the fold rays (k = 1): the slice curve has a minimum for one
        # normal sign and a maximum for the other; alpha = 1 on the sheet (k = 2)
        return Estimate(density(X, k), 0.0, 1, rng.master_seed, method="round-exact")
    if k == n - 1:
        vals, redraw = _pl_local_polar_many(X, k, np.eye(n)[None])
        if redraw[0]:
            raise DegenerateDirectionError(f"the whole space is degenerate for {X.name} at k = {k}")
        return Estimate(float(vals[0]), 0.0, 1, rng.master_seed, method="full-space")

    def values(_, draws):
        bases, full = grassmannian_bases(draws)
        vals, redraw = (_round_local_polar_many(X, bases) if X.is_round
                        else _pl_local_polar_many(X, k, bases))
        return vals, redraw | ~full

    vals = per_sample_values(n_planes, rng, lambda gen: draw_grassmannian(n, k + 1, gen), values,
                             "local polar planes")
    return mean_estimate(vals, seed=rng.master_seed, method="local-polar-mc")


def _cone_rows(T: StratifiedComplex, k: int) -> np.ndarray:
    """Plan rows of the k-cells of a cone model that contain the apex
    (vertex 0, the first of every such cell)."""
    return np.flatnonzero(T.plan.cells[k][:, 0] == 0)


def _pl_local_polar_many(X: ConeGerm, k: int, bases: np.ndarray):
    """The local polar value of each plane of a stack, with orthonormal row
    bases (S, k + 1, n), and a mask of the planes to redraw: a projected ray
    collapses, or :func:`lkpolar.plstrata._pl_alphas_many` flags the plane.
    alpha is link-combinatorial, hence exactly constant along a cone cell;
    no second-point stability probe is needed."""
    T = X.model
    if k == 0:
        # the apex alone, along the line of each plane
        alphas, redraw = _pl_alphas_many(T, 0, [0], bases)
        return alphas[:, 0], redraw
    rows = _cone_rows(T, k)
    rays = T.vertices[T.plan.cells[k][rows, 1:]]  # (C, k, n)
    proj = rays @ bases[:, None].swapaxes(-1, -2)  # (S, C, k, k + 1): ray directions inside P
    norms = np.linalg.norm(proj, axis=3)
    alphas, redraw = _pl_alphas_many(T, k, rows, bases)
    redraw |= norms.min(axis=(1, 2)) < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):  # a collapsed ray of a flagged plane
        vols = _spherical_simplex_volumes(proj / norms[..., None])  # (S, C)
    total = np.zeros(len(bases))
    for alpha, vol in zip(alphas.T, vols.T):  # in cell order: a plane's running sum, bit for bit
        total += alpha * vol / (k * ball_volume(k))
    return total, redraw


def _round_local_polar_many(X: ConeGerm, bases: np.ndarray):
    """Lines through the apex (k = 0, the one sampled order of the round
    cone): alpha is the mean of the apex indices along both directions."""
    v = bases[:, 0]
    down, bad_down = _slice_chi_stabilized_many(X, bases, -v)
    up, bad_up = _slice_chi_stabilized_many(X, bases, v)
    return 0.5 * ((1 - down) + (1 - up)), bad_down | bad_up


# ---------------------------------------------------------------------------
# verification table
# ---------------------------------------------------------------------------

def agree(a: Estimate, b: Estimate, tolerance: float = 3.0) -> bool:
    """Whether two estimates agree within ``tolerance`` combined standard
    errors, with 1e-9 of slack for exact values."""
    return abs(a.value - b.value) <= tolerance * math.hypot(a.std_error, b.std_error) + 1e-9


@dataclass(frozen=True)
class LocalIdentityRow:
    k: int
    sigma_diff: Estimate
    polar: Estimate
    curvature: Estimate

    def agrees(self, tolerance: float = 3.0) -> bool:
        """Whether every pair of the row's three estimates agrees."""
        return all(agree(a, b, tolerance) for a, b in
                   itertools.combinations((self.sigma_diff, self.polar, self.curvature), 2))

    @property
    def passes(self) -> bool:
        return self.agrees()


@dataclass(frozen=True)
class LocalIdentityReport:
    rows: tuple[LocalIdentityRow, ...]
    sigma_top: Estimate
    density_top: float
    refined_lhs: Estimate  # L_0^loc
    refined_rhs: Estimate  # 1 - sigma_1

    @property
    def passes(self) -> bool:
        top = Estimate(self.density_top, 0.0, 1, self.sigma_top.seed)
        return (all(r.passes for r in self.rows) and agree(self.sigma_top, top)
                and agree(self.refined_lhs, self.refined_rhs))


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
        lam = local_lambda(X, k, rng.substream(3000 + k))
        rows.append(LocalIdentityRow(k=k, sigma_diff=sdiff, polar=pol, curvature=lam))
    refined_rhs = Estimate(1.0, 0.0, 1, rng.master_seed) - sigmas[1]
    return LocalIdentityReport(
        rows=tuple(rows),
        sigma_top=sigmas[n],
        density_top=density(X, n),
        refined_lhs=rows[0].polar,
        refined_rhs=refined_rhs,
    )
