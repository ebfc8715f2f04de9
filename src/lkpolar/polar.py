"""Polar varieties, polar images, and polar lengths.

For a projection plane P of dimension q+1 the per-stratum pipeline is:

  1. find the polar set of each stratum (critical locus of the projection):
     whole cells/strata of dimension <= q, the traced silhouette for a
     surface stratum seen along P-perp, height critical points at q = 0;
  2. run degeneracy clearances (wall alignment, image overlap, limit
     adjacency) and resample the plane when one trips - the bad planes form
     measure-zero sets, so a uniform plane essentially never trips them;
  3. weight each regular image point with the index alpha (half-sum of the
     downward and upward slice Morse indices) and integrate over the image;
  4. average over uniform planes and apply the dimensional constant.

The q-th polar length obtained this way equals the q-th curvature measure;
that identity is what the verification suite checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geomkit import (
    Estimate,
    LinearSubspace,
    RandomSource,
    beta_coeff,
    image_normal,
    image_normals,
    mean_estimate,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
    simplex_volumes,
)
from .lkmeasure import Shape
from .plstrata import DegenerateDirectionError, NormalLink, pl_alpha, pl_alpha_many
from .smoothshape import (
    DegenerateHeightError,
    SmoothStratum,
    frames,
    height_critical_points,
)

__all__ = [
    "PolarConfig",
    "PolarPiece",
    "PolarSample",
    "DegeneracyReport",
    "DegeneratePlaneError",
    "polar_variety",
    "check_genericity",
    "alpha_index",
    "polar_image_integral",
    "polar_length",
    "PolarLengthResult",
    "crofton_volume",
    "projected_volume",
]


@dataclass(frozen=True)
class PolarConfig:
    """Thresholds of the polar pipeline (angles in radians, distances are
    relative to the shape diameter)."""

    grid: int = 256
    chord_tol: float = 1e-6
    fold_angle_min: float = 1e-4
    overlap_distance: float = 1e-4
    overlap_fraction: float = 0.05
    span_angle_min: float = 1e-4
    span_rank_tol: float = 1e-8
    max_resamples: int = 100
    curvature_tol: float = 1e-7
    slice_delta: float = 1e-3
    slice_epsilon: float = 1e-1


@dataclass(frozen=True)
class PolarPiece:
    """One connected piece of the polar set of one stratum.

    kind is "cell" (a flat cell taken whole), "whole" (a smooth stratum of
    dimension q taken whole), "contour" (a traced fold curve) or "points"
    (height critical points at q = 0).  ``geometry`` lives in P-coordinates.
    A closed contour ends with a copy of its first point, so that its closing
    segment is explicit.
    """

    stratum: object
    kind: str
    geometry: np.ndarray
    alpha: float | None = None
    source_params: np.ndarray | None = None
    source_points: np.ndarray | None = None
    closed: bool = False


@dataclass(frozen=True)
class DegeneracyReport:
    fold_violations: list = field(default_factory=list)
    double_points: list = field(default_factory=list)
    limit_adjacency: list = field(default_factory=list)
    span_flags: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.fold_violations or self.double_points or self.limit_adjacency or self.span_flags
        )

    def reasons(self) -> list[str]:
        out = []
        if self.fold_violations:
            out.append("fold")
        if self.double_points:
            out.append("double")
        if self.limit_adjacency:
            out.append("limit")
        if self.span_flags:
            out.append("span")
        return out


@dataclass(frozen=True)
class PolarSample:
    plane: LinearSubspace
    pieces: tuple[PolarPiece, ...]
    degenerate: bool
    report: DegeneracyReport


class DegeneratePlaneError(ValueError):
    def __init__(self, report: DegeneracyReport | None = None, msg: str = "degenerate plane"):
        super().__init__(msg)
        self.report = report or DegeneracyReport()


# ---------------------------------------------------------------------------
# silhouette tracing
# ---------------------------------------------------------------------------

def _surface_normals(S: SmoothStratum, params: np.ndarray) -> np.ndarray:
    if S.unit_normal is not None:
        return np.asarray(S.unit_normal(params), dtype=float)
    J = S.chart.dr(params)
    nu = np.cross(J[..., 0, :], J[..., 1, :])
    return nu / np.linalg.norm(nu, axis=-1, keepdims=True)


def _silhouette_value(S: SmoothStratum, params: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _surface_normals(S, np.atleast_2d(params)) @ u


def _snap_to_contour_batch(S, P: np.ndarray, u, iters=25):
    """Gradient-step refinement of chart points onto {<nu, u> = 0}, batched."""
    P = np.atleast_2d(np.asarray(P, dtype=float)).copy()
    h = 1e-7
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    for _ in range(iters):
        g = _silhouette_value(S, P, u)
        if np.max(np.abs(g)) < 1e-12:
            break
        g0 = (_silhouette_value(S, P + e0, u) - _silhouette_value(S, P - e0, u)) / (2 * h)
        g1 = (_silhouette_value(S, P + e1, u) - _silhouette_value(S, P - e1, u)) / (2 * h)
        n2 = np.maximum(g0 * g0 + g1 * g1, 1e-18)
        P[:, 0] -= g * g0 / n2
        P[:, 1] -= g * g1 / n2
    return P


def trace_silhouette(S: SmoothStratum, u: np.ndarray, cfg: PolarConfig, diameter: float):
    """Polylines of {x in S : normal(x) orthogonal to span(u)} via a sign grid with
    bisected edge crossings, chained per cell and refined to the chord
    tolerance.  Returns a list of (params_array, points_array, closed); a
    closed polyline ends with its first point, whose chart parameters are
    unwrapped against the last one."""
    chart = S.chart
    g = cfg.grid
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    nx = [g if chart.periodic[i] else g + 1 for i in range(2)]
    axes = [np.linspace(lo[i], hi[i], nx[i], endpoint=not chart.periodic[i]) for i in range(2)]
    steps = [(hi[i] - lo[i]) / (nx[i] if chart.periodic[i] else nx[i] - 1) for i in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = _silhouette_value(S, P, u).reshape(nx[0], nx[1])

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

    # batched bisection of all crossed edges
    if pending_edges:
        A = np.empty((len(pending_edges), 2))
        B = np.empty((len(pending_edges), 2))
        FA = np.empty(len(pending_edges))
        for idx, (kind, i, j) in enumerate(pending_edges):
            A[idx] = node_param(i, j)
            B[idx] = node_param(i + 1, j) if kind == "h" else node_param(i, j + 1)
            FA[idx] = vals[node(i, j)]
        for _ in range(40):
            M = 0.5 * (A + B)
            FM = _silhouette_value(S, M, u)
            right = FA * FM <= 0
            B[right] = M[right]
            A[~right] = M[~right]
            FA[~right] = FM[~right]
        M = 0.5 * (A + B)
        for idx, e in enumerate(pending_edges):
            crossings[e] = M[idx]

    # chain segments into polylines
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
            for cand in adjacency.get(cur, []):
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
    polylines = []
    visited_edges = set()
    for start in ends + list(adjacency):
        if start in visited_edges or start not in adjacency:
            continue
        has_free = any((start, c) in unused for c in adjacency[start])
        if not has_free:
            continue
        chain, closed = walk(start)
        visited_edges.update(chain)
        params = [crossings[e] for e in chain]
        polylines.append((params, closed))

    out = []
    for params, closed in polylines:
        if closed:
            params = params + [params[0]]
        params = _unwrap_params(np.array(params), lo, hi, chart.periodic)
        params = _refine_polyline(S, params, u, cfg.chord_tol * diameter)
        out.append((params, chart.r(params), closed))
    return out


def _unwrap_params(params, lo, hi, periodic):
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


def _refine_polyline(S, params, u, tol, max_depth=8):
    pts = np.asarray(params, dtype=float)
    for _ in range(max_depth):
        mids = _snap_to_contour_batch(S, 0.5 * (pts[:-1] + pts[1:]), u)
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


# ---------------------------------------------------------------------------
# polar varieties
# ---------------------------------------------------------------------------

def _pl_polar_pieces(X: Shape, P: LinearSubspace, q: int, cfg: PolarConfig) -> list[PolarPiece]:
    """Cells of dimension <= q taken whole, in the order of ``K.cells``, after
    the span check of every cell below the top dimension."""
    K = X.pl
    plan = K.plan
    n = K.ambient_dim
    comp = P.orthogonal_complement().basis
    pieces = []
    span_flags = []
    for d, cells in K.cells.items():
        if d == n:
            continue
        flags, inter_dim, clearance = _span_flags(plan.spans[d], comp, cfg)
        span_flags.extend(
            (cells[i], int(inter_dim[i]), float(clearance[i])) for i in np.flatnonzero(flags))
        if d > q or span_flags:
            continue  # d > q: generic transversality leaves no polar points
        pts = K.vertices[plan.cells[d]]
        coords = pts @ P.basis.T
        pieces.extend(
            PolarPiece(stratum=cell, kind="cell", geometry=coords[i], source_points=pts[i])
            for i, cell in enumerate(cells)
        )
    if span_flags:
        raise DegeneratePlaneError(DegeneracyReport(span_flags=span_flags))
    return pieces


def _span_flags(spans: np.ndarray, comp: np.ndarray, cfg: PolarConfig):
    """:func:`_span_intersection` of each (d, n) span of a stack against the
    complement ``comp`` of the plane, with one stacked SVD, and which spans
    it flags: those meeting ``comp`` beyond the generic dimension, or within
    ``span_angle_min`` of doing so.  Returns (flags, dims, clearances)."""
    count, d, n = spans.shape
    c = comp.shape[0]
    if d == 0 or c == 0:
        return np.zeros(count, dtype=bool), np.zeros(count, dtype=int), np.full(count, math.pi / 2)
    sv = np.clip(np.linalg.svd(spans @ comp.T, compute_uv=False), -1.0, 1.0)
    inter_dim = np.sum(sv > 1.0 - cfg.span_rank_tol, axis=1)
    # singular values fall, so the first one past the intersection is the
    # clearance; a zero column stands for "none left" (arccos 0 = pi/2)
    rest = np.concatenate([sv, np.zeros((count, 1))], axis=1)[np.arange(count), inter_dim]
    clearance = np.arccos(rest)
    expected = max(0, d + c - n)
    flags = (inter_dim > expected) | (
        (expected < min(d, c)) & (clearance < cfg.span_angle_min))
    return flags, inter_dim, clearance


def _span_intersection(span_a: np.ndarray, span_b: np.ndarray, cfg: PolarConfig):
    """(dim of intersection, clearance angle beyond it) via principal angles;
    the one-cell reference for :func:`_span_flags`."""
    if span_a.shape[0] == 0 or span_b.shape[0] == 0:
        return 0, math.pi / 2
    sv = np.linalg.svd(span_a @ span_b.T, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    dim = int(np.sum(sv > 1.0 - cfg.span_rank_tol))
    rest = sv[dim:] if dim < len(sv) else np.array([])
    clearance = math.acos(float(rest[0])) if len(rest) else math.pi / 2
    return dim, clearance


def _smooth_polar_pieces(
    X: Shape, S: SmoothStratum, P: LinearSubspace, q: int, cfg: PolarConfig, rng_gen
) -> list[PolarPiece]:
    n = X.ambient_dim
    if S.role == "solid":
        return []
    if S.dim <= q:
        params, _ = S.chart.grid(64)
        return [PolarPiece(stratum=S, kind="whole", geometry=P.coords(S.chart.r(params)))]
    if q == 0:
        v = P.basis[0]
        crits = height_critical_points(S, v, scale=X.diameter)
        if not crits:
            return []
        pts = np.array([c.point for c in crits])
        return [
            PolarPiece(
                stratum=S,
                kind="points",
                geometry=P.coords(pts),
                source_params=np.array([c.params for c in crits]),
                source_points=pts,
            )
        ]
    if S.dim == 2 and n == 3 and q == 1:
        u = P.orthogonal_complement().basis[0]
        traced = trace_silhouette(S, u, cfg, X.diameter)
        return [
            PolarPiece(
                stratum=S,
                kind="contour",
                geometry=P.coords(pts),
                source_params=params,
                source_points=pts,
                closed=closed,
            )
            for params, pts, closed in traced
        ]
    raise NotImplementedError(f"polar set for stratum dim {S.dim}, q={q}")


def polar_variety(X: Shape, stratum, P: LinearSubspace, cfg: PolarConfig | None = None, rng=None):
    """Polar pieces of one stratum under the projection onto P."""
    cfg = cfg or PolarConfig()
    q = P.dim - 1
    if X.pl is not None:
        return [p for p in _pl_polar_pieces(X, P, q, cfg) if p.stratum == tuple(sorted(stratum))]
    return _smooth_polar_pieces(X, stratum, P, q, cfg, rng)


# ---------------------------------------------------------------------------
# degeneracy checks
# ---------------------------------------------------------------------------

def _polyline_tangents(points: np.ndarray) -> np.ndarray:
    d = np.gradient(points, axis=0)
    return d / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)


def _segment_midpoints(poly: np.ndarray):
    return 0.5 * (poly[:-1] + poly[1:])


def _decimate(points: np.ndarray, target: int) -> np.ndarray:
    if len(points) <= target:
        return points
    idx = np.linspace(0, len(points) - 1, target).astype(int)
    return points[idx]


def _overlap_fraction(
    a_img: np.ndarray,
    a_src: np.ndarray,
    b_img: np.ndarray,
    b_src: np.ndarray,
    dist_tol: float,
    src_tol: float,
) -> float:
    """Fraction of a's image points lying on b's image at a genuinely
    different source point.

    Probe points of a are tested against the segments of (a decimated copy
    of) b, so coincident stretches are caught at any sampling density; pairs
    with nearby sources are the same neighborhood upstairs (small loops,
    adjacent samples, endpoint contacts) and do not witness double points.
    A probe within dist_tol of a segment lies within dist_tol plus half its
    length of the segment midpoint, so the closest-point and source tests
    run only on the probe/segment pairs that pass this cheaper test."""
    ka = _decimate(np.arange(len(a_img)), 256)
    kb = _decimate(np.arange(len(b_img)), 512)
    pa, sa = a_img[ka], a_src[ka]
    qb, sb = b_img[kb], b_src[kb]
    if len(pa) == 0 or len(qb) < 2:
        return 0.0
    seg_a, seg_b = qb[:-1], qb[1:]
    seg = seg_b - seg_a  # (M, dim)
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
        rel = pa[n] - seg_a[m]  # (K, dim)
        t = np.clip(np.einsum("kd,kd->k", rel, seg[m]) / seg_len2[m], 0.0, 1.0)
        closest = seg_a[m] + t[:, None] * seg[m]
        d2_img = np.sum((pa[n] - closest) ** 2, axis=1)
        # source separation against both segment endpoints
        d2_src = np.minimum(
            np.sum((sa[n] - sb[m]) ** 2, axis=1),
            np.sum((sa[n] - sb[m + 1]) ** 2, axis=1),
        )
        hit[n[(d2_img <= dist_tol**2) & (d2_src >= src_tol**2)]] = True
    return float(np.mean(hit))


def check_genericity(X: Shape, P: LinearSubspace, pieces, cfg: PolarConfig | None = None) -> DegeneracyReport:
    """Clearance checks on the polar pieces of a sampled plane.

    Isolated transversal contacts (image crossings, endpoint adjacency) are
    the generic picture and pass; flags fire on near-positive-dimensional
    coincidences: wall-aligned cell spans, fold tangents aligned with P-perp
    along a stretch, and image overlap over a length fraction.
    """
    cfg = cfg or PolarConfig()
    fold_violations = []
    double_points = []
    limit_adjacency = []
    diameter = X.diameter
    dist_tol = cfg.overlap_distance * diameter

    contours = [p for p in pieces if p.kind == "contour"]
    if contours and X.smooth is not None:
        u = P.orthogonal_complement().basis[0] if P.dim == X.ambient_dim - 1 else None
        for piece in contours:
            if u is None or len(piece.source_points) < 3:
                continue
            tangents = _polyline_tangents(piece.source_points)
            angles = np.arccos(np.clip(np.abs(tangents @ u), 0.0, 1.0))
            bad = float(np.min(angles))
            # a single near-tangency is a cusp (generic); a stretch is not
            if np.mean(angles < cfg.fold_angle_min) > cfg.overlap_fraction:
                fold_violations.append((piece.stratum.name, bad))

    # pairwise image overlap within each stratum, and self-overlap: flags fire
    # only when the coinciding image points have well-separated sources
    src_tol = 0.05 * diameter
    by_stratum: dict = {}
    for piece in pieces:
        if piece.kind == "contour":
            by_stratum.setdefault(id(piece.stratum), []).append(piece)
    for plist in by_stratum.values():
        for i, a in enumerate(plist):
            frac = _overlap_fraction(
                a.geometry, a.source_points, a.geometry, a.source_points, dist_tol, src_tol
            )
            if frac > cfg.overlap_fraction:
                double_points.append(("self", frac))
            for b in plist[i + 1:]:
                frac = _overlap_fraction(
                    a.geometry, a.source_points, b.geometry, b.source_points, dist_tol, src_tol
                )
                if frac > cfg.overlap_fraction:
                    double_points.append(("pair", frac))

    # adjacency of contour images to images of frontier-stratum polar sets;
    # the source-separation condition excludes the generic endpoint contact
    if X.smooth is not None:
        rims = [S for S in X.smooth.strata if S.role == "rim"]
        for piece in contours:
            for rim in rims:
                params, _ = rim.chart.grid(256)
                rim_pts = rim.chart.r(params)
                rim_img = P.coords(rim_pts)
                frac = _overlap_fraction(
                    piece.geometry, piece.source_points, rim_img, rim_pts, dist_tol, src_tol
                )
                if frac > cfg.overlap_fraction:
                    limit_adjacency.append((piece.stratum.name, rim.name, frac))

    return DegeneracyReport(
        fold_violations=fold_violations,
        double_points=double_points,
        limit_adjacency=limit_adjacency,
        span_flags=[],
    )


# ---------------------------------------------------------------------------
# the index alpha
# ---------------------------------------------------------------------------

def _geometric_normal_index(K, cell, v: np.ndarray, link: NormalLink) -> int:
    """Slow cross-check route for the PL normal index: clip the link cells at
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


def _dim_q_alphas(S: SmoothStratum, params: np.ndarray, J: np.ndarray, P: LinearSubspace) -> np.ndarray:
    """alpha at a stack of points of a stratum of dimension q, with chart
    Jacobians J: the slice meets the stratum in the point itself, so alpha
    is 1 on a top stratum.  On a rim or solid boundary exactly one of the two
    slice branches is empty, so alpha is 1/2, unless a conormal is tangent to
    the image normal."""
    if S.role == "top":
        return np.ones(len(params))
    nu = image_normals(J, P)
    w = S.inward_conormal(params)
    if np.any(np.abs(np.einsum("ij,ij->i", nu, w)) < 1e-9):
        raise DegenerateDirectionError("conormal tangent to the image normal")
    return np.full(len(params), 0.5)


def _fold_alpha_slice_chi(X: Shape, S: SmoothStratum, params, P, cfg) -> float:
    """Slow cross-check route for alpha at a fold: build the slice curve and
    count level-set points.

    Follows the curve through the fold along the kernel direction and counts
    solutions of <nu, y> = <nu, x> - delta inside the epsilon ball; the index
    is 1 - (that count), evaluated for both conormal signs.
    """
    # nu: normal of the image curve inside P; at a fold it is also normal to S
    _, normal = frames(S, params)
    nu = normal[0] - P.orthogonal_complement().project(normal[0])
    nrm = np.linalg.norm(nu)
    if nrm < 1e-12:
        raise DegenerateDirectionError("stratum normal orthogonal to the plane")
    nu = nu / nrm
    diameter = X.diameter
    delta = cfg.slice_delta * diameter
    eps = cfg.slice_epsilon * diameter
    x0 = S.chart.r(np.asarray(params, dtype=float))
    # march the slice curve in the chart: directions solving the constraints
    # <w_j, y - x0> = 0 for w_j spanning P meet nu-perp
    w_dirs = _slice_constraint_dirs(P, nu)
    pts = _march_slice_curve(S, params, w_dirs, x0, eps, diameter)
    vals = (pts - x0) @ nu
    counts = {}
    for sign in (1.0, -1.0):
        f = sign * vals - (-delta)
        crossings = int(np.sum(f[:-1] * f[1:] < 0))
        counts[sign] = 1 - crossings
    return 0.5 * (counts[1.0] + counts[-1.0])


def _slice_constraint_dirs(P: LinearSubspace, nu: np.ndarray) -> np.ndarray:
    basis = P.basis
    coords = basis @ nu
    # orthonormal directions of P orthogonal to nu
    u, s, vt = np.linalg.svd(coords[None, :], full_matrices=True)
    rest = vt[1:]
    return rest @ basis


def _march_slice_curve(S, params0, w_dirs, x0, eps, diameter, steps=400):
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
            p = _project_onto_constraints(S, p, w_dirs, x0)
            x = chart.r(p)
            if np.linalg.norm(x - x0) > eps:
                break
            side.append(x)
        if direction == 1.0:
            out = side[::-1] + [x0]
        else:
            out = out + side
    return np.array(out)


def _project_onto_constraints(S, p, w_dirs, x0, iters=25):
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


def alpha_index(X: Shape, stratum, source, P: LinearSubspace, cfg: PolarConfig | None = None) -> float:
    """The image weight at one regular polar point.

    ``source`` is a cell for PL shapes, or (chart params, ambient point) for
    smooth strata.  The result is a half-integer.
    """
    cfg = cfg or PolarConfig()
    q = P.dim - 1
    if X.pl is not None:
        K = X.pl
        cell = tuple(sorted(stratum))
        return pl_alpha(K, cell, image_normal(K.cell_span(cell), P))
    S = stratum
    params, point = source
    if S.dim == q:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return float(_dim_q_alphas(S, params, S.chart.dr(params), P)[0])
    if q == 0:
        return _alpha_q0(S, params, P.basis[0])
    # fold point of a surface stratum
    alphas, valid = _fold_alphas_batch(S, params, P.orthogonal_complement().basis[0], cfg)
    if not valid[0]:
        raise DegenerateDirectionError("vanishing fold curvature (cusp)")
    return float(alphas[0])


def _alpha_q0(S: SmoothStratum, params, v: np.ndarray) -> float:
    H = S.chart.d2r(np.asarray(params, dtype=float)) @ v
    J = S.chart.dr(np.asarray(params, dtype=float))
    q, r = np.linalg.qr(J.T)
    rinv = np.linalg.inv(r.T)
    eig = np.linalg.eigvalsh(rinv @ H @ rinv.T)
    lam = int(np.sum(eig < 0))
    d = S.dim
    ind_down = (-1) ** lam
    ind_up = (-1) ** (d - lam)
    if S.role in ("rim", "solid_boundary"):
        w = np.atleast_2d(S.inward_conormal(np.atleast_2d(params)))[0]
        dot = float(v @ w)
        if abs(dot) < 1e-9:
            raise DegenerateDirectionError("conormal wall at a critical point")
        ind_down *= 1 if dot > 0 else 0
        ind_up *= 1 if -dot > 0 else 0
    return 0.5 * (ind_down + ind_up)


# ---------------------------------------------------------------------------
# image integrals and polar lengths
# ---------------------------------------------------------------------------

def _region_mask(X: Shape, pts: np.ndarray) -> np.ndarray:
    if X.region is None:
        return np.ones(len(pts), dtype=bool)
    return np.asarray(X.region(pts), dtype=bool)


def polar_image_integral(X: Shape, stratum, P: LinearSubspace, cfg: PolarConfig | None = None,
                         pieces=None) -> float:
    """Integral of alpha over the polar image of one stratum (q-volume)."""
    cfg = cfg or PolarConfig()
    if pieces is None:
        pieces = polar_variety(X, stratum, P, cfg)
    total = 0.0
    for val in _piece_values(X, pieces, P, cfg):
        total += val
    return total


def _piece_values(X: Shape, pieces, P: LinearSubspace, cfg: PolarConfig) -> list[float]:
    """The alpha-weighted image volume of each piece, in piece order."""
    if X.pl is not None:
        return _pl_piece_values(X, pieces, P)
    return [_piece_integral(X, piece, P, cfg) for piece in pieces]


def _pl_piece_values(X: Shape, pieces, P: LinearSubspace) -> list[float]:
    """Cell pieces: the q-cells get alpha times projected volume, with the
    image normals, alphas and volumes of all of them in stacked calls; lower
    cells get 0, since their images have measure zero."""
    q = P.dim - 1
    at = [i for i, piece in enumerate(pieces) if len(piece.stratum) - 1 == q]
    vals = [0.0] * len(pieces)
    if at:
        if X.region is not None:
            raise NotImplementedError("region restriction on PL polar images")
        K = X.pl
        rows = [K.plan.rows[pieces[i].stratum] for i in at]
        alphas = pl_alpha_many(K, q, rows, image_normals(K.plan.spans[q][rows], P))
        vols = simplex_volumes(np.stack([pieces[i].geometry for i in at]))
        for i, val in zip(at, (alphas * vols).tolist()):
            vals[i] = val
    return vals


def _piece_integral(X: Shape, piece: PolarPiece, P: LinearSubspace, cfg: PolarConfig) -> float:
    """One piece of a smooth shape (cell pieces go through _pl_piece_values)."""
    q = P.dim - 1
    if piece.kind == "points":
        if q != 0:
            return 0.0
        total = 0.0
        mask = _region_mask(X, piece.source_points)
        for params, point, keep in zip(piece.source_params, piece.source_points, mask):
            if not keep:
                continue
            total += alpha_index(X, piece.stratum, (params, point), P, cfg)
        return total
    if piece.kind == "whole":
        return _whole_stratum_integral(X, piece.stratum, P)
    if piece.kind == "contour":
        return _contour_integral(X, piece, P, cfg)
    raise ValueError(f"unknown piece kind {piece.kind}")


def _whole_stratum_integral(X: Shape, S: SmoothStratum, P: LinearSubspace) -> float:
    q = P.dim - 1
    if S.dim != q:
        return 0.0  # image of a lower-dimensional stratum has measure zero
    res = 128 if S.dim == 1 else 64
    params, w = S.chart.grid(res)
    pts = S.chart.r(params)
    J = S.chart.dr(params)  # (N, d, n)
    Jp = J @ P.basis.T  # projected chart Jacobian
    gram = Jp @ np.swapaxes(Jp, -1, -2)
    if S.dim == 1:
        element = np.sqrt(np.maximum(gram[..., 0, 0], 0.0))
    else:
        element = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    mask = _region_mask(X, pts)
    keep = mask & (element >= 1e-14)
    alphas = np.zeros(len(params))
    if np.any(keep):
        alphas[keep] = _dim_q_alphas(S, params[keep], J[keep], P)
    return float(math.fsum((w * element * alphas * mask).tolist()))


def _fold_alphas_batch(S: SmoothStratum, params: np.ndarray, u: np.ndarray, cfg: PolarConfig):
    """(alphas, valid) at a batch of fold points of a top stratum.

    At a fold the projection kernel is spanned by u itself, so the slice
    curvature is II_{x,nu}(u, u); a clean fold makes the downward index of
    one conormal sign +1 and the other -1, hence alpha = 0.  Points with
    |curvature| below tolerance are cusp-like and flagged invalid.
    """
    params = np.atleast_2d(params)
    J = S.chart.dr(params)  # (N, 2, 3)
    nu = np.cross(J[:, 0], J[:, 1])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)
    # chart coordinates of u: solve (J J^T) c = J u
    G = J @ np.swapaxes(J, -1, -2)
    rhs = J @ u
    c = np.linalg.solve(G, rhs[..., None])[..., 0]
    c2 = np.einsum("pi,pij,pj->p", c, H, c)
    # normalize against |u_tangential|^2 so the cusp test is scale-free
    tang2 = np.einsum("pi,pij,pj->p", c, G, c)
    curv = c2 / np.maximum(tang2, 1e-300)
    valid = np.abs(curv) > cfg.curvature_tol
    ind_plus = np.where(curv > 0, 1.0, -1.0)  # +nu conormal: min -> +1, max -> -1
    ind_minus = np.where(-curv > 0, 1.0, -1.0)
    alphas = 0.5 * (ind_plus + ind_minus)
    return alphas, valid


def _contour_integral(X: Shape, piece: PolarPiece, P: LinearSubspace, cfg: PolarConfig) -> float:
    geo = piece.geometry
    params = piece.source_params
    if len(geo) < 2:
        return 0.0
    u = P.orthogonal_complement().basis[0]
    S = piece.stratum
    seg_len = np.linalg.norm(geo[1:] - geo[:-1], axis=1)
    mids = _snap_to_contour_batch(S, 0.5 * (params[:-1] + params[1:]), u)
    alphas, valid = _fold_alphas_batch(S, mids, u, cfg)
    mask = np.ones(len(mids), dtype=bool)
    if X.region is not None:
        mask = np.asarray(X.region(S.chart.r(mids)), dtype=bool)
    length = float(np.sum(seg_len))
    skipped = float(np.sum(seg_len[~valid]))
    if length > 0 and skipped > 0.05 * length:
        raise DegeneratePlaneError(msg="too much of a fold image near cusps")
    keep = valid & mask
    return float(math.fsum((alphas[keep] * seg_len[keep]).tolist()))


def polar_sample(X: Shape, P: LinearSubspace, cfg: PolarConfig | None = None) -> PolarSample:
    """All polar pieces of the shape for one plane, with genericity checks
    and alpha weights attached."""
    cfg = cfg or PolarConfig()
    q = P.dim - 1
    try:
        if X.pl is not None:
            pieces = _pl_polar_pieces(X, P, q, cfg)
        else:
            pieces = []
            for S in X.smooth.strata:
                pieces.extend(_smooth_polar_pieces(X, S, P, q, cfg, None))
    except (DegeneratePlaneError,) as err:
        return PolarSample(plane=P, pieces=(), degenerate=True, report=err.report)
    except (DegenerateDirectionError, DegenerateHeightError):
        return PolarSample(plane=P, pieces=(), degenerate=True, report=DegeneracyReport(fold_violations=["height"]))
    report = check_genericity(X, P, pieces, cfg)
    if not report.clean:
        return PolarSample(plane=P, pieces=(), degenerate=True, report=report)
    return PolarSample(plane=P, pieces=tuple(pieces), degenerate=False, report=report)


@dataclass(frozen=True)
class PolarLengthResult:
    estimate: Estimate
    n_planes: int
    n_rejected: int
    per_plane: list  # (plane basis flattened, {stratum: m}, degenerate reasons)
    reject_reasons: dict


def polar_length(
    X: Shape,
    q: int,
    n_planes: int,
    rng: RandomSource,
    cfg: PolarConfig | None = None,
    keep_rows: bool = False,
) -> PolarLengthResult:
    """Monte-Carlo q-th polar length: the dimensional constant times the mean
    over uniform planes of the alpha-weighted polar image volume."""
    cfg = cfg or PolarConfig()
    n = X.ambient_dim
    if not 0 <= q <= n:
        raise ValueError(f"q={q} out of range")
    seed = rng.master_seed
    if q == n:
        vol = _top_volume(X)
        est = Estimate(vol, 0.0, 1, seed, method="volume")
        return PolarLengthResult(est, 0, 0, [], {})
    if q > X.dim:
        est = Estimate(0.0, 0.0, 1, seed, method="dimension")
        return PolarLengthResult(est, 0, 0, [], {})

    reject_reasons: dict = {}
    rows = []
    rejected = [0]

    def one(i: int):
        gen = rng.substream(i).generator()
        for _ in range(cfg.max_resamples):
            P = sample_grassmannian(n, q + 1, gen)
            sample = polar_sample(X, P, cfg)
            if sample.degenerate:
                rejected[0] += 1
                reasons = sample.report.reasons() or ["other"]
                for r in reasons:
                    reject_reasons[r] = reject_reasons.get(r, 0) + 1
                if keep_rows:
                    rows.append((i, P.basis.copy(), {}, "+".join(reasons)))
                continue
            try:
                vals = _piece_values(X, sample.pieces, P, cfg)
            except (DegeneratePlaneError, DegenerateDirectionError):
                rejected[0] += 1
                reject_reasons["alpha"] = reject_reasons.get("alpha", 0) + 1
                if keep_rows:
                    rows.append((i, P.basis.copy(), {}, "alpha"))
                continue
            m = 0.0
            for val in vals:  # in piece order, so that a fixed seed gives fixed bits
                m += val
            if keep_rows:
                per_stratum: dict = {}
                for piece, val in zip(sample.pieces, vals):
                    key = _stratum_key(piece.stratum)
                    per_stratum[key] = per_stratum.get(key, 0.0) + val
                rows.append((i, P.basis.copy(), per_stratum, ""))
            return m
        raise RuntimeError(
            f"plane resample quota exceeded; rejection histogram: {reject_reasons}"
        )

    values = [one(i) for i in range(n_planes)]

    const = polar_length_constant(n, q)
    est = mean_estimate(values, seed=seed, method="polar-mc").scaled(const)
    return PolarLengthResult(
        estimate=est,
        n_planes=n_planes,
        n_rejected=rejected[0],
        per_plane=rows,
        reject_reasons=reject_reasons,
    )


def _stratum_key(stratum) -> str:
    if isinstance(stratum, SmoothStratum):
        return stratum.name
    return "cell" + "-".join(str(v) for v in stratum)


def _top_volume(X: Shape) -> float:
    n = X.ambient_dim
    if X.pl is not None:
        if X.region is not None:
            raise NotImplementedError("region restriction on PL volumes")
        return math.fsum(X.pl.cell_volume(c) for c in X.pl.cells.get(n, []))
    total = 0.0
    for S in X.smooth.strata:
        if S.role == "solid":
            if X.region is not None:
                raise NotImplementedError("region restriction on solid volumes")
            total += S.volume
    return total


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
            return weight * _count_segment_crossings(segments, o, d)
        return weight * _count_triangle_crossings(segments, o, d)

    vals = [one(i) for i in range(n_lines)]
    est = mean_estimate(vals, seed=rng.master_seed, method="crofton")
    return est.scaled(1.0 / beta_coeff(m, 1))


def _count_segment_crossings(segments, o, d) -> int:
    a = segments[:, 0]
    b = segments[:, 1]
    nrm = np.array([-d[1], d[0]])
    fa = (a - o) @ nrm
    fb = (b - o) @ nrm
    cross = fa * fb < 0
    # crossing parameter along the line must exist (always does for a line)
    return int(np.sum(cross))


def _count_triangle_crossings(triangles, o, d) -> int:
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
