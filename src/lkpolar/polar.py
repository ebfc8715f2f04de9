"""Polar varieties, polar images, and polar lengths.

For a projection plane P of dimension q+1 the per-stratum pipeline is:

  1. find the polar set of each stratum (critical locus of the projection):
     whole strata of dimension <= q, the traced silhouette for a surface
     stratum seen along P-perp, height critical points at q = 0.  On a PL
     shape, after the span check of every cell below the top dimension,
     only the q-cells are projected and valued, as one stack in plan-row
     order: a lower cell is polar whole too, but its image has no q-volume;
  2. run degeneracy clearances (wall alignment, image overlap, limit
     adjacency) and resample the plane when one trips - the bad planes form
     measure-zero sets, so a uniform plane essentially never trips them;
  3. weight each regular image point with the index alpha (half-sum of the
     downward and upward slice Morse indices) and integrate over the image.
     A fold of a top stratum is not integrated: alpha is 0 all along it, as
     the normal index is 1 along both normals +-nu, so its value is 0.0;
  4. average over uniform planes and apply the dimensional constant.

A polar call on a smooth shape shares what does not depend on the plane:
at q = 1 each surface stratum's trace-grid normals are built once per call,
and at q = 0 a block of lines runs one stacked Newton solve per stratum.

The q-th polar length obtained this way equals the q-th curvature measure;
that identity is what the verification suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geomkit import (
    Estimate,
    LinearSubspace,
    RandomSource,
    each_draw,
    image_normals,
    mean_estimate,
    per_sample_values,
    polar_length_constant,
    sample_grassmannian,
    simplex_volumes,
)
from .lkmeasure import Shape
from .plstrata import DegenerateDirectionError, pl_alpha_many
from .smoothshape import (
    CriticalPoint,
    DegenerateHeightError,
    SmoothStratum,
    height_critical_points,
    height_critical_points_many,
    height_hessian_eigenvalues,
    hypersurface_normals,
    normal_index,
    normal_index_many,
)

__all__ = [
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
]


# Thresholds of the polar pipeline (angles in radians, distances relative to
# the shape diameter)
TRACE_GRID = 256  # sign-grid cells per chart axis of silhouette tracing
CHORD_TOL = 1e-6  # largest gap between a traced polyline and its fold
FOLD_ANGLE_MIN = 1e-4  # fold tangents this close to P-perp are aligned
OVERLAP_DISTANCE = 1e-4  # image points this close coincide
OVERLAP_FRACTION = 0.05  # share of coinciding or aligned points that flags a plane
SPAN_ANGLE_MIN = 1e-4  # cell spans this close to meeting P-perp are flagged
SPAN_RANK_TOL = 1e-8  # cosines within this of 1 count as a shared direction
CURVATURE_TOL = 1e-7  # fold slice curvature below this is a cusp


@dataclass(frozen=True)
class PolarPiece:
    """One connected piece of the polar set of one stratum.

    kind is "cell" (a PL cell taken whole, from :func:`polar_variety`),
    "whole" (a smooth stratum of dimension <= q taken whole), "contour" (a
    traced fold curve) or "points" (height critical points at q = 0, with
    their Morse indices).
    ``geometry`` lives in P-coordinates.  A closed contour ends with a copy
    of its first point, so that its closing segment is explicit.
    """

    stratum: object
    kind: str
    geometry: np.ndarray
    source_params: np.ndarray | None = None
    source_points: np.ndarray | None = None
    closed: bool = False
    morse_indices: np.ndarray | None = None


@dataclass(frozen=True)
class DegeneracyReport:
    fold_violations: list = field(default_factory=list)
    double_points: list = field(default_factory=list)
    limit_adjacency: list = field(default_factory=list)
    span_flags: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.reasons()

    def reasons(self) -> list[str]:
        flags = (self.fold_violations, self.double_points, self.limit_adjacency, self.span_flags)
        return [name for name, flag in zip(("fold", "double", "limit", "span"), flags) if flag]


@dataclass(frozen=True)
class PolarSample:
    plane: LinearSubspace
    pieces: tuple[PolarPiece, ...]  # of a smooth shape
    degenerate: bool
    report: DegeneracyReport
    cell_images: np.ndarray | None = None  # of a PL shape's q-cells, in plan-row order


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
    return hypersurface_normals(S.chart.dr(params))


def _silhouette_value(S: SmoothStratum, params: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _surface_normals(S, np.atleast_2d(params)) @ u


def _snap_to_contour_batch(S, P: np.ndarray, u, iters=25, min_steps=0):
    """Gradient-step refinement of chart points onto {<nu, u> = 0}, batched.

    Every point takes the same steps, which stop once all of them lie within
    1e-12 of the contour, but not before step ``min_steps``.  Returns the
    points and, for each, the first step at which it lay within 1e-12
    (``iters`` if none)."""
    P = np.atleast_2d(np.asarray(P, dtype=float)).copy()
    first = np.full(len(P), iters)
    h = 1e-7
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    for k in range(iters):
        g = _silhouette_value(S, P, u)
        near = np.abs(g) < 1e-12
        first[near & (first == iters)] = k
        if k >= min_steps and np.all(near):
            break
        g0 = (_silhouette_value(S, P + e0, u) - _silhouette_value(S, P - e0, u)) / (2 * h)
        g1 = (_silhouette_value(S, P + e1, u) - _silhouette_value(S, P - e1, u)) / (2 * h)
        n2 = np.maximum(g0 * g0 + g1 * g1, 1e-18)
        P[:, 0] -= g * g0 / n2
        P[:, 1] -= g * g1 / n2
    return P, first


def _trace_grid_normals(S: SmoothStratum) -> np.ndarray:
    """The unit normals of a surface stratum at the nodes of its sign grid,
    (i, j) at row i * nx1 + j.  They do not depend on the plane, so a polar
    call builds them once per stratum."""
    chart = S.chart
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    per = chart.periodic
    nx0, nx1 = nx = [TRACE_GRID if p else TRACE_GRID + 1 for p in per]
    axes = [np.linspace(lo[i], hi[i], nx[i], endpoint=not per[i]) for i in range(2)]
    P = np.empty((nx0, nx1, 2))
    P[..., 0] = axes[0][:, None]
    P[..., 1] = axes[1]
    return _surface_normals(S, P.reshape(-1, 2))


def trace_silhouette(S: SmoothStratum, u: np.ndarray, diameter: float, *,
                     normals: np.ndarray | None = None):
    """Polylines of {x in S : normal(x) orthogonal to span(u)} via a sign grid with
    bisected edge crossings, chained per cell and refined to the chord
    tolerance.  Returns a list of (params_array, points_array, closed); a
    closed polyline ends with its first point, whose chart parameters are
    unwrapped against the last one.

    The sign grid is ``normals @ u``, from the grid normals of
    :func:`_trace_grid_normals`, which a polar call builds once for all its
    planes; they are built here when not given, with the same bits.
    Cells and edges are classified as arrays.  Node (i, j) of the grid is
    i * nx1 + j; the edge from it along axis 0 has that id, the edge along
    axis 1 that id plus nx0 * nx1, with indices wrapped on periodic axes."""
    chart = S.chart
    g = TRACE_GRID
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    per = chart.periodic
    nx0, nx1 = [g if p else g + 1 for p in per]
    steps = (hi - lo) / g
    if normals is None:
        normals = _trace_grid_normals(S)
    vals = (normals @ u).reshape(nx0, nx1)

    # corner signs of every cell, on views of the grid padded by its first
    # row or column along a periodic axis
    ext = vals
    if per[0]:
        ext = np.concatenate([ext, ext[:1]], axis=0)
    if per[1]:
        ext = np.concatenate([ext, ext[:, :1]], axis=1)
    neg, pos = ext < 0, ext > 0
    active = ((neg[:-1, :-1] | neg[1:, :-1] | neg[1:, 1:] | neg[:-1, 1:])
              & (pos[:-1, :-1] | pos[1:, :-1] | pos[1:, 1:] | pos[:-1, 1:]))
    ci, cj = np.divmod(np.flatnonzero(active), active.shape[1])
    if len(ci) == 0:
        return []
    f = np.stack([ext[ci, cj], ext[ci + 1, cj], ext[ci + 1, cj + 1], ext[ci, cj + 1]], axis=1)
    ip = (ci + 1) % nx0 if per[0] else ci + 1
    jp = (cj + 1) % nx1 if per[1] else cj + 1
    off = nx0 * nx1
    # the cell's edges in the order bottom, right, top, left
    ids = np.stack([ci * nx1 + cj, off + ip * nx1 + cj, ci * nx1 + jp, off + ci * nx1 + cj], axis=1)
    crossed = f[:, [0, 1, 3, 0]] * f[:, [1, 2, 2, 3]] < 0
    count = crossed.sum(axis=1)

    # one segment per two-crossing cell, two per saddle cell, paired by the
    # sign at the cell centre
    segs = np.zeros((len(ci), 2, 2), dtype=np.int64)
    keep = np.zeros((len(ci), 2), dtype=bool)
    two = np.flatnonzero(count == 2)
    pair = np.argsort(~crossed[two], axis=1, kind="stable")[:, :2]
    segs[two, 0] = np.take_along_axis(ids[two], pair, axis=1)
    keep[two, 0] = True
    four = np.flatnonzero(count == 4)
    if len(four):
        centre = lo + (np.stack([ci[four], cj[four]], axis=1) + 0.5) * steps
        same = (_silhouette_value(S, centre, u) > 0) == (f[four, 0] > 0)
        e = ids[four]
        segs[four, 0] = np.where(same[:, None], e[:, [0, 1]], e[:, [0, 3]])
        segs[four, 1] = np.where(same[:, None], e[:, [2, 3]], e[:, [1, 2]])
        keep[four] = True
    segments = segs[keep].tolist()

    # bisection of every crossed edge, in the order the cells first name them
    named = ids[crossed]
    _, first_seen = np.unique(named, return_index=True)
    pending = named[np.sort(first_seen)]
    i, j = np.divmod(pending % off, nx1)
    along1 = pending >= off
    A = lo + np.stack([i, j], axis=1) * steps
    B = lo + np.stack([i + ~along1, j + along1], axis=1) * steps
    FA = vals[i, j]
    for _ in range(40):
        M = 0.5 * (A + B)
        FM = _silhouette_value(S, M, u)
        right = FA * FM <= 0
        np.copyto(B, M, where=right[:, None])
        np.copyto(A, M, where=~right[:, None])
        np.copyto(FA, FM, where=~right)
    M = 0.5 * (A + B)
    row = np.empty(2 * off, dtype=np.int64)
    row[pending] = np.arange(len(pending))

    out = []
    for chain, closed in _chain_segments(segments):
        if closed:
            chain.append(chain[0])
        params = _unwrap_params(M[row[chain]], lo, hi, per)
        params = _refine_polyline(S, params, u, CHORD_TOL * diameter)
        out.append((params, chart.r(params), closed))
    return out


def _chain_segments(segments: list) -> list:
    """Chain segments (pairs of edge ids) into maximal walks: open ones from
    their ends first, then closed loops.  Returns (edge ids, closed) pairs."""
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
            for cand in adjacency[cur]:
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
    chains = []
    visited = set()
    for start in ends + list(adjacency):
        if start in visited or not any((start, c) in unused for c in adjacency[start]):
            continue
        chain, closed = walk(start)
        visited.update(chain)
        chains.append((chain, closed))
    return chains


def _unwrap_params(params, lo, hi, periodic):
    """Shift chart parameters by whole periods so that no step along the
    polyline jumps by more than half a period."""
    out = params.copy()
    for i in range(params.shape[1]):
        if not periodic[i]:
            continue
        span = hi[i] - lo[i]
        d = np.diff(params[:, i])
        for r in np.flatnonzero(np.abs(d) > span / 2) + 1:
            out[r:, i] += span if d[r - 1] < 0 else -span
    return out


def _refine_polyline(S, params, u, tol, max_depth=8):
    """Split every segment whose snapped midpoint lies farther than tol from
    its chord, for up to max_depth rounds.

    Only open segments are snapped: every segment in the first round, then
    the two halves of each split one, since a segment that passed keeps its
    endpoints.  The snap of a round still takes as many steps as the slowest
    midpoint of the whole polyline took to settle, so the points equal those
    of re-snapping every midpoint in every round."""
    pts = np.asarray(params, dtype=float)
    X = S.chart.r(pts)
    seg = np.arange(len(pts) - 1)  # the open segments
    took = np.zeros(len(seg), dtype=int)  # steps each segment's midpoint took to settle
    for _ in range(max_depth):
        passed = np.ones(len(took), dtype=bool)
        passed[seg] = False
        mids, took[seg] = _snap_to_contour_batch(
            S, 0.5 * (pts[seg] + pts[seg + 1]), u, min_steps=took[passed].max(initial=0))
        Xm = S.chart.r(mids)
        split = np.linalg.norm(Xm - 0.5 * (X[seg] + X[seg + 1]), axis=1) > tol
        if not np.any(split):
            break
        at = seg[split] + 1
        pts = np.insert(pts, at, mids[split], axis=0)
        X = np.insert(X, at, Xm[split], axis=0)
        took = np.insert(took, at, 0)
        # a split segment k becomes k + s and k + s + 1, s splits before it
        seg = at - 1 + np.arange(len(at))
        seg = np.stack([seg, seg + 1], axis=1).ravel()
    return pts


# ---------------------------------------------------------------------------
# polar varieties
# ---------------------------------------------------------------------------

def _pl_span_check(K, P: LinearSubspace) -> None:
    """Raise DegeneratePlaneError if the span of a cell below the top
    dimension is flagged against P-perp (see :func:`_span_flags`)."""
    comp = P.orthogonal_complement().basis
    span_flags = []
    for d, cells in K.cells.items():
        if d == K.ambient_dim:
            continue
        flags, inter_dim, clearance = _span_flags(K.plan.spans[d], comp)
        span_flags.extend(
            (cells[i], int(inter_dim[i]), float(clearance[i])) for i in np.flatnonzero(flags))
    if span_flags:
        raise DegeneratePlaneError(DegeneracyReport(span_flags=span_flags))


def _span_flags(spans: np.ndarray, comp: np.ndarray):
    """The principal angles of each (d, n) span of a stack against the
    complement ``comp`` of the plane, with one stacked SVD, and which spans
    it flags: those meeting ``comp`` beyond the generic dimension, or within
    SPAN_ANGLE_MIN of doing so.  Returns (flags, dims, clearances)."""
    count, d, n = spans.shape
    c = comp.shape[0]
    if d == 0 or c == 0:
        return np.zeros(count, dtype=bool), np.zeros(count, dtype=int), np.full(count, math.pi / 2)
    sv = np.clip(np.linalg.svd(spans @ comp.T, compute_uv=False), -1.0, 1.0)
    inter_dim = np.sum(sv > 1.0 - SPAN_RANK_TOL, axis=1)
    # singular values fall, so the first one past the intersection is the
    # clearance; a zero column stands for "none left" (arccos 0 = pi/2)
    rest = np.concatenate([sv, np.zeros((count, 1))], axis=1)[np.arange(count), inter_dim]
    clearance = np.arccos(rest)
    expected = max(0, d + c - n)
    flags = (inter_dim > expected) | (
        (expected < min(d, c)) & (clearance < SPAN_ANGLE_MIN))
    return flags, inter_dim, clearance


def _smooth_polar_pieces(X: Shape, S: SmoothStratum, P: LinearSubspace, q: int,
                         grids: dict) -> list[PolarPiece]:
    """The polar pieces of one smooth stratum.  ``grids`` holds the trace-grid
    normals of the surface strata by name; a missing entry is built and
    kept there, so that the planes of one polar call share it."""
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
                morse_indices=np.array([c.morse_index for c in crits]),
            )
        ]
    if S.dim == 2 and n == 3 and q == 1:
        u = P.orthogonal_complement().basis[0]
        if S.name not in grids:
            grids[S.name] = _trace_grid_normals(S)
        traced = trace_silhouette(S, u, X.diameter, normals=grids[S.name])
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


def polar_variety(X: Shape, stratum, P: LinearSubspace):
    """Polar pieces of one stratum under the projection onto P.  A PL cell
    of dimension <= q is polar whole; above q, generic transversality
    leaves no polar points."""
    q = P.dim - 1
    if X.pl is None:
        return _smooth_polar_pieces(X, stratum, P, q, {})
    K = X.pl
    cell = tuple(sorted(stratum))
    _pl_span_check(K, P)
    if cell not in K.plan.rows or len(cell) - 1 > q:
        return []
    pts = K.vertices[list(cell)]
    return [PolarPiece(stratum=cell, kind="cell", geometry=pts @ P.basis.T, source_points=pts)]


# ---------------------------------------------------------------------------
# degeneracy checks
# ---------------------------------------------------------------------------

def _polyline_tangents(points: np.ndarray) -> np.ndarray:
    d = np.gradient(points, axis=0)
    return d / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)


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


def check_genericity(X: Shape, P: LinearSubspace, pieces) -> DegeneracyReport:
    """Clearance checks on the polar pieces of a sampled plane.

    Isolated transversal contacts (image crossings, endpoint adjacency) are
    the generic picture and pass; flags fire on near-positive-dimensional
    coincidences: wall-aligned cell spans, fold tangents aligned with P-perp
    along a stretch, and image overlap over a length fraction.
    """
    fold_violations = []
    double_points = []
    limit_adjacency = []
    diameter = X.diameter
    dist_tol = OVERLAP_DISTANCE * diameter

    contours = [p for p in pieces if p.kind == "contour"]
    if contours:
        # contours are traced on surfaces in R^3 at q = 1 only, so P is a
        # plane with one normal u
        u = P.orthogonal_complement().basis[0]
        for piece in contours:
            if len(piece.source_points) < 3:
                continue
            tangents = _polyline_tangents(piece.source_points)
            angles = np.arccos(np.clip(np.abs(tangents @ u), 0.0, 1.0))
            bad = float(np.min(angles))
            # a single near-tangency is a cusp (generic); a stretch is not
            if np.mean(angles < FOLD_ANGLE_MIN) > OVERLAP_FRACTION:
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
            if frac > OVERLAP_FRACTION:
                double_points.append(("self", frac))
            for b in plist[i + 1:]:
                frac = _overlap_fraction(
                    a.geometry, a.source_points, b.geometry, b.source_points, dist_tol, src_tol
                )
                if frac > OVERLAP_FRACTION:
                    double_points.append(("pair", frac))

    # adjacency of contour images to images of frontier-stratum polar sets;
    # the source-separation condition excludes the generic endpoint contact
    rims = []
    if contours:
        for rim in X.smooth.strata:
            if rim.role == "rim":
                rim_pts = rim.chart.r(rim.chart.grid(256)[0])
                rims.append((rim.name, rim_pts, P.coords(rim_pts)))
    for piece in contours:
        for name, rim_pts, rim_img in rims:
            frac = _overlap_fraction(
                piece.geometry, piece.source_points, rim_img, rim_pts, dist_tol, src_tol
            )
            if frac > OVERLAP_FRACTION:
                limit_adjacency.append((piece.stratum.name, name, frac))

    return DegeneracyReport(
        fold_violations=fold_violations,
        double_points=double_points,
        limit_adjacency=limit_adjacency,
        span_flags=[],
    )


# ---------------------------------------------------------------------------
# the index alpha
# ---------------------------------------------------------------------------

def _dim_q_alphas(S: SmoothStratum, params: np.ndarray, J: np.ndarray, P: LinearSubspace) -> np.ndarray:
    """alpha at a stack of points of a stratum of dimension q, with chart
    Jacobians J: the slice meets the stratum in the point itself, whose
    index is 1 along both image normals +-nu, so alpha is the half-sum of the
    normal indices along +-nu: 1 on a top stratum, where the normal index is
    1 along every direction, and 1/2 on a rim or solid boundary.  The image
    is a hypersurface of P, so nu is its normal there."""
    if S.role == "top":
        return np.ones(len(params))
    nu = hypersurface_normals(J @ P.basis.T) @ P.basis
    return 0.5 * (normal_index(S, params, nu) + normal_index(S, params, -nu))


def alpha_index(X: Shape, stratum, source, P: LinearSubspace) -> float:
    """The image weight at one regular polar point.

    ``source`` is a cell for PL shapes, or (chart params, ambient point) for
    smooth strata.  The result is a half-integer.
    """
    q = P.dim - 1
    if X.pl is not None:
        K = X.pl
        cell = tuple(sorted(stratum))
        return float(_pl_alphas(K, len(cell) - 1, [K.plan.rows[cell]], P)[0])
    S = stratum
    params, point = source
    if S.dim == q:
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return float(_dim_q_alphas(S, params, S.chart.dr(params), P)[0])
    if q == 0:
        v = P.basis[0]
        crit = CriticalPoint(params, point, height_hessian_eigenvalues(S, params, v))
        return float(_q0_alphas(S, params, v, crit.morse_index)[0])
    # fold point of a surface stratum
    alphas, valid = _fold_alphas_batch(S, params, P.orthogonal_complement().basis[0])
    if not valid[0]:
        raise DegenerateDirectionError("vanishing fold curvature (cusp)")
    return float(alphas[0])


def _pl_alphas(K, d: int, rows, P: LinearSubspace) -> np.ndarray:
    """alpha of the d-cells at the plan rows ``rows`` on the plane P: the
    half-sums of their normal indices along +-(image normal)."""
    nus, degenerate = image_normals(K.plan.spans[d][rows], P.basis)
    if degenerate.any():
        raise DegenerateDirectionError("projection of the span is degenerate")
    return pl_alpha_many(K, d, rows, nus)


def _q0_alphas(S: SmoothStratum, params, v: np.ndarray, morse_indices) -> np.ndarray:
    """alpha at a stack of critical points of the height <v, .> with the
    given Morse indices lam: the half-sum of the downward slice index
    (-1)^lam times the normal index along v and the upward one
    (-1)^(dim - lam) times the normal index along -v."""
    down = (-1.0) ** morse_indices * normal_index(S, params, v)
    up = (-1.0) ** (S.dim - morse_indices) * normal_index(S, params, -v)
    return 0.5 * (down + up)


# ---------------------------------------------------------------------------
# image integrals and polar lengths
# ---------------------------------------------------------------------------

def polar_image_integral(X: Shape, stratum, P: LinearSubspace, pieces=None) -> float:
    """Integral of alpha over the polar image of one stratum (q-volume)."""
    if pieces is None:
        pieces = polar_variety(X, stratum, P)
    if X.pl is None:
        return _sum_in_order(_piece_values(X, pieces, P))
    cells = [p for p in pieces if len(p.stratum) == P.dim]  # lower images have no q-volume
    if not cells:
        return 0.0
    rows = [X.pl.plan.rows[p.stratum] for p in cells]
    return _sum_in_order(_pl_cell_values(X, np.stack([p.geometry for p in cells]), rows, P))


def _sum_in_order(values) -> float:
    """0.0 plus each value in turn, so that a fixed seed gives fixed bits
    (cumsum adds in order; np.sum adds pairwise)."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def _pl_cell_values(X: Shape, images: np.ndarray, rows, P: LinearSubspace) -> np.ndarray:
    """alpha times image q-volume of the q-cells at the plan rows ``rows``,
    whose (C, q + 1, q + 1) images on P are ``images``, in stacked calls."""
    if X.region is not None:
        raise NotImplementedError("region restriction on PL polar images")
    return _pl_alphas(X.pl, P.dim - 1, rows, P) * simplex_volumes(images)


def _piece_values(X: Shape, pieces, P: LinearSubspace) -> list[float]:
    """The alpha-weighted image volume of each piece of a smooth shape, in
    piece order."""
    return [_piece_integral(X, piece, P) for piece in pieces]


def _piece_integral(X: Shape, piece: PolarPiece, P: LinearSubspace) -> float:
    """The alpha-weighted image volume of one piece of a smooth shape."""
    q = P.dim - 1
    if piece.kind == "points":
        if q != 0:
            return 0.0
        keep = X.in_region(piece.source_points)
        return float(np.sum(_q0_alphas(piece.stratum, piece.source_params[keep], P.basis[0],
                                       piece.morse_indices[keep])))
    if piece.kind == "whole":
        return _whole_stratum_integral(X, piece.stratum, P)
    if piece.kind == "contour":
        if piece.stratum.role == "top":
            return 0.0  # alpha is 0 at every fold of a top stratum
        return _contour_integral(X, piece, P)
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
    mask = X.in_region(pts)
    keep = mask & (element >= 1e-14)
    alphas = np.zeros(len(params))
    if np.any(keep):
        alphas[keep] = _dim_q_alphas(S, params[keep], J[keep], P)
    return float(math.fsum((w * element * alphas * mask).tolist()))


def _fold_alphas_batch(S: SmoothStratum, params: np.ndarray, u: np.ndarray):
    """(alphas, valid) at a batch of fold points of a surface stratum.

    At a fold the projection kernel is spanned by u itself, so the slice
    curvature is II_{x,nu}(u, u); a clean fold makes the slice index along
    one normal sign +1 (a minimum) and along the other -1 (a maximum).
    Weighted by the normal indices along +-nu, alpha is 0 on a top stratum
    and +-1/2 on a solid boundary, where only the inward side counts.  Points
    with |curvature| below tolerance are cusp-like and flagged invalid.
    """
    params = np.atleast_2d(params)
    J = S.chart.dr(params)  # (N, 2, 3)
    nu = hypersurface_normals(J)
    H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)
    # chart coordinates of u: solve (J J^T) c = J u
    G = J @ np.swapaxes(J, -1, -2)
    rhs = J @ u
    c = np.linalg.solve(G, rhs[..., None])[..., 0]
    c2 = np.einsum("pi,pij,pj->p", c, H, c)
    # normalize against |u_tangential|^2 so the cusp test is scale-free
    tang2 = np.einsum("pi,pij,pj->p", c, G, c)
    curv = c2 / np.maximum(tang2, 1e-300)
    valid = np.abs(curv) > CURVATURE_TOL
    ind_plus = np.where(curv > 0, 1.0, -1.0)  # +nu conormal: min -> +1, max -> -1
    ind_minus = np.where(-curv > 0, 1.0, -1.0)
    alphas = 0.5 * (ind_plus * normal_index(S, params, nu)
                    + ind_minus * normal_index(S, params, -nu))
    return alphas, valid


def _contour_integral(X: Shape, piece: PolarPiece, P: LinearSubspace) -> float:
    """alpha times image length over a traced fold curve.  Each segment a-b
    is measured with its midpoint m snapped onto the fold, by the Richardson
    step (4 (|a - m| + |m - b|) - |a - b|) / 3 of the inscribed polyline,
    whose error falls from O(h^2) to O(h^4) in the segment length h."""
    geo = piece.geometry
    params = piece.source_params
    if len(geo) < 2:
        return 0.0
    u = P.orthogonal_complement().basis[0]
    S = piece.stratum
    mids, _ = _snap_to_contour_batch(S, 0.5 * (params[:-1] + params[1:]), u)
    mid_pts = S.chart.r(mids)
    m = P.coords(mid_pts)
    chord = np.linalg.norm(geo[1:] - geo[:-1], axis=1)
    halves = np.linalg.norm(m - geo[:-1], axis=1) + np.linalg.norm(geo[1:] - m, axis=1)
    seg_len = (4.0 * halves - chord) / 3.0
    alphas, valid = _fold_alphas_batch(S, mids, u)
    mask = X.in_region(mid_pts)
    length = float(np.sum(seg_len))
    skipped = float(np.sum(seg_len[~valid]))
    if length > 0 and skipped > 0.05 * length:
        raise DegeneratePlaneError(msg="too much of a fold image near cusps")
    keep = valid & mask
    return float(math.fsum((alphas[keep] * seg_len[keep]).tolist()))


def _q0_values(X: Shape, V: np.ndarray):
    """The q = 0 value of each line of a stack, with unit directions V
    (B, n), on a smooth shape: the alpha sum over the critical points of the
    height along it, from one stacked Newton solve per stratum.

    Returns (values, fold, wall, parts).  ``fold`` flags a non-Morse height,
    the "fold" rejection of :func:`polar_sample`; ``wall`` a critical point
    in the region on the wall of a normal index, where :func:`_q0_alphas`
    raises.  ``parts`` holds (stratum name, has points, alpha sum) for each
    stratum: the one "points" piece of a line, when it has points.  Alphas
    are half-integers, so every sum is exact in any order."""
    values = np.zeros(len(V))
    fold = np.zeros(len(V), dtype=bool)
    wall = np.zeros(len(V), dtype=bool)
    parts = []
    for S in X.smooth.strata:
        if S.role == "solid":
            continue
        crit = height_critical_points_many(S, V, scale=X.diameter)
        fold |= crit.degenerate
        keep = X.in_region(crit.points)
        own = crit.direction[keep]
        lam = crit.morse_indices[keep]
        down, at_wall = normal_index_many(S, crit.params[keep], V[own])
        up, _ = normal_index_many(S, crit.params[keep], -V[own])
        wall[own[at_wall]] = True
        alphas = 0.5 * ((-1.0) ** lam * down + (-1.0) ** (S.dim - lam) * up)
        part = np.bincount(own, weights=alphas, minlength=len(V))
        parts.append((S.name, np.bincount(crit.direction, minlength=len(V)) > 0, part))
        values += part
    return values, fold, wall, parts


def polar_sample(X: Shape, P: LinearSubspace, *, grids: dict | None = None) -> PolarSample:
    """The polar set of the shape for one plane, with genericity checks
    attached.  ``grids`` holds the trace-grid normals of a polar call's
    planes (see :func:`_smooth_polar_pieces`); a lone plane builds its own."""
    q = P.dim - 1
    grids = {} if grids is None else grids
    pieces = []
    images = None
    try:
        if X.pl is not None:
            K = X.pl
            _pl_span_check(K, P)
            cells = K.plan.cells.get(q, np.zeros((0, q + 1), dtype=int))
            images = K.vertices[cells] @ P.basis.T
        else:
            for S in X.smooth.strata:
                pieces.extend(_smooth_polar_pieces(X, S, P, q, grids))
    except DegeneratePlaneError as err:
        return PolarSample(plane=P, pieces=(), degenerate=True, report=err.report)
    except (DegenerateDirectionError, DegenerateHeightError):
        return PolarSample(plane=P, pieces=(), degenerate=True, report=DegeneracyReport(fold_violations=["height"]))
    # the checks read traced contours only, and a PL shape has none
    report = DegeneracyReport() if X.pl is not None else check_genericity(X, P, pieces)
    if not report.clean:
        return PolarSample(plane=P, pieces=(), degenerate=True, report=report)
    return PolarSample(plane=P, pieces=tuple(pieces), degenerate=False, report=report,
                       cell_images=images)


@dataclass(frozen=True)
class PolarLengthResult:
    estimate: Estimate
    n_planes: int
    n_rejected: int
    per_plane: list  # (sample, plane basis, {stratum or q-cell: m}, degenerate reasons)
    reject_reasons: dict


def polar_length(X: Shape, q: int, n_planes: int, rng: RandomSource,
                 keep_rows: bool = False) -> PolarLengthResult:
    """Monte-Carlo q-th polar length: the dimensional constant times the mean
    over uniform planes of the alpha-weighted polar image volume."""
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
    n_rejected = 0
    if X.pl is not None:  # the plan rows of the q-cells, and their CSV keys
        q_rows = np.arange(len(X.pl.cells[q]))
        q_keys = [_stratum_key(cell) for cell in X.pl.cells[q]]

    def reject(i: int, P: LinearSubspace, reasons: list[str]) -> None:
        nonlocal n_rejected
        n_rejected += 1
        for r in reasons:
            reject_reasons[r] = reject_reasons.get(r, 0) + 1
        if keep_rows:
            rows.append((i, P.basis.copy(), {}, "+".join(reasons)))

    grids: dict = {}  # trace-grid normals of the surface strata, for every plane

    def one(i: int, P: LinearSubspace) -> float:
        sample = polar_sample(X, P, grids=grids)
        if sample.degenerate:
            reasons = sample.report.reasons() or ["other"]
            reject(i, P, reasons)
            raise DegeneratePlaneError(sample.report, "degenerate plane: " + "+".join(reasons))
        try:
            if X.pl is not None:
                vals = _pl_cell_values(X, sample.cell_images, q_rows, P)
            else:
                vals = _piece_values(X, sample.pieces, P)
        except (DegeneratePlaneError, DegenerateDirectionError):
            reject(i, P, ["alpha"])
            raise
        if keep_rows:
            keys = q_keys if X.pl is not None else [_stratum_key(p.stratum) for p in sample.pieces]
            per_stratum: dict = {}
            for key, val in zip(keys, np.asarray(vals).tolist()):
                per_stratum[key] = per_stratum.get(key, 0.0) + val
            rows.append((i, P.basis.copy(), per_stratum, ""))
        return _sum_in_order(vals)

    def lines(samples: list[int], planes: list[LinearSubspace]):
        vals, fold, wall, parts = _q0_values(X, np.array([P.basis[0] for P in planes]))
        for j, (i, P) in enumerate(zip(samples, planes)):
            if fold[j] or wall[j]:
                reject(i, P, ["fold" if fold[j] else "alpha"])
            elif keep_rows:
                rows.append((i, P.basis.copy(),
                             {name: float(part[j]) for name, has, part in parts if has[j]}, ""))
        return vals, fold | wall

    if X.pl is None and q == 0:
        values = lines
    else:
        values = each_draw(one, (DegeneratePlaneError, DegenerateDirectionError))
    values = per_sample_values(
        n_planes, rng, lambda gen: sample_grassmannian(n, q + 1, gen), values, "polar planes")
    rows.sort(key=lambda row: row[0])  # a block evaluates its redraws after its first draws
    const = polar_length_constant(n, q)
    est = mean_estimate(values, seed=seed, method="polar-mc").scaled(const)
    return PolarLengthResult(
        estimate=est,
        n_planes=n_planes,
        n_rejected=n_rejected,
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
