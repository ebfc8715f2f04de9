"""Polar varieties, polar images, and polar lengths.

For a projection plane P of dimension q+1 the per-stratum pipeline is:

  1. find the polar set of each stratum (critical locus of the projection):
     whole strata of dimension <= q, the traced silhouette for a surface
     stratum seen along P-perp, height critical points at q = 0.  On a PL
     shape, after the span check of every cell below the top dimension,
     only the q-cells are projected and valued, as one stack in plan-row
     order: a lower cell is polar whole too, but its image has no q-volume.
     That stack spans a chunk of planes: one SVD for their complements and
     one per cell dimension for the span check, one projection, one
     image-normal, normal-index and volume call each, and a running sum per
     plane, with at most plstrata.PAIR_CAP (plane, cell) pairs per stack;
  2. run degeneracy clearances (wall alignment, image overlap, limit
     adjacency) and resample the plane when one trips - the bad planes form
     measure-zero sets, so a uniform plane essentially never trips them;
  3. weight each regular image point with the index alpha (half-sum of the
     downward and upward slice Morse indices) and integrate over the image.
     A fold of a top stratum is not integrated: alpha is 0 all along it, as
     the normal index is 1 along both normals +-nu, so its value is 0.0;
  4. average over uniform planes and apply the dimensional constant.

A polar call on a smooth shape shares what does not depend on the plane:
each surface stratum's trace-grid normals, each rim's samples for the
overlap test and the quadrature of each stratum valued whole are built once
per call (see :func:`_plane_free`), and at q = 0 a block of lines runs one
stacked Newton solve per stratum.  Inside :func:`polar_sample` a fold of a
top stratum is traced only as far as the genericity checks read it, to the
sign grid and its edge crossings, without the refinement to the chord
tolerance, since its value is 0.0 whatever the trace; :func:`polar_variety`
still refines it.

At q = n - 1 the plane P is all of R^n, so every plane gives the same
value: :func:`polar_length` values P = R^n once, with no draw and se 0.

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
    draw_grassmannian,
    grassmannian_bases,
    mean_estimate,
    orthogonal_complements,
    per_sample_values,
    polar_length_constant,
    simplex_volumes,
)
from .lkmeasure import Shape, _height_sums
from .plstrata import DegenerateDirectionError, _pl_alphas_many, sample_chunks
from .smoothshape import (
    CriticalPoint,
    DegenerateHeightError,
    SmoothStratum,
    height_critical_points,
    height_hessian_eigenvalues,
    hypersurface_normals,
    normal_index,
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
CROSSING_BRACKET = 2.0**-40  # a fold crossing's last bracket, as a share of its edge
CROSSING_EVALS = 40  # most evaluations of <nu, u> per fold crossing
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
    report: DegeneracyReport

    @property
    def degenerate(self) -> bool:
        return not self.report.clean


class DegeneratePlaneError(ValueError):
    """A plane whose polar image cannot be valued; a random one is redrawn."""


# ---------------------------------------------------------------------------
# silhouette tracing
# ---------------------------------------------------------------------------

def _surface_normals(S: SmoothStratum, params: np.ndarray) -> np.ndarray:
    if S.unit_normal is not None:
        return np.asarray(S.unit_normal(params), dtype=float)
    return hypersurface_normals(S.chart.dr(params))


def _silhouette_value(S: SmoothStratum, params: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<nu, u> at a stack of chart points, summed point by point: a point's
    bits then do not depend on its batch, as those of a gemv can."""
    N = _surface_normals(S, np.atleast_2d(params))
    return N[:, 0] * u[0] + N[:, 1] * u[1] + N[:, 2] * u[2]


def _snap_to_contour_batch(S, P: np.ndarray, u, iters=25):
    """Gradient-step refinement of chart points onto {<nu, u> = 0}, batched.

    Each point stops on its own once it lies within 1e-12 of the contour,
    after at most ``iters`` steps, so its bits do not depend on its batch."""
    P = np.atleast_2d(np.asarray(P, dtype=float)).copy()
    live = np.arange(len(P))
    h = 1e-7
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    for _ in range(iters):
        Q = P[live]
        g = _silhouette_value(S, Q, u)
        far = np.abs(g) >= 1e-12
        if not np.any(far):
            break
        live, Q, g = live[far], Q[far], g[far]
        g0 = (_silhouette_value(S, Q + e0, u) - _silhouette_value(S, Q - e0, u)) / (2 * h)
        g1 = (_silhouette_value(S, Q + e1, u) - _silhouette_value(S, Q - e1, u)) / (2 * h)
        n2 = np.maximum(g0 * g0 + g1 * g1, 1e-18)
        P[live, 0] = Q[:, 0] - g * g0 / n2
        P[live, 1] = Q[:, 1] - g * g1 / n2
    return P


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
                     normals: np.ndarray | None = None, refine: bool = True):
    """Polylines of {x in S : normal(x) orthogonal to span(u)} via a sign grid with
    edge crossings found by :func:`_fold_crossings`, chained per cell and,
    unless ``refine`` is false, refined to the chord tolerance.  Returns a
    list of (params_array, points_array, closed); a closed polyline ends with
    its first point, whose chart parameters are unwrapped against the last
    one.

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

    # the crossing of every crossed edge, in the order the cells first name
    # them, from the grid values at its two ends
    named = ids[crossed]
    _, first_seen = np.unique(named, return_index=True)
    pending = named[np.sort(first_seen)]
    i, j = np.divmod(pending % off, nx1)
    along1 = pending >= off
    i1, j1 = i + ~along1, j + along1
    A = lo + np.stack([i, j], axis=1) * steps
    B = lo + np.stack([i1, j1], axis=1) * steps
    M, _ = _fold_crossings(S, u, A, B, vals[i, j], vals[i1 % nx0, j1 % nx1])
    row = np.empty(2 * off, dtype=np.int64)
    row[pending] = np.arange(len(pending))

    out = []
    for chain, closed in _chain_segments(segs[keep]):
        if closed:
            chain = np.append(chain, chain[0])
        params = _unwrap_params(M[row[chain]], lo, hi, per)
        if refine:
            params = _refine_polyline(S, params, u, CHORD_TOL * diameter)
        out.append((params, chart.r(params), closed))
    return out


def _fold_crossings(S: SmoothStratum, u: np.ndarray, A: np.ndarray, B: np.ndarray,
                    FA: np.ndarray, FB: np.ndarray):
    """The zeros of <nu, u> on the chart segments A-B, whose values FA and FB
    at the ends have opposite signs, by the Illinois variant of regula falsi
    (Dowell and Jarratt, BIT 11, 1971), which keeps a bracket and converges
    superlinearly.  A point at A + t (B - A) keeps its bracket [a, b] in t
    with b the newest point; a new point on the same side as b halves the
    value kept at a.  Each segment stops on its own once its bracket is at
    most CROSSING_BRACKET or its value is exactly 0, after at most
    CROSSING_EVALS evaluations, so its bits do not depend on its batch.
    Returns the crossings (the newest points) and the evaluations each took."""
    D = B - A
    a = np.zeros(len(A))
    b = np.ones(len(A))
    fa = np.array(FA, dtype=float)
    fb = np.array(FB, dtype=float)
    evals = np.zeros(len(A), dtype=int)
    live = np.arange(len(A))
    for _ in range(CROSSING_EVALS):
        la, lb, lfa, lfb = a[live], b[live], fa[live], fb[live]
        t = lb - lfb * (lb - la) / (lfb - lfa)
        ft = _silhouette_value(S, A[live] + t[:, None] * D[live], u)
        evals[live] += 1
        flip = ft * lfb < 0  # the root lies between b and t: b becomes a
        a[live] = np.where(flip, lb, la)
        fa[live] = np.where(flip, lfb, 0.5 * lfa)
        b[live] = t
        fb[live] = ft
        live = live[(np.abs(t - a[live]) > CROSSING_BRACKET) & (ft != 0)]
        if not len(live):
            break
    return A + b[:, None] * D, evals


def _chain_segments(segments: np.ndarray) -> list:
    """Chain segments (k, 2) of edge ids into maximal walks over neighbour
    arrays, with nodes labelled in the order the segments first name them
    and each node's neighbours in segment order.  Open walks come first,
    each from the end named first; then closed loops, each from its node
    named first toward that node's first neighbour.  Returns (edge ids,
    closed) pairs."""
    ids, first, inv = np.unique(segments.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    src = rank[inv.ravel()]
    dst = src.reshape(-1, 2)[:, ::-1].ravel()
    by_src = np.argsort(src, kind="stable")
    degree = np.bincount(src, minlength=len(ids))
    slot = np.arange(len(src)) - (np.cumsum(degree) - degree)[src[by_src]]
    nb = np.full((len(ids), 2), -1, dtype=np.int64)
    nb[src[by_src], slot] = dst[by_src]
    # a walk entering a node from one neighbour leaves to the other, the
    # sum of both less the first (-1 past an end)
    first_nb, both = nb[:, 0].tolist(), nb.sum(axis=1).tolist()
    seen = np.zeros(len(ids), dtype=bool)
    chains = []

    def walk(start):
        chain = [start]
        prev, cur = start, first_nb[start]
        while cur >= 0 and cur != start:
            chain.append(cur)
            prev, cur = cur, both[cur] - prev
        chain = np.array(chain)
        seen[chain] = True
        chains.append((ids[order[chain]], cur == start))

    for end in np.flatnonzero(degree == 1).tolist():
        if not seen[end]:
            walk(end)
    while not seen.all():
        walk(int(np.argmin(seen)))
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
    endpoints, and a snapped point does not depend on its batch."""
    pts = np.asarray(params, dtype=float)
    X = S.chart.r(pts)
    seg = np.arange(len(pts) - 1)  # the open segments
    for _ in range(max_depth):
        mids = _snap_to_contour_batch(S, 0.5 * (pts[seg] + pts[seg + 1]), u)
        Xm = S.chart.r(mids)
        split = np.linalg.norm(Xm - 0.5 * (X[seg] + X[seg + 1]), axis=1) > tol
        if not np.any(split):
            break
        at = seg[split] + 1
        pts = np.insert(pts, at, mids[split], axis=0)
        X = np.insert(X, at, Xm[split], axis=0)
        # a split segment k becomes k + s and k + s + 1, s splits before it
        seg = at - 1 + np.arange(len(at))
        seg = np.stack([seg, seg + 1], axis=1).ravel()
    return pts


# ---------------------------------------------------------------------------
# polar varieties
# ---------------------------------------------------------------------------

def _pl_span_flags(K, bases: np.ndarray) -> dict:
    """The span check of a stack of planes with orthonormal row bases
    (S, q + 1, n): for each cell dimension below the ambient one, the
    (flags, dims, clearances) of :func:`_span_flags` against the plane
    complements, (S, C_d) each, from one stacked SVD per dimension."""
    comps = orthogonal_complements(bases)
    return {d: _span_flags(K.plan.spans[d], comps) for d in K.cells if d != K.ambient_dim}


def _span_flags(spans: np.ndarray, comps: np.ndarray):
    """The principal angles of each (d, n) span of a stack (C, d, n) against
    the complement ``comps`` (c, n) of a plane, or each of a stack of them
    (..., c, n), with one stacked SVD, and which spans it flags: those
    meeting the complement beyond the generic dimension, or within
    SPAN_ANGLE_MIN of doing so.  Returns (flags, dims, clearances), each
    (..., C)."""
    count, d, n = spans.shape
    c = comps.shape[-2]
    shape = comps.shape[:-2] + (count,)
    if d == 0 or c == 0:
        return np.zeros(shape, dtype=bool), np.zeros(shape, dtype=int), np.full(shape, math.pi / 2)
    sv = np.linalg.svd(spans @ comps[..., None, :, :].swapaxes(-1, -2), compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    inter_dim = np.sum(sv > 1.0 - SPAN_RANK_TOL, axis=-1)
    # singular values fall, so the first one past the intersection is the
    # clearance; a zero column stands for "none left" (arccos 0 = pi/2)
    rest = np.concatenate([sv, np.zeros(shape + (1,))], axis=-1)
    clearance = np.arccos(np.take_along_axis(rest, inter_dim[..., None], axis=-1)[..., 0])
    expected = max(0, d + c - n)
    flags = (inter_dim > expected) | (
        (expected < min(d, c)) & (clearance < SPAN_ANGLE_MIN))
    return flags, inter_dim, clearance


def _pl_images(K, q: int, bases: np.ndarray) -> np.ndarray:
    """The images (S, C_q, q + 1, q + 1) of the q-cells, in plan-row order,
    on a stack of planes with orthonormal row bases (S, q + 1, n)."""
    cells = K.plan.cells.get(q, np.zeros((0, q + 1), dtype=int))
    return K.vertices[cells] @ bases[:, None].swapaxes(-1, -2)


def _plane_free(grids: dict, key: tuple, build):
    """The entry ``key`` of a polar call's plane-free geometry: built by
    ``build`` when missing and kept in ``grids``, so that the planes of one
    call share it, and freed with the call."""
    if key not in grids:
        grids[key] = build()
    return grids[key]


def _chart_grid(S: SmoothStratum, resolution: int, grids: dict):
    """The quadrature params and weights of a stratum's chart at a
    resolution, and their points, once per polar call."""
    def build():
        params, w = S.chart.grid(resolution)
        return params, w, S.chart.r(params)

    return _plane_free(grids, ("grid", S.name, resolution), build)


def _smooth_polar_pieces(X: Shape, S: SmoothStratum, P: LinearSubspace, q: int,
                         grids: dict, *, top_flags_only: bool = False) -> list[PolarPiece]:
    """The polar pieces of one smooth stratum.  ``grids`` holds the
    plane-free geometry of a polar call (see :func:`_plane_free`): the
    trace-grid normals of the surface strata and the grid points of the
    whole ones.  With ``top_flags_only`` the folds of a top stratum, whose
    value is 0.0, are traced without refinement: far enough for the
    genericity checks."""
    n = X.ambient_dim
    if S.role == "solid":
        return []
    if S.dim <= q:
        _, _, pts = _chart_grid(S, 64, grids)
        return [PolarPiece(stratum=S, kind="whole", geometry=P.coords(pts))]
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
        normals = _plane_free(grids, ("normals", S.name), lambda: _trace_grid_normals(S))
        traced = trace_silhouette(S, u, X.diameter, normals=normals,
                                  refine=not (top_flags_only and S.role == "top"))
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
    leaves no polar points.  Like a smooth stratum's, a cell's pieces come
    with no genericity check: :func:`polar_sample` flags the plane."""
    q = P.dim - 1
    if X.pl is None:
        return _smooth_polar_pieces(X, stratum, P, q, {})
    K = X.pl
    cell = tuple(sorted(stratum))
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
    run only on the probe/segment pairs that pass this cheaper test.  Its
    candidates are windowed: with the midpoints sorted along the first image
    axis, each probe takes those within the largest reach of it there (two
    binary searches), widened by a few ulps of the coordinates for rounding,
    and only those pairs get the midpoint distance, summed axis by axis."""
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
    by_x = np.argsort(mid[:, 0], kind="stable")
    xs = mid[by_x, 0]
    widest = reach.max()
    window = widest + 4 * np.spacing(max(np.abs(xs).max(), np.abs(pa[:, 0]).max()) + widest)
    lo = np.searchsorted(xs, pa[:, 0] - window, side="left")
    count = np.searchsorted(xs, pa[:, 0] + window, side="right") - lo
    n = np.repeat(np.arange(len(pa)), count)
    m = by_x[np.arange(len(n)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    d2_mid = np.zeros(len(n))
    for k in range(pa.shape[1]):
        d2_mid += (pa[n, k] - mid[m, k]) ** 2
    near = d2_mid <= reach[m] ** 2
    n, m = n[near], m[near]
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


def check_genericity(X: Shape, P: LinearSubspace, pieces, *,
                     grids: dict | None = None) -> DegeneracyReport:
    """Clearance checks on the polar pieces of a sampled plane.

    Isolated transversal contacts (image crossings, endpoint adjacency) are
    the generic picture and pass; flags fire on near-positive-dimensional
    coincidences: wall-aligned cell spans, fold tangents aligned with P-perp
    along a stretch, and image overlap over a length fraction.  ``grids``
    holds the rim samples of a polar call's planes, as in
    :func:`polar_sample`; a lone plane builds its own.
    """
    grids = {} if grids is None else grids
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
                _, _, rim_pts = _chart_grid(rim, 256, grids)
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
        alphas, degenerate = _pl_alphas_many(K, len(cell) - 1, [K.plan.rows[cell]], P.basis[None])
        if degenerate[0]:
            raise DegenerateDirectionError("image normal degenerate or on a wall of its link")
        return float(alphas[0, 0])
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
    values, degenerate = _pl_cell_values_many(X, np.stack([p.geometry for p in cells])[None], rows,
                                              P.basis[None])
    if degenerate[0]:
        raise DegenerateDirectionError("image normal degenerate or on a wall of its link")
    return _sum_in_order(values[0])


def _sum_in_order(values) -> float:
    """0.0 plus each value in turn, so that a fixed seed gives fixed bits
    (cumsum adds in order; np.sum adds pairwise)."""
    return float(_sums_in_order(np.asarray(values, dtype=float)[None])[0])


def _sums_in_order(values: np.ndarray) -> np.ndarray:
    """:func:`_sum_in_order` of each row of a stack (S, C)."""
    return np.cumsum(np.concatenate([np.zeros((len(values), 1)), values], axis=1), axis=1)[:, -1]


def _pl_cell_values_many(X: Shape, images: np.ndarray, rows, bases: np.ndarray):
    """alpha times image q-volume of the q-cells at the plan rows ``rows`` on
    each plane of a stack with orthonormal row bases (S, q + 1, n), whose
    images there are ``images`` (S, R, q + 1, q + 1): values (S, R), and the
    mask of :func:`_pl_alphas_many`."""
    if X.region is not None:
        raise NotImplementedError("region restriction on PL polar images")
    alphas, degenerate = _pl_alphas_many(X.pl, bases.shape[1] - 1, rows, bases)
    return alphas * simplex_volumes(images), degenerate


def _piece_values(X: Shape, pieces, P: LinearSubspace, grids: dict | None = None) -> list[float]:
    """The alpha-weighted image volume of each piece of a smooth shape, in
    piece order; ``grids`` holds a polar call's plane-free quadrature (see
    :func:`_plane_free`), built here when not given."""
    return [_piece_integral(X, piece, P, grids) for piece in pieces]


def _piece_integral(X: Shape, piece: PolarPiece, P: LinearSubspace, grids: dict | None) -> float:
    """The alpha-weighted image volume of one piece of a smooth shape."""
    q = P.dim - 1
    if piece.kind == "points":
        if q != 0:
            return 0.0
        keep = X.in_region(piece.source_points)
        return float(np.sum(_q0_alphas(piece.stratum, piece.source_params[keep], P.basis[0],
                                       piece.morse_indices[keep])))
    if piece.kind == "whole":
        return _whole_stratum_integral(X, piece.stratum, P, grids)
    if piece.kind == "contour":
        if piece.stratum.role == "top":
            return 0.0  # alpha is 0 at every fold of a top stratum
        return _contour_integral(X, piece, P)
    raise ValueError(f"unknown piece kind {piece.kind}")


def _whole_stratum_integral(X: Shape, S: SmoothStratum, P: LinearSubspace,
                            grids: dict | None = None) -> float:
    """alpha times the image q-volume of a stratum of dimension q, by
    quadrature on its chart; the nodes, weights, points and chart
    Jacobians do not depend on the plane, so ``grids`` keeps them for a
    polar call (see :func:`_plane_free`)."""
    q = P.dim - 1
    if S.dim != q:
        return 0.0  # image of a lower-dimensional stratum has measure zero
    grids = {} if grids is None else grids
    res = 128 if S.dim == 1 else 64
    params, w, pts = _chart_grid(S, res, grids)
    J = _plane_free(grids, ("dr", S.name, res), lambda: S.chart.dr(params))  # (N, d, n)
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
    mids = _snap_to_contour_batch(S, 0.5 * (params[:-1] + params[1:]), u)
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
        raise DegeneratePlaneError("too much of a fold image near cusps")
    keep = valid & mask
    return float(math.fsum((alphas[keep] * seg_len[keep]).tolist()))


def _q0_values(X: Shape, V: np.ndarray):
    """The q = 0 value of each line of a stack, with unit directions V
    (B, n), on a smooth shape: the alpha sum of :func:`lkmeasure._height_sums`.
    Returns (values, fold, wall, parts): ``fold`` is the "fold" rejection of
    :func:`polar_sample`, ``wall`` the points where :func:`_q0_alphas`
    raises, and ``parts`` (stratum name, has points, alpha sum) per stratum,
    the one "points" piece of a line when it has points."""
    sums, fold, wall = _height_sums(X, V)
    parts = [(S.name, has, 0.5 * (down + up)) for S, has, down, up in sums]
    return sum((part for _, _, part in parts), np.zeros(len(V))), fold, wall, parts


def polar_sample(X: Shape, P: LinearSubspace, *, grids: dict | None = None) -> PolarSample:
    """The polar set of the shape for one plane, with genericity checks
    attached.  ``grids`` holds the plane-free geometry of a polar call's
    planes (see :func:`_plane_free`); a lone plane builds its own.

    The folds of a top stratum are traced for their genericity flags only:
    the sign grid and its edge crossings, not refined to the chord
    tolerance, since alpha is 0 all along them.  :func:`polar_variety`
    still refines them, for a fold length.  On a complex the sample is the
    span check alone, with no pieces: :func:`polar_variety` gives a cell's."""
    q = P.dim - 1
    if X.pl is not None:
        K = X.pl
        span_flags = [
            (K.cells[d][i], int(dims[0, i]), float(clearances[0, i]))
            for d, (flags, dims, clearances) in _pl_span_flags(K, P.basis[None]).items()
            for i in np.flatnonzero(flags[0])
        ]
        return PolarSample(plane=P, pieces=(), report=DegeneracyReport(span_flags=span_flags))
    grids = {} if grids is None else grids
    try:
        pieces = [piece for S in X.smooth.strata
                  for piece in _smooth_polar_pieces(X, S, P, q, grids, top_flags_only=True)]
    except (DegenerateDirectionError, DegenerateHeightError):
        return PolarSample(plane=P, pieces=(), report=DegeneracyReport(fold_violations=["height"]))
    report = check_genericity(X, P, pieces, grids=grids)
    return PolarSample(plane=P, pieces=tuple(pieces) if report.clean else (), report=report)


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
    over uniform planes of the alpha-weighted polar image volume.

    The route of the shape and q values the (B, q + 1, n) bases of one
    stacked QR of a block of Gaussian draws, with a reason for each plane
    ("" when used) and, under ``keep_rows``, its per-stratum parts; one
    ledger counts the rejections and keeps the rows of the full-rank draws.

    At q = n - 1 the plane is all of R^n, the same on every draw, so the
    one plane R^n (identity basis) is valued with no draw: the estimate has
    se 0, one sample and method "full-space", and ``n_planes`` is ignored.
    A flag on that plane would flag every plane, so it raises
    DegeneratePlaneError."""
    n = X.ambient_dim
    if not 0 <= q <= n:
        raise ValueError(f"q={q} out of range")
    seed = rng.master_seed
    if q == n:
        est = Estimate(_top_volume(X), 0.0, 1, seed, method="volume")
        return PolarLengthResult(est, 0, 0, [], {})
    if q > X.dim:
        est = Estimate(0.0, 0.0, 1, seed, method="dimension")
        return PolarLengthResult(est, 0, 0, [], {})

    grids: dict = {}  # plane-free geometry of the strata, for every plane

    def smooth_planes(bases: np.ndarray):
        vals = np.zeros(len(bases))
        reasons, parts = [], []
        for j, P in enumerate(LinearSubspace(n, basis) for basis in bases):
            sample = polar_sample(X, P, grids=grids)
            reason, per_stratum = "+".join(sample.report.reasons()), {}
            if not reason:
                try:
                    piece_vals = _piece_values(X, sample.pieces, P, grids)
                except (DegeneratePlaneError, DegenerateDirectionError):
                    reason = "alpha"
                else:
                    vals[j] = _sum_in_order(piece_vals)
                    for piece, val in zip(sample.pieces, piece_vals if keep_rows else ()):
                        key = _stratum_key(piece.stratum)
                        per_stratum[key] = per_stratum.get(key, 0.0) + val
            reasons.append(reason)
            parts.append(per_stratum)
        return vals, reasons, parts

    def pl_planes(bases: np.ndarray):
        K = X.pl
        q_rows = np.arange(len(K.cells[q]))  # the plan rows of the q-cells, and their CSV keys
        q_keys = [_stratum_key(cell) for cell in K.cells[q]] if keep_rows else []
        vals = np.zeros(len(bases))
        reasons, parts = np.full(len(bases), "", dtype=object), [{}] * len(bases)
        for part in sample_chunks(K, len(bases)):
            flags = _pl_span_flags(K, bases[part]).values()
            span = np.any([f.any(axis=1) for f, _, _ in flags], axis=0)
            chunk = np.arange(len(bases))[part]
            live = chunk[~span]  # the span check passed
            cells, alpha = _pl_cell_values_many(X, _pl_images(K, q, bases[live]), q_rows,
                                                bases[live])
            vals[live] = _sums_in_order(cells)
            reasons[chunk[span]] = "span"
            reasons[live[alpha]] = "alpha"
            if keep_rows:
                for j, values in zip(live, cells.tolist()):
                    # 0.0 + value, as the running sum of a plane starts
                    parts[j] = {key: 0.0 + val for key, val in zip(q_keys, values)}
        return vals, reasons, parts

    def lines(bases: np.ndarray):
        vals, fold, wall, parts = _q0_values(X, bases[:, 0])
        reasons = ["fold" if f else "alpha" if w else "" for f, w in zip(fold, wall)]
        return vals, reasons, [{name: float(part[j]) for name, has, part in parts if has[j]}
                               for j in range(len(bases) if keep_rows else 0)]

    if X.pl is not None:
        route = pl_planes
    elif q == 0:
        route = lines
    else:
        route = smooth_planes
    reject_reasons: dict = {}
    rows = []
    n_rejected = 0

    def ledger(samples: list[int], bases: np.ndarray, full: np.ndarray):
        nonlocal n_rejected
        vals, reasons, parts = route(bases)
        for j in np.flatnonzero(full):  # a draw of deficient rank is no plane
            if reason := reasons[j]:
                n_rejected += 1
                for r in reason.split("+"):
                    reject_reasons[r] = reject_reasons.get(r, 0) + 1
            if keep_rows:
                rows.append((samples[j], bases[j].copy(), {} if reason else parts[j], reason))
        return vals, ~full | np.array([bool(reason) for reason in reasons], dtype=bool)

    if q == n - 1:
        vals, flagged = ledger([0], np.eye(n)[None], np.ones(1, dtype=bool))
        if flagged[0]:
            raise DegeneratePlaneError(f"the whole space is degenerate at q = {q}: "
                                       + "+".join(reject_reasons))
        # the dimensional constant is 1 at q = n - 1
        est = Estimate(float(vals[0]), 0.0, 1, seed, method="full-space")
        return PolarLengthResult(est, 1, 0, rows, {})
    values = per_sample_values(
        n_planes, rng, lambda gen: draw_grassmannian(n, q + 1, gen),
        lambda samples, draws: ledger(samples, *grassmannian_bases(draws)), "polar planes")
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
