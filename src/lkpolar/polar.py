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
stacked Newton solve per stratum.  At q >= 1 a chunk of at most
PLANE_CHUNK planes shares each stacked pass of the tracing, the genericity
checks and the valuation, and :func:`polar_sample` is the one-plane case of
the same passes.  There a fold of a top stratum is traced only as far as
the genericity checks read it, to the sign grid and its edge crossings,
without the refinement to the chord tolerance, since its value is 0.0
whatever the trace; :func:`polar_variety` still refines it.

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
from .silhouette import _snap_to_contour_batch, _trace_grid_normals, _trace_planes
from .smoothshape import (
    CriticalPoint,
    DegenerateHeightError,
    SmoothStratum,
    height_critical_points,
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
# the shape diameter); those of fold tracing are in lkpolar.silhouette
FOLD_ANGLE_MIN = 1e-4  # fold tangents this close to P-perp are aligned
OVERLAP_DISTANCE = 1e-4  # image points this close coincide
OVERLAP_FRACTION = 0.05  # share of coinciding or aligned points that flags a plane
SPAN_ANGLE_MIN = 1e-4  # cell spans this close to meeting P-perp are flagged
SPAN_RANK_TOL = 1e-8  # cosines within this of 1 count as a shared direction
CURVATURE_TOL = 1e-7  # fold slice curvature times the shape's radius below this is a cusp
PLANE_CHUNK = 8  # most planes in one stacked pass of the smooth route with folds to trace


@dataclass(frozen=True)
class PolarPiece:
    """One connected piece of the polar set of one stratum.

    kind is "cell" (a PL cell taken whole, from :func:`polar_variety`),
    "whole" (a smooth stratum of dimension <= q taken whole), "contour" (a
    traced fold curve) or "points" (height critical points at q = 0, with
    their Morse indices).
    ``geometry`` lives in P-coordinates.  A closed contour ends with a copy
    of its first point, so that its closing segment is explicit.  A refined
    contour keeps in ``source_mids`` the chart point of each segment's
    midpoint that its refinement snapped onto the fold (NaN where it
    snapped none), so that its length snaps each midpoint once.
    """

    stratum: object
    kind: str
    geometry: np.ndarray
    source_params: np.ndarray | None = None
    source_points: np.ndarray | None = None
    closed: bool = False
    morse_indices: np.ndarray | None = None
    source_mids: np.ndarray | None = None


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

def trace_silhouette(S: SmoothStratum, u: np.ndarray, diameter: float, *,
                     normals: np.ndarray | None = None, refine: bool = True):
    """Polylines of {x in S : normal(x) orthogonal to span(u)} via a sign grid with
    edge crossings, chained per cell and, unless ``refine`` is false, refined
    to the chord tolerance.  Returns a list of (params_array, points_array,
    closed); a closed polyline ends with its first point, whose chart
    parameters are unwrapped against the last one.

    The sign grid is ``normals @ u``, from the grid normals of
    ``silhouette._trace_grid_normals``, which a polar call builds once for
    all its planes; they are built here when not given, with the same bits.
    This is the one-plane case of ``silhouette._trace_planes``."""
    if normals is None:
        normals = _trace_grid_normals(S)
    (traced,) = _trace_planes(S, np.asarray(u, dtype=float)[None], diameter, normals, refine)
    return [(params, pts, closed) for params, pts, closed, _ in traced]


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


def _height_pieces(X: Shape, S: SmoothStratum, basis: np.ndarray) -> list[PolarPiece]:
    """The "points" piece of one stratum on a line with unit row basis (1, n):
    the critical points of the height along it, if any."""
    crits = height_critical_points(S, basis[0], scale=X.diameter)
    if not crits:
        return []
    pts = np.array([c.point for c in crits])
    return [PolarPiece(stratum=S, kind="points", geometry=pts @ basis.T,
                       source_params=np.array([c.params for c in crits]), source_points=pts,
                       morse_indices=np.array([c.morse_index for c in crits]))]


def _stratum_pieces(X: Shape, S: SmoothStratum, bases: np.ndarray, grids: dict, *,
                    top_flags_only: bool = False) -> list[list[PolarPiece]]:
    """The polar pieces of one smooth stratum on each plane of a stack with
    orthonormal row bases (B, q + 1, n).  ``grids`` holds the plane-free
    geometry of a polar call (see :func:`_plane_free`): the trace-grid
    normals of the surface strata and the grid points of the whole ones.
    The folds of all planes are traced in one ``silhouette._trace_planes`` pass;
    with ``top_flags_only`` those of a top stratum, whose value is 0.0, are
    not refined: far enough for the genericity checks.  At q = 0 a height
    that is not Morse raises DegenerateHeightError."""
    n = X.ambient_dim
    q = bases.shape[1] - 1
    if S.role == "solid":
        return [[] for _ in bases]
    if S.dim <= q:
        _, _, pts = _chart_grid(S, 64, grids)
        return [[PolarPiece(stratum=S, kind="whole", geometry=pts @ basis.T)] for basis in bases]
    if q == 0:
        return [_height_pieces(X, S, basis) for basis in bases]
    if S.dim == 2 and n == 3 and q == 1:
        normals = _plane_free(grids, ("normals", S.name), lambda: _trace_grid_normals(S))
        traced = _trace_planes(S, orthogonal_complements(bases)[:, 0], X.diameter, normals,
                               refine=not (top_flags_only and S.role == "top"))
        return [[PolarPiece(stratum=S, kind="contour", geometry=pts @ basis.T, source_params=params,
                            source_points=pts, closed=closed, source_mids=mids)
                 for params, pts, closed, mids in polylines]
                for basis, polylines in zip(bases, traced)]
    raise NotImplementedError(f"polar set for stratum dim {S.dim}, q={q}")


def _smooth_pieces(X: Shape, bases: np.ndarray, grids: dict) -> list[list[PolarPiece]]:
    """The polar pieces of every stratum on each plane of a stack, in
    stratum order, with the folds of a top stratum traced for their flags
    only (see :func:`_stratum_pieces`)."""
    out: list = [[] for _ in bases]
    for S in X.smooth.strata:
        for pieces, more in zip(out, _stratum_pieces(X, S, bases, grids, top_flags_only=True)):
            pieces += more
    return out


def polar_variety(X: Shape, stratum, P: LinearSubspace):
    """Polar pieces of one stratum under the projection onto P.  A PL cell
    of dimension <= q is polar whole; above q, generic transversality
    leaves no polar points.  Like a smooth stratum's, a cell's pieces come
    with no genericity check: :func:`polar_sample` flags the plane."""
    q = P.dim - 1
    if X.pl is None:
        return _stratum_pieces(X, stratum, P.basis[None], {})[0]
    K = X.pl
    cell = tuple(sorted(stratum))
    if cell not in K.plan.rows or len(cell) - 1 > q:
        return []
    pts = K.vertices[list(cell)]
    return [PolarPiece(stratum=cell, kind="cell", geometry=pts @ P.basis.T, source_points=pts)]


# ---------------------------------------------------------------------------
# degeneracy checks
# ---------------------------------------------------------------------------

def _polyline_tangents(points: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Unit tangents of a concatenation of polylines of at least two points
    each, with point counts ``lengths``, by the rule of np.gradient: central
    differences inside a polyline, one-sided ones at its ends."""
    d = np.empty_like(points)
    d[1:-1] = (points[2:] - points[:-2]) / 2.0
    ends = np.cumsum(lengths)
    starts = ends - lengths
    d[starts] = points[starts + 1] - points[starts]
    d[ends - 1] = points[ends - 1] - points[ends - 2]
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
    different source point: the one-test case of :func:`_overlap_fractions`.

    Probe points of a are tested against the segments of (a decimated copy
    of) b, so coincident stretches are caught at any sampling density; pairs
    with nearby sources are the same neighborhood upstairs (small loops,
    adjacent samples, endpoint contacts) and do not witness double points."""
    curves = [(a_img, a_src, 0), (b_img, b_src, 0)]
    return float(_overlap_fractions(curves, [(0, 1)], dist_tol, src_tol)[0])


def _overlap_fractions(curves: list, tests: list, dist_tol: float, src_tol: float) -> np.ndarray:
    """The :func:`_overlap_fraction` of each test (a, b) of a list, a and b
    indices into ``curves`` of (image, sources, group), in one windowed pass.
    The curves of a test share a group (a plane's images).

    Every curve is decimated once: to at most 256 probes when it is a test's
    a, to at most 512 points, whose consecutive pairs are its segments, when
    it is a test's b.  A probe within dist_tol of a segment lies within
    dist_tol plus half its length of the segment midpoint, so the
    closest-point and source tests run only on the probe/segment pairs of a
    test that pass this cheaper test (:func:`_near_midpoints`); a pair that
    no test names is dropped.  The images are planar.  A test's fraction is
    its integer hit count over its probe count, exactly as a lone test gives
    it."""
    C = len(curves)
    index = np.full(C * C, -1)  # the test of each (a, b), at a * C + b
    for t, (a, b) in enumerate(tests):
        index[a * C + b] = t
    is_a = (index.reshape(C, C) >= 0).any(axis=1)
    is_b = (index.reshape(C, C) >= 0).any(axis=0)
    probes = [_decimate(np.arange(len(img)), 256) if is_a[c] else np.zeros(0, dtype=int)
              for c, (img, _, _) in enumerate(curves)]
    points = [_decimate(np.arange(len(img)), 512) if is_b[c] else np.zeros(0, dtype=int)
              for c, (img, _, _) in enumerate(curves)]
    n_probes = np.array([len(k) for k in probes], dtype=int)
    n_points = np.array([len(k) for k in points], dtype=int)
    pc, qc = np.repeat(np.arange(C), n_probes), np.repeat(np.arange(C), n_points)
    group = np.array([g for _, _, g in curves])
    first = np.flatnonzero(qc[:-1] == qc[1:])  # segment k runs from point k to k + 1
    if not len(pc) or not len(first):
        return np.zeros(len(tests))
    # coordinates are held as rows (dim, count), so that a sum over axes runs
    # over whole rows, in the order of np.sum over a point's axes; np.take
    # and np.compress gather far faster than indexing does
    pa, sa, qb, sb = (np.concatenate([np.take(curve[part], k, axis=0)
                                      for curve, k in zip(curves, chosen)]).T.copy()
                      for chosen in (probes, points) for part in (0, 1))
    sc, pg, sg = qc[first], group[pc], group[qc[first]]
    seg_a, seg_b = np.take(qb, first, axis=1), np.take(qb, first + 1, axis=1)
    seg = seg_b - seg_a  # (dim, M)
    seg2 = np.sum(seg**2, axis=0)
    seg_len2 = np.maximum(seg2, 1e-300)
    mid = 0.5 * (seg_a + seg_b)
    reach = (dist_tol + 0.5 * np.sqrt(seg2)) * (1 + 1e-9)
    n, m = _near_midpoints(pa, pg, mid, sg, reach)
    test = index[pc[n] * C + sc[m]]
    n, m, test = (np.compress(test >= 0, x) for x in (n, m, test))
    probe, start, step = (np.take(x, i, axis=1) for x, i in ((pa, n), (seg_a, m), (seg, m)))
    t = np.clip(np.sum((probe - start) * step, axis=0) / seg_len2[m], 0.0, 1.0)
    d2_img = np.sum((probe - (start + t * step)) ** 2, axis=0)
    # source separation against both segment endpoints
    src, end = np.take(sa, n, axis=1), first[m]
    d2_src = np.minimum(np.sum((src - np.take(sb, end, axis=1)) ** 2, axis=0),
                        np.sum((src - np.take(sb, end + 1, axis=1)) ** 2, axis=0))
    hit = (d2_img <= dist_tol**2) & (d2_src >= src_tol**2)
    hits = np.unique(test[hit] * len(pc) + n[hit]) // len(pc)  # each probe once per test
    return np.bincount(hits, minlength=len(tests)) / np.maximum(
        n_probes[[a for a, _ in tests]], 1)


def _near_midpoints(pa: np.ndarray, pg: np.ndarray, mid: np.ndarray, sg: np.ndarray,
                    reach: np.ndarray):
    """The pairs (n, m) of a probe pa[:, n] (dim, P) and a segment
    midpoint mid[:, m] (dim, M) of the same group (pg, sg) within the
    segment's reach, their distance summed axis by axis.

    Only the pairs of a window are measured: each group's window is its
    largest reach, widened by a few ulps of its coordinates for rounding,
    so it holds the window of each test of the group, and a pair that
    passes lies within it on both image axes.  The first axis is cut into
    columns three windows wide; a midpoint within the window of a probe
    lies in the probe's column or in the next one on its nearer side.  Each
    midpoint is listed in its column and the next, sorted by (group,
    column) and then along the second axis, so that a probe finds its
    candidates by two binary searches on (group and column, y) pairs, held
    as complex numbers, which numpy orders lexicographically."""
    widest = np.zeros(max(pg.max(), sg.max()) + 1)
    np.maximum.at(widest, sg, reach)
    scale = np.zeros(len(widest))
    np.maximum.at(scale, sg, np.maximum(np.abs(mid[0]), np.abs(mid[1])))
    np.maximum.at(scale, pg, np.maximum(np.abs(pa[0]), np.abs(pa[1])))
    window = widest + 4 * np.spacing(scale + widest)
    at = mid[0] / (3 * window[sg])
    col = np.floor(at).astype(np.int64)
    lo_col = col.min()
    span = col.max() - lo_col + 4  # room for an empty column on either side
    listed = np.concatenate([col, col + 1]) - lo_col + 1 + span * np.concatenate([sg, sg])
    by_y = np.argsort(np.concatenate([mid[1], mid[1]]))
    by_y = by_y[np.argsort(listed[by_y].astype(np.min_scalar_type(listed.max())), kind="stable")]
    keys = np.empty(len(by_y), dtype=complex)
    keys.real, keys.imag = listed[by_y], np.concatenate([mid[1], mid[1]])[by_y]
    at = pa[0] / (3 * window[pg])
    col = np.floor(at) + (at - np.floor(at) >= 0.5)
    bound = np.empty(len(pg), dtype=complex)
    bound.real = np.clip(col - lo_col + 1, 0, span - 1) + span * pg
    bound.imag = pa[1] - window[pg]
    lo = np.searchsorted(keys, bound, side="left")
    bound.imag = pa[1] + window[pg]
    count = np.searchsorted(keys, bound, side="right") - lo
    n = np.repeat(np.arange(len(pg)), count)
    m = by_y[np.arange(len(n)) + np.repeat(lo - (np.cumsum(count) - count), count)] % len(sg)
    d2_mid = np.zeros(len(n))
    for probe, centre in zip(pa, mid):
        d2_mid += (probe[n] - centre[m]) ** 2
    near = d2_mid <= reach[m] ** 2
    return np.compress(near, n), np.compress(near, m)


def check_genericity(X: Shape, P: LinearSubspace, pieces, *,
                     grids: dict | None = None) -> DegeneracyReport:
    """Clearance checks on the polar pieces of a sampled plane.

    Isolated transversal contacts (image crossings, endpoint adjacency) are
    the generic picture and pass; flags fire on near-positive-dimensional
    coincidences: wall-aligned cell spans, fold tangents aligned with P-perp
    along a stretch, and image overlap over a length fraction.  ``grids``
    holds the rim samples of a polar call's planes, as in
    :func:`polar_sample`; a lone plane builds its own.  This is the
    one-plane case of :func:`_genericity_many`.
    """
    grids = {} if grids is None else grids
    return _genericity_many(X, P.basis[None], [list(pieces)], grids)[0]


def _genericity_many(X: Shape, bases: np.ndarray, pieces: list, grids: dict) -> list:
    """The :class:`DegeneracyReport` of :func:`check_genericity` for each
    plane of a stack (B, q + 1, n) with its pieces, in two stacked passes:
    the fold tangents of every contour against its plane's normal, then one
    :func:`_overlap_fractions` pass for the self and pair tests of the
    contours of each stratum and each contour against the rims.  A report
    lists its flags in the order of a lone plane's."""
    diameter = X.diameter
    dist_tol = OVERLAP_DISTANCE * diameter
    src_tol = 0.05 * diameter
    contours = [[p for p in plist if p.kind == "contour"] for plist in pieces]
    flags: list = [([], [], []) for _ in pieces]  # fold, double, limit
    if not any(contours):
        return [DegeneracyReport() for _ in pieces]
    # contours are traced on surfaces in R^3 at q = 1 only, so each plane
    # has one normal u
    U = orthogonal_complements(bases)[:, 0]

    # a single near-tangency is a cusp (generic); a stretch is not
    checked = [(b, p) for b, plist in enumerate(contours) for p in plist
               if len(p.source_points) >= 3]
    if checked:
        lengths = np.array([len(p.source_points) for _, p in checked])
        tangents = _polyline_tangents(np.concatenate([p.source_points for _, p in checked]), lengths)
        u = np.repeat(U[[b for b, _ in checked]], lengths, axis=0)
        cos = tangents[:, 0] * u[:, 0] + tangents[:, 1] * u[:, 1] + tangents[:, 2] * u[:, 2]
        angles = np.arccos(np.clip(np.abs(cos), 0.0, 1.0))
        starts = np.cumsum(lengths) - lengths
        bad = np.minimum.reduceat(angles, starts)
        aligned = np.add.reduceat((angles < FOLD_ANGLE_MIN).astype(float), starts) / lengths
        for (b, piece), worst, share in zip(checked, bad.tolist(), aligned.tolist()):
            if share > OVERLAP_FRACTION:
                flags[b][0].append((piece.stratum.name, worst))

    # pairwise image overlap within each stratum, and self-overlap: flags fire
    # only when the coinciding image points have well-separated sources;
    # then adjacency of contour images to images of frontier-stratum polar
    # sets, where the source-separation condition excludes the generic
    # endpoint contact
    rims = [S for S in X.smooth.strata if S.role == "rim"]
    curves, tests, owners = [], [], []
    for b, plist in enumerate(contours):
        at = len(curves)
        curves += [(piece.geometry, piece.source_points, b) for piece in plist]
        by_stratum: dict = {}
        for i, piece in enumerate(plist, at):
            by_stratum.setdefault(id(piece.stratum), []).append(i)
        for group in by_stratum.values():
            for k, i in enumerate(group):
                for j in group[k:]:
                    tests.append((i, j))
                    owners.append((b, 1, "self" if i == j else "pair"))
        rim_at = len(curves)
        for rim in rims if plist else ():
            _, _, rim_pts = _chart_grid(rim, 256, grids)
            curves.append((rim_pts @ bases[b].T, rim_pts, b))
        for i, piece in enumerate(plist, at):
            for r, rim in enumerate(rims):
                tests.append((i, rim_at + r))
                owners.append((b, 2, (piece.stratum.name, rim.name)))
    fracs = _overlap_fractions(curves, tests, dist_tol, src_tol)
    for (b, kind, tag), frac in zip(owners, fracs.tolist()):
        if frac > OVERLAP_FRACTION:
            flags[b][kind].append((tag, frac) if kind == 1 else (*tag, frac))
    return [DegeneracyReport(fold_violations=fold, double_points=double, limit_adjacency=limit)
            for fold, double, limit in flags]


# ---------------------------------------------------------------------------
# the index alpha
# ---------------------------------------------------------------------------

_WALL = "direction tangent to the inward conormal"  # the error of a normal index on its wall


def _dim_q_alphas(S: SmoothStratum, params: np.ndarray, Jp: np.ndarray, bases: np.ndarray):
    """alpha at a stack of points of a stratum of dimension q, with chart
    Jacobians Jp (K, q, q + 1) projected to the plane of each point, whose
    row basis is ``bases`` (K, q + 1, n): the slice meets the stratum in the
    point itself, whose index is 1 along both image normals +-nu, so alpha
    is the half-sum of the normal indices along +-nu: 1 on a top stratum,
    where the normal index is 1 along every direction, and 1/2 on a rim or
    solid boundary.  The image is a hypersurface of P, so nu is its normal
    there.  Returns (alphas, wall): the points whose nu lies on the wall of
    :func:`normal_index` have no index."""
    if S.role == "top":
        return np.ones(len(params)), np.zeros(len(params), dtype=bool)
    nu_image = hypersurface_normals(Jp)
    nu = sum(nu_image[:, j, None] * bases[:, j] for j in range(bases.shape[1]))
    up, wall_up = normal_index_many(S, params, nu)
    down, wall_down = normal_index_many(S, params, -nu)
    return 0.5 * (up + down), wall_up | wall_down


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
        alphas, wall = _dim_q_alphas(S, params, S.chart.dr(params) @ P.basis.T, P.basis[None])
    elif q == 0:
        v = P.basis[0]
        crit = CriticalPoint(params, point, height_hessian_eigenvalues(S, params, v))
        return float(_q0_alphas(S, params, v, crit.morse_index)[0])
    else:  # fold point of a surface stratum
        alphas, valid, wall = _fold_alphas_batch(S, params, P.orthogonal_complement().basis[0],
                                                 X.diameter / 2)
        if not (wall[0] or valid[0]):
            raise DegenerateDirectionError("vanishing fold curvature (cusp)")
    if wall[0]:
        raise DegenerateDirectionError(_WALL)
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
    :func:`_plane_free`), built here when not given.  The one-plane case of
    :func:`_plane_values`: a plane it cannot value raises its error."""
    (values,), (error,) = _plane_values(X, P.basis[None], [list(pieces)],
                                        {} if grids is None else grids)
    if error is not None:
        raise error
    return values


def _plane_values(X: Shape, bases: np.ndarray, pieces: list, grids: dict):
    """The alpha-weighted image volume of each piece of a smooth shape on
    each plane of a stack (B, q + 1, n), in piece order, and the error of
    each plane that cannot be valued (None for the others), that of its
    first such piece: DegenerateDirectionError for a normal on the wall of
    its normal index, DegeneratePlaneError for a fold image too much of
    which lies near cusps.  A stratum valued whole is valued for all its
    planes at once (:func:`_whole_stratum_integrals`), as are the folds of
    each rim or solid boundary (:func:`_contour_integrals`); a fold of a
    top stratum is worth 0.0, as alpha is 0 all along it."""
    q = bases.shape[1] - 1
    values = [[0.0] * len(plist) for plist in pieces]
    errors: list = [None] * len(bases)
    first_bad = [math.inf] * len(bases)

    def fail(b, i, error):
        if i < first_bad[b]:
            first_bad[b], errors[b] = i, error

    groups: dict = {}  # (kind, stratum) -> [(plane, piece index, piece)]
    for b, plist in enumerate(pieces):
        for i, piece in enumerate(plist):
            if piece.kind == "points":
                if q != 0:
                    continue
                keep = X.in_region(piece.source_points)
                try:
                    values[b][i] = float(np.sum(_q0_alphas(
                        piece.stratum, piece.source_params[keep], bases[b, 0],
                        piece.morse_indices[keep])))
                except DegenerateDirectionError as err:
                    fail(b, i, err)
            elif piece.kind == "whole" or (piece.kind == "contour" and piece.stratum.role != "top"):
                groups.setdefault((piece.kind, id(piece.stratum)), []).append((b, i, piece))
            elif piece.kind != "contour":
                raise ValueError(f"unknown piece kind {piece.kind}")
    for (kind, _), items in groups.items():
        S = items[0][2].stratum
        planes = np.array([b for b, _, _ in items])
        if kind == "whole":
            vals, bad = _whole_stratum_integrals(X, S, bases[planes], grids)
        else:
            vals, bad = _contour_integrals(X, S, bases[planes], [piece for _, _, piece in items])
        for (b, i, _), val, error in zip(items, vals, bad):
            values[b][i] = val
            if error is not None:
                fail(b, i, error)
    return values, errors


def _whole_stratum_integrals(X: Shape, S: SmoothStratum, bases: np.ndarray, grids: dict):
    """alpha times the image q-volume of a stratum of dimension q on each
    plane of a stack (B, q + 1, n), by quadrature on its chart, and the
    error of each plane whose alpha cannot be found (else None).  The
    nodes, weights, points and chart Jacobians do not depend on the plane,
    so ``grids`` keeps them for a polar call (see :func:`_plane_free`); the
    projected Jacobians of all planes come from one stacked matmul, which
    gives each plane the bits of its own.  Elements below 1e-14 times the
    shape's radius to the power q are left out."""
    q = bases.shape[1] - 1
    if S.dim != q:
        # image of a lower-dimensional stratum has measure zero
        return [0.0] * len(bases), [None] * len(bases)
    res = 128 if S.dim == 1 else 64
    params, w, pts = _chart_grid(S, res, grids)
    J = _plane_free(grids, ("dr", S.name, res), lambda: S.chart.dr(params))  # (N, d, n)
    Jp = J @ bases.swapaxes(1, 2)[:, None]  # projected chart Jacobians (B, N, d, q + 1)
    gram = Jp @ np.swapaxes(Jp, -1, -2)
    if S.dim == 1:
        element = np.sqrt(np.maximum(gram[..., 0, 0], 0.0))
    else:
        element = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    mask = X.in_region(pts)
    keep = mask & (element >= 1e-14 * np.float64(X.diameter / 2) ** S.dim)  # inf past overflow
    alphas = np.zeros(keep.shape)
    wall = np.zeros(keep.shape, dtype=bool)
    plane, node = np.nonzero(keep)
    alphas[plane, node], wall[plane, node] = _dim_q_alphas(S, params[node], Jp[plane, node],
                                                           bases[plane])
    values = [math.fsum(row.tolist()) for row in w * element * alphas * mask]
    return values, [DegenerateDirectionError(_WALL) if bad else None for bad in wall.any(axis=1)]


def _fold_alphas_batch(S: SmoothStratum, params: np.ndarray, u: np.ndarray, radius: float):
    """(alphas, valid, wall) at a batch of fold points of a surface
    stratum, for one fold normal u (3,) or one per point (N, 3).

    At a fold the projection kernel is spanned by u itself, so the slice
    curvature is II_{x,nu}(u, u); a clean fold makes the slice index along
    one normal sign +1 (a minimum) and along the other -1 (a maximum).
    Weighted by the normal indices along +-nu, alpha is 0 on a top stratum
    and +-1/2 on a solid boundary, where only the inward side counts.
    Points whose curvature times the shape's ``radius`` lies below
    CURVATURE_TOL are cusp-like and flagged invalid; ``wall`` flags the
    points whose nu lies on the wall of :func:`normal_index`.
    """
    params = np.atleast_2d(params)
    J = S.chart.dr(params)  # (N, 2, 3)
    nu = hypersurface_normals(J)
    H = np.einsum("pijn,pn->pij", S.chart.d2r(params), nu)
    # chart coordinates of u: solve (J J^T) c = J u
    G = J @ np.swapaxes(J, -1, -2)
    rhs = (J @ np.broadcast_to(u, (len(params), 3))[..., None])[..., 0]
    c = np.linalg.solve(G, rhs[..., None])[..., 0]
    c2 = np.einsum("pi,pij,pj->p", c, H, c)
    # normalize against |u_tangential|^2 and the radius so the cusp test is
    # scale-free
    tang2 = np.einsum("pi,pij,pj->p", c, G, c)
    curv = c2 / np.maximum(tang2, 1e-300)
    valid = np.abs(curv) * radius > CURVATURE_TOL
    ind_plus = np.where(curv > 0, 1.0, -1.0)  # +nu conormal: min -> +1, max -> -1
    ind_minus = np.where(-curv > 0, 1.0, -1.0)
    up, wall_up = normal_index_many(S, params, nu)
    down, wall_down = normal_index_many(S, params, -nu)
    return 0.5 * (ind_plus * up + ind_minus * down), valid, wall_up | wall_down


def _contour_integrals(X: Shape, S: SmoothStratum, bases: np.ndarray, pieces: list):
    """alpha times image length over traced fold curves of one stratum, the
    piece k on the plane with row basis ``bases[k]``, and the error of each
    (else None).  Each segment a-b is measured with its midpoint m snapped
    onto the fold, by the Richardson step (4 (|a - m| + |m - b|) - |a - b|)
    / 3 of the inscribed polyline, whose error falls from O(h^2) to O(h^4)
    in the segment length h.  A midpoint that the refinement snapped is
    taken from ``source_mids``; the others are snapped in one batch, and
    all fold alphas come from one :func:`_fold_alphas_batch` call.  A
    piece's image and sums are its own, with the bits of a lone piece."""
    values, errors = [0.0] * len(pieces), [None] * len(pieces)
    live = [k for k, piece in enumerate(pieces) if len(piece.geometry) >= 2]
    if not live:
        return values, errors
    U = orthogonal_complements(bases[live])[:, 0]
    counts = np.array([len(pieces[k].geometry) - 1 for k in live])
    u = np.repeat(U, counts, axis=0)
    params = [pieces[k].source_params for k in live]
    mids = np.concatenate([np.full((n, 2), np.nan) if pieces[k].source_mids is None
                           else pieces[k].source_mids for k, n in zip(live, counts)])
    fresh = np.flatnonzero(np.isnan(mids[:, 0]))
    if len(fresh):
        middle = np.concatenate([0.5 * (p[:-1] + p[1:]) for p in params])
        mids[fresh] = _snap_to_contour_batch(S, middle[fresh], u[fresh])
    mid_pts = S.chart.r(mids)
    alphas, valid, wall = _fold_alphas_batch(S, mids, u, X.diameter / 2)
    keep = valid & X.in_region(mid_pts)
    ends = np.cumsum(counts)
    for k, basis, a, b in zip(live, bases[live], ends - counts, ends):
        geo = pieces[k].geometry
        m = mid_pts[a:b] @ basis.T
        chord = np.linalg.norm(geo[1:] - geo[:-1], axis=1)
        halves = np.linalg.norm(m - geo[:-1], axis=1) + np.linalg.norm(geo[1:] - m, axis=1)
        seg_len = (4.0 * halves - chord) / 3.0
        length = float(np.sum(seg_len))
        skipped = float(np.sum(seg_len[~valid[a:b]]))
        if wall[a:b].any():
            errors[k] = DegenerateDirectionError(_WALL)
        elif length > 0 and skipped > 0.05 * length:
            errors[k] = DegeneratePlaneError("too much of a fold image near cusps")
        else:
            values[k] = math.fsum((alphas[a:b][keep[a:b]] * seg_len[keep[a:b]]).tolist())
    return values, errors


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
        (pieces,) = _smooth_pieces(X, P.basis[None], grids)
    except (DegenerateDirectionError, DegenerateHeightError):
        return PolarSample(plane=P, pieces=(), report=DegeneracyReport(fold_violations=["height"]))
    (report,) = _genericity_many(X, P.basis[None], [pieces], grids)
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
        # the planes of a chunk share each stacked pass of polar_sample and
        # of the valuation of its pieces; the cap bounds the memory of fold
        # tracing and overlap tests, so planes with no fold to trace share
        # one pass
        vals = np.zeros(len(bases))
        reasons, parts = [], []
        traced = n == 3 and q == 1 and any(S.dim == 2 for S in X.smooth.strata)
        size = PLANE_CHUNK if traced else len(bases)
        for start in range(0, len(bases), size):
            chunk = bases[start:start + size]
            pieces = _smooth_pieces(X, chunk, grids)
            reports = _genericity_many(X, chunk, pieces, grids)
            pieces = [plist if report.clean else [] for plist, report in zip(pieces, reports)]
            values, errors = _plane_values(X, chunk, pieces, grids)
            width = max(map(len, values))
            sums = _sums_in_order(np.array([v + [0.0] * (width - len(v)) for v in values]))
            for j, plist, report, piece_vals, error in zip(
                    range(start, start + len(chunk)), pieces, reports, values, errors):
                reason, per_stratum = "+".join(report.reasons()) or ("alpha" if error else ""), {}
                if not reason:
                    vals[j] = sums[j - start]
                    for piece, val in zip(plist, piece_vals if keep_rows else ()):
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
