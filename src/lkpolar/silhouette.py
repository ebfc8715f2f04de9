"""Silhouette tracing: the fold curves of a surface stratum in R^3 seen
along a unit normal u, the points where <nu, u> = 0, on a stack of normals.

Each normal's sign grid is the gemv of the stratum's grid normals with u.
From there one pass serves every normal of the stack: the active cells and
their crossed edges, the crossing of each edge by the Illinois variant of
regula falsi, the chain walk into polylines, the unwrap of periodic chart
parameters and the refinement to the chord tolerance.  <nu, u> is summed
point by point with u given per point, and every point stops on its own,
so each normal gets the bits it has alone.  The polar route
(:mod:`lkpolar.polar`) traces the folds of a chunk of planes here;
``polar.trace_silhouette`` is the one-normal view.
"""

from __future__ import annotations

import numpy as np

from .smoothshape import SmoothStratum, hypersurface_normals

# Thresholds of fold tracing (distances relative to the shape diameter)
TRACE_GRID = 256  # sign-grid cells per chart axis of silhouette tracing
CHORD_TOL = 1e-6  # largest gap between a traced polyline and its fold
CROSSING_BRACKET = 2.0**-40  # a fold crossing's last bracket, as a share of its edge
CROSSING_EVALS = 40  # most evaluations of <nu, u> per fold crossing
SNAP_STEPS = 25  # most gradient steps of a chart point snapped onto a fold
REFINE_ROUNDS = 8  # most rounds of segment halving in a polyline's refinement


def _surface_normals(S: SmoothStratum, params: np.ndarray) -> np.ndarray:
    if S.unit_normal is not None:
        return np.asarray(S.unit_normal(params), dtype=float)
    return hypersurface_normals(S.chart.dr(params))


def _silhouette_value(S: SmoothStratum, params: np.ndarray, u: np.ndarray) -> np.ndarray:
    """<nu, u> at a stack of chart points, with one u (3,) for all of them or
    one per point (N, 3), summed point by point: a point's bits then depend
    neither on its batch, as those of a gemv can, nor on sharing its u."""
    N = _surface_normals(S, np.atleast_2d(params))
    return N[:, 0] * u[..., 0] + N[:, 1] * u[..., 1] + N[:, 2] * u[..., 2]


def _snap_to_contour_batch(S, P: np.ndarray, u):
    """Gradient-step refinement of chart points onto {<nu, u> = 0}, batched,
    with one u for all points or one per point.

    Each point stops on its own once it lies within 1e-12 of the contour,
    after at most SNAP_STEPS steps, so its bits do not depend on its batch."""
    P = np.atleast_2d(np.asarray(P, dtype=float)).T.copy()  # as columns (2, N)
    U = np.broadcast_to(u, (P.shape[1], 3))
    live = np.arange(P.shape[1])
    h = 1e-7
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    for _ in range(SNAP_STEPS):
        # np.take and np.compress gather rows far faster than indexing does
        Q, V = np.take(P, live, axis=1).T, np.take(U, live, axis=0)
        g = _silhouette_value(S, Q, V)
        far = np.abs(g) >= 1e-12
        if not np.any(far):
            break
        live, Q, V, g = (np.compress(far, x, axis=0) for x in (live, Q, V, g))
        g0 = (_silhouette_value(S, Q + e0, V) - _silhouette_value(S, Q - e0, V)) / (2 * h)
        g1 = (_silhouette_value(S, Q + e1, V) - _silhouette_value(S, Q - e1, V)) / (2 * h)
        n2 = np.maximum(g0 * g0 + g1 * g1, 1e-18)
        P[0, live] = Q[:, 0] - g * g0 / n2
        P[1, live] = Q[:, 1] - g * g1 / n2
    return P.T.copy()


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


def _active_cells(vals: np.ndarray, periodic) -> tuple:
    """The cells of a sign grid (nx0, nx1) with a corner value below 0 and
    one above, as (rows, columns, corner values (k, 4)), the corners in the
    order (i, j), (i+1, j), (i+1, j+1), (i, j+1) with indices wrapped on a
    periodic axis.  The two signs of each node are the two bits of a byte,
    ORed over the corners of every cell."""
    pos, neg = vals > 0, vals < 0
    if pos.all() or neg.all():  # a flat stratum seen along its normal, say
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, 4))
    sign = pos.view(np.uint8)
    sign = sign + sign  # a shift of a uint8 array takes longer
    sign |= neg.view(np.uint8)
    if periodic[0]:
        sign = np.concatenate([sign, sign[:1]], axis=0)
    if periodic[1]:
        sign = np.concatenate([sign, sign[:, :1]], axis=1)
    sign = sign[:-1] | sign[1:]
    ci, cj = np.divmod(np.flatnonzero((sign[:, :-1] | sign[:, 1:]) == 3), sign.shape[1] - 1)
    nx1 = vals.shape[1]
    ip, jp = (ci + 1) % vals.shape[0], (cj + 1) % nx1
    corners = [ci * nx1 + cj, ip * nx1 + cj, ip * nx1 + jp, ci * nx1 + jp]
    return ci, cj, np.stack([np.take(vals, k) for k in corners], axis=1)


def _trace_planes(S: SmoothStratum, U: np.ndarray, diameter: float, normals: np.ndarray,
                  refine: bool) -> list:
    """The fold polylines of a surface stratum on each plane of a stack with
    unit normals U (B, 3): per plane the list of (params, points, closed,
    mids) of :func:`trace_silhouette`, where ``mids`` holds the snapped
    midpoint of each segment that the refinement tested and NaN for the
    halves of its last round (None unrefined).

    Each plane gets its own gemv ``normals @ u`` (a column of ``normals @
    U.T`` may differ in its last bits) and its own :func:`_active_cells`.
    Then one pass serves all planes: their crossed edges
    (:func:`_crossed_edges`), one :func:`_fold_crossings` call with u given
    per edge, one :func:`_chain_segments` walk, which lists each plane's
    chains in the order of its lone walk, the unwrap, the refinement and the
    chart points.  Every step treats a plane as a lone one, so each plane
    gets the polylines of a stack of one."""
    chart = S.chart
    lo = np.array([b[0] for b in chart.bounds])
    hi = np.array([b[1] for b in chart.bounds])
    per = chart.periodic
    nx = [TRACE_GRID if p else TRACE_GRID + 1 for p in per]
    out: list = [[] for _ in U]
    cells = [_active_cells((normals @ u).reshape(nx), per) for u in U]
    if not any(len(ci) for ci, _, _ in cells):
        return out
    A, B, FA, FB, edge_plane, segments = _crossed_edges(S, U, cells, lo, (hi - lo) / TRACE_GRID, nx)
    M, _ = _fold_crossings(S, np.take(U, edge_plane, axis=0), A, B, FA, FB)
    chains = _chain_segments(segments)
    rows = [np.append(chain, chain[0]) if closed else chain for chain, closed in chains]
    lengths = np.array([len(r) for r in rows])
    params = _unwrap_params(np.take(M, np.concatenate(rows), axis=0), lengths, lo, hi, per)
    if refine:
        line_u = np.take(U, edge_plane[[chain[0] for chain, _ in chains]], axis=0)
        params, points, lengths, mids = _refine_polylines(S, params, lengths, line_u,
                                                          CHORD_TOL * diameter)
    else:
        points, mids = chart.r(params), None
    ends = np.cumsum(lengths)
    for (chain, closed), a, b in zip(chains, ends - lengths, ends):
        out[edge_plane[chain[0]]].append(
            (params[a:b], points[a:b], closed, None if mids is None else mids[a:b - 1]))
    return out


def _crossed_edges(S: SmoothStratum, U: np.ndarray, cells: list, lo: np.ndarray,
                   steps: np.ndarray, nx) -> tuple:
    """The crossed edges of the active cells of a stack of planes, given per
    plane as (rows, columns, corner values) by :func:`_active_cells`, in the
    order the cells first name them: the ends A and B of each in chart
    coordinates, the grid values FA and FB there, its plane, and the fold
    segments (k, 2) as pairs of edges.

    Node (i, j) of the grid is i * nx1 + j; the edge from it along axis 0
    has that id, the edge along axis 1 that id plus nx0 * nx1, with indices
    wrapped on periodic axes, and the ids of plane p are offset by
    2 p nx0 nx1.  A cell with two crossed edges has one segment, a saddle
    cell two, paired by the sign at its centre."""
    nx0, nx1 = nx
    off = nx0 * nx1
    plane = np.repeat(np.arange(len(U)), [len(ci) for ci, _, _ in cells])
    ci, cj, f = (np.concatenate(part) for part in zip(*cells))
    ip, jp = (ci + 1) % nx0, (cj + 1) % nx1
    # the cell's edges in the order bottom, right, top, left
    ids = np.stack([ci * nx1 + cj, off + ip * nx1 + cj, ci * nx1 + jp, off + ci * nx1 + cj],
                   axis=1) + 2 * off * plane[:, None]
    # each edge's values at its ends; np.take and np.compress gather far
    # faster than indexing does
    fa, fb = np.take(f, [0, 1, 3, 0], axis=1), np.take(f, [1, 2, 2, 3], axis=1)
    crossed = fa * fb < 0
    count = crossed.sum(axis=1)

    segs = np.zeros((len(ci), 2, 2), dtype=np.int64)
    keep = np.zeros((len(ci), 2), dtype=bool)
    two = np.flatnonzero(count == 2)
    pair = np.nonzero(np.take(crossed, two, axis=0))[1].reshape(-1, 2)  # the crossed edges
    segs[two, 0] = np.take_along_axis(np.take(ids, two, axis=0), pair, axis=1)
    keep[two, 0] = True
    four = np.flatnonzero(count == 4)
    if len(four):
        centre = lo + (np.stack([ci[four], cj[four]], axis=1) + 0.5) * steps
        same = (_silhouette_value(S, centre, np.take(U, plane[four], axis=0)) > 0) == (f[four, 0] > 0)
        e = ids[four]
        segs[four, 0] = np.where(same[:, None], e[:, [0, 1]], e[:, [0, 3]])
        segs[four, 1] = np.where(same[:, None], e[:, [2, 3]], e[:, [1, 2]])
        keep[four] = True

    named = np.compress(crossed.ravel(), ids)
    uniq, first_seen = np.unique(named, return_index=True)
    order = np.argsort(first_seen)
    first = first_seen[order]
    pending = named[first]
    i, j = np.divmod(pending % off, nx1)
    along1 = pending % (2 * off) >= off
    i1, j1 = i + ~along1, j + along1
    A = lo + np.stack([i, j], axis=1) * steps
    B = lo + np.stack([i1, j1], axis=1) * steps
    FA = np.compress(crossed.ravel(), fa)[first]
    FB = np.compress(crossed.ravel(), fb)[first]
    row = np.empty(len(uniq), dtype=np.int64)
    row[order] = np.arange(len(uniq))
    segments = np.compress(keep.ravel(), segs.reshape(-1, 2), axis=0)
    return A, B, FA, FB, pending // (2 * off), row[np.searchsorted(uniq, segments)]


def _fold_crossings(S: SmoothStratum, u: np.ndarray, A: np.ndarray, B: np.ndarray,
                    FA: np.ndarray, FB: np.ndarray):
    """The zeros of <nu, u> on the chart segments A-B, whose values FA and FB
    at the ends have opposite signs, by the Illinois variant of regula falsi
    (Dowell and Jarratt, BIT 11, 1971), which keeps a bracket and converges
    superlinearly; u is one normal for all segments or one per segment.  A
    point at A + t (B - A) keeps its bracket [a, b] in t with b the newest
    point; a new point on the same side as b halves the value kept at a.  Each segment stops on its own once its bracket is at
    most CROSSING_BRACKET or its value is exactly 0, after at most
    CROSSING_EVALS evaluations, so its bits do not depend on its batch.
    Returns the crossings (the newest points) and the evaluations each took."""
    D = B - A
    U = np.broadcast_to(u, (len(A), 3))
    a = np.zeros(len(A))
    b = np.ones(len(A))
    fa = np.array(FA, dtype=float)
    fb = np.array(FB, dtype=float)
    evals = np.zeros(len(A), dtype=int)
    live = np.arange(len(A))
    for _ in range(CROSSING_EVALS):
        la, lb, lfa, lfb = a[live], b[live], fa[live], fb[live]
        t = lb - lfb * (lb - la) / (lfb - lfa)
        # np.take gathers rows far faster than indexing does
        ft = _silhouette_value(S, np.take(A, live, axis=0) + t[:, None] * np.take(D, live, axis=0),
                               np.take(U, live, axis=0))
        evals[live] += 1
        flip = ft * lfb < 0  # the root lies between b and t: b becomes a
        a[live] = np.where(flip, lb, la)
        fa[live] = np.where(flip, lfb, 0.5 * lfa)
        b[live] = t
        fb[live] = ft
        live = np.compress((np.abs(t - a[live]) > CROSSING_BRACKET) & (ft != 0), live)
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


def _unwrap_params(params, lengths, lo, hi, periodic):
    """Shift the chart parameters of each polyline of a concatenation, with
    point counts ``lengths``, by whole periods so that no step along it
    jumps by more than half a period; each jump shifts the rest of its
    polyline, in order."""
    out = params.copy()
    ends = np.cumsum(lengths)
    for i in range(params.shape[1]):
        if not periodic[i]:
            continue
        span = hi[i] - lo[i]
        d = np.diff(params[:, i])
        d[ends[:-1] - 1] = 0.0  # no step from one polyline to the next
        for r in np.flatnonzero(np.abs(d) > span / 2) + 1:
            out[r:ends[np.searchsorted(ends, r, side="right")], i] += span if d[r - 1] < 0 else -span
    return out


def _refine_polylines(S, params, lengths, U, tol):
    """Split every segment of a concatenation of polylines, with point
    counts ``lengths`` and fold normals U (one per polyline), whose snapped
    midpoint lies farther than tol from its chord, for up to REFINE_ROUNDS
    rounds.  Returns the params, their points, the new point counts, and the
    snapped midpoint of every segment that passed (NaN for the halves made
    in the last round, and between polylines).

    Only open segments are snapped: every segment in the first round, then
    the two halves of each split one, since a segment that passed keeps its
    endpoints, and a snapped point does not depend on its batch."""
    pts = np.asarray(params, dtype=float)
    X = S.chart.r(pts)
    line = np.repeat(np.arange(len(lengths)), lengths)  # the polyline of each point
    seg = np.flatnonzero(line[:-1] == line[1:])  # the open segments
    mids = np.full((len(pts) - 1, 2), np.nan)
    for _ in range(REFINE_ROUNDS):
        # np.take and np.compress gather far faster than indexing does
        snapped = _snap_to_contour_batch(
            S, 0.5 * (np.take(pts, seg, axis=0) + np.take(pts, seg + 1, axis=0)),
            np.take(U, line[seg], axis=0))
        Xm = S.chart.r(snapped)
        chord_mid = 0.5 * (np.take(X, seg, axis=0) + np.take(X, seg + 1, axis=0))
        split = np.linalg.norm(Xm - chord_mid, axis=1) > tol
        mids[np.compress(~split, seg)] = np.compress(~split, snapped, axis=0)
        if not np.any(split):
            break
        at = np.compress(split, seg) + 1
        pts = np.insert(pts, at, np.compress(split, snapped, axis=0), axis=0)
        X = np.insert(X, at, np.compress(split, Xm, axis=0), axis=0)
        line = np.insert(line, at, line[at - 1])
        mids = np.insert(mids, at, np.nan, axis=0)
        # a split segment k becomes k + s and k + s + 1, s splits before it
        seg = at - 1 + np.arange(len(at))
        seg = np.stack([seg, seg + 1], axis=1).ravel()
    return pts, X, np.bincount(line, minlength=len(lengths)), mids
