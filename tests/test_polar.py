import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkpolar.geomkit import LinearSubspace, RandomSource, sample_grassmannian
from lkpolar.geomkit import image_normals
from lkpolar.lkmeasure import Shape, exchange_lambda0, lk_measure, shape_from_name
from lkpolar.plstrata import DegenerateDirectionError, normal_link
from lkpolar import polar, silhouette, smoothshape
from lkpolar.polar import (
    DegeneratePlaneError,
    _overlap_fractions,
    _piece_values,
    _span_flags,
    alpha_index,
    check_genericity,
    polar_image_integral,
    polar_length,
    polar_sample,
    polar_variety,
    trace_silhouette,
)

from lkpolar.silhouette import _surface_normals, _trace_grid_normals
from lkpolar.smoothshape import Chart, DegenerateHeightError, SmoothStratum

from oracles import (
    chain_segments_sets,
    crofton_volume,
    fold_alpha_slice_chi,
    geometric_normal_index,
    halving_crossings,
    height_critical_points_loop,
    overlap_fraction_dense,
    projected_volume,
    span_intersection,
    trace_silhouette_loop,
)

XY_PLANE = LinearSubspace(3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def _generic_plane(seed, n=3, k=2):
    return sample_grassmannian(n, k, RandomSource(seed).generator())


def _oracle_alpha(K, cell, nu):
    """alpha of a PL cell along nu by the geometric sublevel route."""
    link = normal_link(K, cell)
    return 0.5 * (geometric_normal_index(K, cell, nu, link)
                  + geometric_normal_index(K, cell, -nu, link))


def _slice_chi_alpha(K, cell, P):
    return _oracle_alpha(K, cell, image_normals(K.cell_span(cell)[None], P.basis)[0][0])


# ---------------------------------------------------------------------------
# polar varieties
# ---------------------------------------------------------------------------

def test_sphere_silhouette_is_equator():
    sph = shape_from_name("sphere:1")
    pieces = polar_variety(sph, sph.smooth.stratum("sphere"), XY_PLANE)
    assert len(pieces) == 1 and pieces[0].kind == "contour"
    pts = pieces[0].source_points
    err = max(
        float(np.max(np.abs(pts[:, 2]))),
        float(np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0))),
    )
    assert err <= 1e-6


def test_sphere_silhouette_length_on_random_planes():
    # closed contours keep their closing segment, traced across the chart seam
    sph = shape_from_name("sphere:1")
    S = sph.smooth.stratum("sphere")
    gen = RandomSource(5).generator()
    for _ in range(4):
        P = sample_grassmannian(3, 2, gen)
        pieces = polar_variety(sph, S, P)
        assert len(pieces) == 1 and pieces[0].closed
        pts = pieces[0].source_points
        length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
        assert abs(length - 2 * math.pi) <= 1e-5


def _trace_grid(S, g):
    """The chart nodes at which trace_silhouette evaluates normals."""
    chart = S.chart
    axes = []
    for (lo, hi), per in zip(chart.bounds, chart.periodic):
        axes.append(np.linspace(lo, hi, g if per else g + 1, endpoint=not per))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_disk_unit_normal_matches_chart_cross_product():
    disk = shape_from_name("disk:1").smooth
    rot = np.linalg.qr(RandomSource(49).generator().standard_normal((3, 3)))[0]
    rot = rot * np.linalg.det(rot)  # a proper rotation keeps the cross product's sign
    moved = disk.transformed(rotation=rot, translation=np.array([0.3, -1.0, 2.0]), scale=1.5)
    u = _generic_plane(51).orthogonal_complement().basis[0]
    for shape in (disk, moved):
        S = shape.stratum("disk")
        params = _trace_grid(S, silhouette.TRACE_GRID)
        J = S.chart.dr(params)
        nu = np.cross(J[..., 0, :], J[..., 1, :])
        nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
        closed = _surface_normals(S, params)
        assert closed.shape == nu.shape
        if shape is disk:
            # equal up to the sign of zero, so the silhouette values are too
            assert np.array_equal(closed, nu)
            assert np.array_equal(closed @ u, nu @ u)
        else:
            np.testing.assert_allclose(closed, nu, rtol=0.0, atol=1e-14)


def _same_polylines(a, b):
    return len(a) == len(b) and all(
        np.array_equal(pa, pb) and np.array_equal(xa, xb) and ca == cb
        for (pa, xa, ca), (pb, xb, cb) in zip(a, b))


TRACED_STRATA = [("sphere:1", "sphere"), ("torus:2:1", "torus"), ("disk:1", "disk"),
                 ("hemisphere:1", "cap"), ("ball:1", "boundary")]


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("name,stratum", TRACED_STRATA)
def test_trace_silhouette_matches_cell_loop(name, stratum, moved):
    # the array tracer returns the per-cell loop's polylines bit for bit, on
    # seeded planes, the XY plane and the axial torus plane; so does tracing
    # the seeded planes as one stack from one build of the grid normals, as a
    # polar call does
    X = shape_from_name(name).smooth
    if moved:
        rot = np.linalg.qr(RandomSource(57).generator().standard_normal((3, 3)))[0]
        X = X.transformed(rotation=rot, translation=np.array([0.3, -0.2, 1.0]), scale=1.7)
    S = X.stratum(stratum)
    gen = RandomSource(59).generator()
    normals = [sample_grassmannian(3, 2, gen).orthogonal_complement().basis[0] for _ in range(8)]
    normals += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]
    for k, u in enumerate(normals):
        traced = trace_silhouette(S, u, X.diameter)
        assert _same_polylines(traced, trace_silhouette_loop(S, u, X.diameter)), u
        if k < 8 and name != "disk:1":
            assert traced  # a seeded plane sees a fold on every curved stratum
    stacked = silhouette._trace_planes(S, np.array(normals[:8]), X.diameter,
                                       _trace_grid_normals(S), True)
    for u, polylines in zip(normals[:8], stacked):
        assert _same_polylines([(params, pts, closed) for params, pts, closed, _ in polylines],
                               trace_silhouette_loop(S, u, X.diameter)), u


def _saddle_stratum(s0, t0):
    """The flat square [-1/2, 1/2]^2 in the plane z = 0, with a closed-form
    unit normal field nu(s, t) = (sqrt(1 - f^2), 0, f), f = (s - s0)(t - t0):
    along u = e3 its silhouette is the cross s = s0, t = t0."""
    def r(p):
        p = np.asarray(p, dtype=float)
        return np.stack([p[..., 0], p[..., 1], np.zeros_like(p[..., 0])], axis=-1)

    def unit_normal(p):
        p = np.asarray(p, dtype=float)
        f = (p[..., 0] - s0) * (p[..., 1] - t0)
        return np.stack([np.sqrt(1.0 - f * f), np.zeros_like(f), f], axis=-1)

    flat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    chart = Chart(dim=2, bounds=((-0.5, 0.5), (-0.5, 0.5)), periodic=(False, False), r=r,
                  dr=lambda p: np.broadcast_to(flat, np.shape(p)[:-1] + (2, 3)),
                  d2r=lambda p: np.zeros(np.shape(p)[:-1] + (2, 2, 3)))
    return SmoothStratum(name="saddle", dim=2, chart=chart, unit_normal=unit_normal)


def test_trace_silhouette_pairs_saddle_cell_by_centre_sign():
    # (s0, t0) lies inside one grid cell, whose corners alternate in sign;
    # the centre value has the sign opposite to the corner (i, j), so that
    # cell pairs its bottom edge with its left one and its right edge with
    # its top one: two bent polylines, where skipping the cell would leave
    # four straight ones ending at it
    step = 1.0 / silhouette.TRACE_GRID
    s0 = -0.5 + 128.3 * step
    t0 = -0.5 + 100.6 * step
    S = _saddle_stratum(s0, t0)
    u = np.array([0.0, 0.0, 1.0])
    traced = trace_silhouette(S, u, math.sqrt(2.0))
    assert _same_polylines(traced, trace_silhouette_loop(S, u, math.sqrt(2.0)))
    assert len(traced) == 2 and not any(closed for _, _, closed in traced)

    def ends(a, b):
        return sorted(np.round([a, b], 9).tolist())

    assert sorted(ends(p[0], p[-1]) for p, _, _ in traced) == sorted(
        [ends((s0, -0.5), (-0.5, t0)), ends((s0, 0.5), (0.5, t0))])


def _swept_stratum(name, stratum, moved):
    """A traced stratum of the sweep, as the cell-loop test moves it, and
    its seeded plane normals plus the two axial ones."""
    X = shape_from_name(name).smooth
    if moved:
        rot = np.linalg.qr(RandomSource(57).generator().standard_normal((3, 3)))[0]
        X = X.transformed(rotation=rot, translation=np.array([0.3, -0.2, 1.0]), scale=1.7)
    gen = RandomSource(59).generator()
    normals = [sample_grassmannian(3, 2, gen).orthogonal_complement().basis[0] for _ in range(8)]
    return X, X.stratum(stratum), normals + [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("name,stratum", TRACED_STRATA)
def test_fold_crossings_keep_the_precision_of_halving(name, stratum, moved, monkeypatch):
    # each Illinois crossing lies within 1e-13 chart units of the crossing
    # that 40 halvings of its edge give, none needs the cap on its
    # evaluations, and the chains are those of the set-of-tuples walk
    X, S, normals = _swept_stratum(name, stratum, moved)
    evals, chains = [], []
    crossings, chain = silhouette._fold_crossings, silhouette._chain_segments

    def spy_crossings(*args):
        M, taken = crossings(*args)
        evals.append(taken)
        return M, taken

    def spy_chains(segments):
        out = chain(segments)
        chains.append((segments, out))
        return out

    monkeypatch.setattr(silhouette, "_fold_crossings", spy_crossings)
    monkeypatch.setattr(silhouette, "_chain_segments", spy_chains)
    for u in normals:
        traced = trace_silhouette(S, u, X.diameter, refine=False)
        halved = trace_silhouette_loop(S, u, X.diameter, crossing_rule=halving_crossings,
                                       refine=False)
        assert [closed for _, _, closed in traced] == [closed for _, _, closed in halved]
        for (a, _, _), (b, _, _) in zip(traced, halved):
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-13, u
    assert all(e.max(initial=0) < silhouette.CROSSING_EVALS for e in evals)
    for segments, out in chains:
        reference = chain_segments_sets(segments.tolist())
        assert [(c.tolist(), closed) for c, closed in out] == reference


@pytest.mark.parametrize("name,stratum", [("torus:2:1", "torus"), ("hemisphere:1", "cap")])
@pytest.mark.parametrize("moved", [False, True])
def test_a_fold_crossing_keeps_its_bits_alone(name, stratum, moved, monkeypatch):
    # a crossing and its evaluation count do not depend on the other edges
    # of its batch: each edge solved alone, and in runs of 2 and 5, gives
    # the bits it has among all the edges of the trace; the normal u comes
    # one per edge, as the planes of a stack share the call
    X, S, normals = _swept_stratum(name, stratum, moved)
    batches = []
    crossings = silhouette._fold_crossings
    monkeypatch.setattr(silhouette, "_fold_crossings",
                        lambda *args: batches.append(args) or crossings(*args))
    trace_silhouette(S, normals[0], X.diameter, refine=False)
    (S, u, A, B, FA, FB), = batches
    M, taken = crossings(S, u, A, B, FA, FB)
    assert len(M) > 100
    for size in (1, 2, 5):
        for k in range(0, len(M), 3 * size):
            part = slice(k, k + size)
            alone, steps = crossings(S, u[part], A[part], B[part], FA[part], FB[part])
            assert np.array_equal(alone, M[part]) and np.array_equal(steps, taken[part])


@st.composite
def _segment_sets(draw):
    """Segments (pairs of distinct edge ids) of disjoint open paths and
    closed loops, in a drawn order and orientation: the shapes a sign grid
    chains.  A saddle cell names its two segments side by side, each in its
    own chain; so do up to three drawn pairs of segments of two chains."""
    sizes = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 12)), min_size=1, max_size=6))
    ids = iter(draw(st.permutations(range(10_000, 10_000 + sum(n + 2 for _, n in sizes)))))
    chains = []
    for closed, n in sizes:
        nodes = [next(ids) for _ in range(n + 2 if closed else n + 1)]
        chains.append(list(zip(nodes, nodes[1:] + nodes[:1] if closed else nodes[1:])))
    segments = [seg for chain in chains for seg in chain]
    order = draw(st.permutations(range(len(segments))))
    flips = draw(st.lists(st.booleans(), min_size=len(segments), max_size=len(segments)))
    segments = [segments[i][::-1] if f else segments[i] for i, f in zip(order, flips)]
    if len(chains) > 1:
        for _ in range(draw(st.integers(0, 3))):
            pair = draw(st.lists(st.integers(0, len(chains) - 1), min_size=2, max_size=2,
                                 unique=True))
            a, b = [{frozenset(seg) for seg in chains[c]} for c in pair]
            ka = next(k for k, seg in enumerate(segments) if frozenset(seg) in a)
            kb = next(k for k, seg in enumerate(segments) if frozenset(seg) in b)
            segments.insert(ka + (kb > ka), segments.pop(kb))  # b's next to a's
    return segments


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segments=_segment_sets())
def test_chain_walk_matches_the_set_walk(segments):
    out = silhouette._chain_segments(np.array(segments, dtype=np.int64))
    assert [(c.tolist(), closed) for c, closed in out] == chain_segments_sets(segments)


def test_sphere_antipodal_critical_points_at_q0():
    sph = shape_from_name("sphere:1")
    v = np.array([0.2, -0.3, 0.93])
    v /= np.linalg.norm(v)
    P = LinearSubspace(3, v[None, :])
    pieces = polar_variety(sph, sph.smooth.stratum("sphere"), P)
    assert len(pieces) == 1 and pieces[0].kind == "points"
    pts = pieces[0].source_points
    assert len(pts) == 2
    # the critical points of the height along v are the two v-poles
    assert np.allclose(np.sort(pts @ v), [-1.0, 1.0], atol=1e-9)


def test_sphere_chart_seam_direction_resampled():
    # a height along the chart seam presses its critical points against the
    # chart edge; the finder raises so the caller resamples the direction
    sph = shape_from_name("sphere:1")
    P = LinearSubspace(3, np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(DegenerateHeightError):
        polar_variety(sph, sph.smooth.stratum("sphere"), P)


def test_cube_polar_pieces_are_low_cells():
    cube = shape_from_name("cube")
    K = cube.pl
    P = _generic_plane(3)
    sample = polar_sample(cube, P)
    assert not sample.degenerate
    # vertices and edges are polar whole; no face or volume pieces
    pieces = {cell: polar_variety(cube, cell, P) for cell in K.all_cells()}
    dims = sorted({len(cell) - 1 for cell, found in pieces.items() if found})
    assert dims == [0, 1]
    for cell, found in pieces.items():
        if found:
            (piece,) = found
            assert piece.stratum == cell and piece.kind == "cell"
            assert np.array_equal(piece.geometry, K.vertices[list(cell)] @ P.basis.T)
    edges = [cell for cell, found in pieces.items() if found and len(cell) == 2]
    assert len(edges) == 19  # 12 cube edges + 6 face diagonals + main diagonal
    # the sample of a complex is its span check alone, with no pieces
    assert sample.pieces == ()


def test_cube_diagonal_cells_weigh_nothing():
    cube = shape_from_name("cube")
    K = cube.pl
    P = _generic_plane(5)
    verts = K.vertices
    for cell in K.cells[1]:
        a, b = verts[list(cell)]
        is_cube_edge = np.sum(np.abs(a - b) > 1e-12) == 1
        alpha = alpha_index(cube, cell, None, P)
        if not is_cube_edge:
            assert alpha == 0.0, cell
        else:
            assert alpha in (0.0, 0.5)


def test_flat_disk_top_stratum_has_empty_polar_set():
    disk = shape_from_name("disk:1")
    pieces = polar_variety(disk, disk.smooth.stratum("disk"), _generic_plane(7))
    assert pieces == []


# ---------------------------------------------------------------------------
# genericity checks
# ---------------------------------------------------------------------------

def test_sphere_equator_plane_clean():
    sph = shape_from_name("sphere:1")
    sample = polar_sample(sph, XY_PLANE)
    assert not sample.degenerate
    assert sample.report.clean


def test_axial_torus_plane_flagged():
    tor = shape_from_name("torus:2:1")
    for t in (0.0, 0.4, 1.1):
        w = np.array([math.cos(t), math.sin(t), 0.0])
        P = LinearSubspace.from_vectors(np.array([[0.0, 0.0, 1.0], w]))
        sample = polar_sample(tor, P)
        assert sample.degenerate


def test_axis_aligned_cube_plane_flagged():
    cube = shape_from_name("cube")
    sample = polar_sample(cube, XY_PLANE)
    assert sample.degenerate
    assert "span" in sample.report.reasons()
    # at q = 1, P-perp is the e3 axis, which the cube's e3 edges lie in
    verts = cube.pl.vertices
    e3_edges = [e for e in cube.pl.cells[1]
                if np.allclose(np.abs(verts[e[1]] - verts[e[0]]), [0.0, 0.0, 1.0])]
    assert len(e3_edges) == 4
    assert set(e3_edges) <= {cell for cell, _, _ in sample.report.span_flags}


def _span_test_planes():
    """Fixed random planes of each order, plus axis-aligned ones that flag."""
    gen = RandomSource(41).generator()
    planes = [sample_grassmannian(3, q + 1, gen) for q in (0, 1, 2) for _ in range(4)]
    planes.append(XY_PLANE)
    planes.append(LinearSubspace(3, np.array([[1.0, 0.0, 0.0]])))
    planes.append(LinearSubspace.from_vectors(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])))
    return planes


def test_span_flags_match_per_cell_reference():
    flagged = 0
    for name in ("cube", "cube-boundary", "octahedron", "torus7"):
        K = shape_from_name(name).pl
        for P in _span_test_planes():
            comp = P.orthogonal_complement().basis
            for d, cells in K.cells.items():
                if d == 3:
                    continue
                flags, dims, clearances = _span_flags(K.plan.spans[d], comp)
                expected = max(0, d + len(comp) - 3)
                for i, cell in enumerate(cells):
                    dim, clearance = span_intersection(K.cell_span(cell), comp)
                    flag = dim > expected or (
                        expected < min(d, len(comp)) and clearance < polar.SPAN_ANGLE_MIN)
                    assert (bool(flags[i]), int(dims[i])) == (flag, dim), (name, cell)
                    assert clearances[i] == pytest.approx(clearance, abs=1e-12)
                    flagged += flag
    assert flagged > 0  # the axis-aligned planes exercise the flag


def _image_normal_alone(vectors, P):
    """The image normal of one cell, one lone numpy call at a time."""
    coords = vectors @ P.basis.T
    if coords.shape[0] == 0:
        nu_coords = np.eye(P.dim)[0]
    else:
        _, s, vt = np.linalg.svd(coords, full_matrices=True)
        if s.min() < 1e-10:
            raise DegenerateDirectionError("projection of the span is degenerate")
        nu_coords = vt[-1]
    nu = nu_coords @ P.basis
    return nu / np.linalg.norm(nu)


def _volume_alone(points):
    e = points[1:] - points[0]
    if len(e) == 0:
        return 1.0
    return math.sqrt(max(np.linalg.det(e @ e.T), 0.0)) / math.factorial(len(e))


def test_batched_cell_values_match_per_cell_alpha(kuhn_grid):
    grid = Shape(name="grid", pl=kuhn_grid(2))
    for X in (shape_from_name("cube"), shape_from_name("torus7"), grid):
        K = X.pl
        gen = RandomSource(43).generator()
        for q in (0, 1, 2):
            rows = np.arange(len(K.cells[q]))
            for _ in range(3):
                P = sample_grassmannian(3, q + 1, gen)
                sample = polar_sample(X, P)
                if sample.degenerate:
                    continue
                images = polar._pl_images(K, q, P.basis[None])
                values, flagged = polar._pl_cell_values_many(X, images, rows, P.basis[None])
                images = images[0]
                try:
                    reference = [
                        _oracle_alpha(K, cell, _image_normal_alone(K.cell_span(cell), P))
                        * _volume_alone(images[i])
                        for i, cell in enumerate(K.cells[q])
                    ]
                except DegenerateDirectionError:
                    assert flagged[0]
                    continue
                assert not flagged[0]
                values = values[0].tolist()
                assert values == reference
                # the one-cell views read the same rows, bit for bit
                for i, cell in enumerate(K.cells[q]):
                    assert polar_image_integral(X, cell, P) == values[i]
                    (piece,) = polar_variety(X, cell, P)
                    assert np.array_equal(piece.geometry, images[i])
                lone = [_image_normal_alone(K.cell_span(c), P) for c in K.cells[q]]
                normals, degenerate = image_normals(K.plan.spans[q], P.basis)
                assert np.array_equal(normals, np.stack(lone)) and not degenerate.any()


def test_one_cell_views_read_one_cell(kuhn_grid, monkeypatch):
    # polar_variety and polar_image_integral on a cell read that cell alone,
    # with no span check of the whole complex, and over the q-cells they add
    # up to the chunk route's value of the plane, bit for bit
    X = Shape(name="grid", pl=kuhn_grid(3))
    res = polar_length(X, 1, 1, RandomSource(53), keep_rows=True)
    _, basis, parts, reason = res.per_plane[-1]
    assert reason == ""
    P = LinearSubspace(3, basis)

    def no_span_check(*args):
        raise AssertionError("a one-cell view ran the span check of the complex")

    monkeypatch.setattr(polar, "_pl_span_flags", no_span_check)
    values = []
    for cell in X.pl.cells[1]:
        (piece,) = polar_variety(X, cell, P)
        assert piece.stratum == cell
        values.append(polar_image_integral(X, cell, P))
    assert len(values) == 279
    assert [v.hex() for v in values] == [v.hex() for v in parts.values()]
    total = polar._sum_in_order(values)
    assert total == polar._sum_in_order(list(parts.values()))
    assert res.estimate.value == pytest.approx(polar.polar_length_constant(3, 1) * total,
                                               rel=1e-15)


def _one_overlap(a_img, a_src, b_img, b_src, dist_tol, src_tol):
    """The fraction of the one test (a, b) of :func:`_overlap_fractions`."""
    curves = [(a_img, a_src, 0), (b_img, b_src, 0)]
    return _overlap_fractions(curves, [(0, 1)], dist_tol, src_tol)[0]


def _dense_overlap_fraction(a_img, a_src, b_img, b_src, dist_tol, src_tol):
    """Reference for one test of :func:`_overlap_fractions`: every probe
    against every segment, in (probes, segments, dim) tensors."""
    ka = np.linspace(0, len(a_img) - 1, min(len(a_img), 256)).astype(int)
    kb = np.linspace(0, len(b_img) - 1, min(len(b_img), 512)).astype(int)
    pa, sa = a_img[ka], a_src[ka]
    qb, sb = b_img[kb], b_src[kb]
    if len(pa) == 0 or len(qb) < 2:
        return 0.0
    seg_a, seg_b = qb[:-1], qb[1:]
    seg = seg_b - seg_a
    seg_len2 = np.maximum(np.sum(seg**2, axis=1), 1e-300)
    rel = pa[:, None, :] - seg_a[None, :, :]
    t = np.clip(np.einsum("nmd,md->nm", rel, seg) / seg_len2, 0.0, 1.0)
    closest = seg_a[None, :, :] + t[..., None] * seg[None, :, :]
    d2_img = np.sum((pa[:, None, :] - closest) ** 2, axis=2)
    d2_src = np.minimum(
        np.sum((sa[:, None, :] - sb[None, :-1, :]) ** 2, axis=2),
        np.sum((sa[:, None, :] - sb[None, 1:, :]) ** 2, axis=2),
    )
    witness = (d2_img <= dist_tol**2) & (d2_src >= src_tol**2)
    return float(np.mean(np.any(witness, axis=1)))


def _overlap_cases():
    """(a_img, a_src, b_img, b_src, dist_tol, src_tol) of the contour self
    pairs, contour pairs and contour/rim pairs that check_genericity tests,
    on fixed planes."""
    gen = RandomSource(43).generator()
    axial = LinearSubspace.from_vectors(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    tilted = LinearSubspace.from_vectors(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]]))
    for name, extra in (("sphere:1", [XY_PLANE]), ("torus:2:1", [axial]),
                        ("hemisphere:1", [XY_PLANE, tilted])):
        X = shape_from_name(name)
        dist_tol = polar.OVERLAP_DISTANCE * X.diameter
        src_tol = 0.05 * X.diameter
        rims = [S for S in X.smooth.strata if S.role == "rim"]
        for P in [sample_grassmannian(3, 2, gen) for _ in range(3)] + extra:
            contours = [piece for S in X.smooth.strata for piece in polar_variety(X, S, P)
                        if piece.kind == "contour"]
            for i, a in enumerate(contours):
                for b in contours[i:]:
                    yield a.geometry, a.source_points, b.geometry, b.source_points, dist_tol, src_tol
                for rim in rims:
                    rim_pts = rim.chart.r(rim.chart.grid(256)[0])
                    yield (a.geometry, a.source_points, P.coords(rim_pts), rim_pts,
                           dist_tol, src_tol)


def _coincident_polylines():
    """Synthetic images that overlap along a stretch, with far-apart sources."""
    t = np.linspace(0.0, 1.0, 700)
    line = np.stack([t, 0.5 * t], axis=-1)
    src_a = np.stack([t, t, np.zeros_like(t)], axis=-1)
    src_b = src_a + np.array([0.0, 0.0, 1.0])
    yield line, src_a, line + 3e-5, src_b, 1e-4, 0.1  # coincident within tolerance
    yield line, src_a, line[::-1][200:], src_b[::-1][200:], 1e-4, 0.1  # partial, reversed
    bent = np.stack([t, 0.5 * t + np.where(t > 0.5, t - 0.5, 0.0)], axis=-1)
    yield bent, src_a, line, src_b, 1e-4, 0.1  # they part half way
    yield line, src_a, line + 3e-5, src_a, 1e-4, 0.1  # same sources: no witness
    yield line, src_a, line[:1], src_b[:1], 1e-4, 0.1  # one point: no segment


def test_pruned_overlap_matches_dense_reference():
    fired = 0
    cases = list(_overlap_cases()) + list(_coincident_polylines())
    for a_img, a_src, b_img, b_src, dist_tol, src_tol in cases:
        frac = _one_overlap(a_img, a_src, b_img, b_src, dist_tol, src_tol)
        assert frac == _dense_overlap_fraction(a_img, a_src, b_img, b_src, dist_tol, src_tol)
        fired += frac > polar.OVERLAP_FRACTION
    assert len(cases) > 20
    # the axial torus plane and the synthetic overlaps make the flag fire
    assert fired >= 4


def test_windowed_overlap_matches_the_dense_prefilter():
    # the candidates of the windowed prefilter are the pairs of the dense one,
    # on the recorded contour, cap/rim and torus inputs, bit for bit
    cases = list(_overlap_cases()) + list(_coincident_polylines())
    for case in cases:
        assert _one_overlap(*case) == overlap_fraction_dense(*case)


@st.composite
def _overlapping_polylines(draw):
    """Two image polylines in the plane and their sources in R^3: a random
    walk a, and b made of a stretch of a shifted within or past the
    tolerance, with a repeated point (a zero-length segment) and a tail of
    its own."""
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    a = np.array(draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=80)))
    start = draw(st.integers(0, len(a) - 1))
    stop = draw(st.integers(start, len(a)))
    shift = np.array(draw(st.tuples(st.floats(-3e-4, 3e-4), st.floats(-3e-4, 3e-4))))
    tail = np.array(draw(st.lists(st.tuples(coords, coords), min_size=0, max_size=20))).reshape(-1, 2)
    b = np.concatenate([a[start:stop] + shift, tail])
    if len(b):
        at = draw(st.integers(0, len(b) - 1))
        b = np.insert(b, at, b[at], axis=0)
    lift = draw(st.floats(0.0, 1.0))
    a_src = np.column_stack([a, np.zeros(len(a))])
    b_src = np.column_stack([b, np.full(len(b), lift)])
    dist_tol = draw(st.floats(1e-5, 1e-2))
    src_tol = draw(st.floats(0.0, 0.5))
    return a, a_src, b, b_src, dist_tol, src_tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_overlapping_polylines())
def test_windowed_overlap_matches_the_dense_prefilter_on_drawn_polylines(case):
    a, a_src, b, b_src, dist_tol, src_tol = case
    assert _one_overlap(*case) == overlap_fraction_dense(*case)
    assert _one_overlap(a, a_src, a, a_src, dist_tol, src_tol) == overlap_fraction_dense(
        a, a_src, a, a_src, dist_tol, src_tol)


def test_uniform_rejection_rate_below_one_percent():
    for name in ("cube", "sphere:1", "torus:2:1", "disk:1"):
        X = shape_from_name(name)
        gen = RandomSource(11).generator()
        rejected = 0
        n = 120
        for _ in range(n):
            P = sample_grassmannian(3, 2, gen)
            rejected += polar_sample(X, P).degenerate
        assert rejected / n < 0.01, name


@pytest.mark.parametrize("name", ["sphere:1", "torus:2:1", "hemisphere:1"])
def test_flags_only_folds_keep_the_flags_of_refined_folds(name):
    # polar_sample traces the folds of a top stratum without refinement, for
    # their flags only.  On the hemisphere, whose rim is valued, a changed
    # flag could move an estimate, so the reasons must be those of
    # check_genericity on the refined pieces of polar_variety.  On the
    # sphere and the torus every plane is worth 0.0 whatever its flags; the
    # coarser polyline may gain a self-overlap flag there, but lose none
    X = shape_from_name(name)
    gen = RandomSource(47).generator()
    axial = [LinearSubspace.from_vectors(np.array([[0.0, 0.0, 1.0], [math.cos(t), math.sin(t), 0.0]]))
             for t in (0.0, 0.4, 1.1)]
    tilted = LinearSubspace.from_vectors(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]]))
    planes = [sample_grassmannian(3, 2, gen) for _ in range(200)] + [XY_PLANE, *axial, tilted]
    differ = []
    for P in planes:
        flags_only = polar_sample(X, P).report.reasons()
        pieces = [piece for S in X.smooth.strata for piece in polar_variety(X, S, P)]
        refined = check_genericity(X, P, pieces).reasons()
        if flags_only != refined:
            differ.append((flags_only, refined))
    if name == "hemisphere:1":
        assert differ == []
    else:
        assert all(a == ["double"] and b == [] for a, b in differ), differ


# ---------------------------------------------------------------------------
# alpha indices
# ---------------------------------------------------------------------------

def test_sphere_fold_alpha_zero():
    sph = shape_from_name("sphere:1")
    S = sph.smooth.stratum("sphere")
    pieces = polar_variety(sph, S, XY_PLANE)
    params = pieces[0].source_params
    pts = pieces[0].source_points
    for i in (3, len(params) // 2):
        a = alpha_index(sph, S, (params[i], pts[i]), XY_PLANE)
        assert a == 0.0


def test_fold_alpha_slice_chi_mode_agrees():
    sph = shape_from_name("sphere:1")
    S = sph.smooth.stratum("sphere")
    pieces = polar_variety(sph, S, XY_PLANE)
    params = pieces[0].source_params
    pts = pieces[0].source_points
    i = len(params) // 3
    assert alpha_index(sph, S, (params[i], pts[i]), XY_PLANE) == 0.0
    assert fold_alpha_slice_chi(sph, S, params[i], XY_PLANE) == 0.0


def test_disk_rim_alpha_half():
    disk = shape_from_name("disk:1")
    rim = disk.smooth.stratum("rim")
    P = _generic_plane(13)
    p = np.array([0.7])
    x = rim.chart.r(p)
    assert alpha_index(disk, rim, (p, x), P) == 0.5


def _per_node_whole_integral(X, S, P):
    """Reference for the value of a stratum of dimension q taken whole:
    alpha node by node, with the half-branch rule written out."""
    params, w = S.chart.grid(128 if S.dim == 1 else 64)
    Jp = S.chart.dr(params) @ P.basis.T
    gram = Jp @ np.swapaxes(Jp, -1, -2)
    if S.dim == 1:
        element = np.sqrt(np.maximum(gram[..., 0, 0], 0.0))
    else:
        element = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    alphas = np.zeros(len(params))
    for i, p in enumerate(params):
        if element[i] < 1e-14 * (X.diameter / 2) ** S.dim:
            continue
        if S.role == "top":
            alphas[i] = 1.0
            continue
        nu = image_normals(S.chart.dr(p)[None], P.basis)[0][0]
        w_in = S.inward_conormal(np.atleast_2d(p))[0]
        if abs(float(nu @ w_in)) < 1e-9:
            raise DegenerateDirectionError("conormal tangent to the image normal")
        alphas[i] = 0.5
    return float(math.fsum((w * element * alphas).tolist()))


def test_stacked_whole_stratum_alpha_matches_per_node_loop():
    gen = RandomSource(45).generator()
    for name, stratum, q in (("disk:1", "rim", 1), ("hemisphere:1", "rim", 1),
                             ("ball:1", "boundary", 2), ("sphere:1", "sphere", 2),
                             ("circle:1", "circle", 1)):
        X = shape_from_name(name)
        S = X.smooth.stratum(stratum)
        for _ in range(4):
            P = sample_grassmannian(3, q + 1, gen)
            value = polar_image_integral(X, S, P)
            assert value == _per_node_whole_integral(X, S, P), (name, stratum)
            assert value > 0.0


def test_critical_point_alphas_match_per_point_loop():
    # the points piece sums alpha from the Morse index its Newton solve found;
    # alpha_index finds the index again from the chart Hessian at each point
    gen = RandomSource(53).generator()
    points = 0
    for name in ("sphere:1", "torus:2:1", "disk:1", "hemisphere:1", "ball:1", "circle:1"):
        X = shape_from_name(name)
        for _ in range(3):
            P = sample_grassmannian(3, 1, gen)
            for S in X.smooth.strata:
                for piece in polar_variety(X, S, P):
                    loop = 0.0
                    for params, point in zip(piece.source_params, piece.source_points):
                        loop += alpha_index(X, S, (params, point), P)
                    assert polar_image_integral(X, S, P, pieces=[piece]) == loop, name
                    points += len(piece.source_points)
    assert points > 30


def test_degenerate_rim_node_raises():
    disk = shape_from_name("disk:1")
    hemi = shape_from_name("hemisphere:1")
    # with e3 in the plane, the disk rim's image normal is e3 at every node,
    # orthogonal to the radial conormal; the hemisphere rim under the XY
    # plane has a radial image normal, orthogonal to its conormal e3
    vertical = LinearSubspace.from_vectors(np.array([[0.0, 0.0, 1.0], [0.8, 0.6, 0.0]]))
    for X, P in ((disk, vertical), (hemi, XY_PLANE)):
        rim = X.smooth.stratum("rim")
        with pytest.raises(DegenerateDirectionError):
            polar_image_integral(X, rim, P)
        with pytest.raises(DegenerateDirectionError):
            _per_node_whole_integral(X, rim, P)
        p = np.array([0.7])
        with pytest.raises(DegenerateDirectionError):
            alpha_index(X, rim, (p, rim.chart.r(p)), P)


def test_cube_facet_alpha_half_at_q2():
    cube = shape_from_name("cube")
    P = LinearSubspace.full(3)
    facet = next(
        t for t in cube.pl.cells[2] if np.allclose(cube.pl.vertices[list(t)][:, 2], 0.0)
    )
    assert alpha_index(cube, facet, None, P) == 0.5
    assert _slice_chi_alpha(cube.pl, facet, P) == 0.5


def test_pl_alpha_slice_chi_matches_closed_form():
    cube = shape_from_name("cube")
    K = cube.pl
    gen = RandomSource(17).generator()
    for seed in range(6):
        P = sample_grassmannian(3, 2, gen)
        for cell in K.cells[1][:8]:
            try:
                a = alpha_index(cube, cell, None, P)
                b = _slice_chi_alpha(K, cell, P)
            except Exception:
                continue
            assert a == b, cell


def test_fold_alpha_locally_constant():
    # two nearby points of the same fold arc carry the same index
    tor = shape_from_name("torus:2:1")
    S = tor.smooth.stratum("torus")
    P = _generic_plane(19)
    pieces = polar_variety(tor, S, P)
    piece = max(pieces, key=lambda p: len(p.source_params))
    params = piece.source_params
    i = len(params) // 4
    a1 = alpha_index(tor, S, (params[i], piece.source_points[i]), P)
    a2 = alpha_index(tor, S, (params[i + 1], piece.source_points[i + 1]), P)
    assert a1 == a2


# ---------------------------------------------------------------------------
# image integrals
# ---------------------------------------------------------------------------

def test_disk_rim_image_integral_is_half_projection_length():
    disk = shape_from_name("disk:1")
    rim = disk.smooth.stratum("rim")
    P = _generic_plane(23)
    m = polar_image_integral(disk, rim, P)
    # independent oracle: half the perimeter of the projected rim ellipse
    t = np.linspace(0.0, 2 * math.pi, 20000, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    proj = ring @ P.basis.T
    length = float(np.sum(np.linalg.norm(np.diff(proj, axis=0, append=proj[:1]), axis=1)))
    assert m == pytest.approx(0.5 * length, rel=1e-4)


def test_cube_q2_image_integral_three():
    cube = shape_from_name("cube")
    P = LinearSubspace.full(3)
    total = 0.0
    for cell in cube.pl.cells[2]:
        total += polar_image_integral(cube, cell, P)
    assert total == pytest.approx(3.0, abs=1e-12)


def test_ball_boundary_q1_image_integral_is_pi():
    # the silhouette of the unit sphere is a great circle, whose image has
    # length 2 pi; on a solid boundary only the inward side counts, so
    # alpha = 1/2 along it, and the midpoint-corrected length is exact to
    # far below the inscribed polyline's O(h^2) shortfall
    ball = shape_from_name("ball:1")
    S = ball.smooth.stratum("boundary")
    gen = RandomSource(53).generator()
    for _ in range(2):
        P = sample_grassmannian(3, 2, gen)
        assert abs(polar_image_integral(ball, S, P) - math.pi) <= 1e-10


def test_closed_surface_q1_integral_zero():
    for name in ("sphere:1", "torus:2:1"):
        X = shape_from_name(name)
        S = X.smooth.strata[0]
        P = _generic_plane(29)
        m = polar_image_integral(X, S, P)
        assert m == 0.0


# ---------------------------------------------------------------------------
# polar lengths
# ---------------------------------------------------------------------------

def test_polar_length_cube_vector():
    cube = shape_from_name("cube")
    refs = [1.0, 3.0, 3.0, 1.0]
    r0 = polar_length(cube, 0, 200, RandomSource(31))
    assert r0.estimate.value == pytest.approx(1.0, abs=1e-12)
    r1 = polar_length(cube, 1, 800, RandomSource(32))
    assert abs(r1.estimate.value - 3.0) <= 3 * r1.estimate.std_error
    r2 = polar_length(cube, 2, 1, RandomSource(33))
    assert r2.estimate.value == pytest.approx(3.0, abs=1e-12)
    r3 = polar_length(cube, 3, 1, RandomSource(34))
    assert r3.estimate.value == pytest.approx(1.0, abs=1e-12)


def test_polar_length_disk():
    disk = shape_from_name("disk:1")
    r0 = polar_length(disk, 0, 150, RandomSource(35))
    assert r0.estimate.value == pytest.approx(1.0, abs=1e-9)
    r1 = polar_length(disk, 1, 250, RandomSource(36))
    assert abs(r1.estimate.value - math.pi) <= 3 * r1.estimate.std_error
    r2 = polar_length(disk, 2, 1, RandomSource(37))
    assert r2.estimate.value == pytest.approx(math.pi, rel=1e-9)


def test_polar_length_equals_exchange_at_q0():
    for name in ("sphere:1", "torus:2:1", "cube"):
        X = shape_from_name(name)
        a = polar_length(X, 0, 60, RandomSource(38)).estimate
        b = exchange_lambda0(X, 60, RandomSource(39))
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error) + 1e-9


@pytest.mark.parametrize("name", ["sphere:1", "torus:2:1", "circle:1", "disk:1",
                                  "hemisphere:1", "ball:1"])
def test_stacked_q0_route_matches_one_plane_route(name):
    # a block of lines through one stacked Newton solve per stratum gives
    # every line the rejection or the per-stratum values of polar_sample and
    # its pieces, one line at a time; half the hemisphere is cut away, so
    # the region mask is read too
    X = shape_from_name(name)
    if name == "hemisphere:1":
        X = X.with_region(lambda pts: pts[:, 0] > 0.1)
    # the axes include non-Morse heights: e3 on every shape, e1 and e2 on the
    # hemisphere, whose cap then has critical points on its chart edge
    V = np.concatenate([np.eye(3), [[0.6, 0.0, 0.8]]])
    pieces, reports = polar._smooth_pieces(X, V[:, None], {})
    values, _ = polar._plane_values(X, V[:, None], pieces, {})
    vals = [polar._sum_in_order(v) for v in values]
    fold = [not report.clean for report in reports]
    assert fold[2]
    for v, val, flagged in zip(V, vals, fold):
        sample = polar_sample(X, LinearSubspace(3, v[None]))
        assert sample.degenerate == flagged
        if not flagged:
            assert val == polar._sum_in_order(_piece_values(X, sample.pieces, sample.plane))
    res = polar_length(X, 0, 40, RandomSource(41), keep_rows=True)
    assert len(res.per_plane) == 40 + res.n_rejected
    for _, basis, per_stratum, reasons in res.per_plane:
        P = LinearSubspace(3, basis)
        sample = polar_sample(X, P)
        if reasons:
            assert sample.degenerate == (reasons == "fold")
            if reasons == "alpha":
                with pytest.raises(DegenerateDirectionError):
                    _piece_values(X, sample.pieces, P)
            continue
        assert not sample.degenerate
        keys = [p.stratum.name for p in sample.pieces]
        assert per_stratum == dict(zip(keys, _piece_values(X, sample.pieces, P)))


Q0_SHAPES = ["sphere:1", "torus:2:1", "circle:1", "disk:1", "hemisphere:1", "ball:1"]


@pytest.mark.parametrize("name", Q0_SHAPES)
def test_a_non_morse_line_flags_only_itself_in_a_stack(name):
    # e3 is not Morse on any of these shapes; in a stack of seeded lines it
    # is the one line flagged, on each stratum as alone, and every other
    # line gets the pieces and the value of its lone call
    X = shape_from_name(name)
    gen = RandomSource(64).generator()
    V = np.array([sample_grassmannian(3, 1, gen).basis[0] for _ in range(5)])
    V = np.insert(V, 2, [0.0, 0.0, 1.0], axis=0)
    bases = V[:, None]
    for S in X.smooth.strata:
        pieces, flagged = polar._stratum_pieces(X, S, bases, {})
        for b in range(len(V)):
            (lone,), (lone_flag,) = polar._stratum_pieces(X, S, bases[b:b + 1], {})
            assert flagged[b] == lone_flag and len(pieces[b]) == len(lone)
            for got, want in zip(pieces[b], lone):
                for part in ("geometry", "source_params", "source_points", "morse_indices"):
                    assert np.array_equal(getattr(got, part), getattr(want, part))
    pieces, reports = polar._smooth_pieces(X, bases, {})
    assert [report.reasons() for report in reports] == [["fold"] if b == 2 else []
                                                        for b in range(len(V))]
    values, errors = polar._plane_values(X, bases, pieces, {})
    for v, plist, piece_vals, error in zip(V, pieces, values, errors):
        sample = polar_sample(X, LinearSubspace(3, v[None]))
        assert [p.stratum.name for p in plist] == [p.stratum.name for p in sample.pieces]
        assert error is None
        assert piece_vals == _piece_values(X, sample.pieces, sample.plane)


@pytest.mark.parametrize("name", Q0_SHAPES)
def test_polar_length_at_q0_solves_each_curved_stratum_once_per_block(name, monkeypatch):
    # every line of a block (first draws or redraws) shares one stacked
    # Newton solve per stratum that is not solid
    X = shape_from_name(name)
    solves, blocks = [], []
    stacked, qr = polar.height_critical_points_many, polar.grassmannian_bases
    monkeypatch.setattr(polar, "height_critical_points_many", lambda S, V, scale=1.0: (
        solves.append((S.name, len(V))) or stacked(S, V, scale=scale)))
    monkeypatch.setattr(polar, "grassmannian_bases", lambda draws: (
        blocks.append(len(draws)) or qr(draws)))
    polar_length(X, 0, 40, RandomSource(65))
    curved = [S.name for S in X.smooth.strata if S.role != "solid"]
    assert blocks[0] == 40
    assert solves == [(S, size) for size in blocks for S in curved]


@pytest.mark.parametrize("name", Q0_SHAPES)
def test_one_line_views_at_q0_read_one_stacked_newton_per_stratum(name, monkeypatch):
    # polar_sample and polar_variety at q = 0 take their points from the
    # stacked Newton solve, once per stratum, and never from its
    # one-direction view
    def never(*args, **kwargs):
        raise AssertionError("called the one-direction view")

    X = shape_from_name(name)
    solves = []
    stacked = polar.height_critical_points_many
    monkeypatch.setattr(polar, "height_critical_points_many", lambda S, V, scale=1.0: (
        solves.append((S.name, len(V))) or stacked(S, V, scale=scale)))
    for module in (smoothshape, polar):
        monkeypatch.setattr(module, "height_critical_points", never, raising=False)
    P = LinearSubspace(3, np.array([[0.6, 0.48, 0.64]]))
    curved = [(S.name, 1) for S in X.smooth.strata if S.role != "solid"]
    sample = polar_sample(X, P)
    assert not sample.degenerate and sample.pieces
    assert solves == curved
    for S in X.smooth.strata:
        polar_variety(X, S, P)
    assert solves == curved * 2


def _q0_reference(X, S, v):
    """The q = 0 value of one stratum on the line along v, from the
    per-direction Newton loop of the oracles and the half-branch rule
    written out per point: alpha = ((-1)^lam ind(v) + (-1)^(d - lam)
    ind(-v)) / 2, ind 1 on a top stratum and [<v, w> > 0] along the inward
    conormal w else, summed over the points in the region.  Raises
    DegenerateHeightError for a non-Morse height, DegenerateDirectionError
    for a point on the wall |<v, w>| < 1e-9."""
    if S.role == "solid":
        return 0.0
    total = 0.0
    for crit in height_critical_points_loop(S, v, scale=X.diameter):
        if not X.in_region(crit.point[None])[0]:
            continue
        down = up = 1.0
        if S.role != "top":
            dot = float(np.dot(v, S.inward_conormal(crit.params[None])[0]))
            if abs(dot) < 1e-9:
                raise DegenerateDirectionError("on the wall")
            down, up = float(dot > 0), float(dot < 0)
        lam = crit.morse_index
        total += 0.5 * ((-1) ** lam * down + (-1) ** (S.dim - lam) * up)
    return total


def test_q0_image_integral_matches_the_per_point_half_branch_rule():
    # the q = 0 value shares its code with the stacked route, so it is
    # checked against a reference that shares none: on seeded lines and the
    # axes (non-Morse on every shape, and e1 meets the hemisphere rim on the
    # wall of its conormal e3), and on a hemisphere cut by a region
    gen = RandomSource(63).generator()
    lines = [sample_grassmannian(3, 1, gen).basis[0] for _ in range(3)] + list(np.eye(3))
    shapes = [shape_from_name(name) for name in Q0_SHAPES]
    shapes.append(shapes[4].with_region(lambda pts: pts[:, 0] > 0.1))
    raised, valued = set(), 0
    for X in shapes:
        for v in lines:
            P = LinearSubspace(3, v[None])
            for S in X.smooth.strata:
                try:
                    expected = _q0_reference(X, S, v)
                except (DegenerateHeightError, DegenerateDirectionError) as err:
                    with pytest.raises(type(err)):
                        polar_image_integral(X, S, P)
                    raised.add(type(err))
                    continue
                assert polar_image_integral(X, S, P) == expected, (X.name, S.name, v)
                valued += expected != 0.0
    assert raised == {DegenerateHeightError, DegenerateDirectionError}
    assert valued > 20


def test_polar_call_builds_each_trace_grid_once(monkeypatch):
    # the grid normals do not depend on the plane: one build per surface
    # stratum and polar call, none for the rim, which is polar whole at q=1
    built = []
    build = polar._trace_grid_normals
    monkeypatch.setattr(polar, "_trace_grid_normals", lambda S: built.append(S.name) or build(S))
    polar_length(shape_from_name("hemisphere:1"), 1, 5, RandomSource(42))
    assert built == ["cap"]
    polar_sample(shape_from_name("torus:2:1"), _generic_plane(43))
    assert built == ["cap", "torus"]


@pytest.mark.parametrize("name", ["hemisphere:1", "circle:1"])
def test_a_polar_call_builds_its_plane_free_geometry_once(name, monkeypatch):
    # the quadrature of a whole stratum, the grid points of its piece and the
    # rim samples of the overlap test do not depend on the plane: a call of
    # 20 planes asks each curve's chart for them once per resolution
    X = shape_from_name(name)
    calls = []

    def counted(S):
        r = S.chart.r
        chart = replace(S.chart, r=lambda p: calls.append(("r", S.name, len(p))) or r(p))
        return replace(S, chart=chart)

    strata = tuple(counted(S) if S.dim == 1 else S for S in X.smooth.strata)
    X = replace(X, smooth=replace(X.smooth, strata=strata))
    names = {id(S.chart): S.name for S in strata}
    grid = Chart.grid
    monkeypatch.setattr(Chart, "grid", lambda chart, res: calls.append(
        ("grid", names.get(id(chart)), res)) or grid(chart, res))
    res = polar_length(X, 1, 20, RandomSource(48))
    assert res.n_planes == 20 and res.estimate.value > 0.0
    curve = "rim" if name == "hemisphere:1" else "circle"
    expected = [64, 128, 256] if name == "hemisphere:1" else [64, 128]
    for kind in ("grid", "r"):
        assert sorted(n for k, stratum, n in calls if k == kind and stratum == curve) == expected
    assert all(stratum == curve for _, stratum, _ in calls)


def test_zero_weight_folds_and_pl_planes_skip_their_constants(monkeypatch):
    # alpha is 0 at every fold of a top stratum, and the genericity checks
    # read traced contours only, which a PL plane has none of
    def never(*args):
        raise AssertionError("computed a provable constant")

    monkeypatch.setattr(polar, "_fold_alphas_batch", never)
    for name in ("sphere:1", "torus:2:1"):
        res = polar_length(shape_from_name(name), 1, 5, RandomSource(44))
        assert res.estimate.value == 0.0 and res.n_rejected == 0
    monkeypatch.setattr(polar, "check_genericity", never)
    sample = polar_sample(shape_from_name("cube"), _generic_plane(45))
    assert sample.report.clean and not sample.degenerate
    assert polar_length(shape_from_name("cube"), 1, 5, RandomSource(46)).n_rejected == 0


def test_polar_length_determinism():
    cube = shape_from_name("cube")
    a = polar_length(cube, 1, 50, RandomSource(40))
    b = polar_length(cube, 1, 50, RandomSource(40))
    assert a.estimate.value == b.estimate.value


def test_polar_length_rotation_invariance():
    theta = 0.77
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cube = shape_from_name("cube")
    moved = cube.transformed(rotation=rot, translation=np.array([0.2, -0.4, 0.9]))
    a = polar_length(cube, 1, 500, RandomSource(41)).estimate
    b = polar_length(moved, 1, 500, RandomSource(42)).estimate
    assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error)


SIMILAR_SHAPES = ("sphere:1", "torus:2:1", "disk:1", "hemisphere:1", "ball:1", "circle:1")


def _plane_value(X, P):
    """The alpha-weighted polar image volume of X on P, or None when either
    the plane or its alphas are rejected."""
    sample = polar_sample(X, P)
    if sample.degenerate:
        return None
    try:
        return sum(_piece_values(X, sample.pieces, P))
    except (DegeneratePlaneError, DegenerateDirectionError):
        return None


@pytest.mark.parametrize("name", SIMILAR_SHAPES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1),
       shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0))
def test_polar_image_integral_under_similarity(name, seed, shift, scale):
    # the image of s R X + t on R P is s times the image of X on P, moved, so
    # its alpha-weighted q-volume is s^q times that of X on P
    X = shape_from_name(name)
    gen = RandomSource(seed).generator()
    q_, r_ = np.linalg.qr(gen.standard_normal((3, 3)))
    rot = q_ * np.sign(np.diag(r_))
    moved = X.transformed(rotation=rot, translation=shift, scale=scale)
    for q in range(3):
        P = sample_grassmannian(3, q + 1, gen)
        a = _plane_value(X, P)
        b = _plane_value(moved, LinearSubspace(3, P.basis @ rot.T))
        if a is None or b is None:
            continue
        assert abs(b - scale**q * a) <= 1e-9 * scale**q * abs(a), (name, q, a, b)


@pytest.mark.parametrize("name, n", [("ball", 3), ("disk", 12), ("hemisphere", 12),
                                     ("circle", 40)])
@pytest.mark.parametrize("s", [1e-20, 1e-15, 1e9, 1e12])
def test_polar_length_at_q1_scales_with_the_shape(name, n, s):
    # L_1 is homogeneous of degree 1: the cusp test and the quadrature floor
    # are relative to the shape's radius, so a tiny or a huge shape gives s
    # times the unit value on the same planes (neither zero nor a rejection)
    unit = polar_length(shape_from_name(f"{name}:1"), 1, n, RandomSource(51)).estimate
    scaled = polar_length(shape_from_name(f"{name}:{s:g}"), 1, n, RandomSource(51)).estimate
    assert unit.value > 0.0
    assert abs(scaled.value - s * unit.value) <= 1e-9 * s * unit.value
    assert abs(scaled.std_error - s * unit.std_error) <= 1e-9 * s * unit.value


# ---------------------------------------------------------------------------
# Crofton and the projected-volume formula
# ---------------------------------------------------------------------------

def test_crofton_circle_length():
    t = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t)], axis=-1)
    segs = np.stack([ring, np.roll(ring, -1, axis=0)], axis=1)
    est = crofton_volume(segs, 2, 10_000, RandomSource(43))
    assert est.value == pytest.approx(2 * math.pi, rel=0.02)


def test_crofton_segment_length():
    segs = np.array([[[0.0, 0.0], [3.0, 0.0]]])
    est = crofton_volume(segs, 2, 10_000, RandomSource(44))
    assert est.value == pytest.approx(3.0, rel=0.02)


def test_crofton_empty():
    est = crofton_volume(np.zeros((0, 2, 2)), 2, 100, RandomSource(45))
    assert est.value == 0.0


def test_projected_volume_circle():
    circ = shape_from_name("circle:1")
    est = projected_volume(circ, 400, RandomSource(46))
    assert abs(est.value - 2 * math.pi) <= 3 * est.std_error + 1e-6
