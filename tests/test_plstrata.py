import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkpolar.geomkit import LinearSubspace, RandomSource, sample_grassmannian, sample_unit_sphere
from lkpolar.germ import ConeGerm, germ_from_name
from lkpolar.plstrata import (
    DegenerateDirectionError,
    DegenerateSliceError,
    StratifiedComplex,
    cube_boundary,
    euler_characteristic,
    load_plstrat,
    mean_normal_index,
    normal_link,
    normal_morse_index,
    normal_morse_index_many,
    octahedron_boundary,
    pl_morse_indices,
    pl_morse_indices_many,
    save_plstrat,
    segment_complex,
    slice_chi,
    slice_chi_many,
    solid_cube,
    square_boundary,
    torus_7vertex,
)

from oracles import (
    chi_slice_pl_hyperplane,
    chi_slice_pl_line,
    pl_slice_chi,
    sampled_mean_normal_index,
)


CATALOG = (segment_complex, square_boundary, octahedron_boundary, cube_boundary, solid_cube,
           torus_7vertex)


def catalog_and_grid(kuhn_grid):
    return [make() for make in CATALOG] + [kuhn_grid(3)]


def sample_generic(K, gen):
    while True:
        v = sample_unit_sphere(K.ambient_dim, gen)
        try:
            pl_morse_indices(K, v)
            return v
        except DegenerateDirectionError:
            continue


# ---------------------------------------------------------------------------
# independent oracle: chi of the closed sublevel {<v,y> <= -eta} of the link
# polyhedron, computed by geometric refinement (split cells at the hyperplane
# crossing and count cells of a genuine simplicial subdivision of the sublevel)
# ---------------------------------------------------------------------------

def sublevel_chi_by_refinement(link, v, eta):
    dirs = link.directions
    vals = dirs @ v
    cut_point = {}

    def point_on_edge(i, j):
        key = (min(i, j), max(i, j))
        if key not in cut_point:
            t = (-eta - vals[i]) / (vals[j] - vals[i])
            cut_point[key] = dirs[i] + t * (dirs[j] - dirs[i])
        return key

    verts = []  # (kind, id) -> index
    vid = {}

    def add_vertex(key):
        if key not in vid:
            vid[key] = len(verts)
            verts.append(key)
        return vid[key]

    simplices = set()

    def add_simplex(ids):
        simplices.add(tuple(sorted(ids)))

    for cell in link.link_cells:
        below = [i for i in cell if vals[i] <= -eta]
        above = [i for i in cell if vals[i] > -eta]
        if not below:
            continue
        if not above:
            ids = [add_vertex(("v", i)) for i in cell]
            for size in range(1, len(ids) + 1):
                for f in itertools.combinations(ids, size):
                    add_simplex(f)
            continue
        # partial cell: clip the simplex against the halfspace and triangulate.
        # polytope vertices: the below-vertices plus one crossing point per
        # below-above edge.
        poly = [("v", i) for i in below]
        poly += [("c", point_on_edge(i, j)) for i in below for j in above]
        ids = [add_vertex(p) for p in poly]
        if len(cell) == 2:  # edge clipped to a segment
            for size in range(1, len(ids) + 1):
                for f in itertools.combinations(ids, size):
                    add_simplex(f)
        elif len(cell) == 3:  # triangle clipped to triangle or quad
            if len(below) == 1:
                add_simplex(ids)
                for f in itertools.combinations(ids, 2):
                    add_simplex(f)
                for i in ids:
                    add_simplex((i,))
            else:  # quad: below pair b0 b1, crossings c0 (b0-a), c1 (b1-a)
                b0, b1 = [add_vertex(("v", i)) for i in below]
                a = above[0]
                c0 = add_vertex(("c", point_on_edge(below[0], a)))
                c1 = add_vertex(("c", point_on_edge(below[1], a)))
                for tri in [(b0, b1, c0), (b1, c0, c1)]:
                    add_simplex(tri)
                    for f in itertools.combinations(tri, 2):
                        add_simplex(f)
                for i in (b0, b1, c0, c1):
                    add_simplex((i,))
        else:
            raise NotImplementedError("oracle supports links of dimension <= 2")
    return sum((-1) ** (len(s) - 1) for s in simplices)


def test_normal_morse_index_matches_refinement_oracle():
    K = solid_cube()
    gen = RandomSource(101).generator()
    for cell_dim in (0, 1, 2):
        for cell in K.cells[cell_dim][:4]:
            link = normal_link(K, cell)
            if len(link.vertex_ids) == 0:
                continue
            span = K.cell_span(cell)
            for _ in range(25):
                v = sample_unit_sphere(3, gen)
                if span.size:  # make v normal to the cell
                    v = v - (v @ span.T) @ span
                    if np.linalg.norm(v) < 1e-6:
                        continue
                    v /= np.linalg.norm(v)
                vals = link.directions @ v
                if np.min(np.abs(vals)) < 1e-6:
                    continue
                eta = 0.5 * np.min(np.abs(vals))
                expected = 1 - sublevel_chi_by_refinement(link, v, eta)
                assert normal_morse_index(K, cell, v) == expected


# ---------------------------------------------------------------------------
# catalog and chi
# ---------------------------------------------------------------------------

def test_euler_characteristics():
    assert euler_characteristic(octahedron_boundary()) == 2
    assert euler_characteristic(torus_7vertex()) == 0
    assert euler_characteristic(cube_boundary()) == 2
    assert euler_characteristic(solid_cube()) == 1
    assert euler_characteristic(segment_complex()) == 1
    single = StratifiedComplex(np.zeros((1, 2)), {0: [(0,)]})
    assert euler_characteristic(single) == 1


def test_torus_is_a_triangulated_torus():
    K = torus_7vertex()
    assert len(K.cells[0]) == 7 and len(K.cells[1]) == 21 and len(K.cells[2]) == 14
    # every edge in exactly two triangles
    from collections import Counter

    cnt = Counter(f for t in K.cells[2] for f in itertools.combinations(t, 2))
    assert set(cnt.values()) == {2}


def _tri_tri_separated(p, q, eps=1e-9):
    axes = [np.cross(p[1] - p[0], p[2] - p[0]), np.cross(q[1] - q[0], q[2] - q[0])]
    for i in range(3):
        for j in range(3):
            axes.append(np.cross(p[(i + 1) % 3] - p[i], q[(j + 1) % 3] - q[j]))
    for ax in axes:
        n = np.linalg.norm(ax)
        if n < 1e-12:
            continue
        ax = ax / n
        a0, a1 = (p @ ax).min(), (p @ ax).max()
        b0, b1 = (q @ ax).min(), (q @ ax).max()
        if a1 < b0 - eps or b1 < a0 - eps:
            return True
    return False


def test_catalog_interiors_disjoint():
    # vertex-disjoint triangles of embedded catalog surfaces must not touch
    for K in (octahedron_boundary(), cube_boundary(), torus_7vertex()):
        for a, b in itertools.combinations(K.cells[2], 2):
            if set(a) & set(b):
                continue
            assert _tri_tri_separated(K.vertices[list(a)], K.vertices[list(b)])


# ---------------------------------------------------------------------------
# normal links
# ---------------------------------------------------------------------------

def test_normal_link_square_vertex():
    K = square_boundary()
    nl = normal_link(K, (0,))
    assert len(nl.vertex_ids) == 2
    chi = sum((-1) ** (len(c) - 1) for c in nl.link_cells)
    assert chi == 2
    norms = np.linalg.norm(nl.directions, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_normal_link_cube_edge_quarter_disk():
    K = solid_cube()
    vidx = {tuple(v): i for i, v in enumerate(K.vertices)}
    edge = tuple(sorted((vidx[(0.0, 0.0, 0.0)], vidx[(0.0, 0.0, 1.0)])))
    nl = normal_link(K, edge)
    # quarter-disk link: chi = 1, all directions orthogonal to the edge
    chi = sum((-1) ** (len(c) - 1) for c in nl.link_cells)
    assert chi == 1
    span = K.cell_span(edge)
    assert np.max(np.abs(nl.directions @ span.T)) < 1e-10


def test_normal_link_top_cell_empty():
    K = solid_cube()
    nl = normal_link(K, K.cells[3][0])
    assert len(nl.vertex_ids) == 0
    # empty link: the slice is empty, so the index is 1 for any direction
    assert normal_morse_index(K, K.cells[3][0], np.zeros(3)) == 1


def test_normal_link_missing_cell():
    K = square_boundary()
    with pytest.raises(KeyError):
        normal_link(K, (0, 2))


def test_normal_link_kept_on_the_complex():
    K = solid_cube()
    edge = K.cells[1][0]
    assert normal_link(K, edge) is normal_link(K, edge)
    assert normal_link(K, edge) is normal_link(K, tuple(reversed(edge)))


def test_transformed_complex_gets_fresh_links():
    K = solid_cube()
    vertex = (0,)
    link = normal_link(K, vertex)
    theta = 0.6
    rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                    [math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    moved = K.transformed(rotation=rot, translation=np.array([1.0, -2.0, 0.5]))
    moved_link = normal_link(moved, vertex)
    assert moved_link is not link
    assert moved_link.vertex_ids == link.vertex_ids
    assert np.allclose(moved_link.directions, link.directions @ rot.T, atol=1e-12)


# ---------------------------------------------------------------------------
# the per-complex plan
# ---------------------------------------------------------------------------

def _link_cells_by_scan(K, cell):
    """Every cell c' disjoint from ``cell`` with c' + cell a cell, found by
    scanning the whole complex."""
    cell = tuple(sorted(cell))
    out = []
    for c in K.all_cells():
        if set(cell) & set(c):
            continue
        if K.has_cell(cell + c):
            out.append(c)
    return out


def test_link_cells_match_full_scan(kuhn_grid):
    for K in catalog_and_grid(kuhn_grid):
        for cell in K.all_cells():
            assert K.link_cells(cell) == _link_cells_by_scan(K, cell), cell


def test_cell_span_is_a_fresh_qr(kuhn_grid):
    for K in catalog_and_grid(kuhn_grid):
        for cell in K.all_cells():
            pts = K.vertices[list(cell)]
            if len(cell) == 1:
                fresh = np.zeros((0, K.ambient_dim))
            else:
                fresh = np.linalg.qr((pts[1:] - pts[0]).T)[0].T[: len(cell) - 1]
            span = K.cell_span(cell)
            assert np.array_equal(span, fresh) and span.shape == fresh.shape, cell
            assert not span.flags.writeable


def test_transformed_complex_gets_fresh_plan():
    K = solid_cube()
    rot = np.linalg.qr(RandomSource(53).generator().standard_normal((3, 3)))[0]
    edge = K.cells[1][0]
    span = K.cell_span(edge)
    moved = K.transformed(rotation=rot, translation=[1.0, 2.0, 3.0])
    assert moved.plan is not K.plan
    assert K.plan is K.plan
    pts = moved.vertices[list(edge)]
    assert np.array_equal(moved.cell_span(edge), np.linalg.qr((pts[1:] - pts[0]).T)[0].T)
    assert not np.allclose(np.abs(moved.cell_span(edge)), np.abs(span))


def test_non_normal_direction_raises():
    K = solid_cube()
    edge = K.cells[1][0]
    along = K.cell_span(edge)[0]
    with pytest.raises(ValueError, match="not orthogonal"):
        normal_morse_index(K, edge, along)
    with pytest.raises(ValueError, match="not orthogonal"):
        normal_morse_index_many(K, edge, along[None])


def _morse_indices_by_star_loop(K, v):
    """1 - chi(lower link) at each vertex, from the cells of its star."""
    heights = K.vertices @ v
    out = {}
    for x in range(len(K.vertices)):
        chi = 0
        for c in K.all_cells():
            if len(c) == 1 or x not in c:
                continue
            rest = [w for w in c if w != x]
            if all(heights[w] < heights[x] for w in rest):
                chi += (-1) ** (len(rest) - 1)
        out[x] = 1 - chi
    return out


def test_pl_morse_indices_match_star_loop(kuhn_grid):
    gen = RandomSource(59).generator()
    for K in catalog_and_grid(kuhn_grid):
        V = [sample_generic(K, gen) for _ in range(5)]
        for v in V:
            assert pl_morse_indices(K, v) == _morse_indices_by_star_loop(K, v)
        # one stacked pass gives every direction its lone indices, and flags
        # a direction along which vertices 0 and 1 have one height
        e = K.vertices[1] - K.vertices[0]
        tie = V[0] - (V[0] @ e) / (e @ e) * e
        index, degenerate = pl_morse_indices_many(K, np.array(V + [tie / np.linalg.norm(tie)]))
        assert degenerate.tolist() == [False] * 5 + [True]
        assert [dict(enumerate(row)) for row in index[:5].tolist()] == [
            _morse_indices_by_star_loop(K, v) for v in V]


# ---------------------------------------------------------------------------
# mean normal indices
# ---------------------------------------------------------------------------

def test_mean_normal_index_empty_link_is_one():
    K = solid_cube()
    assert mean_normal_index(K, 3).tolist() == [1.0] * len(K.cells[3])


def test_mean_normal_index_boundary_facet_is_half():
    K = solid_cube()
    facet = next(t for t in K.cells[2] if np.allclose(K.vertices[list(t)][:, 2], 0.0))
    assert mean_normal_index(K, 2)[K.plan.rows[facet]] == 0.5


def test_mean_normal_index_cube_corner_is_exterior_angle():
    # the normal cone of the corner is the opposite octant
    K = solid_cube()
    corner = (int(np.flatnonzero(np.all(K.vertices == 0.0, axis=1))[0]),)
    assert abs(mean_normal_index(K, 0)[K.plan.rows[corner]] - 1 / 8) <= 1e-12


def test_mean_normal_index_keeps_digits_at_antipodal_links():
    # a triangle of the plane whose angle at vertex 0 is pi - 2 atan(delta):
    # its two link directions are nearly antipodal, and the vertex's mean
    # index is the exterior angle over 2 pi, atan(delta) / pi.  The arccos
    # of their dot product, -1 + 2 delta^2 up to rounding, would give 0.
    delta = 1e-9
    K = StratifiedComplex.from_maximal_cells(
        np.array([[0.0, 0.0], [1.0, delta], [-1.0, delta]]), [(0, 1, 2)])
    assert mean_normal_index(K, 0)[0] == pytest.approx(math.atan(delta) / math.pi, rel=1e-6)


def test_mean_normal_index_matches_sampling_oracle(kuhn_grid):
    # every cell of every catalog complex, the rotated Kuhn grid and three
    # cone models: the exterior-angle sum against the normal-sphere sampler,
    # within 3 se, or within 1e-12 where the sampler is exact
    from lkpolar.germ import germ_from_name

    complexes = catalog_and_grid(kuhn_grid) + [
        germ_from_name(name).model for name in ("rays:3", "rays:5", "halfplane:3")]
    pairs = []
    for K in complexes:
        for d in K.cells:
            exact = mean_normal_index(K, d)
            for i, cell in enumerate(K.cells[d]):
                pairs.append((exact[i], sampled_mean_normal_index(
                    K, cell, 1500, RandomSource(71, len(pairs)))))
    for exact, est in pairs:
        assert abs(exact - est.value) <= 3 * est.std_error + 1e-12, (exact, est)
    assert sum(est.std_error > 0 for _, est in pairs) > 100


# ---------------------------------------------------------------------------
# normal Morse indices
# ---------------------------------------------------------------------------

def test_facet_indices_follow_downward_slice_convention():
    # slice at level v* - delta: empty for v pointing into the body (index 1),
    # a disk for v pointing out of it (index 0)
    K = solid_cube()
    facet = next(t for t in K.cells[2] if np.allclose(K.vertices[list(t)][:, 2], 0.0))
    inward = np.array([0.0, 0.0, 1.0])
    assert normal_morse_index(K, facet, inward) == 1
    assert normal_morse_index(K, facet, -inward) == 0


def test_interior_cells_have_zero_mean_index():
    K = solid_cube()
    interior_tris = [
        t for t in K.cells[2] if not any(
            np.allclose(K.vertices[list(t)][:, ax], c) for ax in range(3) for c in (0.0, 1.0)
        )
    ]
    assert interior_tris
    gen = RandomSource(17).generator()
    for t in interior_tris:
        span = K.cell_span(t)
        normal = np.cross(span[0], span[1])
        # both sides see a disk slice: index 0 each
        assert normal_morse_index(K, t, normal) == 0
        assert normal_morse_index(K, t, -normal) == 0


def test_degenerate_direction_raises():
    K = solid_cube()
    facet = next(t for t in K.cells[2] if np.allclose(K.vertices[list(t)][:, 2], 0.0))
    # the facet's only link direction is +z, so a vector orthogonal to it is a wall
    with pytest.raises(ValueError):
        normal_morse_index(K, facet, np.array([1.0, 0.0, 0.0]))


def test_index_depends_only_on_sign_pattern():
    K = solid_cube()
    vidx = {tuple(v): i for i, v in enumerate(K.vertices)}
    edge = tuple(sorted((vidx[(0.0, 0.0, 0.0)], vidx[(0.0, 0.0, 1.0)])))
    link = normal_link(K, edge)
    gen = RandomSource(23).generator()
    for _ in range(50):
        v = sample_unit_sphere(3, gen)
        v[2] = 0.0
        n = np.linalg.norm(v)
        if n < 1e-6:
            continue
        v /= n
        vals = link.directions @ v
        if np.min(np.abs(vals)) < 1e-3:
            continue
        base = normal_morse_index(K, edge, v)
        # perturb without crossing any wall
        for _ in range(5):
            dv = 1e-4 * sample_unit_sphere(3, gen)
            w = v + dv - np.array([0.0, 0.0, (v + dv)[2]])
            w /= np.linalg.norm(w)
            if np.min(np.abs(link.directions @ w)) < 1e-6:
                continue
            assert normal_morse_index(K, edge, w) == base


def test_normal_morse_index_many_matches_scalar():
    # the batched indices against the refinement oracle, one direction at a
    # time, on cells of every dimension with a nonempty link; below the
    # facets the last four directions lie on a wall (orthogonal to a link
    # direction)
    K = solid_cube()
    gen = RandomSource(29).generator()
    checked = 0
    for d in (0, 1, 2):
        for cell in K.cells[d][::3]:
            link = normal_link(K, cell)
            comp = LinearSubspace(3, K.cell_span(cell)).orthogonal_complement().basis
            vs = gen.standard_normal((20, len(comp))) @ comp
            u = link.directions[gen.integers(len(link.directions), size=4)]
            if d < 2:
                vs[16:] -= np.sum(vs[16:] * u, axis=1, keepdims=True) * u
            many, valid = normal_morse_index_many(K, cell, vs)
            assert d == 2 or not valid[16:].any()
            for v, idx, ok in zip(vs, many, valid):
                vals = link.directions @ v
                assert ok == (np.min(np.abs(vals)) > 1e-8 * np.linalg.norm(v))
                if ok:
                    assert idx == 1 - sublevel_chi_by_refinement(link, v, 0.5 * np.min(np.abs(vals)))
                    checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# PL Morse indices of height functions
# ---------------------------------------------------------------------------

def test_octahedron_height_indices_sum_to_two():
    K = octahedron_boundary()
    v = np.array([0.0, 0.0, 1.0]) + np.array([1e-4, 2e-4, 0.0])
    v /= np.linalg.norm(v)
    idx = pl_morse_indices(K, v)
    assert sum(idx.values()) == 2


def test_torus_50_directions_sum_zero():
    K = torus_7vertex()
    gen = RandomSource(31).generator()
    for _ in range(50):
        v = sample_generic(K, gen)
        assert sum(pl_morse_indices(K, v).values()) == 0


def test_segment_endpoint_indices():
    K = segment_complex()
    v = np.array([1.0, 0.0])
    idx = pl_morse_indices(K, v)
    # lower endpoint is a min (index 1), upper endpoint sees the whole link below
    assert idx[0] == 1 and idx[1] == 0
    assert sum(idx.values()) == 1


def test_morse_sum_equals_chi_100_directions():
    gen = RandomSource(37).generator()
    for K in (octahedron_boundary(), torus_7vertex(), cube_boundary(), solid_cube()):
        chi = euler_characteristic(K)
        for _ in range(100):
            v = sample_generic(K, gen)
            assert sum(pl_morse_indices(K, v).values()) == chi


def test_nongeneric_height_raises():
    K = square_boundary()
    with pytest.raises(DegenerateDirectionError):
        pl_morse_indices(K, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_plstrat_roundtrip(tmp_path):
    K = solid_cube()
    path = tmp_path / "cube.plstrat"
    save_plstrat(K, path)
    K2 = load_plstrat(path)
    assert np.array_equal(K.vertices, K2.vertices)
    assert K.cells == K2.cells


@st.composite
def small_complexes(draw):
    """Face closures of a few random simplices on points of the moment curve
    (s, s^2, s^3) cut to R^n, shifted by arbitrary floats: any n + 1 distinct
    points of the curve are affinely independent, so every draw is valid."""
    n = draw(st.integers(1, 3))
    ts = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=7, unique=True))
    shift = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    verts = np.array([[(t / 7.0) ** (j + 1) for j in range(n)] for t in ts]) + shift
    simplex = st.lists(st.integers(0, len(ts) - 1), min_size=1, max_size=n + 1, unique=True)
    tops = draw(st.lists(simplex, min_size=1, max_size=5))
    return StratifiedComplex.from_maximal_cells(verts, tops)


@settings(max_examples=60, deadline=None)
@given(K=small_complexes())
def test_plstrat_roundtrip_random_complexes(K):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.plstrat"
        save_plstrat(K, path)
        back = load_plstrat(path)
    assert np.array_equal(back.vertices, K.vertices)
    assert back.cells == K.cells


@pytest.mark.parametrize(
    "text, message",
    [
        # a 0-cell on a vertex that does not exist
        ("PLSTRAT 2\n2\n0.0 0.0\n1.0 0.0\n3\n0 0\n0 1\n0 7\n", r"\(7,\) names a vertex"),
        # an edge to a vertex that does not exist
        ("PLSTRAT 2\n2\n0.0 0.0\n1.0 0.0\n3\n0 0\n0 1\n1 0 7\n", r"\(0, 7\) names a vertex"),
        ("PLSTRAT 2\n2\n0.0 0.0\n1.0 0.0\n3\n0 0\n0 1\n1 -1 1\n", r"\(-1, 1\) names a vertex"),
        ("PLSTRAT 2\n2\n0.0 0.0\nnan 0.0\n3\n0 0\n0 1\n1 0 1\n", r"line 4: .*not finite"),
        ("PLSTRAT 2\n2\n0.0 0.0\n1.0 inf\n3\n0 0\n0 1\n1 0 1\n", r"line 4: .*not finite"),
        ("PLSTRAT 2\n2\n0.0 0.0\n1.0 0.0\n3\n0 0\n0 1\n1 0\n", r"ends after line 8"),
        ("PLSTRAT 2\n2\n0.0 0.0\n", r"ends after line 3"),
        ("PLSTRAT 2\n2\n0.0 zero\n1.0 0.0\n1\n0 0\n", r"line 3: bad coordinate"),
    ],
    ids=["point-out-of-range", "edge-out-of-range", "negative-vertex", "nan", "inf",
         "truncated-cell", "truncated-vertices", "bad-token"],
)
def test_plstrat_bad_file_names_line_or_cell(tmp_path, text, message):
    path = tmp_path / "bad.plstrat"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_plstrat(path)


def test_plstrat_rejects_unclosed(tmp_path):
    path = tmp_path / "bad.plstrat"
    path.write_text("PLSTRAT 2\n2\n0.0 0.0\n1.0 0.0\n1\n1 0 1\n")
    with pytest.raises(ValueError):
        load_plstrat(path)


def test_validation_rejects_degenerate_simplex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        StratifiedComplex.from_maximal_cells(verts, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# slices by affine flats
# ---------------------------------------------------------------------------

def _chi_or_reject(fn):
    try:
        return fn()
    except DegenerateSliceError:
        return "reject"


def _random_flat(K, c, gen):
    """A uniform flat of codimension c whose offset lies within the
    complex's vertex radius of its centroid."""
    centre = K.vertices.mean(axis=0)
    radius = float(np.max(np.linalg.norm(K.vertices - centre, axis=1)))
    A = sample_grassmannian(K.ambient_dim, c, gen).basis
    return A, A @ centre + radius * gen.uniform(-1.1, 1.1, size=c)


@pytest.mark.parametrize("make", CATALOG)
def test_slice_chi_matches_per_cell_oracles(make):
    K = make()
    n = K.ambient_dim
    gen = RandomSource(71).generator()
    for c in (1, 2) if n == 3 else (1,):
        for _ in range(300):
            A, b = _random_flat(K, c, gen)
            if c == 1:
                oracle = lambda: chi_slice_pl_hyperplane(K, A[0], float(b[0]))
            else:
                d = LinearSubspace(n, A).orthogonal_complement().basis[0]
                oracle = lambda: chi_slice_pl_line(K, A.T @ b, d)
            assert _chi_or_reject(lambda: slice_chi(K, A, b)) == _chi_or_reject(oracle)


def _triangle_cone():
    # a germ whose link has a 2-cell: the cone over a spherical triangle
    link = StratifiedComplex.from_maximal_cells(np.eye(3), [(0, 1, 2)])
    return ConeGerm(name="triangle-cone", ambient_dim=3, link=link)


@pytest.mark.parametrize("germ", ["rays:3", "rays:5", "halfplane:3", "triangle"])
def test_slice_chi_on_cone_models_matches_radial_oracle(germ):
    X = _triangle_cone() if germ == "triangle" else germ_from_name(germ)
    n = X.ambient_dim
    gen = RandomSource(72).generator()
    values = set()
    for k in range(1, n + 1):
        for delta in (1e-3, 5e-4):
            for _ in range(150):
                A = sample_grassmannian(n, k, gen).basis
                v = sample_unit_sphere(k, gen) @ A
                a = _chi_or_reject(lambda: slice_chi(X.model, A, delta * (A @ v)))
                assert a == _chi_or_reject(lambda: pl_slice_chi(X, A, v, delta)), (k, delta)
                values.add((k, a))
    if germ == "triangle":  # a point slice inside the solid cone counts
        assert (3, 1) in values and (3, 0) in values


def test_slice_chi_rejects_flats_through_face_boundaries():
    cube, octa = solid_cube(), octahedron_boundary()
    normal = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    corner = np.ones(3)
    with pytest.raises(DegenerateSliceError):  # a plane through a vertex
        slice_chi(cube, [normal], [normal @ corner])
    line = LinearSubspace(3, normal[None, :]).orthogonal_complement().basis
    with pytest.raises(DegenerateSliceError):  # a line through a vertex
        slice_chi(cube, line, line @ corner)
    with pytest.raises(DegenerateSliceError):  # a line along an edge
        slice_chi(cube, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0])
    # a line in the plane of the face (0, 2, 4) of the octahedron, through its
    # centre and across two of its edges
    along = np.array([1.0, -0.3, -0.7])
    A = LinearSubspace(3, along[None, :] / np.linalg.norm(along)).orthogonal_complement().basis
    with pytest.raises(DegenerateSliceError):
        slice_chi(octa, A, A @ np.full(3, 1 / 3))
    # parallel to faces but off them: the cube's top and bottom faces, and
    # its y and z faces along an x-parallel line that misses every edge
    assert slice_chi(cube, [[0.0, 0.0, 1.0]], [0.5]) == 1
    assert slice_chi(cube, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.3, 0.6]) == 1
    assert slice_chi(cube_boundary(), [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.3, 0.6]) == 2


@pytest.mark.parametrize("make", CATALOG)
def test_stacked_slices_are_lone_slices(make):
    # a stack of random flats, and one through a vertex, against the
    # one-flat view flat by flat: the same chi, and a wall row exactly where
    # the lone slice is degenerate
    K = make()
    gen = RandomSource(73).generator()
    for c in (1, 2) if K.ambient_dim == 3 else (1,):
        flats = [_random_flat(K, c, gen) for _ in range(60)]
        A = flats[0][0]
        flats.append((A, A @ K.vertices[0]))
        chi, wall = slice_chi_many(K, np.stack([K.vertices @ A.T - b for A, b in flats]))
        assert wall[-1] >= 0
        for (A, b), x, w in zip(flats, chi, wall):
            lone = _chi_or_reject(lambda: slice_chi(K, A, b))
            assert (x if w < 0 else "reject") == lone


def test_slice_chi_on_the_four_simplex():
    # the boundary of a 4-simplex is a 3-sphere, cut by a flat of codimension
    # c in a (3 - c)-sphere or nothing
    verts = np.vstack([np.zeros(4), np.eye(4)])
    sphere = StratifiedComplex.from_maximal_cells(verts, list(itertools.combinations(range(5), 4)))
    gen = RandomSource(73).generator()
    seen = {c: set() for c in range(1, 5)}
    for c in range(1, 5):
        for _ in range(200):
            seen[c].add(_chi_or_reject(lambda: slice_chi(sphere, *_random_flat(sphere, c, gen))))
    assert seen == {1: {0, 2}, 2: {0}, 3: {0, 2}, 4: {0}}
    solid = StratifiedComplex.from_maximal_cells(verts, [tuple(range(5))])
    assert slice_chi(solid, np.eye(4), np.full(4, 0.1)) == 1
    assert slice_chi(solid, np.eye(4), np.full(4, 0.3)) == 0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1),
       shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0))
def test_slice_chi_under_similarity(seed, shift, scale):
    # the flat {A x = b} moves with x -> s R x + t to {A R^T y = s b + A R^T t}
    gen = RandomSource(seed).generator()
    q_, r_ = np.linalg.qr(gen.standard_normal((3, 3)))
    rot = q_ * np.sign(np.diag(r_))
    for make in (octahedron_boundary, cube_boundary, solid_cube, torus_7vertex):
        K = make()
        moved = K.transformed(rotation=rot, translation=shift, scale=scale)
        for c in (1, 2, 3):
            A, b = _random_flat(K, c, gen)
            before = _chi_or_reject(lambda: slice_chi(K, A, b))
            if before == "reject":
                continue
            after = slice_chi(moved, A @ rot.T, scale * b + A @ rot.T @ np.asarray(shift))
            assert after == before, (make.__name__, c)
