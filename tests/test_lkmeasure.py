import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkpolar import plstrata
from lkpolar.geomkit import (
    AffineFlat,
    LinearSubspace,
    RandomSource,
    ball_volume,
)
from lkpolar.plstrata import DegenerateSliceError, StratifiedComplex, slice_chi
from lkpolar.lkmeasure import (
    Shape,
    exchange_lambda0,
    kinematic_check,
    lambda_density,
    lk_measure,
    shape_from_name,
    slice_euler_characteristic,
)
from lkpolar.polar import polar_length

from oracles import kinematic_numerator_loop, steiner_oracle

RNG = RandomSource(1234)


def combined_gap(a, b):
    return abs(a.value - b.value), 3 * math.hypot(a.std_error, b.std_error) + 1e-9


# ---------------------------------------------------------------------------
# lambda densities
# ---------------------------------------------------------------------------

def test_cube_facet_density():
    cube = shape_from_name("cube")
    facet = next(
        t for t in cube.pl.cells[2] if np.allclose(cube.pl.vertices[list(t)][:, 2], 0.0)
    )
    est = lambda_density(cube, facet, None, 2, RNG)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.std_error == 0.0


def test_cube_edge_density():
    cube = shape_from_name("cube")
    vidx = {tuple(v): i for i, v in enumerate(cube.pl.vertices)}
    edge = tuple(sorted((vidx[(0.0, 0.0, 0.0)], vidx[(0.0, 0.0, 1.0)])))
    est = lambda_density(cube, edge, None, 1, RandomSource(5))
    # external angle of a square wedge: a quarter of the normal circle
    assert abs(est.value - 0.25) <= 1e-12
    assert (est.std_error, est.method) == (0.0, "exterior-angle")


def test_disk_rim_density():
    disk = shape_from_name("disk:1")
    rim = disk.smooth.stratum("rim")
    est = lambda_density(disk, rim, np.array([0.3]), 1, RNG)
    assert est.value == pytest.approx(0.5, abs=1e-12)


def test_stacked_density_matches_point_oracle():
    # lambda_k of the stacked density against lkw_curvature, which integrates
    # sigma_i over the normal sphere one point and one direction at a time
    from lkpolar.geomkit import sphere_volume
    from lkpolar.lkmeasure import _smooth_lambda_batch
    from oracles import lkw_curvature

    gen = RandomSource(3).generator()
    for name in ("sphere:2", "torus:2:1", "ellipse:2:1", "circle:1"):
        X = shape_from_name(name)
        S = X.smooth.strata[0]
        n = X.ambient_dim
        lo, hi = np.array(S.chart.bounds).T
        params = lo + (hi - lo) * gen.uniform(0.1, 0.9, size=(5, S.dim))
        for k in range(S.dim + 1):
            stacked = _smooth_lambda_batch(n, S, params, k)
            oracle = [lkw_curvature(S, p, S.dim - k) / sphere_volume(n - k - 1) for p in params]
            np.testing.assert_allclose(stacked, oracle, rtol=1e-12, atol=1e-12, err_msg=name)


def test_density_vanishes_above_dimension():
    cube = shape_from_name("cube")
    edge = cube.pl.cells[1][0]
    assert lambda_density(cube, edge, None, 2, RNG).value == 0.0
    tet = cube.pl.cells[3][0]
    assert lambda_density(cube, tet, None, 3, RNG).value == 1.0


# ---------------------------------------------------------------------------
# curvature measures of the catalog
# ---------------------------------------------------------------------------

def test_cube_intrinsic_volumes():
    cube = shape_from_name("cube")
    expected = [1.0, 3.0, 3.0, 1.0]
    for k, ref in enumerate(expected):
        est = lk_measure(cube, k, RandomSource(11, k))
        assert abs(est.value - ref) <= 1e-12, (k, est)
        assert est.std_error == 0.0


def test_sphere_measures():
    sph = shape_from_name("sphere:1")
    assert lk_measure(sph, 0, RNG).value == pytest.approx(2.0, abs=1e-6)
    assert lk_measure(sph, 0, RNG).method == "exact Gauss-Bonnet route"
    assert lk_measure(sph, 1, RNG).value == pytest.approx(0.0, abs=1e-6)
    assert lk_measure(sph, 2, RNG).value == pytest.approx(4 * math.pi, abs=1e-6)
    assert lk_measure(sph, 3, RNG).value == 0.0


def test_torus_measures():
    tor = shape_from_name("torus:2:1")
    assert lk_measure(tor, 0, RNG).value == pytest.approx(0.0, abs=1e-9)
    assert lk_measure(tor, 1, RNG).value == pytest.approx(0.0, abs=1e-9)
    assert lk_measure(tor, 2, RNG).value == pytest.approx(8 * math.pi**2, rel=1e-9)


def test_disk_hemisphere_ball_measures():
    disk = shape_from_name("disk:1")
    for k, ref in enumerate([1.0, math.pi, math.pi]):
        assert lk_measure(disk, k, RNG).value == pytest.approx(ref, rel=1e-8)
    hemi = shape_from_name("hemisphere:1")
    for k, ref in enumerate([1.0, math.pi, 2 * math.pi]):
        assert lk_measure(hemi, k, RNG).value == pytest.approx(ref, rel=1e-6)
    ball = shape_from_name("ball:1")
    for k, ref in enumerate([1.0, 4.0, 2 * math.pi, 4 * math.pi / 3]):
        assert lk_measure(ball, k, RNG).value == pytest.approx(ref, rel=1e-8)


def test_top_measure_is_volume():
    # Lambda_(dim X) equals the measure of the set, Lambda_k = 0 above it
    cube = shape_from_name("cube")
    assert lk_measure(cube, 3, RNG).value == pytest.approx(1.0, rel=1e-12)
    circ = shape_from_name("circle:1")
    assert lk_measure(circ, 1, RNG).value == pytest.approx(2 * math.pi, rel=1e-9)
    assert lk_measure(circ, 2, RNG).value == 0.0
    seg = shape_from_name("segment:2")
    assert lk_measure(seg, 1, RNG).value == pytest.approx(2.0, rel=1e-12)


def test_additivity_over_hemisphere_halves():
    sph = shape_from_name("sphere:1")
    upper = sph.with_region(lambda pts: np.atleast_2d(pts)[:, 2] > 0)
    lower = sph.with_region(lambda pts: np.atleast_2d(pts)[:, 2] < 0)
    a = lk_measure(upper, 0, RNG, resolution=96)
    b = lk_measure(lower, 0, RNG, resolution=96)
    gap, tol = combined_gap(a + b, lk_measure(sph, 0, RNG))
    assert gap <= max(tol, 1e-3)


def test_rigid_motion_invariance():
    theta = 0.9
    rot = np.array(
        [
            [math.cos(theta), 0.0, -math.sin(theta)],
            [0.0, 1.0, 0.0],
            [math.sin(theta), 0.0, math.cos(theta)],
        ]
    )
    shift = np.array([0.3, -1.2, 0.7])
    for name in ("cube", "torus:2:1"):
        base = shape_from_name(name)
        moved = base.transformed(rotation=rot, translation=shift)
        for k in range(4):
            a = lk_measure(base, k, RandomSource(7, k))
            b = lk_measure(moved, k, RandomSource(8, k))
            gap, tol = combined_gap(a, b)
            assert gap <= max(tol, 1e-6), (name, k)


def test_scaling_law():
    for name, t in (("cube", 0.5), ("cube", 2.0), ("ball:1", 0.5), ("ball:1", 2.0)):
        base = shape_from_name(name)
        scaled = base.transformed(scale=t)
        for k in range(4):
            a = lk_measure(base, k, RandomSource(9, k))
            b = lk_measure(scaled, k, RandomSource(10, k))
            gap = abs(b.value - t**k * a.value)
            tol = 3 * math.hypot(b.std_error, t**k * a.std_error) + 1e-9
            assert gap <= tol, (name, t, k)


def test_exact_pl_measures(kuhn_grid):
    # the exterior-angle route: every value to 1e-12, with se 0
    grid = Shape(name="grid", pl=kuhn_grid(3))
    cases = [(shape_from_name("cube"), {0: 1.0, 1: 3.0, 2: 3.0, 3: 1.0}),
             (grid, {0: 1.0, 1: 3.0, 2: 3.0, 3: 1.0}),
             (shape_from_name("cube-boundary"), {0: 2.0, 1: 0.0}),
             (shape_from_name("octahedron"), {0: 2.0, 1: 0.0}),
             (shape_from_name("torus7"), {0: 0.0, 1: 0.0})]
    for X, refs in cases:
        for k, ref in refs.items():
            est = lk_measure(X, k, RandomSource(12, k))
            assert abs(est.value - ref) <= 1e-12, (X.name, k, est)
            assert (est.std_error, est.method) == (0.0, "exterior-angle")


def _rotation(seed, n=3):
    q, r = np.linalg.qr(RandomSource(seed).generator().standard_normal((n, n)))
    return q * np.sign(np.diag(r))


SIMILARITY_SHAPES = ("cube", "cube-boundary", "octahedron", "torus7", "sphere:1", "torus:2:1",
                     "disk:1", "hemisphere:1", "ball:1", "circle:1", "ellipse:2:1")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0))
def test_pl_measures_under_similarity(seed, shift, scale):
    # Lambda_k of s R X + t is s^k Lambda_k(X): rotation, translation and scale
    # move only the rounding of the exterior angles, the cell volumes and the
    # chart quadrature, on PL and smooth shapes alike
    for name in SIMILARITY_SHAPES:
        X = shape_from_name(name)
        n = X.ambient_dim
        moved = X.transformed(rotation=_rotation(seed, n), translation=shift[:n], scale=scale)
        for k in range(n + 1):
            a = lk_measure(X, k, RandomSource(13, k)).value
            b = lk_measure(moved, k, RandomSource(13, k)).value
            assert abs(b - scale**k * a) <= 1e-12 * scale**k * (1.0 + abs(a)), (name, k)


def _four_simplex():
    return StratifiedComplex.from_maximal_cells(
        np.vstack([np.zeros(4), np.eye(4)]), [(0, 1, 2, 3, 4)])


def test_four_simplex_edges_match_oracle_and_vertices_raise():
    # an edge of a 4-simplex has a triangle for its normal link, which the
    # exterior-angle sum covers; a vertex has a tetrahedron, which it does not
    from oracles import sampled_mean_normal_index

    X = Shape(name="4-simplex", pl=_four_simplex())
    lam1 = lk_measure(X, 1, RandomSource(14))
    terms = [sampled_mean_normal_index(X.pl, e, 4000, RandomSource(15, i)).scaled(
        X.pl.cell_volume(e)) for i, e in enumerate(X.pl.cells[1])]
    oracle = math.fsum(t.value for t in terms)
    se = math.sqrt(math.fsum(t.std_error**2 for t in terms))
    assert se > 0 and abs(lam1.value - oracle) <= 3 * se, (lam1, oracle, se)
    with pytest.raises(NotImplementedError, match=r"cell \(0,\).* 4 directions"):
        lk_measure(X, 0, RandomSource(14))


# ---------------------------------------------------------------------------
# exchange formula
# ---------------------------------------------------------------------------

def test_exchange_sphere_exactly_two():
    e = exchange_lambda0(shape_from_name("sphere:1"), 200, RandomSource(41))
    assert e.value == 2.0 and e.std_error == 0.0


def test_exchange_torus_four_critical_points():
    e = exchange_lambda0(shape_from_name("torus:2:1"), 120, RandomSource(42))
    assert e.value == 0.0 and e.std_error == 0.0


def test_exchange_octahedron_constant():
    e = exchange_lambda0(shape_from_name("octahedron"), 500, RandomSource(43))
    assert e.value == 2.0 and e.std_error == 0.0


@pytest.mark.parametrize("s", [1e-15, 1e-7, 1e9, 1e12])
@pytest.mark.parametrize("name, chi", [("sphere", 2.0), ("ball", 1.0), ("hemisphere", 1.0),
                                       ("disk", 1.0)])
def test_lambda0_routes_on_a_scaled_shape_give_the_unit_value(name, chi, s):
    # the Newton floors of the height solver scale with the shape (the
    # determinant with s^d, the curvature floor with 1/s, the cluster
    # distance with s, the settle test with the chart's range), so the
    # exchange route and the polar route at q = 0 count the critical points
    # of a tiny or a huge shape as they count those of the unit one
    X = shape_from_name(f"{name}:{s:g}")
    exchange = exchange_lambda0(X, 40, RandomSource(52))
    polar = polar_length(X, 0, 40, RandomSource(53)).estimate
    for est in (exchange, polar):
        assert (est.value, est.std_error) == (chi, 0.0), (exchange, polar)


@pytest.mark.parametrize("radius", [1e-12, 1e-9, 1e9])
def test_disk_area_at_any_radius(radius):
    # the disk chart starts at rho = 1e-9 R, so its range is never empty
    X = shape_from_name(f"disk:{radius:g}")
    area = math.pi * radius**2
    for est in (lk_measure(X, 2, RandomSource(54)),
                polar_length(X, 2, 1, RandomSource(55)).estimate):
        assert abs(est.value - area) <= 1e-9 * area


def test_exchange_matches_lk0_on_catalog():
    for name in ("cube", "disk:1", "hemisphere:1", "ball:1", "circle:1", "ellipse:2:1"):
        X = shape_from_name(name)
        a = exchange_lambda0(X, 80, RandomSource(44))
        b = lk_measure(X, 0, RandomSource(45))
        gap, tol = combined_gap(a, b)
        assert gap <= max(tol, 1e-6), name


# ---------------------------------------------------------------------------
# slices and the kinematic formula
# ---------------------------------------------------------------------------

def test_pl_hyperplane_slice_chi():
    cube = shape_from_name("cube").pl
    assert slice_chi(cube, [[0.0, 0.0, 1.0]], [0.5]) == 1
    assert slice_chi(cube, [[0.0, 0.0, 1.0]], [2.0]) == 0
    n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    assert slice_chi(cube, [n], [0.3]) == 1
    with pytest.raises(DegenerateSliceError):
        slice_chi(cube, [[0.0, 0.0, 1.0]], [1.0])


def test_pl_line_slice_chi():
    cube = shape_from_name("cube").pl
    d = np.array([0.013, 0.027, 1.0])
    d /= np.linalg.norm(d)
    A = LinearSubspace(3, d[None, :]).orthogonal_complement().basis
    assert slice_chi(cube, A, A @ np.array([0.47, 0.52, -1.0])) == 1
    assert slice_chi(cube, A, A @ np.array([5.0, 5.0, -1.0])) == 0


def test_kinematic_constant_shape_independent():
    results = {}
    for name in ("cube", "ball:1", "ball:2"):
        X = shape_from_name(name)
        for k in (1, 2):
            r = kinematic_check(X, k, 1500, RandomSource(47))
            assert not r.flagged_division
            results[(name, k)] = r.ratio.value
    for k in (1, 2):
        vals = [results[(n, k)] for n in ("cube", "ball:1", "ball:2")]
        assert max(vals) - min(vals) <= 0.05 * max(vals)
    # derived reference: the constant is b_k b_(n-k) / (binom(n,k) b_n)
    ref = ball_volume(1) * ball_volume(2) / (3 * ball_volume(3))
    for v in results.values():
        assert v == pytest.approx(ref, rel=0.05)


@pytest.mark.parametrize("k", [1, 2])
def test_pl_flats_in_chunks_are_the_one_flat_slices(k, monkeypatch):
    # the kinematic route on a complex slices a block of flats in stacked
    # calls; each flat keeps the bits of the one-flat loop, at one flat per
    # chunk, two (the cube has at most 19 cells a dimension) and the default
    X = shape_from_name("cube")
    loop = kinematic_numerator_loop(X, k, 300, RandomSource(50, k))
    for cap in (1, 40, plstrata.PAIR_CAP):
        monkeypatch.setattr(plstrata, "PAIR_CAP", cap)
        got = kinematic_check(X, k, 300, RandomSource(50, k)).numerator
        assert (got.value.hex(), got.std_error.hex()) == (loop.value.hex(), loop.std_error.hex())


def test_kinematic_ratio_of_moved_ball():
    # the slice Euler characteristic and the flat sampler read the centre and
    # radius of the moved ball, not its name "ball:1*"
    base = shape_from_name("ball:1")
    moved = base.transformed(scale=2, translation=(1, 0, 0))
    center, radius = moved.bounding_ball()
    assert np.allclose(center, [1.0, 0.0, 0.0]) and radius == 2.0
    for k in (1, 2):
        a = kinematic_check(base, k, 400, RandomSource(49)).ratio
        b = kinematic_check(moved, k, 400, RandomSource(49)).ratio
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error, b.std_error) + 1e-9, k


def test_kinematic_check_with_a_region_is_not_implemented(monkeypatch):
    # the slices would count all of the ball while Lambda_(n-k) honours the
    # region: on the upper half ball the ratio read 1.0, not the constant 0.5
    import lkpolar.lkmeasure as lkm

    def no_work(*args, **kwargs):
        raise AssertionError("a flat or measure was computed for a region")

    monkeypatch.setattr(lkm, "draw_affine_flat", no_work)
    monkeypatch.setattr(lkm, "lk_measure", no_work)
    half = shape_from_name("ball:1").with_region(lambda p: p[:, 2] > 0)
    for k in (1, 2):
        with pytest.raises(NotImplementedError, match="region"):
            kinematic_check(half, k, 10, RandomSource(51))


@pytest.mark.parametrize("k", [1, 2])
def test_every_flat_hits_a_tiny_ball(k):
    # the ball threshold is relative to the radius: with an absolute margin
    # of 1e-12, 1.6% (k = 1) and 0.75% (k = 2) of the flats missed a ball of
    # radius 1e-10
    X = shape_from_name("ball:1e-10")
    num = kinematic_check(X, k, 2000, RandomSource(3, k)).numerator
    weight = ball_volume(3 - k) * 1e-10 ** (3 - k)
    assert num.std_error == 0.0 and num.value == pytest.approx(weight, rel=1e-12)


def test_lines_slice_a_tiny_sphere_in_two_points():
    # the tangency band is relative to the radius: with an absolute band of
    # 1e-9, every line through a sphere of radius 1e-10 was tangent, and the
    # route ran out of draws
    X = shape_from_name("sphere:1e-10")
    num = kinematic_check(X, 1, 2000, RandomSource(3, 1)).numerator
    weight = ball_volume(2) * 1e-20
    assert num.std_error == 0.0 and num.value == pytest.approx(2 * weight, rel=1e-12)


@pytest.mark.parametrize("radius", [1e-10, 1.0, 2.0, 1e6])
def test_round_slice_decisions_scale_with_the_radius(radius):
    # lines at distances d = s * radius from the centre: the ball is hit
    # below s = 1, the sphere cut in two points, tangent near s = 1 and
    # missed beyond
    e3 = LinearSubspace(3, np.array([[0.0, 0.0, 1.0]]))
    for s, ball, sphere in [(0.0, 1, 2), (0.5, 1, 2), (1 - 1e-6, 1, 2), (1 - 1e-10, 1, None),
                            (1 + 1e-10, 0, None), (1.5, 0, 0)]:
        flat = AffineFlat(e3, np.array([s * radius, 0.0, 0.0]))
        assert slice_euler_characteristic(shape_from_name(f"ball:{radius}"), flat) == ball
        sph = shape_from_name(f"sphere:{radius}")
        if sphere is None:
            with pytest.raises(DegenerateSliceError, match="tangent"):
                slice_euler_characteristic(sph, flat)
        else:
            assert slice_euler_characteristic(sph, flat) == sphere


def test_round_slices_read_the_strata_not_the_name():
    # the sphere or ball rule comes from the strata: a torus named like a
    # sphere is no round shape, a renamed sphere or ball keeps its rule, a
    # tiny sphere far from the origin (its points rounded at the scale of
    # the offset) is still a sphere, and the unit circle of R^2 slices like
    # a sphere
    def shape(name, smooth):
        return Shape(name=name, smooth=smooth)

    e3 = LinearSubspace(3, np.array([[0.0, 0.0, 1.0]]))
    torus = shape_from_name("torus:2:1")
    with pytest.raises(NotImplementedError):
        slice_euler_characteristic(shape("sphere:1", replace(torus.smooth, name="sphere:1")),
                                   AffineFlat(e3, np.array([0.5, 0.0, 0.0])))
    for name, inside in (("sphere:2", 2), ("ball:2", 1)):
        renamed = shape("globe", replace(shape_from_name(name).smooth, name="globe"))
        for s, chi in ((0.5, inside), (1.5, 0)):
            assert slice_euler_characteristic(renamed, AffineFlat(e3, np.array([s * 2, 0, 0]))) == chi
    far = shape_from_name("sphere:1e-10").transformed(translation=[0.3, 0.0, 0.0])
    for s, chi in ((0.5, 2), (1.5, 0)):
        flat = AffineFlat(e3, np.array([0.3 + s * 1e-10, 0.0, 0.0]))
        assert slice_euler_characteristic(far, flat) == chi
    ey = LinearSubspace(2, np.array([[0.0, 1.0]]))
    for s, chi in ((0.5, 2), (1.5, 0)):
        flat = AffineFlat(ey, np.array([s, 0.0]))
        assert slice_euler_characteristic(shape_from_name("ellipse:1:1"), flat) == chi
    with pytest.raises(NotImplementedError):
        slice_euler_characteristic(shape_from_name("ellipse:2:1"),
                                   AffineFlat(ey, np.array([0.5, 0.0])))


def test_kinematic_flagged_when_denominator_vanishes():
    r = kinematic_check(shape_from_name("sphere:1"), 2, 300, RandomSource(48))
    assert r.flagged_division
    assert r.ratio is None
    assert abs(r.numerator.value) <= 3 * r.numerator.std_error + 1e-9


# ---------------------------------------------------------------------------
# Steiner oracle
# ---------------------------------------------------------------------------

def test_steiner_cube():
    fit = steiner_oracle(
        shape_from_name("cube"), np.linspace(0.1, 1.5, 12), 400_000, RandomSource(49)
    )
    expected = np.array([ball_volume(3), 3 * ball_volume(2), 6.0, 1.0])
    assert np.all(np.abs(fit.coefficients - expected) <= 0.02 * expected)
    # zero-dilation sanity: the volume slot recovers vol(X)
    assert fit.coefficients[3] == pytest.approx(1.0, rel=0.01)


def test_steiner_segment_sausage():
    # exact dilation area of a unit segment: 2 eps + pi eps^2
    fit = steiner_oracle(
        shape_from_name("segment:1"), [0.1, 0.25, 0.4, 0.6, 0.8], 400_000, RandomSource(50)
    )
    assert fit.coefficients[0] == pytest.approx(math.pi, rel=0.02)
    assert fit.coefficients[1] == pytest.approx(2.0, rel=0.02)
    assert abs(fit.coefficients[2]) < 0.02


def test_steiner_requires_good_ladder():
    with pytest.raises(ValueError):
        steiner_oracle(shape_from_name("cube"), [0.2, 0.2000001, 0.2000002, 0.2000003], 1000, RNG)
    with pytest.raises(ValueError):
        steiner_oracle(shape_from_name("sphere:1"), [0.1, 0.2, 0.3, 0.4], 1000, RNG)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_lk_vector_structure():
    sphere = shape_from_name("sphere:1")
    values = [lk_measure(sphere, k, RandomSource(RNG.master_seed, RNG.stream_id + 31 * k))
              for k in range(sphere.ambient_dim + 1)]
    assert len(values) == 4
    assert values[3].value == 0.0


def test_shape_names():
    with pytest.raises(ValueError):
        shape_from_name("dodecahedron")
    assert shape_from_name("torus:3:0.5").smooth is not None
