import math

import numpy as np
import pytest

from lkpolar.geomkit import RandomSource, sphere_volume
from lkpolar import smoothshape
from lkpolar.smoothshape import (
    ball_shape,
    circle_shape,
    disk_shape,
    ellipse_shape,
    frames,
    hemisphere_shape,
    integrate_stratum,
    normal_circle_moments,
    normal_index,
    rim_curvature_vector,
    second_form,
    sphere_shape,
    torus_shape,
)

from oracles import height_critical_points_loop, lkw_curvature

ALL_SHAPES = [
    sphere_shape(1.0),
    torus_shape(2.0, 1.0),
    circle_shape(1.0),
    disk_shape(1.0),
    hemisphere_shape(1.0),
    ellipse_shape(2.0, 1.0),
]


def _random_params(stratum, gen, count):
    lo = np.array([b[0] for b in stratum.chart.bounds])
    hi = np.array([b[1] for b in stratum.chart.bounds])
    return lo + (hi - lo) * gen.uniform(size=(count, len(lo)))


def _sphere_equation(x):
    return (np.sum(x**2, axis=-1) - 1.0)[..., None]


def _sphere_jacobian(x):
    return 2.0 * x[..., None, :]


def _torus_equation(x, R=2.0, r=1.0):
    rho = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    return ((rho - R) ** 2 + x[..., 2] ** 2 - r * r)[..., None]


def _torus_jacobian(x, R=2.0):
    rho = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    g = [2 * (rho - R) * x[..., 0] / rho, 2 * (rho - R) * x[..., 1] / rho, 2 * x[..., 2]]
    return np.stack(g, axis=-1)[..., None, :]


def _unit_circle_equation(x):
    return np.stack([x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0, x[..., 2]], axis=-1)


# implicit equations of the strata of ALL_SHAPES, by stratum name, and the
# Jacobians of those that are checked for full rank
IMPLICIT = {
    "sphere": (_sphere_equation, _sphere_jacobian),
    "cap": (_sphere_equation, _sphere_jacobian),
    "torus": (_torus_equation, _torus_jacobian),
    "circle": (_unit_circle_equation, None),
    "rim": (_unit_circle_equation, None),
    "disk": (lambda x: x[..., 2:3], None),
    "ellipse": (lambda x: ((x[..., 0] / 2.0) ** 2 + x[..., 1] ** 2 - 1.0)[..., None], None),
}


def test_chart_matches_implicit_on_grid():
    # 20x20 grid: implicit vanishes at parametrized points, full-rank Jacobian
    for shape in ALL_SHAPES:
        for s in shape.strata:
            equation, jacobian = IMPLICIT[s.name]
            params, _ = s.chart.grid(20)
            pts = s.chart.r(params)
            assert np.max(np.abs(equation(pts))) < 1e-9, (shape.name, s.name)
            if jacobian is not None:
                sv = np.linalg.svd(jacobian(pts), compute_uv=False)
                assert np.min(sv) > 1e-6


def test_frames_sphere_north_pole():
    s = sphere_shape(1.0).stratum("sphere")
    tangent, normal = frames(s, np.array([0.3, 1e-6]))
    assert normal.shape == (1, 3)
    assert abs(abs(normal[0, 2]) - 1.0) < 1e-5


def test_frames_circle():
    s = circle_shape(1.0).stratum("circle")
    tangent, normal = frames(s, np.array([0.0]))
    assert np.allclose(np.abs(tangent[0]), [0.0, 1.0, 0.0], atol=1e-12)
    # normal plane is span{e_x, e_z}
    assert np.max(np.abs(normal @ np.array([0.0, 1.0, 0.0]))) < 1e-12


def test_frames_orthogonality_torus():
    s = torus_shape(2.0, 1.0).stratum("torus")
    gen = RandomSource(3).generator()
    for p in _random_params(s, gen, 20):
        tangent, normal = frames(s, p)
        assert np.max(np.abs(tangent @ normal.T)) < 1e-10
        assert np.allclose(tangent @ tangent.T, np.eye(2), atol=1e-10)


def test_second_form_sphere_outward_is_minus_identity():
    s = sphere_shape(1.0).stratum("sphere")
    gen = RandomSource(5).generator()
    for p in _random_params(s, gen, 10):
        x = s.chart.r(p)
        outward = x / np.linalg.norm(x)
        form = second_form(s, p, outward)
        assert np.allclose(form.matrix, -np.eye(2), atol=1e-9)
        # reversing v negates the matrix
        form2 = second_form(s, p, -outward)
        assert np.allclose(form2.matrix, np.eye(2), atol=1e-9)


def test_second_form_flat_disk_zero():
    s = disk_shape(1.0).stratum("disk")
    form = second_form(s, np.array([0.5, 0.7]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(form.matrix, 0.0, atol=1e-12)


def test_second_form_torus_outer_equator_eigenvalues():
    # classical principal curvatures at the outer equator: -1 and -1/3 for R=2, r=1
    s = torus_shape(2.0, 1.0).stratum("torus")
    p = np.array([0.0, 0.0])
    x = s.chart.r(p)
    outward = np.array([1.0, 0.0, 0.0])
    form = second_form(s, p, outward)
    eig = np.sort(np.linalg.eigvalsh(form.matrix))
    assert np.allclose(eig, [-1.0, -1.0 / 3.0], atol=1e-10)


def test_second_form_rejects_tangent_direction():
    s = sphere_shape(1.0).stratum("sphere")
    with pytest.raises(ValueError):
        second_form(s, np.array([0.0, math.pi / 2]), np.array([0.0, 1.0, 0.0]))


def test_second_form_matches_finite_difference_normal_field():
    # d/dt <v(x + t W), W> along tangent directions reproduces the form entries
    gen = RandomSource(11).generator()
    for shape in (sphere_shape(1.0), torus_shape(2.0, 1.0)):
        s = shape.strata[0]
        for p in _random_params(s, gen, 100):
            tangent, normal = frames(s, p)
            nu = normal[0]
            form = second_form(s, p, nu).matrix
            h = 1e-6
            J = s.chart.dr(p)
            fd = np.zeros_like(form)
            for i in range(s.dim):
                for j in range(s.dim):
                    # move along chart axis i, watch the turn of r_j against nu
                    e = np.zeros(s.dim)
                    e[i] = h
                    Jp = s.chart.dr(p + e)
                    Jm = s.chart.dr(p - e)
                    fd_chart = (Jp[j] - Jm[j]) @ nu / (2 * h)
                    fd[i, j] = fd_chart
            # fd is the chart-coordinate Hessian <nu, d2r>; transport to frame
            q, r = np.linalg.qr(J.T)
            rinv = np.linalg.inv(r.T)
            fd_frame = rinv @ fd @ rinv.T
            assert np.max(np.abs(fd_frame - form)) < 1e-5


def test_second_form_scaling_law():
    for R in (0.5, 2.0):
        s = sphere_shape(R).stratum("sphere")
        p = np.array([0.4, 1.1])
        x = s.chart.r(p)
        outward = x / np.linalg.norm(x)
        eig = np.linalg.eigvalsh(second_form(s, p, outward).matrix)
        assert np.allclose(eig, -1.0 / R, atol=1e-9)


def test_lkw_curvature_sphere():
    s = sphere_shape(1.0).stratum("sphere")
    p = np.array([1.0, 0.8])
    # sigma_2 over the two normal directions: 1 + 1 = 2
    assert lkw_curvature(s, p, 2) == pytest.approx(2.0, abs=1e-10)
    # odd order vanishes on a closed stratum
    assert lkw_curvature(s, p, 1) == pytest.approx(0.0, abs=1e-12)
    # order 0: volume of the normal sphere S^0
    assert lkw_curvature(s, p, 0) == pytest.approx(2.0, abs=1e-12)


def test_lkw_curvature_torus_odd_zero():
    s = torus_shape(2.0, 1.0).stratum("torus")
    p = np.array([0.7, 2.1])
    assert lkw_curvature(s, p, 1) == pytest.approx(0.0, abs=1e-12)


def test_lkw_curvature_circle_codim2():
    s = circle_shape(1.0).stratum("circle")
    p = np.array([0.3])
    # order 0: volume of the normal circle
    assert lkw_curvature(s, p, 0) == pytest.approx(2 * math.pi, rel=1e-12)
    # order 1: odd in v, integrates to zero
    assert lkw_curvature(s, p, 1) == pytest.approx(0.0, abs=1e-10)


def test_lkw_curvature_bad_order():
    s = sphere_shape(1.0).stratum("sphere")
    with pytest.raises(ValueError):
        lkw_curvature(s, np.array([0.0, 1.0]), 3)


def test_integrate_stratum_areas():
    one = lambda pts, params: np.ones(len(pts))
    sph = integrate_stratum(sphere_shape(1.0).stratum("sphere"), one)
    assert sph.value == pytest.approx(4 * math.pi, abs=1e-6)
    tor = integrate_stratum(torus_shape(2.0, 1.0).stratum("torus"), one)
    assert tor.value == pytest.approx(8 * math.pi**2, abs=1e-6)
    rim = integrate_stratum(disk_shape(1.0).stratum("rim"), one)
    assert rim.value == pytest.approx(2 * math.pi, abs=1e-9)
    disk = integrate_stratum(disk_shape(1.0).stratum("disk"), one)
    assert disk.value == pytest.approx(math.pi, abs=1e-9)
    ell = integrate_stratum(ellipse_shape(1.0, 1.0).stratum("ellipse"), one)
    assert ell.value == pytest.approx(2 * math.pi, abs=1e-9)


def test_chart_grid_reuses_read_only_gauss_legendre_rule():
    # the memoised rule gives the grid that a fresh leggauss call gives, bit
    # for bit, and a caller cannot write into the shared nodes or weights
    cap = hemisphere_shape(1.0).stratum("cap")
    (lo, hi), per = cap.chart.bounds[1], cap.chart.periodic[1]
    assert not per
    for res in (16, 64, 64):
        params, w = cap.chart.grid(res)
        t, wt = np.polynomial.legendre.leggauss(res)
        x = 0.5 * (hi - lo) * (t + 1.0) + lo
        assert np.array_equal(params[:res, 1], x)
        assert np.array_equal(w[:res], np.full(res, 2 * math.pi / res) * (0.5 * (hi - lo) * wt))
    nodes, weights = smoothshape._leggauss(64)
    assert smoothshape._leggauss(64)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert smoothshape._leggauss.cache_info().maxsize == 8


def test_gauss_bonnet_smoke():
    # (1/s_2) Int K_2 = chi/... = 2 on spheres of any radius, 0 on the torus
    for R in (0.5, 1.0, 3.0):
        s = sphere_shape(R).stratum("sphere")
        est = integrate_stratum(s, lambda pts, params: np.array([lkw_curvature(s, p, 2) for p in params]), resolution=48)
        assert est.value / sphere_volume(2) == pytest.approx(2.0, abs=1e-6)
    t = torus_shape(2.0, 1.0).stratum("torus")
    est = integrate_stratum(t, lambda pts, params: np.array([lkw_curvature(t, p, 2) for p in params]), resolution=48)
    assert est.value / sphere_volume(2) == pytest.approx(0.0, abs=1e-6)


def test_rim_curvature_vector_disk():
    rim = disk_shape(1.0).stratum("rim")
    kappa = rim_curvature_vector(rim, np.array([0.0]))
    assert np.allclose(kappa, [-1.0, 0.0, 0.0], atol=1e-12)


def test_normal_index_half_branch_rule():
    from lkpolar.geomkit import DegenerateDirectionError

    # top stratum: the normal slice is the point itself
    sph = sphere_shape(1.0).stratum("sphere")
    params = np.array([[0.3, 1.2], [2.0, 0.5]])
    assert np.array_equal(normal_index(sph, params, np.array([[0.0, 0.0, 1.0]] * 2)), [1.0, 1.0])
    # rim: 1 along directions into the surface, 0 out of it
    rim = disk_shape(1.0).stratum("rim")
    p = np.array([[0.0], [math.pi / 2]])
    w = rim.inward_conormal(p)
    tilt = np.array([0.0, 0.0, 0.3])
    assert np.array_equal(normal_index(rim, p, w + tilt), [1.0, 1.0])
    assert np.array_equal(normal_index(rim, p, -w + tilt), [0.0, 0.0])
    assert np.array_equal(normal_index(rim, p[:1], w[0]), [1.0])
    with pytest.raises(DegenerateDirectionError):
        normal_index(rim, p, np.array([[0.0, 0.0, 1.0], w[1]]))
    # the two moments of the rule over the normal circle of a curve
    m0, m1 = normal_circle_moments(rim, p)
    np.testing.assert_allclose(m0, math.pi, rtol=1e-15)
    np.testing.assert_allclose(m1, 2 * w, rtol=1e-15)
    # ... which a fine circle rule over the rule itself reproduces
    t = (np.arange(4096) + 0.5) * (2 * math.pi / 4096)
    normal = frames(rim, p[1])[1]
    vs = np.cos(t)[:, None] * normal[0] + np.sin(t)[:, None] * normal[1]
    ind = normal_index(rim, np.repeat(p[1:], len(t), axis=0), vs)
    assert abs(ind.sum() * (2 * math.pi / 4096) - m0[1]) < 1e-2
    np.testing.assert_allclose(ind @ vs * (2 * math.pi / 4096), m1[1], atol=1e-2)
    m0, m1 = normal_circle_moments(circle_shape(1.0).stratum("circle"), p)
    np.testing.assert_allclose(m0, 2 * math.pi, rtol=1e-15)
    assert np.array_equal(m1, np.zeros((2, 3)))


def test_inward_conormals():
    rim = disk_shape(1.0).stratum("rim")
    w = rim.inward_conormal(np.array([[0.0]]))[0]
    assert np.allclose(w, [-1.0, 0.0, 0.0], atol=1e-12)
    hemi = hemisphere_shape(1.0).stratum("rim")
    w = hemi.inward_conormal(np.array([[0.4]]))[0]
    assert np.allclose(w, [0.0, 0.0, 1.0], atol=1e-12)
    ballb = ball_shape(1.0).stratum("boundary")
    p = np.array([[0.3, 1.2]])
    x = ballb.chart.r(p)[0]
    assert np.allclose(ballb.inward_conormal(p)[0], -x / np.linalg.norm(x), atol=1e-12)


def test_transformed_shape_consistency():
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    base = sphere_shape(1.0)
    moved = base.transformed(rotation=rot, translation=np.array([1.0, -2.0, 0.5]), scale=2.0)
    s = moved.stratum("sphere")
    one = lambda pts, params: np.ones(len(pts))
    est = integrate_stratum(s, one)
    assert est.value == pytest.approx(16 * math.pi, rel=1e-9)
    # curvature scales as 1/scale
    p = np.array([0.2, 1.0])
    x = s.chart.r(p)
    nu = (x - np.array([1.0, -2.0, 0.5]))
    nu /= np.linalg.norm(nu)
    eig = np.linalg.eigvalsh(second_form(s, p, nu).matrix)
    assert np.allclose(eig, -0.5, atol=1e-9)


def _moved(X):
    """A rotated, shifted and scaled copy of a catalog shape."""
    n = X.ambient_dim
    rot = np.linalg.qr(RandomSource(3).generator().standard_normal((n, n)))[0]
    return X.transformed(rotation=rot, translation=np.full(n, 0.3), scale=1.7)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("X", ALL_SHAPES + [ball_shape(1.0)], ids=lambda X: X.name)
def test_stacked_newton_matches_per_direction_loop(X, moved):
    # one Newton solve over (direction, start) finds, for every direction,
    # the points of a solve of that direction alone, in the same order, and
    # flags exactly the directions where the lone solve raises
    if moved:
        X = _moved(X)
    n = X.ambient_dim
    V = RandomSource(61).generator().standard_normal((50, n))
    V = np.concatenate([V / np.linalg.norm(V, axis=1)[:, None], np.eye(n)])
    tol = 1e-12 * X.diameter
    for S in X.strata:
        if S.chart is None:
            continue
        many = smoothshape.height_critical_points_many(S, V, scale=X.diameter)
        for j, v in enumerate(V):
            try:
                loop = height_critical_points_loop(S, v, scale=X.diameter)
            except smoothshape.DegenerateHeightError:
                assert many.degenerate[j], (S.name, j)
                continue
            assert not many.degenerate[j], (S.name, j)
            own = many.direction == j
            assert own.sum() == len(loop), (S.name, j)
            if loop:
                np.testing.assert_allclose(many.params[own], [c.params for c in loop],
                                           rtol=0.0, atol=tol)
                np.testing.assert_allclose(many.points[own], [c.point for c in loop],
                                           rtol=0.0, atol=tol)
                assert many.morse_indices[own].tolist() == [c.morse_index for c in loop]
        # the one-direction view raises where the stack flags
        for j in np.flatnonzero(many.degenerate)[:3]:
            with pytest.raises(smoothshape.DegenerateHeightError):
                smoothshape.height_critical_points(S, V[j], scale=X.diameter)
