import math

import numpy as np
import pytest

from lkpolar.geomkit import DegenerateDirectionError, RandomSource, ball_volume, sample_grassmannian
from lkpolar.germ import (
    ConeGerm,
    _pl_local_polar_many,
    density,
    germ_from_name,
    halfplane_germ,
    local_lambda,
    local_polar_length,
    rays_germ,
    round_cone_germ,
    sigma_invariant,
    slice_chi_stabilized,
    verify_local_identities,
)
from lkpolar import germ
from lkpolar.plstrata import DegenerateSliceError, StratifiedComplex, normal_link, save_plstrat

from oracles import geometric_normal_index


def within(e, ref, floor=1e-9):
    return abs(e.value - ref) <= 3 * e.std_error + floor


# ---------------------------------------------------------------------------
# construction and densities
# ---------------------------------------------------------------------------

def test_germ_names():
    assert germ_from_name("rays:3").name == "rays:3"
    assert germ_from_name("halfplane:3").ambient_dim == 3
    assert germ_from_name("cone-circle:0.5").is_round
    with pytest.raises(ValueError):
        germ_from_name("wedge:2")


def test_cone_link_from_file(tmp_path):
    # three rays loaded through the PLSTRAT interface, unnormalized on disk
    verts = np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, -1.0]])
    K = StratifiedComplex(verts, {0: [(0,), (1,), (2,)]})
    path = tmp_path / "link.plstrat"
    save_plstrat(K, path)
    g = germ_from_name(f"cone-link:{path}")
    assert np.allclose(np.linalg.norm(g.link.vertices, axis=1), 1.0, atol=1e-12)
    assert density(g, 1) == pytest.approx(1.5, rel=1e-12)


def test_link_vertices_must_be_unit():
    verts = np.array([[2.0, 0.0]])
    link = StratifiedComplex(verts, {0: [(0,)]})
    with pytest.raises(ValueError):
        ConeGerm(name="bad", ambient_dim=2, link=link)


def test_densities_closed_forms():
    assert density(rays_germ(3), 1) == pytest.approx(1.5, rel=1e-12)
    assert density(rays_germ(3), 2) == 0.0
    assert density(halfplane_germ(3), 2) == pytest.approx(0.5, rel=1e-12)
    # the interior ray of the half-plane link is not a free cell
    assert density(halfplane_germ(3), 1) == 0.0
    for theta in (0.3, 0.6, 1.2):
        assert density(round_cone_germ(theta), 2) == pytest.approx(math.sin(theta), rel=1e-12)


# ---------------------------------------------------------------------------
# sigma invariants
# ---------------------------------------------------------------------------

def test_sigma_rays():
    g = rays_germ(3)
    assert sigma_invariant(g, 0, 10, RandomSource(1)).value == 1.0
    s1 = sigma_invariant(g, 1, 3000, RandomSource(2))
    assert within(s1, 1.5)
    s2 = sigma_invariant(g, 2, 500, RandomSource(3))
    assert s2.value == 0.0


def test_sigma_halfplane():
    g = halfplane_germ(3)
    assert within(sigma_invariant(g, 1, 2000, RandomSource(4)), 1.0)
    assert within(sigma_invariant(g, 2, 3000, RandomSource(5)), 0.5)
    assert sigma_invariant(g, 3, 500, RandomSource(6)).value == 0.0


def test_halfplane_germ_in_r4():
    # a 2-flat near the apex meets the plane of the germ in one point, inside
    # the half-plane half the time; flats of dimension 1 and 0 miss it
    g = halfplane_germ(4)
    assert within(sigma_invariant(g, 1, 500, RandomSource(4)), 1.0)
    assert within(sigma_invariant(g, 2, 1000, RandomSource(5)), 0.5)
    assert sigma_invariant(g, 3, 300, RandomSource(6)).value == 0.0
    assert sigma_invariant(g, 4, 300, RandomSource(7)).value == 0.0
    # its density is a spherical volume in R^4, past the closed forms
    with pytest.raises(NotImplementedError, match=r"R\^4"):
        density(g, 2)


@pytest.mark.parametrize("name", ["rays:3", "halfplane:3", "cone-circle:0.6"])
def test_stacked_stabilized_slices_are_lone_slices(name):
    X = germ_from_name(name)
    gen = RandomSource(65).generator()
    for k in range(1, X.ambient_dim + 1):
        planes = [sample_grassmannian(X.ambient_dim, k, gen).basis for _ in range(40)]
        vs = [gen.standard_normal(k) @ A for A in planes]
        vs = [v / np.linalg.norm(v) for v in vs]
        chi, unstable = germ._slice_chi_stabilized_many(X, np.stack(planes), np.stack(vs))
        for A, v, x, bad in zip(planes, vs, chi, unstable):
            try:
                assert not bad and x == slice_chi_stabilized(X, A, v)
            except DegenerateSliceError:
                assert bad


def test_degenerate_and_unsettled_slices_are_redrawn(monkeypatch):
    X = rays_germ(3)
    ray = X.link.vertices[0]
    # a line of R^2 at distance SLICE_DELTA from the apex through the end of
    # a ray of the cone model: degenerate at the first offset
    phi = math.atan2(ray[1], ray[0]) + math.acos(germ.SLICE_DELTA)
    v = np.array([math.cos(phi), math.sin(phi)])
    with pytest.raises(DegenerateSliceError):
        slice_chi_stabilized(X, v[None], v)
    assert slice_chi_stabilized(X, v[None], -v) in (0, 1, 2, 3)
    # with no halving allowed, no slice can settle
    monkeypatch.setattr(germ, "SLICE_HALVINGS", 0)
    with pytest.raises(DegenerateSliceError):
        slice_chi_stabilized(X, v[None], -v)
    with pytest.raises(RuntimeError, match="resample quota"):
        sigma_invariant(X, 1, 2, RandomSource(66))


def test_sigma_smooth_point_sanity():
    # the full line through the origin is smooth at 0
    g = rays_germ(2)
    assert within(sigma_invariant(g, 1, 1500, RandomSource(7)), 1.0)
    assert sigma_invariant(g, 2, 300, RandomSource(8)).value == 0.0


# ---------------------------------------------------------------------------
# local curvature measures
# ---------------------------------------------------------------------------

def test_local_lambda_rays():
    g = rays_germ(3)
    assert local_lambda(g, 1, RandomSource(9)).value == pytest.approx(1.5, rel=1e-12)
    lam0 = local_lambda(g, 0, RandomSource(10))
    assert within(lam0, -0.5, floor=1e-12)
    assert (lam0.std_error, lam0.method) == (0.0, "exterior-angle")


def test_local_lambda_halfplane():
    g = halfplane_germ(3)
    assert local_lambda(g, 2, RandomSource(11)).value == pytest.approx(0.5, rel=1e-12)
    assert within(local_lambda(g, 1, RandomSource(12)), 0.5, floor=1e-12)
    assert within(local_lambda(g, 0, RandomSource(13)), 0.0, floor=1e-12)


def test_truncated_cone_measures_scale_with_radius():
    # Lambda_k is homogeneous of degree k: the cone model truncated at radius
    # 1/2 has 0.5^k times the measures of the unit one, which is why
    # local_lambda evaluates the unit radius only
    from lkpolar.lkmeasure import Shape, lk_measure

    for g in (rays_germ(5), halfplane_germ(3)):
        unit = Shape(name=g.name, pl=g.model)
        half = Shape(name=g.name + "/2", pl=g.model.transformed(scale=0.5))
        for k in range(g.ambient_dim + 1):
            a = lk_measure(unit, k, RandomSource(14, k))
            b = lk_measure(half, k, RandomSource(14, k))
            assert b.value == pytest.approx(0.5**k * a.value, rel=1e-12, abs=1e-15), (g.name, k)
            assert b.std_error == pytest.approx(0.5**k * a.std_error, rel=1e-12, abs=1e-15)


def test_round_cone_closed_forms():
    # the cone over a circle of spherical radius theta: its slices give
    # sigma_1 = sigma_2 = sin(theta), the apex carries 1 - sin(theta), the
    # fold rays carry alpha = 0, and the sheet has density sin(theta); a
    # narrow, the benchmark's and a wide cone, each from its own stream
    for stream, theta in enumerate((0.6, 0.3, 1.2)):
        s = math.sin(theta)
        g = round_cone_germ(theta)
        rng = RandomSource(64, stream)
        checks = [
            (sigma_invariant(g, 1, 2000, rng.substream(1)), s),
            (sigma_invariant(g, 2, 2000, rng.substream(2)), s),
            (local_lambda(g, 0, rng.substream(3)), 1 - s),
            (local_polar_length(g, 0, 2000, rng.substream(4)), 1 - s),
            (local_lambda(g, 1, rng.substream(5)), 0.0),
            (local_polar_length(g, 1, 2000, rng.substream(6)), 0.0),
            (local_lambda(g, 2, rng.substream(7)), s),
            (local_polar_length(g, 2, 200, rng.substream(8)), s),
        ]
        for i, (est, ref) in enumerate(checks):
            assert within(est, ref, floor=1e-12), (theta, i, est, ref)


# ---------------------------------------------------------------------------
# local polar lengths
# ---------------------------------------------------------------------------

def test_local_polar_rays():
    g = rays_germ(3)
    assert local_polar_length(g, 1, 5, RandomSource(15)).value == pytest.approx(1.5, rel=1e-12)
    l0 = local_polar_length(g, 0, 2000, RandomSource(16))
    assert l0.value == pytest.approx(-0.5, abs=1e-12)  # exact per line by symmetry


def test_local_polar_halfplane():
    g = halfplane_germ(3)
    assert local_polar_length(g, 2, 1, RandomSource(17)).value == pytest.approx(0.5, rel=1e-12)
    l1 = local_polar_length(g, 1, 1200, RandomSource(18))
    assert within(l1, 0.5)
    l0 = local_polar_length(g, 0, 1500, RandomSource(19))
    assert within(l0, 0.0)


def _oracle_local_polar_one(X, k, P):
    """One plane of the local polar length, cone cell by cone cell: alpha by
    the geometric sublevel route along the image normal (a right angle in
    the plane of P for a ray, a cross product in P for a 2-cell), times the
    angle of the projected rays over k b_k."""
    T = X.model
    if k == 0:
        cells, normals, weights = [(0,)], [P.basis[0]], [1.0]  # the apex alone
    else:
        cells = [c for c in T.cells[k] if 0 in c]
        normals, weights = [], []
        for cell in cells:
            coords = T.vertices[list(cell[1:])] @ P.basis.T
            if k == 1:
                w, angle = np.array([-coords[0, 1], coords[0, 0]]), 1.0
            else:
                w = np.cross(coords[0], coords[1])
                a, b = coords / np.linalg.norm(coords, axis=1)[:, None]
                angle = math.acos(float(np.clip(a @ b, -1.0, 1.0)))
            nu = w @ P.basis
            normals.append(nu / np.linalg.norm(nu))
            weights.append(angle / (k * ball_volume(k)))
    total = 0.0
    for cell, nu, weight in zip(cells, normals, weights):
        link = normal_link(T, cell)
        alpha = 0.5 * (geometric_normal_index(T, cell, nu, link)
                       + geometric_normal_index(T, cell, -nu, link))
        total += alpha * weight
    return total


@pytest.mark.parametrize("name", ["rays:5", "halfplane:3"])
def test_pl_local_polar_one_matches_oracle(name):
    # every plane of a stack, against the oracle one plane at a time
    X = germ_from_name(name)
    gen = RandomSource(61).generator()
    for k in range(X.dim + 1):
        planes = [sample_grassmannian(X.ambient_dim, k + 1, gen) for _ in range(8)]
        vals, redraw = _pl_local_polar_many(X, k, np.stack([P.basis for P in planes]))
        assert not redraw.any()
        for P, val in zip(planes, vals):
            assert val == pytest.approx(
                _oracle_local_polar_one(X, k, P), rel=1e-12, abs=1e-15), (k, P.basis)


def test_degenerate_local_polar_planes_are_flagged():
    # rays:3: an apex line orthogonal to a ray lies on a wall of the apex link
    X = rays_germ(3)
    ray = X.link.vertices[0]
    lines = np.array([[[-ray[1], ray[0]]], [[0.6, 0.8]]])
    assert _pl_local_polar_many(X, 0, lines)[1].tolist() == [True, False]
    # halfplane:3, sheets over e1, e2 and -e1: a plane orthogonal to e2
    # collapses that ray (and the image of its cone cell); one through e3
    # and (0.6, 0.8, 0) has e3 as the image normal of the cell over e2,
    # which is orthogonal to its link directions +-e1
    X = halfplane_germ(3)
    planes = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                       [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
                       [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]])
    assert _pl_local_polar_many(X, 1, planes)[1].tolist() == [True, True, False]


# a spherical triangle in general position: the cone over its rim, and the
# full-dimensional cone over the triangle itself
TRIANGLE = np.array([[1.0, 0.2, 0.3], [-0.4, 1.0, 0.1], [-0.3, -0.6, 1.0]])


def _triangle_germ(solid):
    verts = TRIANGLE / np.linalg.norm(TRIANGLE, axis=1)[:, None]
    cells = [(0, 1, 2)] if solid else [(0, 1), (1, 2), (0, 2)]
    link = StratifiedComplex.from_maximal_cells(verts, cells)
    return ConeGerm(name="triangle-solid" if solid else "triangle-rim", ambient_dim=3, link=link)


def _germ(name):
    if name.startswith("triangle"):
        return _triangle_germ(solid=name == "triangle-solid")
    return germ_from_name(name)


@pytest.mark.parametrize("name", ["rays:1", "rays:2", "rays:3", "rays:5", "halfplane:3",
                                  "triangle-rim", "triangle-solid"])
def test_the_full_space_value_is_the_value_of_every_plane(name):
    # at k = n - 1 the plane is all of R^n: the identity plane, valued with
    # no draw, gives what every random plane gives
    X = _germ(name)
    n = X.ambient_dim
    est = local_polar_length(X, n - 1, 500, RandomSource(67))
    assert (est.std_error, est.n_samples, est.method) == (0.0, 1, "full-space")
    gen = RandomSource(68).generator()
    bases = np.stack([sample_grassmannian(n, n, gen).basis for _ in range(50)])
    vals, redraw = _pl_local_polar_many(X, n - 1, bases)
    assert not redraw.any()
    assert est.value != 0.0
    assert np.all(np.abs(vals - est.value) <= 1e-12 * abs(est.value))


def test_the_round_sheet_is_its_density():
    g = round_cone_germ(0.6)
    est = local_polar_length(g, 2, 500, RandomSource(69))
    assert (est.value, est.std_error, est.n_samples) == (density(g, 2), 0.0, 1)


def test_a_flagged_full_space_raises(monkeypatch):
    monkeypatch.setattr(germ, "_pl_local_polar_many",
                        lambda X, k, bases: (np.zeros(len(bases)), np.ones(len(bases), dtype=bool)))
    with pytest.raises(DegenerateDirectionError, match="whole space is degenerate"):
        local_polar_length(halfplane_germ(3), 2, 10, RandomSource(70))


@pytest.mark.parametrize("name, ks", [("rays:3", [2]), ("rays:5", [2]), ("halfplane:3", [3]),
                                      ("halfplane:4", [3, 4]), ("cone-circle:0.6", [3])])
def test_slices_past_the_dimension_are_exact(name, ks):
    # a generic flat of codimension k > dim X misses the germ
    X = germ_from_name(name)
    for k in ks:
        est = sigma_invariant(X, k, 500, RandomSource(71, k))
        assert (est.value, est.std_error, est.n_samples, est.method) == (0.0, 0.0, 1, "dimension")


def test_point_slices_of_a_solid_cone_are_sampled():
    # sigma_n of a full-dimensional cone is the chance that a point near the
    # apex lies in it: its density, not a dimension rule
    X = _triangle_germ(solid=True)
    assert X.dim == X.ambient_dim == 3
    est = sigma_invariant(X, 3, 2000, RandomSource(72))
    assert (est.n_samples, est.method) == (2000, "affine-slices")
    assert est.std_error > 0.0 and within(est, density(X, 3))


@pytest.mark.parametrize("name, calls", [("rays:3", 2), ("rays:5", 2), ("halfplane:3", 4),
                                         ("cone-circle:0.6", 3)])
def test_the_table_samples_only_what_it_cannot_value(name, calls, monkeypatch):
    # one sampled route per sigma_k with 1 <= k <= dim X, and per L_k^loc with
    # k <= dim X and k < n - 1 (k = 0 alone on the round cone); every local
    # Lambda_k is exact
    counted = []
    sample = germ.per_sample_values
    monkeypatch.setattr(germ, "per_sample_values",
                        lambda *args: counted.append(args[-1]) or sample(*args))
    verify_local_identities(germ_from_name(name), RandomSource(73), n_samples=40, n_planes=40)
    assert len(counted) == calls, counted


def test_local_polar_round_cone():
    g = round_cone_germ(0.6)
    assert local_polar_length(g, 2, 1, RandomSource(20)).value == pytest.approx(
        math.sin(0.6), rel=1e-12
    )
    assert local_polar_length(g, 1, 400, RandomSource(21)).value == 0.0


def test_top_density_identity():
    # sigma_n equals the top localized polar length (the density)
    for g in (rays_germ(4), halfplane_germ(3)):
        n = g.ambient_dim
        s = sigma_invariant(g, n, 2000, RandomSource(22))
        ref = local_polar_length(g, n, 1, RandomSource(23)).value
        assert within(s, ref)


# ---------------------------------------------------------------------------
# the verification table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 5])
def test_verify_rays(m):
    g = rays_germ(m)
    report = verify_local_identities(g, RandomSource(100 + m), n_samples=3000, n_planes=1500)
    assert report.passes
    k1 = report.rows[1]
    assert within(k1.polar, m / 2.0)
    k0 = report.rows[0]
    assert within(k0.polar, 1.0 - m / 2.0)


def test_verify_halfplane():
    report = verify_local_identities(
        halfplane_germ(3), RandomSource(200), n_samples=3000, n_planes=1200
    )
    assert report.passes
    assert within(report.rows[2].polar, 0.5)


def test_verify_round_cone():
    report = verify_local_identities(
        round_cone_germ(0.6), RandomSource(201), n_samples=3000, n_planes=1200
    )
    assert report.passes
    assert report.rows[2].curvature.value == pytest.approx(math.sin(0.6), rel=1e-12)


def test_local_matches_global_on_truncated_cone():
    # the simplicial model of rays:3 is an honest PL shape; the global route
    # on it must reproduce local_lambda * b_k plus the outer boundary terms
    from lkpolar.geomkit import ball_volume
    from lkpolar.lkmeasure import Shape, lk_measure

    g = rays_germ(3)
    truncated = Shape(name="cone-rays3", pl=g.model)
    lam1 = lk_measure(truncated, 1, RandomSource(60))
    loc1 = local_lambda(g, 1, RandomSource(61))
    assert lam1.value == pytest.approx(loc1.value * ball_volume(1), rel=1e-9)

    lam0 = lk_measure(truncated, 0, RandomSource(62))
    loc0 = local_lambda(g, 0, RandomSource(63))
    # each outer endpoint contributes the half-space mean 1/2
    boundary = 3 * 0.5
    gap = abs(lam0.value - (loc0.value + boundary))
    assert gap <= 3 * math.hypot(lam0.std_error, loc0.std_error) + 1e-12
    # and the global value is the Euler characteristic of the cone
    assert abs(lam0.value - 1.0) <= 3 * lam0.std_error + 1e-12


def test_refined_identity():
    for spec in ("rays:2", "rays:3", "rays:5", "halfplane:3", "cone-circle:0.6"):
        g = germ_from_name(spec)
        report = verify_local_identities(g, RandomSource(202), n_samples=2500, n_planes=1000)
        gap = abs(report.refined_lhs.value - report.refined_rhs.value)
        tol = 3 * math.hypot(report.refined_lhs.std_error, report.refined_rhs.std_error) + 1e-9
        assert gap <= tol, spec
