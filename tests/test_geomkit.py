import math

import numpy as np
import pytest
from scipy import stats

from lkpolar.geomkit import (
    AffineFlat,
    Estimate,
    LinearSubspace,
    RandomSource,
    ball_volume,
    beta_coeff,
    mean_estimate,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
    sample_unit_sphere,
    sphere_volume,
)


def test_sphere_volume_known_values():
    assert sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-12)
    assert sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-12)
    assert sphere_volume(0) == pytest.approx(2.0, rel=1e-12)


def test_ball_volume_known_values():
    assert ball_volume(0) == pytest.approx(1.0, rel=1e-12)
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_constants_against_closed_forms_high_dims():
    # s_k = 2 pi b_(k-1) and b_k = s_(k-1)/k for k <= 10, 12 significant digits
    for k in range(1, 11):
        assert sphere_volume(k) == pytest.approx(2 * math.pi * ball_volume(k - 1), rel=1e-12)
        assert ball_volume(k) == pytest.approx(sphere_volume(k - 1) / k, rel=1e-12)


def test_beta_coeff_values():
    assert beta_coeff(5, 0) == pytest.approx(1.0, rel=1e-12)
    assert beta_coeff(2, 1) == pytest.approx(2 / math.pi, rel=1e-12)
    assert beta_coeff(3, 2) == pytest.approx(0.5, rel=1e-12)
    # symmetry in k <-> n-k
    for n in range(1, 8):
        for k in range(n + 1):
            assert beta_coeff(n, k) == pytest.approx(beta_coeff(n, n - k), rel=1e-12)


def test_beta_coeff_domain_errors():
    with pytest.raises(ValueError):
        beta_coeff(2, 3)
    with pytest.raises(ValueError):
        sphere_volume(-1)
    with pytest.raises(ValueError):
        ball_volume(-2)


def test_polar_length_constant_anchors():
    assert polar_length_constant(3, 0) == pytest.approx(1.0, rel=1e-12)
    assert polar_length_constant(3, 1) == pytest.approx(4 / math.pi, rel=1e-12)
    assert polar_length_constant(3, 2) == pytest.approx(1.0, rel=1e-12)
    assert polar_length_constant(2, 0) == pytest.approx(1.0, rel=1e-12)
    assert polar_length_constant(2, 1) == pytest.approx(1.0, rel=1e-12)


def test_linear_subspace_invariants():
    p = LinearSubspace.from_vectors(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    assert p.dim == 2
    gram = p.basis @ p.basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    comp = p.orthogonal_complement()
    assert comp.dim == 1
    assert np.allclose(p.basis @ comp.basis.T, 0.0, atol=1e-10)


def test_linear_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        LinearSubspace(3, np.array([[1.0, 1.0, 0.0]]))


def test_linear_subspace_orthonormality_tolerance_is_absolute():
    # |b|^2 - 1 = 2e-7 is far outside 1e-10, although within a 1e-5 relative
    # tolerance
    b = np.array([[math.sqrt(1.0 + 2e-7), 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="1e-10"):
        LinearSubspace(3, b)
    with pytest.raises(ValueError):
        LinearSubspace(3, np.array([[np.nan, 0.0, 0.0]]))
    gen = RandomSource(17).generator()
    for n in (2, 3, 5):
        for k in range(n + 1):
            P = sample_grassmannian(n, k, gen)  # QR output
            comp = P.orthogonal_complement()  # SVD output
            assert comp.dim == n - k
            LinearSubspace(n, P.basis)
            LinearSubspace(n, comp.basis)


def test_affine_flat_offset_orthogonality():
    d = LinearSubspace.from_vectors(np.array([[1.0, 0.0, 0.0]]))
    AffineFlat(direction=d, offset=np.array([0.0, 2.0, 0.0]))
    with pytest.raises(ValueError):
        AffineFlat(direction=d, offset=np.array([1.0, 0.0, 0.0]))


def test_sample_unit_sphere_norm_and_symmetry():
    rng = RandomSource(master_seed=7)
    v = sample_unit_sphere(3, rng)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    gen = RandomSource(11).generator()
    vs = np.array([sample_unit_sphere(3, gen) for _ in range(100_000)])
    # componentwise mean -> 0 within 4 sigma; per-component sd is 1/sqrt(3N)
    sd = 1.0 / math.sqrt(3 * len(vs))
    assert np.all(np.abs(vs.mean(axis=0)) < 4 * sd)
    frac = np.mean(vs[:, 0] > 0)
    assert abs(frac - 0.5) < 0.01


def test_random_source_determinism():
    def draws(rng):
        gen = rng.generator()
        return np.array([sample_unit_sphere(4, gen) for _ in range(32)])

    a = draws(RandomSource(123, stream_id=5))
    b = draws(RandomSource(123, stream_id=5))
    assert np.array_equal(a, b)
    c = draws(RandomSource(123, stream_id=6))
    assert not np.array_equal(a, c)
    # substreams are reproducible and distinct
    s0 = sample_unit_sphere(4, RandomSource(9).substream(0))
    s0b = sample_unit_sphere(4, RandomSource(9).substream(0))
    s1 = sample_unit_sphere(4, RandomSource(9).substream(1))
    assert np.array_equal(s0, s0b)
    assert not np.array_equal(s0, s1)


def test_grassmannian_full_space():
    p = sample_grassmannian(3, 3, RandomSource(1))
    assert p.dim == 3
    # G_n^n is a single point: the sampled frame spans everything
    x = np.array([0.3, -0.7, 2.0])
    assert np.allclose(p.project(x), x, atol=1e-12)


def test_grassmannian_plane_normals_uniform_on_sphere():
    # Oracle: for a uniform 2-plane in R^3 the unit normal line is uniform,
    # so each |coordinate| is Uniform[0, 1] (Archimedes).  The sign of the
    # computed normal is a basis convention, hence the absolute value.
    rng = RandomSource(42)
    gen = rng.generator()
    normals = []
    for _ in range(10_000):
        p = sample_grassmannian(3, 2, gen)
        normals.append(p.orthogonal_complement().basis[0])
    normals = np.array(normals)
    for i in range(3):
        res = stats.kstest(np.abs(normals[:, i]), stats.uniform(loc=0.0, scale=1.0).cdf)
        assert res.pvalue > 0.001


def test_grassmannian_line_angle_uniform():
    # Oracle: a uniform line in R^2 has angle uniform on [0, pi).
    gen = RandomSource(43).generator()
    angles = []
    for _ in range(10_000):
        line = sample_grassmannian(2, 1, gen)
        v = line.basis[0]
        angles.append(math.atan2(v[1], v[0]) % math.pi)
    counts, _ = np.histogram(angles, bins=20, range=(0.0, math.pi))
    expected = len(angles) / 20
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square critical value for 19 dof at p = 0.001
    assert chi2 < 43.82


def test_grassmannian_rotation_invariance():
    # statistics of R-rotated samples match fresh samples (KS on normal coords)
    theta = 0.83
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    gen = RandomSource(77).generator()
    a = np.array(
        [sample_grassmannian(3, 2, gen).orthogonal_complement().basis[0] for _ in range(4000)]
    )
    rotated = a @ rot.T
    for i in range(3):
        res = stats.kstest(np.abs(rotated[:, i]), stats.uniform(loc=0.0, scale=1.0).cdf)
        assert res.pvalue > 0.001


def test_affine_flats_hit_ball_and_weight():
    gen = RandomSource(5).generator()
    for _ in range(200):
        flat, weight = sample_affine_flats_hitting_ball(3, 1, 2.0, gen)
        assert flat.distance_to(np.zeros(3)) <= 2.0 + 1e-12
    assert weight == pytest.approx(ball_volume(2) * 4.0, rel=1e-12)


def test_affine_flat_k_equals_n_rejected():
    with pytest.raises(ValueError):
        sample_affine_flats_hitting_ball(3, 3, 1.0, RandomSource(0))


def test_crofton_chord_length_of_disk():
    # Oracle: integral over lines of length(line ∩ unit disk) equals the disk
    # area pi, with the (probability direction) x (Lebesgue offset) measure.
    gen = RandomSource(99).generator()
    n = 40_000
    vals = np.empty(n)
    for i in range(n):
        flat, weight = sample_affine_flats_hitting_ball(2, 1, 1.0, gen)
        d = flat.distance_to(np.zeros(2))
        vals[i] = weight * (2.0 * math.sqrt(max(0.0, 1.0 - d * d)))
    est = vals.mean()
    assert est == pytest.approx(math.pi, rel=0.02)


def test_estimate_arithmetic():
    a = Estimate(1.0, 0.3, 10, 0)
    b = Estimate(2.0, 0.4, 10, 0)
    c = a + b
    assert c.value == pytest.approx(3.0)
    assert c.std_error == pytest.approx(0.5)
    assert (a - b).value == pytest.approx(-1.0)
    assert a.scaled(2.0).std_error == pytest.approx(0.6)
    with pytest.raises(ValueError):
        Estimate(0.0, -1.0, 1, 0)


def test_mean_estimate_matches_definition():
    vals = [1.0, 2.0, 3.0, 4.0]
    e = mean_estimate(vals, seed=3)
    assert e.value == pytest.approx(2.5)
    assert e.std_error == pytest.approx(np.std(vals, ddof=1) / 2.0)
    assert e.n_samples == 4
