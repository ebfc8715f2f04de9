"""Bit pins of seeded estimates, and the premise that keeps them: a stacked
numpy call gives every block the bits of a lone call.

The germ routes, smooth exchange and smooth polar lengths at q=0 evaluate a
block of up to 256 samples per kernel call.  The pins below were recorded
when every sample was still evaluated alone, one numpy call per plane or
direction; a stacked route that moves a last bit fails here.  If
a numpy or BLAS change breaks the stacking premise, the guard tests fail
too, and name the kernel, instead of the pins moving silently."""

import numpy as np
import pytest

from lkpolar import germ, lkmeasure, polar
from lkpolar.geomkit import RandomSource
from lkpolar.plstrata import StratifiedComplex

# (name, quantity, k) -> (value.hex(), std_error.hex()); germs at 300 samples,
# which is more than one block
PINS = {
    ('rays:3', 'sigma', 1): ('0x1.8369d0369d037p+0', '0x1.d9964d39e3c40p-6'),
    ('rays:3', 'sigma', 2): ('0x0.0p+0', '0x0.0p+0'),
    ('rays:3', 'polar', 0): ('-0x1.0000000000000p-1', '0x0.0p+0'),
    ('rays:3', 'polar', 1): ('0x1.7fffffffffffep+0', '0x0.0p+0'),
    ('rays:3', 'polar', 2): ('0x0.0p+0', '0x0.0p+0'),
    ('halfplane:3', 'sigma', 1): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('halfplane:3', 'sigma', 2): ('0x1.0a3d70a3d70a4p-1', '0x1.d9605e1d408f8p-6'),
    ('halfplane:3', 'sigma', 3): ('0x0.0p+0', '0x0.0p+0'),
    ('halfplane:3', 'polar', 0): ('0x0.0p+0', '0x0.0p+0'),
    ('halfplane:3', 'polar', 1): ('0x1.ffffffffffffep-2', '0x0.0p+0'),
    ('halfplane:3', 'polar', 2): ('0x1.0000000000000p-1', '0x0.0p+0'),
    ('halfplane:3', 'polar', 3): ('0x0.0p+0', '0x0.0p+0'),
    ('cone-circle:0.6', 'sigma', 1): ('0x1.1eb851eb851ecp-1', '0x1.d65509f29ad1bp-6'),
    ('cone-circle:0.6', 'sigma', 2): ('0x1.0000000000000p-1', '0x1.67c36309d0038p-5'),
    ('cone-circle:0.6', 'sigma', 3): ('0x0.0p+0', '0x0.0p+0'),
    ('cone-circle:0.6', 'polar', 0): ('0x1.ddddddddddddep-2', '0x1.d8b39e00d43c8p-6'),
    ('cone-circle:0.6', 'polar', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('cone-circle:0.6', 'polar', 2): ('0x1.2118d17a54159p-1', '0x0.0p+0'),
    ('cone-circle:0.6', 'polar', 3): ('0x0.0p+0', '0x0.0p+0'),
    ('cone-circle:0.6', 'lambda', 0): ('0x1.bf258bf258bf2p-2', '0x1.d5f08d016442fp-6'),
    ('cube', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('cube', 'polar_length', 1): ('0x1.7df48307dc728p+1', '0x1.5868e4966a275p-6'),
    ('cube', 'polar_length', 2): ('0x1.8000000000000p+1', '0x1.54277f40d6cb6p-54'),
    ('torus7', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('cube-boundary', 'polar_length', 2): ('0x1.8000000000000p+2', '0x1.54277f40d6cb6p-53'),
    ('disk:1', 'polar_length', 1): ('0x1.963c4cf6a998cp+1', '0x1.715b10afc4f10p-3'),
    ('hemisphere:1', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('hemisphere:1', 'polar_length', 1): ('0x1.963c4cf6a998cp+1', '0x1.715b10afc4f10p-3'),
    ('ball:1', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('ball:1', 'polar_length', 1): ('0x1.ffffffffffe79p+1', '0x1.9206c2f5d60dcp-45'),
    ('torus:2:1', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('octahedron', 'exchange', 0): ('0x1.0000000000000p+1', '0x0.0p+0'),
    ('sphere:1', 'exchange', 0): ('0x1.0000000000000p+1', '0x0.0p+0'),
    ('torus:2:1', 'exchange', 0): ('0x0.0p+0', '0x0.0p+0'),
    # generic angles between the projected rays: the spherical volumes pass
    # through atan2
    ('triangle-rim', 'sigma', 2): ('0x1.962fc962fc963p-1', '0x1.7a336c2c4b842p-5'),
    ('triangle-rim', 'polar', 2): ('0x1.abddfaef1aa3ep-1', '0x1.64a15852420edp-58'),
}


def _germ(name):
    if name != "triangle-rim":
        return germ.germ_from_name(name)
    # the cone over the boundary of a spherical triangle in general position
    verts = np.array([[1.0, 0.2, 0.3], [-0.4, 1.0, 0.1], [-0.3, -0.6, 1.0]])
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    link = StratifiedComplex.from_maximal_cells(verts, [(0, 1), (1, 2), (0, 2)])
    return germ.ConeGerm(name=name, ambient_dim=3, link=link)


def _estimate(name, quantity, k):
    if quantity == "sigma":
        return germ.sigma_invariant(_germ(name), k, 300, RandomSource(31, k))
    if quantity == "polar":
        return germ.local_polar_length(_germ(name), k, 300, RandomSource(32, k))
    if quantity == "lambda":
        return germ.local_lambda(_germ(name), k, RandomSource(33), n_dirs=300)
    X = lkmeasure.shape_from_name(name)
    if quantity == "polar_length":
        return polar.polar_length(X, k, 30 if X.pl is not None else 8,
                                  RandomSource(34, k)).estimate
    return lkmeasure.exchange_lambda0(X, 100 if X.pl is not None else 10, RandomSource(35))


@pytest.mark.parametrize("key", list(PINS), ids=["-".join(map(str, key)) for key in PINS])
def test_estimates_keep_their_bits(key):
    est = _estimate(*key)
    assert (est.value.hex(), est.std_error.hex()) == PINS[key]


def _stack(gen, shape):
    return gen.standard_normal((64, *shape))


# the (n, k) of the Gaussian draws that the germ routes orthonormalize: planes
# and flat normals in R^2, R^3 and R^4
DRAWS = [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)]


@pytest.mark.parametrize("n, k", DRAWS)
def test_stacked_qr_is_the_lone_qr(n, k):
    g = _stack(np.random.default_rng(n * 10 + k), (n, k))
    q, r = np.linalg.qr(g)
    for s in range(len(g)):
        q1, r1 = np.linalg.qr(g[s])
        assert np.array_equal(q[s], q1) and np.array_equal(r[s], r1)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_stacked_det_is_the_lone_det(c):
    # slice minors (flats, faces, c + 1, c, c) and spherical triangles (.., 3, 3)
    m = _stack(np.random.default_rng(c), (5, c + 1, c, c))
    det = np.linalg.det(m)
    for s in range(len(m)):
        for f in range(5):
            for j in range(c + 1):
                assert det[s, f, j] == np.linalg.det(m[s, f, j])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_svd_is_the_lone_svd(k):
    # image-normal coordinates (planes, cells, k, k + 1)
    m = _stack(np.random.default_rng(k), (4, k, k + 1))
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    for i in range(len(m)):
        for c in range(4):
            u1, s1, vt1 = np.linalg.svd(m[i, c], full_matrices=True)
            assert np.array_equal(u[i, c], u1) and np.array_equal(s[i, c], s1)
            assert np.array_equal(vt[i, c], vt1)


@pytest.mark.parametrize("n, k", DRAWS)
def test_stacked_products_are_the_lone_products(n, k):
    # the products of a plane basis held as the transposed view of its Q:
    # w @ A (a unit vector into the plane), A @ v, vertices @ A.T, and the
    # dot product of two stacked vectors
    gen = np.random.default_rng(n * 10 + k)
    q = np.linalg.qr(_stack(gen, (n, k)))[0]
    A = q.swapaxes(1, 2)
    w = _stack(gen, (k,))
    verts = gen.standard_normal((7, n))
    v = (w[:, None, :] @ A)[:, 0]
    Av = (A @ v[:, :, None])[:, :, 0]
    images = verts @ A.swapaxes(1, 2)
    dots = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    for s in range(len(q)):
        lone = q[s].T
        assert np.array_equal(v[s], w[s] @ lone)
        assert np.array_equal(Av[s], lone @ v[s])
        assert np.array_equal(images[s], verts @ lone.T)
        assert dots[s] == v[s] @ v[s]
