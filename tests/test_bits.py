"""Bit pins of seeded estimates, and the premise that keeps them: a stacked
numpy call gives every block the bits of a lone call.

The germ routes, exchange, smooth polar lengths at q=0 and PL polar lengths
evaluate a block of up to 256 samples per kernel call (a PL route in chunks
of at most ``plstrata.PAIR_CAP`` (sample, cell) pairs).  The pins below were recorded
when every sample was still evaluated alone, one numpy call per plane or
direction; a stacked route that moves a last bit fails here.  If
a numpy or BLAS change breaks the stacking premise, the guard tests fail
too, and name the kernel, instead of the pins moving silently."""

import numpy as np
import pytest

from lkpolar import germ, lkmeasure, plstrata, polar
from lkpolar.geomkit import (
    LinearSubspace,
    RandomSource,
    affine_flats_hitting_ball,
    draw_affine_flat,
    draw_grassmannian,
    grassmannian_bases,
    mean_estimate,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
)
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
    ('cone-circle:0.6', 'lambda', 0): ('0x1.bdce5d0b57d4ep-2', '0x0.0p+0'),
    ('cube', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('cube', 'polar_length', 1): ('0x1.7df48307dc728p+1', '0x1.5868e4966a275p-6'),
    ('cube', 'polar_length', 2): ('0x1.8000000000000p+1', '0x0.0p+0'),
    ('torus7', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('cube-boundary', 'polar_length', 2): ('0x1.8000000000000p+2', '0x0.0p+0'),
    ('disk:1', 'polar_length', 1): ('0x1.963c4cf6a998cp+1', '0x1.715b10afc4f10p-3'),
    ('hemisphere:1', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('hemisphere:1', 'polar_length', 1): ('0x1.963c4cf6a998cp+1', '0x1.715b10afc4f10p-3'),
    ('ball:1', 'polar_length', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('ball:1', 'polar_length', 1): ('0x1.ffffffffffe79p+1', '0x1.91ce8f44d84b6p-45'),
    ('torus:2:1', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    # recorded while the smooth route at q = 1 still valued one plane at a time
    ('sphere:1', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('circle:1', 'polar_length', 1): ('0x1.963c4cf6a998cp+2', '0x1.715b10afc4f10p-2'),
    ('ellipse:2:1', 'polar_length', 1): ('0x1.3607c49007bbbp+3', '0x0.0p+0'),
    ('octahedron', 'exchange', 0): ('0x1.0000000000000p+1', '0x0.0p+0'),
    ('sphere:1', 'exchange', 0): ('0x1.0000000000000p+1', '0x0.0p+0'),
    ('torus:2:1', 'exchange', 0): ('0x0.0p+0', '0x0.0p+0'),
    ('torus7', 'exchange', 0): ('0x0.0p+0', '0x0.0p+0'),
    ('cube', 'exchange', 0): ('0x1.0000000000000p+0', '0x0.0p+0'),
    ('octahedron', 'polar_length', 1): ('0x0.0p+0', '0x0.0p+0'),
    ('cube-boundary', 'polar_length', 0): ('0x1.0000000000000p+1', '0x0.0p+0'),
    # generic angles between the projected rays: the spherical volumes pass
    # through atan2
    ('triangle-rim', 'sigma', 2): ('0x1.962fc962fc963p-1', '0x1.7a336c2c4b842p-5'),
    ('triangle-rim', 'polar', 2): ('0x1.abddfaef1aa3ep-1', '0x0.0p+0'),
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
        return germ.local_lambda(_germ(name), k, RandomSource(33))
    X = lkmeasure.shape_from_name(name)
    if quantity == "polar_length":
        return polar.polar_length(X, k, 30 if X.pl is not None else 8,
                                  RandomSource(34, k)).estimate
    return lkmeasure.exchange_lambda0(X, 100 if X.pl is not None else 10, RandomSource(35))


@pytest.mark.parametrize("key", list(PINS), ids=["-".join(map(str, key)) for key in PINS])
def test_estimates_keep_their_bits(key):
    est = _estimate(*key)
    assert (est.value.hex(), est.std_error.hex()) == PINS[key]


# (shape, k) -> numerator (value.hex(), std_error.hex()) of kinematic_check at
# 2500 flats, about ten blocks, recorded when every flat was drawn and
# sliced alone
KINEMATIC_PINS = {
    ('cube', 1): ('0x1.8150a93c3c8b2p+0', '0x1.72f0c5a9b0fb1p-6'),
    ('cube', 2): ('0x1.89639064069b5p+0', '0x1.6729f93fb0784p-7'),
    ('ball:1', 1): ('0x1.921fb54442d18p+1', '0x0.0p+0'),
    ('ball:1', 2): ('0x1.0000000000001p+1', '0x0.0p+0'),
    ('sphere:1', 1): ('0x1.921fb54442d18p+2', '0x0.0p+0'),
}


@pytest.mark.parametrize("key", list(KINEMATIC_PINS),
                         ids=["-".join(map(str, key)) for key in KINEMATIC_PINS])
def test_kinematic_numerators_keep_their_bits(key):
    name, k = key
    est = lkmeasure.kinematic_check(lkmeasure.shape_from_name(name), k, 2500,
                                    RandomSource(107, k)).numerator
    assert (est.value.hex(), est.std_error.hex()) == KINEMATIC_PINS[key]


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (3, 0)])
def test_stacked_flats_are_the_lone_flats(n, k):
    # one stacked call per block of flats gives each flat the bits of
    # sample_affine_flats_hitting_ball and of the lone construction (a
    # plane, its complement, then (t u) @ complement), and leaves each
    # generator at the same next draw
    radius = 1.7
    m = n - k
    stacked = RandomSource(40, n * 10 + k).substream_generators(0, 256)
    lone = RandomSource(40, n * 10 + k).substream_generators(0, 256)
    by_hand = RandomSource(40, n * 10 + k).substream_generators(0, 256)
    draws = tuple(np.stack(part) for part in zip(*[draw_affine_flat(n, k, g) for g in stacked]))
    directions, comps, offsets, full, weight = affine_flats_hitting_ball(draws, radius)
    assert full.all()
    for s in range(len(stacked)):
        flat, w = sample_affine_flats_hitting_ball(n, k, radius, lone[s])
        assert np.array_equal(flat.direction.basis, directions[s])
        assert np.array_equal(flat.offset, offsets[s]) and w == weight
        g = by_hand[s]
        P = sample_grassmannian(n, k, g)
        comp = P.orthogonal_complement().basis
        u = g.standard_normal(m)
        u = u / np.sqrt(u.dot(u))
        t = radius * g.uniform() ** (1.0 / m)
        assert np.array_equal(P.basis, directions[s]) and np.array_equal(comp, comps[s])
        assert np.array_equal((t * u) @ comp, offsets[s])
        nxt = stacked[s].standard_normal()
        assert nxt == lone[s].standard_normal() == g.standard_normal()


# planes that the span check of the cube flags: axis lines, and the
# axis-aligned planes of the degeneracy criterion
AXIS_PLANES = {
    0: [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]],
    1: [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]],
}


def _lone_plane(X, q, P):
    """(reason, values) of one plane: its span check, then its q-cells on a
    stack of one plane."""
    sample = polar.polar_sample(X, P)
    if sample.degenerate:
        return "+".join(sample.report.reasons()), None
    bases = P.basis[None]
    values, flagged = polar._pl_cell_values_many(
        X, polar._pl_images(X.pl, q, bases), np.arange(len(X.pl.cells[q])), bases)
    return ("alpha", None) if flagged[0] else ("", values[0])


@pytest.mark.parametrize("q", [0, 1])
def test_a_chunk_of_pl_planes_gives_each_plane_its_lone_bits(q, monkeypatch):
    X = lkmeasure.shape_from_name("cube")
    gen = RandomSource(36, q).generator()
    generic = [sample_grassmannian(3, q + 1, gen) for _ in range(9)]
    axis = [LinearSubspace(3, np.array(basis, dtype=float)) for basis in AXIS_PLANES[q]]
    first = generic[:2] + axis[:1] + generic[2:6] + axis[1:] + generic[6:]

    def bases_of(draws):  # a first plane keeps its basis, a redraw gets its QR
        bases, full = grassmannian_bases(draws)
        q = bases.swapaxes(1, 2).copy()
        for s, G in enumerate(draws):
            for P in first:
                if np.array_equal(G, P.basis.T):
                    q[s], full[s] = P.basis.T, True
        return q.swapaxes(1, 2), full

    def run(cap):
        monkeypatch.setattr(plstrata, "PAIR_CAP", cap)
        gens, drawn = [], []

        def draw(n, k, g):  # a sample's first plane from the list, a redraw from its generator
            if not any(g is h for h in gens):
                gens.append(g)
                drawn.append(first[len(gens) - 1])
                return drawn[-1].basis.T
            G = draw_grassmannian(n, k, g)
            drawn.append(LinearSubspace(n, grassmannian_bases(G[None])[0][0]))
            return G

        monkeypatch.setattr(polar, "draw_grassmannian", draw)
        monkeypatch.setattr(polar, "grassmannian_bases", bases_of)
        return polar.polar_length(X, q, len(first), RandomSource(37, q), keep_rows=True), drawn

    res, drawn = run(plstrata.PAIR_CAP)
    accepted = []
    for i, basis, cells, reason in res.per_plane:
        (P,) = [P for P in drawn if np.array_equal(P.basis, basis)]
        lone_reason, lone = _lone_plane(X, q, P)
        assert reason == lone_reason
        if not reason:
            assert [v.hex() for v in cells.values()] == [v.hex() for v in lone.tolist()]
            accepted.append(polar._sum_in_order(lone))
    assert res.reject_reasons == {"span": len(axis)}
    lone_est = mean_estimate(accepted, seed=37).scaled(polar_length_constant(3, q))
    assert (res.estimate.value.hex(), res.estimate.std_error.hex()) == (
        lone_est.value.hex(), lone_est.std_error.hex())
    # one plane per chunk, and two (the cube has at most 19 cells a dimension)
    for cap in (1, 40):
        other, _ = run(cap)
        assert (other.estimate.value.hex(), other.estimate.std_error.hex()) == (
            res.estimate.value.hex(), res.estimate.std_error.hex())
        assert [(i, b.tobytes(), [v.hex() for v in c.values()], r)
                for i, b, c, r in other.per_plane] == [
            (i, b.tobytes(), [v.hex() for v in c.values()], r) for i, b, c, r in res.per_plane]


def _lone_smooth_plane(X, P):
    """(reason, value, per-stratum parts) of one smooth plane at q = 1: its
    polar_sample, then the valuation of its pieces, on a stack of one."""
    sample = polar.polar_sample(X, P)
    if sample.degenerate:
        return "+".join(sample.report.reasons()), None, {}
    try:
        values = polar._piece_values(X, sample.pieces, P)
    except (polar.DegeneratePlaneError, plstrata.DegenerateDirectionError):
        return "alpha", None, {}
    parts = {}
    for piece, value in zip(sample.pieces, values):
        parts[piece.stratum.name] = parts.get(piece.stratum.name, 0.0) + value
    return "", polar._sum_in_order(values), parts


# the axis-aligned planes of a sign grid's and a chart's symmetry: some flag
# (the torus, the disk, the hemisphere), some do not
SMOOTH_AXIS_PLANES = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                      [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]


@pytest.mark.parametrize("name", ["sphere:1", "torus:2:1", "circle:1", "disk:1",
                                  "hemisphere:1", "ball:1"])
def test_a_chunk_of_smooth_planes_gives_each_plane_its_lone_bits(name, monkeypatch):
    # the smooth route at q = 1 values a block of planes in chunks of at most
    # polar.PLANE_CHUNK; blocks of 1, 7 and 256 planes, in chunks of 1 and 3
    # planes, give each plane the reason, value and parts of polar_sample
    # and its valuation on that plane alone.  The first planes cycle through
    # ten generic planes and the three axis planes, so that a plane meets
    # other neighbours in every chunk; a flagged plane's redraw is generic
    X = lkmeasure.shape_from_name(name)
    gen = RandomSource(49).generator()
    generic = [sample_grassmannian(3, 2, gen) for _ in range(10)]
    axis = [LinearSubspace(3, np.array(basis)) for basis in SMOOTH_AXIS_PLANES]
    cycle = generic[:3] + axis[:1] + generic[3:7] + axis[1:] + generic[7:]
    lone = {}

    def run(n, cap):
        monkeypatch.setattr(polar, "PLANE_CHUNK", cap)
        gens, drawn = [], {}

        def draw(n_, k, g):  # a sample's first plane from the cycle, a redraw from its generator
            if not any(g is h for h in gens):
                gens.append(g)
                G = cycle[(len(gens) - 1) % len(cycle)].basis.T
            else:
                G = draw_grassmannian(n_, k, g)
            return G

        def bases_of(draws):  # a first plane keeps its basis, a redraw gets its QR
            bases, full = grassmannian_bases(draws)
            for s, G in enumerate(draws):
                for P in cycle:
                    if np.array_equal(G, P.basis.T):
                        bases[s], full[s] = P.basis, True
            for basis in bases:  # a lone plane holds its basis as the block does
                drawn[basis.tobytes()] = LinearSubspace(3, basis)
            return bases, full

        monkeypatch.setattr(polar, "draw_grassmannian", draw)
        monkeypatch.setattr(polar, "grassmannian_bases", bases_of)
        return polar.polar_length(X, 1, n, RandomSource(50), keep_rows=True), drawn

    for n, caps in ((1, (1, 3)), (7, (1, 3)), (256, (3,))):
        results = []
        for cap in caps:
            res, drawn = run(n, cap)
            for _, basis, parts, reason in res.per_plane:
                key = basis.tobytes()
                if key not in lone:
                    lone[key] = _lone_smooth_plane(X, drawn[key])
                lone_reason, value, lone_parts = lone[key]
                assert reason == lone_reason
                assert {k: v.hex() for k, v in parts.items()} == {
                    k: v.hex() for k, v in lone_parts.items()}
            accepted = [lone[b.tobytes()][1] for _, b, _, reason in res.per_plane if not reason]
            lone_est = mean_estimate(accepted, seed=50).scaled(polar_length_constant(3, 1))
            assert res.estimate.value.hex() == lone_est.value.hex()
            assert res.estimate.std_error.hex() == lone_est.std_error.hex()
            results.append(res)
        assert all(r.reject_reasons == results[0].reject_reasons for r in results)
    flagged = {lone[P.basis.tobytes()][0] for P in axis if P.basis.tobytes() in lone}
    assert flagged - {""} if name in ("torus:2:1", "disk:1", "hemisphere:1") else flagged == {""}


@pytest.mark.parametrize("name", [*lkmeasure.CATALOG, "grid"])
def test_the_full_space_value_is_the_value_of_every_plane(name, kuhn_grid):
    # at q = n - 1 the plane is all of R^n: the one plane valued with no
    # draw gives what polar_sample and its valuation give on random planes
    if name == "grid":
        X = lkmeasure.Shape(name=name, pl=kuhn_grid(3))
    else:
        X = lkmeasure.shape_from_name(name)
    n = X.ambient_dim
    q = n - 1
    res = polar.polar_length(X, q, 500, RandomSource(38, q), keep_rows=True)
    est = res.estimate
    assert (est.std_error, est.n_samples, res.n_rejected) == (0.0, 1, 0)
    if q <= X.dim:
        assert est.method == "full-space" and est.value > 0.0
        (row,) = res.per_plane
        assert row[0] == 0 and np.array_equal(row[1], np.eye(n)) and row[3] == ""
    gen = RandomSource(39, q).generator()
    for _ in range(20):
        P = sample_grassmannian(n, q + 1, gen)
        if X.pl is not None:
            reason, values = _lone_plane(X, q, P)
            assert reason == ""
        else:
            sample = polar.polar_sample(X, P)
            assert not sample.degenerate
            values = polar._piece_values(X, sample.pieces, P)
        assert abs(polar._sum_in_order(values) - est.value) <= 1e-13 * abs(est.value)


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


def test_negation_and_order_do_not_move_a_product():
    # the product charts of smoothshape write -(a b c) as (a b) (-c), where
    # the hand-written charts wrote -(a b) c, (-a) b or b a c: the premise is
    # that round-to-nearest is symmetric about 0 and that a product does not
    # depend on the order of its two factors, for +-0, subnormals and values
    # near overflow too, with an array or a scalar factor
    gen = np.random.default_rng(9)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308, 1.0, -1.0])

    def draw():
        wide = gen.standard_normal(4000) * 10.0 ** gen.integers(-300, 300, 4000)
        return np.concatenate([special, wide])

    a, b = draw(), draw()
    with np.errstate(over="ignore", under="ignore"):
        for x, y in [(a, b), (a, b[::-1]), (a, special[:, None])] + [(a, float(c)) for c in b[:50]]:
            bits = (x * y).view(np.uint64)
            assert np.array_equal((-(x * y)).view(np.uint64), ((-x) * y).view(np.uint64)), \
                "-(a * b) is not (-a) * b"
            assert np.array_equal((-(x * y)).view(np.uint64), (x * -y).view(np.uint64)), \
                "-(a * b) is not a * (-b)"
            assert np.array_equal(bits, (y * x).view(np.uint64)), "a * b is not b * a"
