"""Dimensional constants, orthonormal frames, and uniform sampling of spheres,
Grassmannians and affine flats.

Conventions used throughout the package:

- a k-dimensional linear subspace of R^n is stored as k orthonormal basis
  row vectors (never as a projector);
- Grassmannian integrals are always estimated as plain means over uniform
  samples, so the volume of the Grassmannian itself is never needed;
- every Monte-Carlo quantity is returned as an :class:`Estimate` carrying its
  standard error, sample count and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Estimate",
    "RandomSource",
    "LinearSubspace",
    "AffineFlat",
    "sphere_volume",
    "ball_volume",
    "beta_coeff",
    "polar_length_constant",
    "sample_unit_sphere",
    "sample_grassmannian",
    "draw_grassmannian",
    "grassmannian_bases",
    "orthogonal_complements",
    "sample_affine_flats_hitting_ball",
    "draw_affine_flat",
    "affine_flats_hitting_ball",
    "simplex_volume",
    "simplex_volumes",
    "image_normals",
    "DegenerateDirectionError",
    "fmean",
    "mean_estimate",
    "per_sample_values",
]

ORTHO_TOL = 1e-10
MAX_REDRAWS = 200  # draws per sample before a Monte-Carlo route gives up
BLOCK = 256  # samples per values() call of per_sample_values; one block of generators is alive


class DegenerateDirectionError(ValueError):
    """Raised when a direction is too close to an orthogonality wall; the
    caller is expected to resample."""


def sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere S^k, s_k = 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    # log-gamma keeps this exact to ~1e-15 relative for k <= 100
    return 2.0 * math.exp(0.5 * (k + 1) * math.log(math.pi) - math.lgamma(0.5 * (k + 1)))


def ball_volume(k: int) -> float:
    """Volume of the unit k-ball B^k, b_k = pi^(k/2) / Gamma(k/2 + 1)."""
    if k < 0:
        raise ValueError(f"ball dimension must be >= 0, got {k}")
    return math.exp(0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k + 1.0))


def beta_coeff(n: int, k: int) -> float:
    """Gamma((k+1)/2) Gamma((n-k+1)/2) / (Gamma(1/2) Gamma((n+1)/2)).

    Equals the mean absolute cosine between a fixed k-plane element and a
    uniformly random k-plane, the constant of the Cauchy-Crofton formula.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.exp(
        math.lgamma(0.5 * (k + 1))
        + math.lgamma(0.5 * (n - k + 1))
        - math.lgamma(0.5)
        - math.lgamma(0.5 * (n + 1))
    )


def polar_length_constant(n: int, q: int) -> float:
    """Normalization beta(n-q,1)/beta(n,q+1) of the q-th polar length in R^n.

    Closed form Gamma((n+1)/2) / (Gamma((q+2)/2) Gamma((n-q+1)/2)); equals 1
    for q = 0 and q = n-1, and 4/pi for (n,q) = (3,1).
    """
    if not 0 <= q < n:
        raise ValueError(f"need 0 <= q < n, got n={n}, q={q}")
    return math.exp(
        math.lgamma(0.5 * (n + 1))
        - math.lgamma(0.5 * (q + 2))
        - math.lgamma(0.5 * (n - q + 1))
    )


def fmean(values) -> float:
    """Compensated mean: order-independent up to the final rounding."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo (or quadrature) value with its uncertainty.

    ``std_error`` is the standard deviation of the per-sample values divided
    by sqrt(n_samples); deterministic quantities carry std_error 0.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int
    method: str = ""

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    def scaled(self, c: float) -> "Estimate":
        return replace(self, value=c * self.value, std_error=abs(c) * self.std_error)

    def __add__(self, other: "Estimate") -> "Estimate":
        # independent summands: errors combine in quadrature
        return Estimate(
            value=self.value + other.value,
            std_error=math.hypot(self.std_error, other.std_error),
            n_samples=self.n_samples + other.n_samples,
            seed=self.seed,
            method=self.method or other.method,
        )

    def __sub__(self, other: "Estimate") -> "Estimate":
        return self + other.scaled(-1.0)


def mean_estimate(samples, seed: int, method: str = "") -> Estimate:
    """Estimate of the mean of per-sample values, with compensated summation."""
    samples = [float(v) for v in samples]
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    m = fmean(samples)
    if n == 1:
        se = 0.0
    else:
        var = math.fsum((v - m) ** 2 for v in samples) / (n - 1)
        se = math.sqrt(max(var, 0.0) / n)
    return Estimate(value=m, std_error=se, n_samples=n, seed=seed, method=method)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its default
# pool of 4 uint32 words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    out = [x & _MASK32]
    while x := x >> 32:
        out.append(x & _MASK32)
    return out


def _pcg64_seed_words(entropy: list) -> list:
    """The 8 uint32 words of ``generate_state(4, uint64)`` of the SeedSequence
    whose assembled entropy is ``entropy``: numpy's mix into a 4-word pool,
    then its output hash.  A word is an int, the same for every key, or a
    uint32 array with one word per key.  The hash constants step the same way
    for every key, so with arrays each step is one op over all the keys.
    ``entropy`` has at least 4 words, as numpy pads it when a spawn key
    follows the seed."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
        return v ^ v >> 16

    def mix(x, y):
        r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    h = _INIT_B
    out = []
    for j in range(8):
        v = (pool[j % _POOL] ^ h) * (h := h * _MULT_B & _MASK32) & _MASK32
        out.append(v ^ v >> 16)
    return out


class _PCG64Seed(ISeedSequence):
    """The seed sequence of one substream, reduced to the PCG64 seed that
    was computed for it; asked for anything else, it raises."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a substream seed holds only the 4 uint64 words of a PCG64 seed")
        return self.state


def _generators(master_seed: int, key: tuple[int, ...], start: int, stop: int) -> list:
    """The generators ``default_rng(SeedSequence(master_seed, spawn_key=(*key, i)))``
    for i in range(start, stop), seeded in one pass: the words shared by every
    key are hashed as ints, and the words of i as one array per word.  Each
    key gets its own Generator."""
    seed_words = _words(master_seed)
    # a spawn key follows, so numpy pads the seed's words to the pool size
    shared = seed_words + [0] * (_POOL - len(seed_words)) + [w for k in key for w in _words(k)]
    gens = []
    lo = start
    while lo < stop:  # a run of indices with the same number of words
        n_words = max(1, -(-lo.bit_length() // 32))
        hi = min(stop, 1 << 32 * n_words)
        if hi - lo == 1:  # one key: the int hash beats ops on one-element arrays
            index = _words(lo)
        else:
            i = np.arange(lo, hi, dtype=object)
            index = [(i >> 32 * j & _MASK32).astype(np.uint32) for j in range(n_words)]
        # (keys, 8) little-endian words, read in pairs as uint64, as numpy does
        words = np.array(_pcg64_seed_words(shared + index), dtype="<u4").reshape(8, -1).T.copy()
        seeds = words.view("<u8").astype(np.uint64)
        gens += [np.random.Generator(np.random.PCG64(_PCG64Seed(s))) for s in seeds]
        lo = hi
    return gens


@dataclass(frozen=True)
class RandomSource:
    """Seeded, platform-stable stream of randomness.

    Identical (master_seed, stream_id, substream_path) always produce
    identical sample sequences; ``substream(i)`` derives the i-th independent
    child stream, so per-sample work can be farmed out in any order and still
    reproduce the serial run bitwise.  Every part is a non-negative int, of
    any size.

    The generator of a source is bit-equal to numpy's
    ``default_rng(SeedSequence(master_seed, spawn_key=(stream_id,
    *substream_path)))``; :meth:`substream_generators` seeds a whole range of
    substreams in one vectorised pass of the same hash, and
    :meth:`generator` is its one-stream view.  Should numpy change that
    hash, the oracle test against numpy's own construction fails; the draws
    do not drift silently.
    """

    master_seed: int
    stream_id: int = 0
    substream_path: tuple[int, ...] = ()

    def __post_init__(self):
        if min(self.master_seed, self.stream_id, *self.substream_path) < 0:
            raise ValueError(f"the master seed, stream id and substream path must be "
                             f"non-negative, got {self}")

    def generator(self) -> np.random.Generator:
        *head, last = (self.stream_id, *self.substream_path)
        return _generators(self.master_seed, tuple(head), last, last + 1)[0]

    def substream_generators(self, start: int, stop: int) -> list[np.random.Generator]:
        """The generators of ``substream(i)`` for i in range(start, stop)."""
        return _generators(self.master_seed, (self.stream_id, *self.substream_path), start, stop)

    def substream(self, index: int) -> "RandomSource":
        return RandomSource(
            self.master_seed, self.stream_id, self.substream_path + (index,)
        )


def per_sample_values(n: int, rng: RandomSource, draw, values, what: str) -> list[float]:
    """The value of each sample i = 0..n-1.

    Sample i draws ``draw(gen)`` from the generator of ``rng.substream(i)``.
    A block's generators are seeded in one pass
    (:meth:`RandomSource.substream_generators`), each bit-equal to numpy's
    ``SeedSequence(master_seed, spawn_key=(stream_id, *path, i))``, and each
    sample keeps its own Generator.
    A draw is an array (or a float) or a tuple of them.  The samples run in
    blocks of at most BLOCK: ``values(samples, draws)`` gets the draws of a
    block stacked per component, (B, ...) each, and returns their values
    and a redraw mask.  A flagged draw was a non-generic plane, direction or
    flat (a measure-zero event): its sample draws again from its own
    generator, and only the flagged samples are stacked and evaluated again.
    A value is that of its sample's first unflagged draw, so the values
    depend neither on the order of the samples nor on the block.  After
    MAX_REDRAWS draws for one sample the route ``what`` gives up with a
    RuntimeError that names the lowest such sample.
    """
    out: list[float] = []
    for start in range(0, n, BLOCK):
        gens = rng.substream_generators(start, min(start + BLOCK, n))
        vals = np.empty(len(gens))
        todo = np.arange(len(gens))  # block positions without a value yet
        for _ in range(MAX_REDRAWS):
            got, redraw = values((start + todo).tolist(), _stacked([draw(gens[j]) for j in todo]))
            redraw = np.asarray(redraw, dtype=bool)
            vals[todo[~redraw]] = np.asarray(got, dtype=float)[~redraw]
            todo = todo[redraw]
            if not len(todo):
                break
        else:
            raise RuntimeError(f"{what}: resample quota of {MAX_REDRAWS} draws exceeded at "
                               f"sample {start + todo[0]}")
        out += vals.tolist()
    return out


def _stacked(draws: list):
    """A block of draws stacked per component, as ``values`` receives it."""
    if isinstance(draws[0], tuple):
        return tuple(np.stack(part) for part in zip(*draws))
    return np.stack(draws)


def _rng_of(rng: "RandomSource | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    return rng


def _orthonormal(bases: np.ndarray) -> np.ndarray:
    """Whether the rows of each (k, n) basis of a stack are orthonormal
    within ORTHO_TOL; written so that a NaN entry fails too."""
    gram = bases @ bases.swapaxes(-1, -2)
    return np.abs(gram - np.eye(bases.shape[-2])).max(axis=(-2, -1), initial=0.0) <= ORTHO_TOL


@dataclass(frozen=True)
class LinearSubspace:
    """A k-plane through the origin of R^n, stored as orthonormal basis rows."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)  # shape (k, ambient_dim)

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.size == 0:
            basis = basis.reshape(0, self.ambient_dim)
        object.__setattr__(self, "basis", basis)
        k, n = basis.shape
        if n != self.ambient_dim or not 0 <= k <= n:
            raise ValueError(f"bad basis shape {basis.shape} for ambient dim {self.ambient_dim}")
        if k and not _orthonormal(basis):
            raise ValueError("basis is not orthonormal within 1e-10")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, ambient_dim: int | None = None) -> "LinearSubspace":
        """Span of the given (independent) vectors, orthonormalized."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        n = ambient_dim if ambient_dim is not None else vectors.shape[1]
        if vectors.shape[0] == 0:
            return cls(n, np.zeros((0, n)))
        q, r = np.linalg.qr(vectors.T)
        rank = int(np.sum(np.abs(np.diag(r)) > 1e-12))
        if rank != vectors.shape[0]:
            raise ValueError("vectors are not linearly independent")
        return cls(n, q[:, :rank].T)

    @classmethod
    def full(cls, n: int) -> "LinearSubspace":
        return cls(n, np.eye(n))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of point(s) onto the subspace (ambient coords)."""
        x = np.asarray(x, dtype=float)
        return (x @ self.basis.T) @ self.basis

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the projection of x in the basis of the subspace."""
        return np.asarray(x, dtype=float) @ self.basis.T

    def orthogonal_complement(self) -> "LinearSubspace":
        n, k = self.ambient_dim, self.dim
        if k == 0:
            return LinearSubspace.full(n)
        return LinearSubspace(n, orthogonal_complements(self.basis[None])[0])


@dataclass(frozen=True)
class AffineFlat:
    """Affine flat offset + direction, with offset orthogonal to the direction."""

    direction: LinearSubspace
    offset: np.ndarray = field(repr=False)

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "offset", offset)
        if offset.shape != (self.direction.ambient_dim,):
            raise ValueError("offset dimension mismatch")
        if self.direction.dim and np.any(
            np.abs(self.direction.basis @ offset) > ORTHO_TOL * max(1.0, np.linalg.norm(offset))
        ):
            raise ValueError("offset must be orthogonal to the direction within 1e-10")

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    def distance_to(self, x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - self.offset
        return float(np.linalg.norm(d - self.direction.project(d)))


def sample_unit_sphere(dim: int, rng: "RandomSource | np.random.Generator") -> np.ndarray:
    """Uniform point on S^(dim-1) in R^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gen = _rng_of(rng)
    while True:
        v = gen.standard_normal(dim)
        norm = math.sqrt(v.dot(v))  # the bits of np.linalg.norm on a vector
        if norm > 1e-12:
            return v / norm


def sample_grassmannian(n: int, k: int, rng) -> LinearSubspace:
    """Uniform (O(n)-invariant) random k-plane in R^n: the one-sample view
    of :func:`draw_grassmannian` and :func:`grassmannian_bases`, which
    redraws a draw of deficient rank."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return LinearSubspace(n, np.zeros((0, n)))
    gen = _rng_of(rng)
    while True:
        bases, full = grassmannian_bases(draw_grassmannian(n, k, gen)[None])
        if full[0]:
            return LinearSubspace(n, bases[0])


def draw_grassmannian(n: int, k: int, gen: np.random.Generator) -> np.ndarray:
    """The k standard Gaussian vectors of R^n, as the columns of an (n, k)
    matrix, whose span is one uniform k-plane; invariance follows from the
    rotation invariance of the Gaussian ensemble."""
    return gen.standard_normal((n, k))


def grassmannian_bases(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row bases (S, k, n) of the spans of a stack of draws
    (S, n, k) of :func:`draw_grassmannian`, and a mask of the draws of full
    rank (every |r_ii| of their QR above 1e-10); a draw outside it is to be
    redrawn.  One stacked QR gives each draw the bits of a lone QR, and a
    basis is the transposed view of its Q, as a lone plane holds it.  A
    full-rank basis that fails the orthonormality check of LinearSubspace
    raises ValueError."""
    q, r = np.linalg.qr(draws)
    full = (np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-10).all(axis=1)
    bases = q.swapaxes(1, 2)
    if not _orthonormal(bases[full]).all():
        raise ValueError("basis is not orthonormal within 1e-10")
    return bases, full


def orthogonal_complements(bases: np.ndarray) -> np.ndarray:
    """Orthonormal row bases (S, n - k, n) of the orthogonal complements of a
    stack of k-planes with orthonormal row bases (S, k, n), k >= 1: the
    trailing left-singular vectors, which span each complement exactly.  One
    stacked SVD gives each plane the bits of a lone SVD, and a complement is
    laid out as a lone one is."""
    S, k, n = bases.shape
    if k == n:
        return np.zeros((S, 0, n))
    u = np.linalg.svd(bases.swapaxes(1, 2), full_matrices=True)[0]
    return u[:, :, k:].swapaxes(1, 2)


def simplex_volume(points: np.ndarray) -> float:
    """d-volume of the simplex on d+1 points (Gram determinant)."""
    return float(simplex_volumes(points[None])[0])


def simplex_volumes(points: np.ndarray) -> np.ndarray:
    """d-volumes of a stack of simplices, points of shape (..., d+1, k); a
    point (d = 0) has volume 1.  Each simplex gets the same LAPACK call as
    it would alone, so the values do not depend on the stack."""
    e = points[..., 1:, :] - points[..., :1, :]
    d = e.shape[-2]
    return np.sqrt(np.maximum(np.linalg.det(e @ e.swapaxes(-1, -2)), 0.0)) / math.factorial(d)


def image_normals(vectors: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector of the plane with orthonormal row basis ``basis`` (m, n)
    orthogonal to the projections of the d vectors of a (d, n) block: the
    normal of the image of their span, and with no vectors the first basis
    vector.  Leading axes of ``vectors`` (..., d, n) and ``basis``
    (..., m, n) broadcast.  Returns the (..., n) normals and a (...) mask of
    the blocks whose projected span is degenerate (a singular value below
    1e-10), whose normal is not to be used.  Every step is a stacked call
    that treats each block as a lone call would, so a normal does not
    depend on the stack."""
    coords = vectors @ basis.swapaxes(-1, -2)  # (..., d, m)
    if coords.shape[-2] == 0:
        nu_coords = np.zeros(coords.shape[:-2] + (basis.shape[-2],))
        nu_coords[..., 0] = 1.0
        degenerate = np.zeros(coords.shape[:-2], dtype=bool)
    else:
        _, s, vt = np.linalg.svd(coords, full_matrices=True)
        degenerate = s.min(axis=-1) < 1e-10
        nu_coords = vt[..., -1, :]
    nu = nu_coords[..., None, :] @ basis  # (..., 1, n)
    return (nu / np.sqrt(nu @ nu.swapaxes(-1, -2)))[..., 0, :], degenerate


def sample_affine_flats_hitting_ball(n: int, k: int, radius: float, rng) -> tuple[AffineFlat, float]:
    """One random affine k-flat meeting the ball of given radius at 0, plus
    weight: the one-flat view of :func:`affine_flats_hitting_ball`.

    The direction is uniform on the Grassmannian and the offset uniform in the
    (n-k)-ball of the given radius inside the orthogonal complement, so

        weight * mean(f over samples)  ->  integral of f over the flats
                                           meeting the ball,

    with the flat measure normalized as (probability on directions) x
    (Lebesgue measure on offsets).  weight = b_(n-k) * radius^(n-k).
    """
    if k >= n:
        raise ValueError("k must be < n: a full-dimensional flat has no offset space")
    if radius <= 0:
        raise ValueError("radius must be positive")
    gen = _rng_of(rng)
    while True:
        directions, _, offsets, full, weight = affine_flats_hitting_ball(
            _stacked([draw_affine_flat(n, k, gen)]), radius)
        if full[0]:
            return AffineFlat(LinearSubspace(n, directions[0]), offsets[0]), weight


def draw_affine_flat(n: int, k: int, gen: np.random.Generator):
    """The draws of one flat of :func:`affine_flats_hitting_ball`, in order:
    the Gaussian matrix of its direction, the unit vector and uniform of its offset."""
    return draw_grassmannian(n, k, gen), sample_unit_sphere(n - k, gen), gen.uniform()


def affine_flats_hitting_ball(draws: tuple, radius: float):
    """The flats of a stack of draws (G (S, n, k), u (S, m), U (S,)) of
    :func:`draw_affine_flat`, m = n - k: the span of G, offset by t u in
    its complement, t = radius U^(1/m).  Returns the row bases of the
    directions (S, k, n) and complements (S, m, n), the offsets (S, n), the
    mask of the full-rank draws (redraw the others) and the weight b_m
    radius^m.  Each flat has a lone flat's bits: t is a Python power (numpy's
    differs in the last bit) and the offsets one matmul (S, 1, m) @ (S, m, n)."""
    G, u, U = draws
    directions, full = grassmannian_bases(G)
    comps = orthogonal_complements(directions)
    m = comps.shape[1]
    t = np.array([radius * x ** (1.0 / m) for x in U.tolist()])
    offsets = ((t[:, None] * u)[:, None, :] @ comps)[:, 0]
    return directions, comps, offsets, full, ball_volume(m) * radius**m
