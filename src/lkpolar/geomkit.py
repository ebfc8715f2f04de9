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
    "sample_affine_flats_hitting_ball",
    "simplex_volume",
    "simplex_volumes",
    "image_normal",
    "image_normals",
    "DegenerateDirectionError",
    "fmean",
    "mean_estimate",
]

ORTHO_TOL = 1e-10


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


@dataclass(frozen=True)
class RandomSource:
    """Seeded, platform-stable stream of randomness.

    Identical (master_seed, stream_id, substream_path) always produce
    identical sample sequences; ``substream(i)`` derives the i-th independent
    child stream, so per-sample work can be farmed out in any order and still
    reproduce the serial run bitwise.
    """

    master_seed: int
    stream_id: int = 0
    substream_path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.substream_path)
        )
        return np.random.default_rng(ss)

    def substream(self, index: int) -> "RandomSource":
        return RandomSource(
            self.master_seed, self.stream_id, self.substream_path + (index,)
        )


def _rng_of(rng: "RandomSource | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RandomSource):
        return rng.generator()
    return rng


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
        # written so that a NaN entry fails too
        if k and not np.max(np.abs(basis @ basis.T - np.eye(k))) <= ORTHO_TOL:
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
        if k == n:
            return LinearSubspace(n, np.zeros((0, n)))
        # the trailing left-singular vectors span the complement exactly
        u, _, _ = np.linalg.svd(self.basis.T, full_matrices=True)
        return LinearSubspace(n, u[:, k:].T)

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.linalg.norm(v - self.project(v)) <= tol * max(1.0, np.linalg.norm(v)))


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

    def point(self, coords: np.ndarray) -> np.ndarray:
        """Ambient point at the given direction coordinates."""
        return self.offset + np.asarray(coords, dtype=float) @ self.direction.basis

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
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def sample_grassmannian(n: int, k: int, rng) -> LinearSubspace:
    """Uniform (O(n)-invariant) random k-plane in R^n.

    Orthonormalizes k independent standard Gaussian vectors; invariance follows
    from the rotation invariance of the Gaussian ensemble.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return LinearSubspace(n, np.zeros((0, n)))
    gen = _rng_of(rng)
    while True:
        g = gen.standard_normal((n, k))
        q, r = np.linalg.qr(g)
        if np.min(np.abs(np.diag(r))) > 1e-10:
            return LinearSubspace(n, q.T)


def simplex_volume(points: np.ndarray) -> float:
    """d-volume of the simplex on d+1 points (Gram determinant)."""
    return float(simplex_volumes(points[None])[0])


def simplex_volumes(points: np.ndarray) -> np.ndarray:
    """d-volumes of a stack of simplices, points of shape (C, d+1, k); a
    point (d = 0) has volume 1.  Each simplex gets the same LAPACK call as
    it would alone, so the values do not depend on the stack."""
    e = points[:, 1:] - points[:, :1]
    d = e.shape[1]
    return np.sqrt(np.maximum(np.linalg.det(e @ e.swapaxes(1, 2)), 0.0)) / math.factorial(d)


def image_normal(vectors: np.ndarray, P: LinearSubspace) -> np.ndarray:
    """Unit vector of P orthogonal to the projections of the given vectors:
    the normal of the image of their span.  With no vectors it is the first
    basis vector of P."""
    return image_normals(np.asarray(vectors)[None], P)[0]


def image_normals(vectors: np.ndarray, P: LinearSubspace) -> np.ndarray:
    """:func:`image_normal` of each (d, n) block of a (C, d, n) stack, as a
    (C, n) array.  Every step is a stacked call that treats each block as a
    lone call would, so a block's normal does not depend on the stack."""
    coords = vectors @ P.basis.T  # (C, d, dim P)
    if coords.shape[1] == 0:
        nu_coords = np.zeros((len(coords), P.dim))
        nu_coords[:, 0] = 1.0
    else:
        _, s, vt = np.linalg.svd(coords, full_matrices=True)
        if s.size and s.min() < 1e-10:
            raise DegenerateDirectionError("projection of the span is degenerate")
        nu_coords = vt[:, -1]
    nu = nu_coords[:, None, :] @ P.basis  # (C, 1, n)
    return (nu / np.sqrt(nu @ nu.swapaxes(1, 2)))[:, 0]


def sample_affine_flats_hitting_ball(
    n: int, k: int, radius: float, rng
) -> tuple[AffineFlat, float]:
    """One random affine k-flat meeting the ball of given radius at 0, plus weight.

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
    direction = sample_grassmannian(n, k, gen)
    comp = direction.orthogonal_complement()
    m = n - k
    # uniform point in the m-ball: direction times radius * U^(1/m)
    u = sample_unit_sphere(m, gen)
    t = radius * gen.uniform() ** (1.0 / m)
    offset = (t * u) @ comp.basis
    weight = ball_volume(m) * radius**m
    return AffineFlat(direction=direction, offset=offset), weight
