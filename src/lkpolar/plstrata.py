"""Embedded simplicial complexes as stratified sets.

Every open cell of the complex is one stratum (the canonical PL
stratification).  For a generic linear height function the critical points
sit at vertices, so stratified Morse theory collapses to lower-link Euler
characteristics, which are computed combinatorially: the Euler characteristic
of the closed sublevel polyhedron {<v, y> <= -eta} of a normal link equals,
for eta below the smallest nonzero |<v, d>| over link directions d, the Euler
characteristic of the full subcomplex spanned by the strictly-below
directions.

This module owns the normal links of a complex and the normal Morse indices
built on them: each complex keeps the links it has built.  The index along a
direction is read by one kernel over the flattened links, which
:func:`normal_morse_index` and :func:`normal_morse_index_many` view and
which :func:`_pl_alphas_many` reads for the polar-image weight alpha of a
stack of cells and planes, for the polar route and the cone germs; the
curvature route reads its exact mean over the normal sphere,
:func:`mean_normal_index`.

Nothing about a cell but its projection depends on a random plane or height
direction, so each complex also keeps a :class:`ComplexPlan`: the cells as
vertex arrays (:func:`pl_morse_indices_many` reads the Morse indices of a
stack of heights from these), their orthonormal
spans stacked per dimension, the vertex stars that link queries read, the
flattened links that the normal indices and :func:`mean_normal_index` read,
and the face tables that :func:`slice_chi_many` reads.

The Euler characteristic of the complex cut by an affine flat, which the
kinematic check and the polar invariants of cone germs average, is one rule,
:func:`slice_chi_many` over a stack of flats (:func:`slice_chi` is its
one-flat view): additivity over the open cells that the flat meets.

The stacked routes of a complex take their samples in chunks
(:func:`sample_chunks`) of at most PAIR_CAP (sample, cell) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geomkit import DegenerateDirectionError, image_normals, simplex_volume

__all__ = [
    "StratifiedComplex",
    "ComplexPlan",
    "NormalLink",
    "DegenerateDirectionError",
    "DegenerateSliceError",
    "euler_characteristic",
    "normal_link",
    "normal_morse_index",
    "normal_morse_index_many",
    "mean_normal_index",
    "pl_morse_indices",
    "pl_morse_indices_many",
    "sample_chunks",
    "slice_chi",
    "slice_chi_many",
    "segment_complex",
    "square_boundary",
    "octahedron_boundary",
    "cube_boundary",
    "solid_cube",
    "torus_7vertex",
    "load_plstrat",
    "save_plstrat",
]

ANGLE_TOL = 1e-8
SLICE_TOL = 1e-12  # clearance of a slicing flat from a face boundary, per unit^c
# (sample, cell) pairs in the largest stack of one stacked call over a chunk
# of planes, directions or flats; it bounds the memory of large complexes
PAIR_CAP = 16384


class DegenerateSliceError(ValueError):
    """A slicing flat runs through a face boundary or along a face it meets,
    where the Euler characteristic of the slice jumps; callers redraw it."""


@dataclass(frozen=True)
class StratifiedComplex:
    """Finite embedded simplicial complex, closed under taking faces.

    ``cells[d]`` lists the d-simplices as sorted vertex-index tuples.  Strata
    are the open cells.  The complex is immutable, so the normal links that
    :func:`normal_link` builds and the :attr:`plan` are kept on it for its
    lifetime.
    """

    vertices: np.ndarray  # (V, n)
    cells: dict[int, list[tuple[int, ...]]] = field(repr=False)
    _links: dict = field(init=False, repr=False, compare=False)
    _plan: "ComplexPlan | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", verts)
        cells = {
            d: sorted(tuple(sorted(c)) for c in cs)
            for d, cs in self.cells.items()
            if cs
        }
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_links", {})
        object.__setattr__(self, "_plan", None)
        self._validate()

    def _validate(self):
        have = {c for cs in self.cells.values() for c in cs}
        n_verts = len(self.vertices)
        for d, cs in self.cells.items():
            for c in cs:
                if len(c) != d + 1:
                    raise ValueError(f"cell {c} listed at dimension {d}")
                if len(set(c)) != len(c):
                    raise ValueError(f"repeated vertex in cell {c}")
                # the plan indexes vertex arrays with these: a negative
                # index would wrap round to another vertex
                if not all(0 <= v < n_verts for v in c):
                    raise ValueError(f"cell {c} names a vertex outside 0..{n_verts - 1}")
                for f in itertools.combinations(c, len(c) - 1):
                    if len(f) and tuple(f) not in have:
                        raise ValueError(f"complex not closed under faces: missing {f} of {c}")
                if d >= 1 and not self._affinely_nondegenerate(c):
                    raise ValueError(f"degenerate simplex {c}")

    def _affinely_nondegenerate(self, cell) -> bool:
        pts = self.vertices[list(cell)]
        edges = pts[1:] - pts[0]
        if len(edges) == 0:
            return True
        sv = np.linalg.svd(edges, compute_uv=False)
        scale = max(1.0, float(np.max(np.abs(pts))))
        return bool(sv.min() > 1e-10 * scale)

    @classmethod
    def from_maximal_cells(cls, vertices, maximal_cells) -> "StratifiedComplex":
        """Build the face closure of the given top cells."""
        cells: dict[int, set] = {}
        for c in maximal_cells:
            c = tuple(sorted(c))
            for size in range(1, len(c) + 1):
                for f in itertools.combinations(c, size):
                    cells.setdefault(size - 1, set()).add(f)
        return cls(np.asarray(vertices, dtype=float), {d: sorted(s) for d, s in cells.items()})

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def dim(self) -> int:
        return max(self.cells)

    def all_cells(self):
        for d in sorted(self.cells):
            yield from self.cells[d]

    def has_cell(self, cell) -> bool:
        return tuple(sorted(cell)) in self.plan.rows

    @property
    def plan(self) -> "ComplexPlan":
        """The plane-independent tables of the complex, built on first use."""
        if self._plan is None:
            object.__setattr__(self, "_plan", ComplexPlan.build(self))
        return self._plan

    def cell_span(self, cell) -> np.ndarray:
        """Orthonormal basis (rows, read-only) of the linear span of the
        cell's edges, read from the plan."""
        cell = tuple(sorted(cell))
        plan = self.plan
        return plan.spans[len(cell) - 1][plan.rows[cell]]

    def barycenter(self, cell) -> np.ndarray:
        return self.vertices[list(cell)].mean(axis=0)

    def cell_volume(self, cell) -> float:
        """d-volume of the closed simplex (Gram determinant)."""
        return simplex_volume(self.vertices[list(cell)])

    def link_cells(self, cell) -> list[tuple[int, ...]]:
        """Cells c' disjoint from ``cell`` with c' + cell a cell of the complex,
        ordered as :meth:`all_cells` orders them.  They are the complements of
        the cofaces of ``cell``, all of which lie in the star of its first
        vertex."""
        cell = tuple(sorted(cell))
        cset = set(cell)
        out = [
            tuple(v for v in c if v not in cset)
            for c in self.plan.star[cell[0]]
            if len(c) > len(cell) and cset.issubset(c)
        ]
        return sorted(out, key=lambda c: (len(c), c))

    def transformed(self, rotation: np.ndarray | None = None, translation=None, scale: float = 1.0):
        v = self.vertices * scale
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            v = v + np.asarray(translation, dtype=float)
        return StratifiedComplex(v, {d: list(cs) for d, cs in self.cells.items()})


@dataclass(frozen=True, eq=False)
class ComplexPlan:
    """Tables of a complex that no plane or direction changes.

    Row ``i`` of ``cells[d]`` and ``spans[d]`` is the cell ``K.cells[d][i]``;
    ``rows`` maps a cell to that row.  ``spans[d]`` stacks the orthonormal
    bases that one QR per dimension gives, laid out as a lone QR lays out one
    basis, so a span reads the same bits stacked or alone.  ``star[x]`` lists
    the cells of dimension >= 1 that contain vertex ``x``.  ``link_tables``
    fills per dimension on first use (see :func:`normal_morse_index` and
    :func:`mean_normal_index`), and ``face_tables`` per flat codimension
    (see :func:`slice_chi_many`).
    """

    cells: dict[int, np.ndarray]  # d -> (C_d, d + 1) vertex ids
    spans: dict[int, np.ndarray]  # d -> (C_d, d, n), read-only
    rows: dict[tuple[int, ...], int]
    star: tuple[list[tuple[int, ...]], ...]
    link_tables: dict = field(default_factory=dict, repr=False)
    face_tables: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, K: "StratifiedComplex") -> "ComplexPlan":
        n = K.ambient_dim
        cells, spans, rows = {}, {}, {}
        star: tuple[list, ...] = tuple([] for _ in range(len(K.vertices)))
        for d, cs in K.cells.items():
            ids = np.array(cs, dtype=int).reshape(len(cs), d + 1)
            if d == 0:
                span = np.zeros((len(cs), 0, n))
            else:
                pts = K.vertices[ids]
                q, _ = np.linalg.qr((pts[:, 1:] - pts[:, :1]).swapaxes(1, 2))
                span = q.swapaxes(1, 2)
            span.flags.writeable = False
            cells[d], spans[d] = ids, span
            rows.update((c, i) for i, c in enumerate(cs))
        for c in K.all_cells():
            if len(c) > 1:
                for x in c:
                    star[x].append(c)
        return cls(cells=cells, spans=spans, rows=rows, star=star)


@dataclass(frozen=True)
class _LinkTable:
    """The normal links of every d-cell of a complex, flattened: the
    directions of cell after cell, and per link-cell size the link cells as
    index rows into those directions."""

    directions: np.ndarray  # (M, n)
    owner: np.ndarray  # (M,) plan row of the cell that owns each direction
    faces: list  # (sign (-1)^dim, (T,) owner rows, (T, size) direction rows)


def _link_table(K: "StratifiedComplex", d: int) -> _LinkTable:
    tables = K.plan.link_tables
    if d not in tables:
        links = [normal_link(K, c) for c in K.cells[d]]
        sizes = [len(link.vertex_ids) for link in links]
        start = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        by_size: dict[int, tuple[list, list]] = {}
        for r, link in enumerate(links):
            for c in link.link_cells:
                owners, idx = by_size.setdefault(len(c), ([], []))
                owners.append(r)
                idx.append([start[r] + i for i in c])
        tables[d] = _LinkTable(
            directions=np.concatenate(
                [link.directions for link in links] + [np.zeros((0, K.ambient_dim))]),
            owner=np.repeat(np.arange(len(links)), sizes),
            faces=[((-1) ** (size - 1), np.array(owners), np.array(idx))
                   for size, (owners, idx) in sorted(by_size.items())],
        )
    return tables[d]


@dataclass(frozen=True)
class NormalLink:
    """Directions and simplicial structure of the link of a cell, projected
    into the orthogonal complement of the cell's span at its barycenter."""

    base_cell: tuple[int, ...]
    directions: np.ndarray  # (m, n) unit vectors orthogonal to the base span
    link_cells: list[tuple[int, ...]]  # index tuples into ``directions``
    vertex_ids: tuple[int, ...]  # original vertex indices of the directions


def euler_characteristic(K: StratifiedComplex) -> int:
    """Alternating cell count; equals chi of the underlying polyhedron."""
    return sum((-1) ** d * len(cs) for d, cs in K.cells.items())


def normal_link(K: StratifiedComplex, cell) -> NormalLink:
    """Normal link of an open cell: unit projections of its link vertices onto
    span(cell)^perp, carrying the link's simplicial structure.  The cone over
    the result is the local normal slice of the complex along the cell.

    The link is built once per complex and cell; later calls return the same
    object."""
    cell = tuple(sorted(cell))
    link = K._links.get(cell)
    if link is None:
        link = K._links[cell] = _build_normal_link(K, cell)
    return link


def _build_normal_link(K: StratifiedComplex, cell: tuple[int, ...]) -> NormalLink:
    if not K.has_cell(cell):
        raise KeyError(f"cell {cell} not in complex")
    span = K.cell_span(cell)
    base = K.barycenter(cell)
    lk = K.link_cells(cell)
    vertex_ids = tuple(sorted({v for c in lk for v in c}))
    idx = {v: i for i, v in enumerate(vertex_ids)}
    dirs = np.zeros((len(vertex_ids), K.ambient_dim))
    for v, i in idx.items():
        d = K.vertices[v] - base
        if span.size:
            d = d - (d @ span.T) @ span
        nrm = np.linalg.norm(d)
        if nrm <= 1e-12:
            raise ValueError(f"link vertex {v} projects to zero for cell {cell}")
        dirs[i] = d / nrm
    cells = [tuple(sorted(idx[v] for v in c)) for c in lk]
    return NormalLink(base_cell=cell, directions=dirs, link_cells=cells, vertex_ids=vertex_ids)


def _normal_indices(K: StratifiedComplex, d: int, rows, vs: np.ndarray):
    """Normal Morse indices of the d-cells at the distinct plan rows
    ``rows``, cell ``rows[i]`` along every direction ``vs[i, j]`` of an
    (R, N, n) stack, in one pass over their part of the flattened links.

    The index along v is 1 - chi of the full subcomplex of the link spanned
    by the directions below v; along -v the directions above v span it.
    Returns (index along v, index along -v, wall), each flat over the pairs
    (i, j) at j * R + i; wall marks directions within ANGLE_TOL of
    orthogonality to a link direction, where the index jumps.  A direction
    not orthogonal to its cell (again within ANGLE_TOL) raises ValueError.
    """
    rows = np.asarray(rows, dtype=int)
    n_rows, n_dirs = vs.shape[:2]
    tol = ANGLE_TOL * np.sqrt((vs * vs).sum(axis=2)).T  # (N, R), as below
    if d and np.any(np.abs(K.plan.spans[d][rows] @ vs.swapaxes(1, 2)).T > tol[:, None]):
        raise ValueError("direction is not orthogonal to the cell")
    table = _link_table(K, d)
    at = np.full(len(K.cells[d]), -1)
    at[rows] = np.arange(n_rows)
    directions, owner = table.directions, at[table.owner]  # owner: position in rows
    faces = [(parity, at[owners], idx) for parity, owners, idx in table.faces]
    if n_rows < len(at):  # keep the links of the asked cells only
        ent = np.flatnonzero(owner >= 0)
        column = np.empty(len(owner), dtype=int)
        column[ent] = np.arange(len(ent))
        directions, owner = directions[ent], owner[ent]
        faces = [(parity, pos[pos >= 0], column[idx[pos >= 0]]) for parity, pos, idx in faces]
    dots = (vs[owner] @ directions[:, :, None])[:, :, 0].T  # (N, M)
    # direction j of position i counts in flat bin j * R + i
    first = np.arange(0, n_rows * n_dirs, n_rows)[:, None]
    near = np.abs(dots) <= tol[:, owner]
    wall = np.bincount((first + owner)[near], minlength=n_rows * n_dirs) > 0
    sign = np.sign(dots)
    down = np.ones(n_rows * n_dirs, dtype=int)
    up = np.ones(n_rows * n_dirs, dtype=int)
    for parity, pos, idx in faces:
        # the signs of a link cell sum to -size (+size) when every direction
        # of it is below (above) v; a sum of small integers is exact, and one
        # gather per column is faster than a sum over a short axis
        total = sum(sign[:, idx[:, k]] for k in range(idx.shape[1]))  # (N, T)
        bins = first + pos
        down -= parity * np.bincount(bins[total == -idx.shape[1]], minlength=len(down))
        up -= parity * np.bincount(bins[total == idx.shape[1]], minlength=len(up))
    return down, up, wall


def _pl_alphas_many(K: StratifiedComplex, d: int, rows, bases: np.ndarray):
    """alpha of the d-cells at the plan rows ``rows`` on each plane of a
    stack with orthonormal row bases (S, q + 1, n): the half-sums of their
    normal indices along +-(image normal), (S, R), and a mask of the planes
    on which an image normal is degenerate or on a wall of its link, whose
    alphas are 0 and not to be used.  The normal indices of all planes are
    one kernel call, with the cells as rows and the planes as directions."""
    rows = np.asarray(rows, dtype=int)
    nus, degenerate = image_normals(K.plan.spans[d][rows], bases[:, None])  # (S, R, n)
    flagged = degenerate.any(axis=1)
    alphas = np.zeros((len(bases), len(rows)))
    ok = np.flatnonzero(~flagged)  # a degenerate normal need not be normal to its cell
    if len(ok):
        # plane j, cell i at j R + i
        down, up, wall = _normal_indices(K, d, rows, nus[ok].swapaxes(0, 1))
        alphas[ok] = (0.5 * (down + up)).reshape(len(ok), len(rows))
        flagged[ok] = wall.reshape(len(ok), len(rows)).any(axis=1)
    return alphas, flagged


def normal_morse_index(K: StratifiedComplex, cell, v: np.ndarray) -> int:
    """Normal Morse index 1 - chi of the downward normal slice along the cell.

    ``v`` must be orthogonal to the span of the cell; directions within
    ANGLE_TOL of an orthogonality wall raise DegenerateDirectionError so the
    caller can resample.
    """
    index, valid = normal_morse_index_many(K, cell, np.asarray(v, dtype=float)[None])
    if not valid[0]:
        raise DegenerateDirectionError("direction orthogonal to a link direction")
    return int(index[0])


def normal_morse_index_many(K: StratifiedComplex, cell, vs: np.ndarray):
    """:func:`normal_morse_index` along each row of ``vs``.

    Returns (indices, valid): non-generic rows are marked invalid instead of
    raising.
    """
    cell = tuple(sorted(cell))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    index, _, wall = _normal_indices(K, len(cell) - 1, [K.plan.rows[cell]], vs[None])
    return index, ~wall


def mean_normal_index(K: StratifiedComplex, d: int) -> np.ndarray:
    """Mean of the normal Morse index over the unit normal sphere of every
    d-cell, in plan row order, exactly.

    The index along v is 1 - sum over link cells s of (-1)^dim s times
    [every direction of s points down along v], so by linearity its mean is
    1 - sum (-1)^dim s P(s), with P(s) the chance that a uniform normal
    direction has a negative product with every direction of s: Banchoff's
    exterior angles.  Only signs matter, so v may be taken Gaussian, and
    Sheppard's orthant formula gives P(s) from the pairwise angles of the
    directions: 1/2, 1/2 - theta/2pi and 1/2 - (theta_12 + theta_13 +
    theta_23)/4pi for 1, 2 and 3 directions, also when they span less than
    the normal space.  A link cell of 4 or more directions (a coface 3
    dimensions up, in R^4 and higher) has no such closed form and raises
    NotImplementedError naming the cell.
    """
    table = _link_table(K, d)
    index = np.ones(len(K.cells[d]))
    for parity, owners, idx in table.faces:
        size = idx.shape[1]
        if size > 3:
            raise NotImplementedError(
                f"exterior angle of cell {K.cells[d][owners[0]]}: its normal link has a cell "
                f"of {size} directions, and closed forms stop at 3")
        dirs = table.directions[idx]  # (T, size, n)
        theta = np.zeros(len(owners))
        for i, j in itertools.combinations(range(size), 2):
            # 2 atan2(|a - b|, |a + b|) keeps every digit near 0 and pi, where
            # arccos of the dot product loses half of them
            a, b = dirs[:, i], dirs[:, j]
            theta += 2.0 * np.arctan2(np.linalg.norm(a - b, axis=1), np.linalg.norm(a + b, axis=1))
        down = 0.5 - theta / (2.0 * math.pi * max(size - 1, 1))
        index -= parity * np.bincount(owners, weights=down, minlength=len(index))
    return index


def pl_morse_indices(K: StratifiedComplex, v: np.ndarray) -> dict[int, int]:
    """Stratified Morse index of the height <v, .> at every vertex: the
    one-direction view of :func:`pl_morse_indices_many`.  A direction that
    does not separate the vertex heights raises DegenerateDirectionError."""
    index, degenerate = pl_morse_indices_many(K, np.asarray(v, dtype=float)[None])
    if degenerate[0]:
        raise DegenerateDirectionError("direction does not separate vertex heights")
    return dict(enumerate(index[0].tolist()))


def pl_morse_indices_many(K: StratifiedComplex, V: np.ndarray):
    """Stratified Morse indices of the heights along a (B, n) stack of
    directions at every vertex: (B, vertices) integers, and a mask of the
    directions whose indices are not to be used, since two vertex heights
    lie within 1e-10 (relative to the largest |height|, or 1) of each other.

    Generic directions separate all vertex heights, so positive-dimensional
    cells carry no critical points and each vertex contributes
    1 - chi(lower link).  A cell lies in the lower link of exactly one of its
    vertices, its highest, so each cell of dimension d >= 1 adds (-1)^(d-1)
    to the lower-link chi of its top vertex.  The heights of the block are
    one product, and each cell dimension one argmax and one bincount.
    """
    heights = K.vertices @ V.T  # (vertices, B)
    n_verts, n_dirs = heights.shape
    degenerate = np.zeros(n_dirs, dtype=bool)
    if n_verts > 1:
        scale = np.maximum(1.0, np.abs(heights).max(axis=0))
        degenerate = np.diff(np.sort(heights, axis=0), axis=0).min(axis=0) <= 1e-10 * scale
    chi = np.zeros(n_dirs * n_verts, dtype=int)  # direction b, vertex x at b * vertices + x
    for d, ids in K.plan.cells.items():
        if d == 0:
            continue
        top = ids[np.arange(len(ids))[:, None], np.argmax(heights[ids], axis=1)]  # (cells, B)
        bins = np.arange(0, n_dirs * n_verts, n_verts) + top
        chi += (-1) ** (d - 1) * np.bincount(bins.ravel(), minlength=len(chi))
    return (1 - chi).reshape(n_dirs, n_verts), degenerate


def sample_chunks(K: StratifiedComplex, n: int) -> list[slice]:
    """Consecutive slices of n samples (planes, directions or flats) for the
    stacked kernels of K, each of at most PAIR_CAP (sample, cell) pairs
    against the largest cell dimension of K, and of one sample at least."""
    size = max(1, PAIR_CAP // max(map(len, K.cells.values())))
    return [slice(start, start + size) for start in range(0, n, size)]


def _face_table(K: StratifiedComplex, c: int):
    """For flats of codimension c: the vertex ids of the c + 1 minors of
    every c-face (each drops one vertex) and their signs, and for every cell
    of dimension d >= c the plan rows of its c-faces (a short row repeats its
    first face) and its weight (-1)^(d - c)."""
    tables = K.plan.face_tables
    if c not in tables:
        drop = [[j for j in range(c + 1) if j != i] for i in range(c + 1)]
        minors = K.plan.cells[c][:, np.array(drop, dtype=int).reshape(c + 1, c)]
        width = math.comb(K.dim + 1, c + 1)
        faces, weights = [], []
        for d, cs in K.cells.items():
            if d >= c:
                for cell in cs:
                    rows = [K.plan.rows[f] for f in itertools.combinations(cell, c + 1)]
                    faces.append(rows + rows[:1] * (width - len(rows)))
                weights += [(-1) ** (d - c)] * len(cs)
        tables[c] = (minors, (-1.0) ** np.arange(c + 1), np.array(faces), np.array(weights))
    return tables[c]


def slice_chi(K: StratifiedComplex, A: np.ndarray, b: np.ndarray) -> int:
    """Euler characteristic of the slice of K by the flat {x : A x = b}, of
    codimension c = len(A) (independent rows): the one-flat view of
    :func:`slice_chi_many`.  A flat through a face boundary, or along a face
    it meets, raises DegenerateSliceError."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    chi, wall = slice_chi_many(K, (K.vertices @ A.T - np.asarray(b, dtype=float))[None])
    if wall[0] >= 0:
        face = K.cells[len(A)][wall[0]]
        raise DegenerateSliceError(f"flat through the boundary of face {face}, or along it")
    return int(chi[0])


def slice_chi_many(K: StratifiedComplex, images: np.ndarray):
    """Euler characteristics of the slices of K by a stack of flats
    {x : A x = b} of one codimension c, given by the images of the vertices
    under x -> A x - b: an (S, V, c) stack, where A has independent rows.
    Flats that share A (offsets along one direction) share K.vertices @ A.T.

    chi is additive over open cells, and a flat that meets an open d-cell
    generically cuts it in an open (d - c)-cell, which adds (-1)^(d - c).  A
    d-cell meets the flat exactly when one of its c-faces does, and a c-face
    meets it exactly when 0 lies inside the face's image: when the
    barycentric coordinates of 0 there, the signed c x c minors of the
    image, all have one sign.  A flat through a face boundary, or along a
    face it meets, leaves the minors of a c-face with no sign against the
    others and one of them within SLICE_TOL (per unit^c of the largest image
    coordinate) of 0: the flat is degenerate, and its slice is not to be
    used.  A face that is parallel to the flat but off it has minors of
    both signs and is missed.

    Returns chi (S,) and wall (S,): for a degenerate flat the plan row of
    the c-face nearest to sign-less, for a generic one -1.  The minors of
    every flat are one stacked determinant call, which gives each the bits
    of a lone call.
    """
    S, c = len(images), images.shape[2]
    if c not in K.cells:
        return np.zeros(S, dtype=int), np.full(S, -1)  # no cell of dimension c or more
    minors, signs, faces, weights = _face_table(K, c)
    det = np.linalg.det(images[:, minors]) * signs  # (S, F, c + 1)
    margin = np.maximum(det.min(axis=2), -det.max(axis=2))  # > 0 where the flat meets a face
    tol = SLICE_TOL * np.maximum(1.0, np.abs(images).max(axis=(1, 2), initial=0.0)) ** c
    near = np.abs(margin)
    wall = np.where((near <= tol[:, None]).any(axis=1), near.argmin(axis=1), -1)
    return (margin > 0.0)[:, faces].any(axis=2) @ weights, wall


# ---------------------------------------------------------------------------
# catalog complexes
# ---------------------------------------------------------------------------

def segment_complex(length: float = 1.0) -> StratifiedComplex:
    """A single segment [0, length] on the first axis of R^2."""
    return StratifiedComplex.from_maximal_cells([[0.0, 0.0], [length, 0.0]], [(0, 1)])


def square_boundary(side: float = 1.0) -> StratifiedComplex:
    v = side * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return StratifiedComplex.from_maximal_cells(v, [(0, 1), (1, 2), (2, 3), (0, 3)])


def octahedron_boundary() -> StratifiedComplex:
    v = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return StratifiedComplex.from_maximal_cells(v, faces)


def _cube_vertices(side: float) -> np.ndarray:
    return side * np.array(
        [[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)], dtype=float
    )[:, ::-1]


def solid_cube(side: float = 1.0) -> StratifiedComplex:
    """[0, side]^3 cut into the six path tetrahedra (Kuhn triangulation)."""
    verts = _cube_vertices(side)
    index = {tuple(np.round(v / side).astype(int)): i for i, v in enumerate(verts)} if side else {}
    tets = []
    for perm in itertools.permutations(range(3)):
        pt = np.zeros(3, dtype=int)
        chain = [tuple(pt)]
        for axis in perm:
            pt = pt.copy()
            pt[axis] = 1
            chain.append(tuple(pt))
        tets.append(tuple(index[p] for p in chain))
    return StratifiedComplex.from_maximal_cells(verts, tets)


def cube_boundary(side: float = 1.0) -> StratifiedComplex:
    """Boundary 2-sphere of the Kuhn-triangulated cube."""
    solid = solid_cube(side)
    tri_count: dict[tuple, int] = {}
    for tet in solid.cells[3]:
        for f in itertools.combinations(tet, 3):
            tri_count[f] = tri_count.get(f, 0) + 1
    boundary = [f for f, cnt in tri_count.items() if cnt == 1]
    return StratifiedComplex.from_maximal_cells(solid.vertices, boundary)


def torus_7vertex() -> StratifiedComplex:
    """The 7-vertex triangulated torus (all 21 edges; 14 triangles), embedded
    in R^3 with the classical toroidal-polyhedron coordinates."""
    verts = np.array(
        [
            [3.0, -3.0, 0.0],
            [-3.0, 3.0, 0.0],
            [-3.0, -3.0, 1.0],
            [3.0, 3.0, 1.0],
            [1.0, 2.0, 3.0],
            [-1.0, -2.0, 3.0],
            [0.0, 0.0, 15.0],
        ]
    )
    faces = [tuple(sorted(((i % 7), ((i + 1) % 7), ((i + 3) % 7)))) for i in range(7)]
    faces += [tuple(sorted(((i % 7), ((i + 2) % 7), ((i + 3) % 7)))) for i in range(7)]
    return StratifiedComplex.from_maximal_cells(verts, faces)


# ---------------------------------------------------------------------------
# PLSTRAT text format
# ---------------------------------------------------------------------------

def save_plstrat(K: StratifiedComplex, path) -> None:
    """Write the complex in the PLSTRAT format: header ``PLSTRAT n``, vertex
    count and coordinates, then one line per cell ``dim v0 v1 ... vdim``."""
    lines = [f"PLSTRAT {K.ambient_dim}", str(len(K.vertices))]
    for v in K.vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    cells = [c for c in K.all_cells()]
    lines.append(str(len(cells)))
    for c in cells:
        lines.append(" ".join(str(x) for x in (len(c) - 1, *c)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_plstrat(path) -> StratifiedComplex:
    """Read a PLSTRAT file.  A malformed file raises ValueError: a bad,
    non-finite or missing token names its line, and a cell that breaks the
    complex (vertex out of range, missing face, degenerate simplex) names the
    cell."""
    with open(path) as fh:
        tokens = [(no, tok) for no, line in enumerate(fh, 1) for tok in line.split()]
    it = iter(tokens)

    def read(kind, what):
        try:
            no, tok = next(it)
        except StopIteration:
            last = tokens[-1][0] if tokens else 0
            raise ValueError(f"{path}: file ends after line {last}, before the {what}") from None
        try:
            return no, kind(tok)
        except ValueError:
            raise ValueError(f"{path}, line {no}: bad {what} {tok!r}") from None

    no, magic = read(str, "header")
    if magic != "PLSTRAT":
        raise ValueError(f"{path}, line {no}: not a PLSTRAT file (header {magic!r})")
    n = read(int, "ambient dimension")[1]
    nv = read(int, "vertex count")[1]
    verts = np.zeros((nv, n))
    for i in range(nv):
        for j in range(n):
            no, verts[i, j] = read(float, f"coordinate {j} of vertex {i}")
            if not math.isfinite(verts[i, j]):
                raise ValueError(f"{path}, line {no}: coordinate {j} of vertex {i} is not finite")
    nc = read(int, "cell count")[1]
    cells: dict[int, list] = {}
    for k in range(nc):
        d = read(int, f"dimension of cell {k}")[1]
        cell = tuple(read(int, f"vertex {j} of cell {k}")[1] for j in range(d + 1))
        cells.setdefault(d, []).append(cell)
    # the constructor validates vertex ranges and the face-closure invariant
    return StratifiedComplex(verts, cells)
