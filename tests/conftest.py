import itertools

import numpy as np
import pytest

from lkpolar.geomkit import RandomSource
from lkpolar.plstrata import StratifiedComplex


def _kuhn_grid(m: int) -> StratifiedComplex:
    """The unit cube cut into m^3 cubes of 6 Kuhn tetrahedra each, turned by
    a fixed random rotation so that no cell is axis-aligned."""
    index = {p: i for i, p in enumerate(itertools.product(range(m + 1), repeat=3))}
    tets = []
    for base in itertools.product(range(m), repeat=3):
        for perm in itertools.permutations(range(3)):
            pt = list(base)
            chain = [index[tuple(pt)]]
            for axis in perm:
                pt[axis] += 1
                chain.append(index[tuple(pt)])
            tets.append(tuple(chain))
    rotation = np.linalg.qr(RandomSource(47).generator().standard_normal((3, 3)))[0]
    verts = (np.array(list(index), dtype=float) / m) @ rotation.T
    return StratifiedComplex.from_maximal_cells(verts, tets)


@pytest.fixture(scope="session")
def kuhn_grid():
    """Builder of rotated Kuhn grids: ``kuhn_grid(3)`` has 883 cells."""
    return _kuhn_grid
