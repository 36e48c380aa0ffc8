"""Grid enumeration order of the cell, the tiled domain and the macro grid.

Facet order is the order in which random initial jumps are drawn; macro
face order fixes the summation order of the macro Schur complement.  The
arrays below are spelled out so a change of enumeration shows up here and
not only as moved artifacts.
"""

import numpy as np

import tissue as T
from tissue.twoscale import _build_macro_grid


def _equal(actual, expected, dtype=np.int64):
    expected = np.asarray(expected, dtype=dtype)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def test_1d_grid_order():
    cell = T.build_cell_geometry(0.25, 4, dim=1)
    _equal(cell.faces.cell_a, [0, 1, 2, 3])
    _equal(cell.faces.cell_b, [1, 2, 3, 0])
    _equal(cell.faces.axis, [0, 0, 0, 0])

    dom = T.tile_domain(cell, 0.5)
    _equal(dom.faces.cell_a, [0, 1, 2, 3, 4, 5, 6])
    _equal(dom.faces.cell_b, [1, 2, 3, 4, 5, 6, 7])
    _equal(dom.facets.inner_cell, [1, 2, 5, 6])
    _equal(dom.facets.outer_cell, [0, 3, 4, 7])
    _equal(dom.boundary.cell, [0, 7])
    _equal(dom.boundary.midpoint, [[0.0], [1.0]], float)

    mac = _build_macro_grid(1, 3, T.make_boundary_data("affine"))
    _equal(mac.side_of, [[[1, 0]], [[0, 2]], [[2, 3]]])
    _equal(mac.grad.toarray(), np.array([[-1, 1, 0],
                                         [2, 0, 0],
                                         [0, -1, 1],
                                         [0, 0, -2]]) / mac.spacing, float)


def test_2d_grid_order():
    cell = T.build_cell_geometry(1.0 / 3.0, 3, dim=2)
    _equal(cell.faces.cell_a, [0, 1, 2, 3, 4, 5, 6, 7, 8,
                               0, 1, 2, 3, 4, 5, 6, 7, 8])
    _equal(cell.faces.cell_b, [3, 4, 5, 6, 7, 8, 0, 1, 2,
                               1, 2, 0, 4, 5, 3, 7, 8, 6])
    _equal(cell.faces.axis, [0] * 9 + [1] * 9)

    dom = T.tile_domain(cell, 1.0)
    _equal(dom.faces.cell_a, [0, 1, 2, 3, 4, 5, 0, 1, 3, 4, 6, 7])
    _equal(dom.faces.cell_b, [3, 4, 5, 6, 7, 8, 1, 2, 4, 5, 7, 8])
    _equal(dom.faces.axis, [0] * 6 + [1] * 6)
    _equal(dom.facets.inner_cell, [4, 4, 4, 4])
    _equal(dom.facets.outer_cell, [1, 7, 3, 5])
    _equal(dom.boundary.cell, [0, 1, 2, 6, 7, 8, 0, 3, 6, 2, 5, 8])
    x = [(i + 0.5) * (1.0 / 3.0) for i in range(3)]
    _equal(dom.boundary.midpoint,
           [[0.0, v] for v in x] + [[1.0, v] for v in x]
           + [[v, 0.0] for v in x] + [[v, 1.0] for v in x], float)

    mac = _build_macro_grid(2, 2, T.make_boundary_data("affine"))
    _equal(mac.side_of, [[[1, 0], [7, 6]], [[3, 2], [6, 8]],
                         [[0, 4], [10, 9]], [[2, 5], [9, 11]]])
    _equal(mac.grad.toarray(), np.array([[-1, 0, 1, 0],
                                         [2, 0, 0, 0],
                                         [0, -1, 0, 1],
                                         [0, 2, 0, 0],
                                         [0, 0, -2, 0],
                                         [0, 0, 0, -2],
                                         [-1, 1, 0, 0],
                                         [2, 0, 0, 0],
                                         [0, -2, 0, 0],
                                         [0, 0, -1, 1],
                                         [0, 0, 2, 0],
                                         [0, 0, 0, -2]]) / mac.spacing, float)
    # one node per axis: its low boundary face comes before its high one
    mac1 = _build_macro_grid(2, 1, T.make_boundary_data("affine"))
    _equal(mac1.side_of, [[[0, 1], [2, 3]]])
