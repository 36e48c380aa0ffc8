import numpy as np
import pytest

import tissue as T
from tissue.errors import GeometryError


def test_cell_measures_quarter_margin():
    cell = T.build_cell_geometry(0.25, 8)
    assert cell.area_int == 0.25
    assert cell.area_out == 0.75
    assert cell.memb_measure == 2.0


def test_misaligned_resolution_rejected_with_hint():
    with pytest.raises(GeometryError, match="smallest valid resolution is 4"):
        T.build_cell_geometry(0.25, 6)


def test_small_margin_measures():
    cell = T.build_cell_geometry(0.125, 16)
    assert cell.area_int == 0.5625


def test_margin_range_rejected():
    with pytest.raises(GeometryError):
        T.build_cell_geometry(0.5, 8)
    with pytest.raises(GeometryError):
        T.build_cell_geometry(-0.1, 8)


def test_tiling_membrane_measure(cell8):
    dom = T.tile_domain(cell8, 0.25)
    assert dom.memb_measure == pytest.approx(8.0, abs=1e-12)
    # per-cell membrane measures sum to the total
    per_cell = cell8.memb_measure * 0.25
    assert 16 * per_cell == pytest.approx(dom.memb_measure, abs=1e-12)


def test_tiling_counts(cell8):
    assert T.tile_domain(cell8, 0.5).n == 16
    dom3 = T.tile_domain(cell8, 1.0 / 3.0)
    assert dom3.n == 24


def test_tiling_requires_integer_reciprocal(cell8):
    with pytest.raises(GeometryError, match="tiling closes"):
        T.tile_domain(cell8, 0.3)


def test_budget_rejection_reports_memory(cell8):
    with pytest.raises(GeometryError, match="MB"):
        T.tile_domain(cell8, 0.25, max_cells=100)


def test_facet_normals_and_traces(default_domain):
    f = default_domain.facets
    assert np.all(default_domain.inside[f.inner_cell])
    assert not np.any(default_domain.inside[f.outer_cell])


def test_boundary_gap(default_domain):
    # membrane facets keep at least margin*epsilon away from the boundary
    mids = default_domain.facets.midpoint
    gap = min(mids.min(), (1.0 - mids).min())
    assert gap >= 0.25 * default_domain.epsilon - 1e-12


def test_refinement_stability():
    a, m = 0.25, 8
    coarse = T.build_cell_geometry(a, m)
    fine = T.build_cell_geometry(a, 2 * m)
    assert coarse.area_int == fine.area_int
    assert coarse.memb_measure == fine.memb_measure
    assert (T.mean_conductivity(coarse, 2.0, 1.0)
            == T.mean_conductivity(fine, 2.0, 1.0))


def test_mean_conductivity_examples():
    cell = T.build_cell_geometry(0.25, 8)
    assert T.mean_conductivity(cell, 2.0, 1.0) == pytest.approx(1.25, abs=1e-15)
    assert T.mean_conductivity(cell, 3.0, 3.0) == pytest.approx(3.0, abs=1e-15)
    cell2 = T.build_cell_geometry(0.125, 16)
    assert T.mean_conductivity(cell2, 10.0, 1.0) == pytest.approx(6.0625, abs=1e-15)


def test_mean_conductivity_bounds_invariant(cell8):
    cond = T.make_conductivity(cell8, 7.0, 0.5)
    assert 0.5 <= cond.mean <= 7.0


def test_positive_conductivity_required(cell8):
    with pytest.raises(GeometryError):
        T.mean_conductivity(cell8, -1.0, 1.0)


@pytest.mark.parametrize("dim,resolution,epsilon", [(2, 8, 0.25), (1, 4, 0.5)])
def test_membrane_faces_enumerated_in_facet_order(dim, resolution, epsilon):
    # the bulk and cell operators take the k-th membrane face as facet k
    cell = T.build_cell_geometry(0.25, resolution, dim=dim)
    for geo in (cell, T.tile_domain(cell, epsilon)):
        memb = np.flatnonzero(geo.faces.membrane)
        face_pairs = np.sort([geo.faces.cell_a[memb], geo.faces.cell_b[memb]],
                             axis=0)
        facet_pairs = np.sort([geo.facets.inner_cell, geo.facets.outer_cell],
                              axis=0)
        assert np.array_equal(face_pairs, facet_pairs)


def test_one_dimensional_diagnostic_mode():
    cell = T.build_cell_geometry(0.25, 4, dim=1)
    assert cell.memb_measure == 2.0
    assert cell.area_int == 0.5
    dom = T.tile_domain(cell, 0.5)
    assert dom.n_facets == 4
    assert dom.memb_measure == pytest.approx(4.0)   # 2 per cell copy, measure 1


def test_geometry_summary_records_gamma(default_domain):
    summary = default_domain.summary()
    assert summary["boundary_gap_over_epsilon"] == 0.25
    assert summary["n_membrane_facets"] == 256
