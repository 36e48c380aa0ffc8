"""Periodic unit cell, tiled domain and membrane facet bookkeeping.

The unit cell is the unit square or interval containing a centered
axis-aligned inclusion.  The membrane is the inclusion boundary; it falls on
grid lines by construction so every membrane facet separates exactly one
interior cell from one exterior cell and carries two trace unknowns.  All
measures are analytic, not quadrature.  One dimension-generic grid path
(cells in C order, faces axis by axis) serves both dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class FaceSet:
    """Interior grid faces: cell pair, axis, and membrane marking.

    ``cell_a`` is always on the negative side of the face along ``axis``.
    For membrane faces ``inner``/``outer`` identify which of the two cells
    is inside the inclusion; the facet normal points from inner to outer.
    """

    cell_a: np.ndarray
    cell_b: np.ndarray
    axis: np.ndarray
    membrane: np.ndarray        # bool mask
    a_inside: np.ndarray        # bool, cell_a lies in the inclusion

    def __len__(self) -> int:
        return self.cell_a.size


@dataclass(frozen=True)
class BoundaryFaceSet:
    """Outer boundary faces of a Dirichlet domain: owner cell and midpoint."""

    cell: np.ndarray
    midpoint: np.ndarray        # (n_faces, dim)

    def __len__(self) -> int:
        return self.cell.size


@dataclass(frozen=True)
class MembraneFacets:
    """Membrane facets with inner/outer cell pairs and normals.

    The unit normal points from the inner (inclusion) side to the outer
    side; ``axis``/``sign`` encode it for axis-aligned facets.
    """

    inner_cell: np.ndarray
    outer_cell: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    midpoint: np.ndarray        # (n_facets, dim)
    measure: float              # measure of a single facet

    def __len__(self) -> int:
        return self.inner_cell.size

    def point_out_of(self, inside: np.ndarray) -> bool:
        """Whether every normal points out of the inclusion, given the
        per-cell inclusion mask ``inside``."""
        return bool(np.all(inside[self.inner_cell])
                    and not np.any(inside[self.outer_cell]))


def _flat_ids(n: int, dim: int) -> np.ndarray:
    """Flat (C order) index of every cell, shaped as the grid."""
    return np.arange(n ** dim).reshape((n,) * dim)


def _grid_inside_mask(n: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Boolean mask (flat, C order) of cells with every index in [lo, hi)."""
    idx = np.arange(n)
    band = (idx >= lo) & (idx < hi)
    return np.all(np.meshgrid(*[band] * dim, indexing="ij"), axis=0).ravel()


def _interior_faces(n: int, dim: int, inside: np.ndarray,
                    periodic: bool) -> FaceSet:
    """Enumerate grid faces between cell pairs, axis by axis with cells in
    flat order, wrapping when periodic."""
    ids = _flat_ids(n, dim)
    first = np.arange(n if periodic else n - 1)
    cell_a, cell_b, axis = [], [], []
    for d in range(dim):
        a_d = ids.take(first, axis=d).ravel()
        cell_a.append(a_d)
        cell_b.append(np.roll(ids, -1, axis=d).take(first, axis=d).ravel())
        axis.append(np.full(a_d.size, d, dtype=np.int64))
    a = np.concatenate(cell_a)
    b = np.concatenate(cell_b)
    ax = np.concatenate(axis)
    memb = inside[a] != inside[b]
    return FaceSet(cell_a=a, cell_b=b, axis=ax, membrane=memb,
                   a_inside=inside[a])


def _facets_from_faces(faces: FaceSet, h: float, dim: int,
                       centers: np.ndarray) -> MembraneFacets:
    sel = np.flatnonzero(faces.membrane)
    a = faces.cell_a[sel]
    b = faces.cell_b[sel]
    ax = faces.axis[sel]
    a_in = faces.a_inside[sel]
    inner = np.where(a_in, a, b)
    outer = np.where(a_in, b, a)
    # normal points from inner to outer along the face axis
    sign = np.where(a_in, 1, -1).astype(np.int64)
    mid = 0.5 * (centers[a] + centers[b])
    measure = h ** (dim - 1)
    return MembraneFacets(inner_cell=inner, outer_cell=outer, axis=ax,
                          sign=sign, midpoint=mid, measure=measure)


def cell_centers(n: int, h: float, dim: int) -> np.ndarray:
    """(n**dim, dim) centers of a grid of n cells of spacing h per axis, in
    flat (C) order."""
    x = (np.arange(n) + 0.5) * h
    return np.column_stack([g.ravel() for g in
                            np.meshgrid(*[x] * dim, indexing="ij")])


@dataclass(frozen=True)
class CellGeometry:
    """Unit periodic cell with a centered axis-aligned square inclusion.

    ``margin`` is the distance from the membrane to the cell boundary, so
    the inclusion is ``(margin, 1 - margin)**dim``.  The grid has
    ``resolution`` cells per axis and the membrane falls on grid lines.
    """

    dim: int
    margin: float
    resolution: int
    inside: np.ndarray = field(repr=False)
    faces: FaceSet = field(repr=False)          # periodic face list
    facets: MembraneFacets = field(repr=False)
    area_int: float
    area_out: float
    memb_measure: float

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    @property
    def n_cells(self) -> int:
        return self.resolution ** self.dim

    def summary(self) -> dict:
        return {
            "dimension": self.dim,
            "inclusion_margin": self.margin,
            "cell_resolution": self.resolution,
            "area_int": self.area_int,
            "area_out": self.area_out,
            "membrane_measure": self.memb_measure,
            "n_facets": len(self.facets),
        }


def smallest_aligned_resolution(margin: float, limit: int = 100000) -> int:
    """Smallest grid resolution whose lines contain the inclusion boundary."""
    for m in range(1, limit + 1):
        if abs(margin * m - round(margin * m)) < 1e-9 and round(margin * m) >= 1:
            return m
    raise GeometryError(f"no aligned resolution below {limit} for margin {margin}")


def build_cell_geometry(margin: float, resolution: int, dim: int = 2) -> CellGeometry:
    """Construct the unit cell; rejects grids that do not fit the membrane."""
    if dim not in (1, 2):
        raise GeometryError(f"dimension must be 1 or 2, got {dim}")
    if not (0.0 < margin < 0.5):
        raise GeometryError(f"inclusion_margin must lie in (0, 0.5), got {margin}")
    if resolution < 2:
        raise GeometryError(f"cell_resolution must be at least 2, got {resolution}")
    am = margin * resolution
    if abs(am - round(am)) > 1e-9:
        m_ok = smallest_aligned_resolution(margin)
        raise GeometryError(
            f"cell_resolution={resolution} does not align the membrane with grid "
            f"lines (margin*resolution={am:.6g} is not an integer); smallest "
            f"valid resolution is {m_ok}")
    lo = int(round(am))
    hi = resolution - lo
    if hi <= lo:
        raise GeometryError(
            f"inclusion is empty at margin={margin}, resolution={resolution}")
    inside = _grid_inside_mask(resolution, lo, hi, dim)
    faces = _interior_faces(resolution, dim, inside, periodic=True)
    h = 1.0 / resolution
    centers = cell_centers(resolution, h, dim)
    facets = _facets_from_faces(faces, h, dim, centers)

    side = 1.0 - 2.0 * margin
    area_int = side ** dim
    area_out = 1.0 - area_int
    memb = 2.0 * dim * side ** (dim - 1)

    geo = CellGeometry(dim=dim, margin=margin, resolution=resolution,
                       inside=inside, faces=faces, facets=facets,
                       area_int=area_int, area_out=area_out,
                       memb_measure=memb)
    _check_cell(geo)
    return geo


def _require(ok, what: str) -> None:
    if not ok:
        raise GeometryError(f"inconsistent geometry: {what}")


def _check_cell(geo: CellGeometry) -> None:
    _require(abs(geo.area_int + geo.area_out - 1.0) < 1e-15,
             "phase areas do not sum to 1")
    facets = geo.facets
    _require(facets.point_out_of(geo.inside),
             "a facet normal does not point out of the inclusion")
    # discrete membrane measure agrees with the analytic perimeter
    _require(abs(len(facets) * facets.measure - geo.memb_measure) < 1e-12,
             "facet measures miss the membrane measure")


@dataclass(frozen=True)
class Conductivity:
    """Piecewise-constant conductivity of the two phases and its volume mean."""

    sigma_int: float
    sigma_out: float
    mean: float

    @property
    def harmonic(self) -> float:
        """Series combination seen by a membrane facet (half cell each side)."""
        return 2.0 * self.sigma_int * self.sigma_out / (self.sigma_int + self.sigma_out)

    def on_faces(self, inside: np.ndarray, faces: FaceSet) -> np.ndarray:
        """Per-face conductivity: the phase value of the face's cells, the
        harmonic value on membrane faces."""
        sig_cells = np.where(inside, self.sigma_int, self.sigma_out)
        return np.where(faces.membrane, self.harmonic, sig_cells[faces.cell_a])


def mean_conductivity(cell: CellGeometry, sigma_int: float,
                      sigma_out: float) -> float:
    """Volume-weighted mean conductivity of the unit cell."""
    if sigma_int <= 0 or sigma_out <= 0:
        raise GeometryError("conductivities must be positive")
    return cell.area_int * sigma_int + cell.area_out * sigma_out


def make_conductivity(cell: CellGeometry, sigma_int: float,
                      sigma_out: float) -> Conductivity:
    mean = mean_conductivity(cell, sigma_int, sigma_out)
    _require(min(sigma_int, sigma_out) <= mean <= max(sigma_int, sigma_out),
             f"mean conductivity {mean} outside the phase values")
    return Conductivity(sigma_int=sigma_int, sigma_out=sigma_out, mean=mean)


@dataclass(frozen=True)
class EpsilonDomain:
    """Unit macro domain tiled by scaled copies of the periodic cell.

    ``1/epsilon`` copies per axis, each subdivided by the cell grid, give a
    global fitted grid of spacing ``epsilon/resolution``.  Membrane facets
    keep duplicated trace unknowns; the boundary carries Dirichlet data and
    stays at distance ``margin * epsilon`` from every membrane facet.
    """

    cell: CellGeometry
    epsilon: float
    n: int                      # grid cells per axis
    h: float                    # grid spacing
    inside: np.ndarray = field(repr=False)
    faces: FaceSet = field(repr=False)
    boundary: BoundaryFaceSet = field(repr=False)
    facets: MembraneFacets = field(repr=False)
    centers: np.ndarray = field(repr=False)
    memb_measure: float

    @property
    def dim(self) -> int:
        return self.cell.dim

    @property
    def n_cells(self) -> int:
        return self.n ** self.dim

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def summary(self) -> dict:
        out = self.cell.summary()
        out.update({
            "epsilon": self.epsilon,
            "grid_cells_per_axis": self.n,
            "spacing": self.h,
            "n_bulk_unknowns": self.n_cells,
            "n_membrane_facets": self.n_facets,
            "membrane_measure": self.memb_measure,
            # membrane-to-boundary separation, in units of epsilon
            "boundary_gap_over_epsilon": self.cell.margin,
        })
        return out


def tile_domain(cell: CellGeometry, epsilon: float,
                max_cells: int = 65536) -> EpsilonDomain:
    """Tile the unit domain with scaled periodic cells.

    The tiling must close exactly (``1/epsilon`` integral) and the bulk
    unknown count must fit ``max_cells``.
    """
    if epsilon <= 0:
        raise GeometryError(f"epsilon must be positive, got {epsilon}")
    inv = 1.0 / epsilon
    if not 1.0 <= inv < np.inf or abs(inv - round(inv)) > 1e-9:
        raise GeometryError(
            f"1/epsilon must be a positive integer so the tiling closes; got "
            f"epsilon={epsilon} (1/epsilon={inv:.6g})")
    copies = int(round(inv))
    n = copies * cell.resolution
    dim = cell.dim
    n_cells = n ** dim
    if n_cells > max_cells:
        # minimum-degree fill of the bulk factor, measured on the 2D tiling
        # at 4096 and 16384 cells: about 3 n log2 n nonzeros of 12 bytes
        factor_mb = 36 * n_cells * np.log2(n_cells) / 1e6
        raise GeometryError(
            f"unknown budget exceeded: {n_cells} cells (limit {max_cells}); "
            f"each sparse bulk factorization would need about "
            f"{factor_mb:.1f} MB")

    # inclusion mask repeats per tile
    inside = np.tile(cell.inside.reshape((cell.resolution,) * dim),
                     (copies,) * dim).ravel()

    h = epsilon / cell.resolution
    centers = cell_centers(n, h, dim)
    faces = _interior_faces(n, dim, inside, periodic=False)
    facets = _facets_from_faces(faces, h, dim, centers)

    n_facets = len(facets)

    # boundary faces: per axis, the low then the high end of the grid, each
    # with its rim cells in flat order; a midpoint is the cell center moved
    # onto the boundary along that axis
    ids = _flat_ids(n, dim)
    bc, bmid = [], []
    for d in range(dim):
        for end, pos in ((0, 0.0), (n - 1, 1.0)):
            cells = ids.take(end, axis=d).ravel()
            mids = centers[cells]
            mids[:, d] = pos
            bc.append(cells)
            bmid.append(mids)
    boundary = BoundaryFaceSet(cell=np.concatenate(bc),
                               midpoint=np.concatenate(bmid))

    memb_measure = n_facets * facets.measure
    dom = EpsilonDomain(cell=cell, epsilon=epsilon, n=n, h=h, inside=inside,
                        faces=faces, boundary=boundary, facets=facets,
                        centers=centers, memb_measure=memb_measure)
    _check_domain(dom)
    return dom


def _check_domain(dom: EpsilonDomain) -> None:
    copies = round(1.0 / dom.epsilon)
    expected = dom.cell.memb_measure * dom.epsilon ** (dom.dim - 1) * copies ** dom.dim
    # equivalently |cell membrane| * |domain| / epsilon
    _require(abs(expected - dom.cell.memb_measure / dom.epsilon) < 1e-12
             and abs(dom.memb_measure - expected) < 1e-12,
             "tiled membrane measure is not |cell membrane| / epsilon")
    _require(dom.facets.point_out_of(dom.inside),
             "a facet normal does not point out of the inclusion")
    # no boundary cell belongs to the inclusion (keeps the Dirichlet gap)
    _require(not np.any(dom.inside[dom.boundary.cell]),
             "an inclusion cell touches the boundary")
