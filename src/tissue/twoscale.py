"""Homogenized two-scale solver: a macro potential on a coarse grid coupled
to one periodic cell problem per macro node, with the membrane dynamics
living in the cell variable.

The discretization is Galerkin on a quadratic bulk energy: every (node,
corner, cell-face) sample of sigma * (macro gradient + cell slope)^2 is one
least-squares term, so the assembled system is symmetric positive
definite by construction, the discrete weak form is satisfied exactly by
the computed states, and the jump-gap Lyapunov quantity is nonincreasing
for monotone membrane laws.  Corner-based macro gradient sampling keeps the
macro operator free of checkerboard kernels on coarse grids.

Every macro node shares one cell, and a node's corrector and jumps see the
macro potential only through the node's corner-averaged macro gradient.
The correctors are therefore eliminated per node with the one cell
factorization (FE^2 / HMM structure), and the macro potential once, in
``NodeFlux.macro_fields``, with the Cholesky factor of its Schur complement:
the flux response of the stacked jumps, its drive load and every rebuilt
state go through it, and no macro coupling matrix is formed.  A factor of
the stepper's pass matrix is one stack of node-block inverses, each built
from the block's Cholesky factor, plus a Cholesky of a macro-sized
capacitance matrix.  Each node's corrector follows from its mean gradient
and its own jumps through the two cell responses, so no map of the stacked
jumps is stored.  Time stepping reuses the shared implicit stepper.

The corner-averaged gradient Gbar is a two-point stencil per node and
axis, applied by gathers (``MacroGrid.gbar``, ``MacroGrid.gbar_t``).  The
Schur complement and the capacitance matrix couple only nodes at most two
apart on one axis, so both are assembled from the macro stencil directly
in LAPACK band storage (natural node order) and band-factored: no
macro-sized dense matrix is formed, and the banded factors give the same
bits for any BLAS thread count.

Every factor is checked for finiteness and positive definiteness once,
when it is built (the Schur factor in ``NodeFlux``, the pass factors in
``_NodeFactor``), and is read-only from then on.  The per-pass and
per-state solves with those factors are stacked matrix products and
LAPACK's ``pbtrs``, called directly, without scipy's per-call checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .errors import GeometryError
from .geometry import CellGeometry, Conductivity, cell_centers
from .membrane import (SAMPLE_CHUNK, MembraneSystem, SolverParams, Trajectory,
                       jump_family, simulate)
from .nonlinearity import BoundaryData, Nonlinearity
from .periodic import PeriodicOrbit, find_periodic
from .decay import decay_metrics

__all__ = [
    "CellOperator", "NodeFlux", "TwoScaleSystem", "TwoScaleState",
    "initial_two_scale_jump", "transient_weak_residual",
    "periodic_weak_residual",
]


# resolved once; potrs and pbtrs read the factor and solve in a copy of the
# right-hand side, so a shared factor is never written
_POTRF, _POTRS, _PBTRS = get_lapack_funcs(("potrf", "potrs", "pbtrs"),
                                          dtype=np.float64)


def _band_solve(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve_banded`` without its per-call checks: the lower band
    factor ``cb`` was checked when it was built."""
    x, info = _PBTRS(cb, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK pbtrs failed with info {info}")
    return x


def _read_only_band_factor(ab: np.ndarray) -> np.ndarray:
    """``cholesky_banded`` of a lower band (checked: finite, positive
    definite), frozen."""
    cb = cholesky_banded(ab, lower=True)
    cb.flags.writeable = False
    return cb


def _stencil(cols: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product of a vector or a stack of columns ``x`` by the sparse
    matrix whose row r holds ``vals[k, r]`` at the columns ``cols[k, r]``,
    k < width (slot-major, so that the slots are summed in order, one
    vectorized add each)."""
    terms = x[cols]
    terms *= vals if x.ndim == 1 else vals[..., None]
    return np.add.reduce(terms)


class _BandProduct:
    """P' blockdiag(M_r) P in LAPACK lower band storage (entry (i, k),
    i >= k, at [i - k, k]) for an (m x n) P with the stencil (``cols``,
    ``vals``) whose rows come in groups of ``group``, one (group x group)
    block M_r per group.  Every pair of stencil entries in one group gives
    one band entry, so a product costs a few operations per row and forms
    no (n x n) array; the pairs' band positions are found once, here.  The
    half-width ``bw`` defaults to the widest column gap within a group."""

    def __init__(self, cols: np.ndarray, vals: np.ndarray, n: int,
                 group: int, bw: Optional[int] = None):
        shape = (len(cols) // group, group, cols.shape[1])
        cols, self.vals = cols.reshape(shape), vals.reshape(shape)
        a, b = cols[:, :, :, None, None], cols[:, None, None]
        keep = a >= b
        gap, b = np.broadcast_arrays(a - b, b)
        self.n = n
        self.bw = int(gap[keep].max(initial=0)) if bw is None else bw
        self.keep = np.flatnonzero(keep)
        self.index = gap[keep] * n + b[keep]

    def __call__(self, blocks: np.ndarray) -> np.ndarray:
        g = self.vals.shape[1]
        m = np.reshape(blocks, (-1, g, 1, g, 1))
        terms = self.vals[:, :, :, None, None] * m * self.vals[:, None, None]
        return np.bincount(self.index, terms.reshape(-1)[self.keep],
                           minlength=(self.bw + 1) * self.n
                           ).reshape(self.bw + 1, self.n)


# -- unit-cell face data ------------------------------------------------------

@dataclass(frozen=True)
class CellFaceData:
    """Periodic unit-cell face operators shared by cell problems.

    ``slope_c`` maps a cell field to per-face normal slopes, ``slope_w``
    adds the membrane jump correction, so the physical slope samples are
    ``slope_c @ c + slope_w @ w``.  ``sigma_face`` carries the phase or
    series conductivity per face.
    """

    n_y: int
    n_faces: int
    n_facets: int
    axis: np.ndarray
    sigma_face: np.ndarray
    slope_c: sp.csr_matrix
    slope_w: sp.csr_matrix
    axis_select: sp.csr_matrix       # (n_faces, dim), 1 at (face, its axis)
    vol: float                        # cell-grid cell volume
    s_facet: float                    # membrane facet measure
    spacing: float


def _cell_face_data(cell: CellGeometry, cond: Conductivity) -> CellFaceData:
    """The face operators, each CSR matrix written from its known row
    pointer: a face's slope couples its two cells (in column order), a
    membrane face's jump correction its facet, in facet order, and every
    face selects its axis."""
    faces = cell.faces
    facets = cell.facets
    dim = cell.dim
    h = cell.spacing
    n_y = cell.n_cells
    nfa = len(faces)
    sigma_face = cond.on_faces(cell.inside, faces)

    ab = np.column_stack([faces.cell_a, faces.cell_b])
    swap = faces.cell_a > faces.cell_b
    cols = np.where(swap[:, None], ab[:, ::-1], ab)
    vals = np.where(swap[:, None], 1.0, -1.0) * np.array([1.0, -1.0]) / h
    slope_c = sp.csr_matrix((vals.reshape(-1), cols.reshape(-1),
                             np.arange(0, 2 * nfa + 1, 2)), shape=(nfa, n_y))

    memb = faces.membrane
    nf = len(facets)
    slope_w = sp.csr_matrix(
        (-facets.sign / h, np.arange(nf),
         np.concatenate([[0], np.cumsum(memb)])),
        shape=(nfa, nf))

    axis_select = sp.csr_matrix((np.ones(nfa), faces.axis, np.arange(nfa + 1)),
                                shape=(nfa, dim))
    return CellFaceData(n_y=n_y, n_faces=nfa, n_facets=nf, axis=faces.axis,
                        sigma_face=sigma_face, slope_c=slope_c, slope_w=slope_w,
                        axis_select=axis_select, vol=h ** dim,
                        s_facet=facets.measure, spacing=h)


def _cell_matrix(cell: CellGeometry, d: CellFaceData,
                 ground: int) -> sp.csc_matrix:
    """slope_c' diag(vol sigma_face) slope_c without its first ``ground``
    rows and columns, in one COO build from the faces: face f's coupling
    k_f enters the diagonal of its two cells, summed in face order as the
    sparse product sums it, and -k_f the two places that couple them."""
    a, b = cell.faces.cell_a, cell.faces.cell_b
    inv_h = 1.0 / d.spacing
    k = inv_h * (d.vol * d.sigma_face * inv_h)
    diag = np.bincount(np.column_stack([a, b]).reshape(-1), np.repeat(k, 2),
                       minlength=d.n_y)
    rows = np.concatenate([np.arange(d.n_y), a, b])
    cols = np.concatenate([np.arange(d.n_y), b, a])
    keep = (rows >= ground) & (cols >= ground)
    n = d.n_y - ground
    return sp.csc_matrix((np.concatenate([diag, -k, -k])[keep],
                          (rows[keep] - ground, cols[keep] - ground)),
                         shape=(n, n))


class CellOperator:
    """Y-periodic conduction operator of a single cell problem.

    The operator A has the constant field in its kernel; ``solve`` grounds
    the first cell (one sparse factor of A without its first row and
    column, assembled as such, in minimum-degree order) and projects the
    result to zero mean, which is the zero-mean solution for any load
    orthogonal to the constants.  A itself is assembled on first use.
    """

    def __init__(self, cell: CellGeometry, cond: Conductivity):
        self.cell = cell
        self.cond = cond
        self.data = _cell_face_data(cell, cond)
        self._lu = spla.splu(_cell_matrix(cell, self.data, 1),
                             permc_spec="MMD_AT_PLUS_A")

    @functools.cached_property
    def A(self) -> sp.csc_matrix:
        return _cell_matrix(self.cell, self.data, 0)

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.A @ np.ones(self.data.n_y))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Zero-mean solution of A c = rhs, one per column of ``rhs``, for
        loads orthogonal to the constants."""
        c = np.zeros(rhs.shape)
        c[1:] = self._lu.solve(rhs[1:])
        return c - self.data.vol * c.sum(axis=0)


# -- macro grid ---------------------------------------------------------------

@dataclass(frozen=True)
class MacroGrid:
    """Uniform coarse grid over the unit domain: Dirichlet boundary faces,
    two-point face gradients, the per-node face lookup used for corner
    gradient sampling and the per-node corner-averaged gradient Gbar.

    Gbar's row j * dim + d is the gradient of node j on axis d, the mean of
    its two side faces': the central difference (u_next - u_prev) / (2h)
    inside the grid and one-sided at a boundary, where the boundary face's
    half-cell difference enters.  So it is a two-point stencil
    (``gbar_cols``, ``gbar_vals``), and its transpose one of width 2 dim
    (``gbar_t_rows``, ``gbar_t_vals``, a column per node), both stored slot
    by slot; ``gbar`` and ``gbar_t`` apply them, and ``grad_pairs`` and
    ``gbar_pairs`` are the band products that assemble the macro-sized
    matrices."""

    dim: int
    res: int
    spacing: float
    centers: np.ndarray
    grad: sp.csr_matrix            # (n_faces, n_nodes)
    grad_load: np.ndarray          # boundary contribution per unit drive
    side_of: np.ndarray            # (n_nodes, dim, 2) face ids
    grad_pairs: _BandProduct       # grad' diag(m_f) grad, face blocks
    gbar_cols: np.ndarray          # (2, n_nodes * dim), row j * dim + d
    gbar_vals: np.ndarray
    gbar_t_rows: np.ndarray        # (2 * dim, n_nodes)
    gbar_t_vals: np.ndarray
    gbar_load: np.ndarray          # Gbar's boundary contribution per drive
    gbar_pairs: _BandProduct       # Gbar' blockdiag(M_j) Gbar, node blocks

    @property
    def n_nodes(self) -> int:
        return self.res ** self.dim

    def gbar(self, u: np.ndarray) -> np.ndarray:
        """Gbar u for a macro field or a stack of them, one per column."""
        return _stencil(self.gbar_cols, self.gbar_vals, u)

    def gbar_t(self, x: np.ndarray) -> np.ndarray:
        """Gbar' x for a node-gradient vector or a stack of them, one per
        column."""
        return _stencil(self.gbar_t_rows, self.gbar_t_vals, x)


def _build_macro_grid(dim: int, res: int, drive: BoundaryData) -> MacroGrid:
    if dim not in (1, 2):
        raise GeometryError(f"macro dimension must be 1 or 2, got {dim}")
    if res < 1:
        raise GeometryError(f"macro resolution must be >= 1, got {res}")
    h = 1.0 / res
    n = res ** dim
    centers = cell_centers(res, h, dim)
    node = np.arange(n)
    pos = np.indices((res,) * dim).reshape(dim, n)    # node index per axis
    stride = res ** np.arange(dim - 1, -1, -1)[:, None]  # to the next node
    first, last = pos == 0, pos == res - 1
    inner = ~last                           # has a face to the next node
    # face ids: per axis and node (flat order), the face to the next node,
    # then the low and the high boundary face
    count = inner.astype(np.int64) + first + last
    up = (np.cumsum(count) - count.reshape(-1)).reshape(dim, n)
    low = up + inner
    high = low + first
    side_of = np.stack([
        np.where(first, low, np.take_along_axis(
            up, np.maximum(node - stride, 0), axis=1)),
        np.where(last, high, up)], axis=-1).transpose(1, 0, 2)
    # each face's stencil: the face to the next node couples the two, a
    # boundary face holds its node's half-cell difference (and a 0)
    n_faces = int(count.sum())
    cols = np.empty((n_faces, 2), dtype=np.int64)
    vals = np.zeros((n_faces, 2))
    grad_load = np.zeros(n_faces)
    axis, j = np.nonzero(inner)
    cols[up[inner]] = np.column_stack([j, j + stride[axis, 0]])
    vals[up[inner]] = (-1.0 / h, 1.0 / h)
    # (the boundary's nodes per axis, its faces, its coordinate, the value)
    for at, faces, x, val in ((first, low, 0.0, 2.0 / h),
                              (last, high, 1.0, -2.0 / h)):
        axis, j = np.nonzero(at)
        cols[faces[at]] = j[:, None]
        vals[faces[at], 0] = val
        mid = centers[j]
        mid[np.arange(len(j)), axis] = x
        grad_load[faces[at]] = -val * drive.spatial(mid)
    stored = vals != 0.0
    grad = sp.csr_matrix(
        (vals[stored], cols[stored],
         np.concatenate([[0], np.cumsum(stored.sum(axis=1))])),
        shape=(n_faces, n))
    # node j's gradient on axis d averages its two side faces: the central
    # difference inside, one-sided at a boundary (0 on a one-node axis)
    q = 0.5 * (1.0 / h) if res > 1 else 0.0
    gbar_cols = np.stack([np.where(first, node, node - stride),
                          np.where(last, node, node + stride)]
                         ).transpose(0, 2, 1).reshape(2, n * dim)
    gbar_vals = np.stack([np.where(first, q, -q), np.where(last, -q, q)]
                         ).transpose(0, 2, 1).reshape(2, n * dim)
    # Gbar' has each node in 2 rows per axis: its own or a neighbour's
    order = np.argsort(gbar_cols.T.reshape(-1), kind="stable")
    order = np.ascontiguousarray(order.reshape(n, 2 * dim).T)
    sides = side_of.reshape(n * dim, 2)
    gbar_pairs = _BandProduct(gbar_cols.T, gbar_vals.T, n, dim)
    return MacroGrid(
        dim=dim, res=res, spacing=h, centers=centers, grad=grad,
        grad_load=grad_load, side_of=side_of,
        grad_pairs=_BandProduct(cols, vals, n, 1, gbar_pairs.bw),
        gbar_cols=gbar_cols, gbar_vals=gbar_vals,
        gbar_t_rows=order // 2, gbar_t_vals=gbar_vals.T.reshape(-1)[order],
        gbar_load=0.5 * (grad_load[sides[:, 0]] + grad_load[sides[:, 1]]),
        gbar_pairs=gbar_pairs)


# -- per-node condensed flux map ----------------------------------------------

class NodeFlux:
    """Flux map of the stacked jumps with the cell problems eliminated.

    Node j's corrector sees the rest of the system only through its jumps
    w_j and its mean macro gradient g_j = (Gbar u)_j, so eliminating it
    leaves one (n_facets x n_facets) block R_b on w_j and one
    (n_facets x dim) coupling V to g_j, shared by every node.  The flux of
    the jumps W (one row per node) is W R_b + G V' at their node gradients
    G, which ``macro_fields`` gets through the banded Cholesky factor of
    the macro Schur complement S (``schur``, in lower band storage);
    R = blockdiag(R_b) - (I x V) Gbar S^-1 Gbar' (I x V)' is never formed.
    A pass matrix diag(d) + R is the block diagonal B = blockdiag(R_b +
    diag(d_j)) minus a correction of macro rank; ``factor`` solves it by
    Woodbury with a banded capacitance matrix of macro size.
    """

    def __init__(self, weights: np.ndarray, r_block: np.ndarray,
                 v: np.ndarray, macro: MacroGrid, schur: np.ndarray,
                 load_u: np.ndarray):
        self.weights = weights
        self.r_block = r_block
        self.v = v
        self.macro = macro
        self.schur = schur
        self.schur.flags.writeable = False
        self.schur_cf = _read_only_band_factor(schur)
        self.load_u = load_u
        self.n_nodes = macro.n_nodes
        # the flux load of a unit drive at zero jumps
        self.load = -(self.macro_fields(np.zeros((1, weights.size)),
                                        np.ones(1))[1] @ v.T).reshape(-1)

    def macro_fields(self, w: np.ndarray, drive: np.ndarray):
        """Macro potentials u = -S^-1 (Gbar' vec(W V) + drive load_u) of
        a stack of jump vectors, one per row of ``w`` (m, n_w), each at its
        own drive factor, and their node gradients Gbar u + drive gbar_load
        (corner-averaged): u is (m, n_nodes) and the gradients (m, n_nodes,
        dim), from one ``pbtrs`` with a right-hand side per row."""
        mac = self.macro
        wv = w.reshape(len(w), self.n_nodes, -1) @ self.v
        rhs = mac.gbar_t(wv.reshape(len(w), -1).T)     # a column per row
        rhs += np.multiply.outer(self.load_u, drive)
        u = -_band_solve(self.schur_cf, rhs)
        g = mac.gbar(u)
        g += np.multiply.outer(mac.gbar_load, drive)
        return u.T, g.T.reshape(len(w), self.n_nodes, -1)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """The flux R w = W R_b + G V' of one jump vector, G the node
        gradients of ``macro_fields`` at drive 0, with the potential's sign
        moved onto the last product (which keeps the bits).  Every
        correction of every step runs it, so it is written for one vector:
        through the stacked ``macro_fields`` the same product takes 1.7
        times as long (21.7 against 37.1 us at 256 jumps, one OpenBLAS
        thread on a 2-vCPU x86-64 machine)."""
        wr = w.reshape(self.n_nodes, -1)
        mac = self.macro
        u = _band_solve(self.schur_cf, mac.gbar_t((wr @ self.v).reshape(-1)))
        flux = wr @ self.r_block
        flux -= mac.gbar(u).reshape(self.n_nodes, -1) @ self.v.T
        return flux.reshape(-1)

    def factor(self, d: np.ndarray) -> "_NodeFactor":
        return _NodeFactor(self, d)

    def capacitance(self, bv: np.ndarray) -> np.ndarray:
        """S - Gbar' blockdiag(V' B_j^-1 V) Gbar in lower band storage, for
        the stack ``bv`` of the B_j^-1 V."""
        return self.schur - self.macro.gbar_pairs(self.v.T @ bv)


class _NodeFactor:
    """Factor of diag(d) + R: the stack of node-block inverses B_j^-1 of
    B_j = R_b + diag(d_j), each solved from the block's Cholesky factor
    (LAPACK ``potrf``/``potrs``, which give the same bits for any BLAS
    thread count), the stack B_j^-1 V and the banded Cholesky of the
    capacitance matrix S - Gbar' blockdiag(V' B_j^-1 V) Gbar, assembled
    in band storage from S's band and the macro stencil.  The build is the
    factors' only check: a non-finite d raises ValueError, a block that is
    not positive definite LinAlgError.  The held arrays are read-only;
    ``solve``, once per pass, is stacked products and one ``pbtrs``."""

    def __init__(self, flux: NodeFlux, d: np.ndarray):
        self.flux = flux
        nf = flux.r_block.shape[0]
        d = np.asarray(d, dtype=float).reshape(flux.n_nodes, nf)
        if not np.isfinite(d).all():
            raise ValueError("pass diagonal must be finite")
        self.inv = np.empty((flux.n_nodes, nf, nf))
        eye = np.eye(nf)
        for inv, dj in zip(self.inv, d):
            c, info = _POTRF(flux.r_block + np.diag(dj))
            if info == 0:
                inv[...], info = _POTRS(c, eye)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"a node block is not positive definite (info {info})")
        self.bv = self.inv @ flux.v
        self.cap = _read_only_band_factor(flux.capacitance(self.bv))
        self.inv.flags.writeable = self.bv.flags.writeable = False

    def solve(self, r: np.ndarray) -> np.ndarray:
        fl = self.flux
        n, mac = fl.n_nodes, fl.macro
        y = self.inv @ r.reshape(n, -1, 1)
        t = mac.gbar_t((y.reshape(n, -1) @ fl.v).reshape(-1))
        g = mac.gbar(_band_solve(self.cap, t))
        y += self.bv @ g.reshape(n, -1, 1)
        return y.reshape(-1)


# -- the coupled system -------------------------------------------------------

class TwoScaleSystem(MembraneSystem):
    """Macro potential, per-node correctors and stacked membrane jumps.

    Keeps the bulk sample weight of each macro face, not the sample matrix.
    The correctors are eliminated per node through the single cell
    factorization, the macro potential through its node-sized Schur
    complement; the stepper gets the result as a ``NodeFlux``.
    ``state_at`` rebuilds the macro potential and the correctors of one
    jump vector or a stack of them from ``NodeFlux.macro_fields`` (one
    Schur solve), then one product of size n_y x (dim + n_facets) per node.
    """

    def __init__(self, cell: CellGeometry, cond: Conductivity,
                 law: Nonlinearity, drive: BoundaryData, params: SolverParams,
                 macro_res: int = 4, macro_dim: Optional[int] = None):
        macro_dim = cell.dim if macro_dim is None else macro_dim
        if macro_dim != cell.dim:
            raise GeometryError(
                f"macro dimension {macro_dim} must match cell dimension {cell.dim}")
        self.cell = cell
        self.cond = cond
        self.drive = drive
        self.params = params
        self.macro = _build_macro_grid(macro_dim, macro_res, drive)
        n_nodes = self.macro.n_nodes
        n_w = n_nodes * len(cell.facets)
        self.cell_op = CellOperator(cell, cond)
        cfd = self.cell_op.data
        self.cfd = cfd

        dim = macro_dim
        self.n_nodes = n_nodes
        self.n_y = cfd.n_y
        self.n_w = n_w

        # a corner pattern samples a node's face on axis d per cell face on d
        hmac = self.macro.spacing
        self.sample_weight = hmac ** dim / 2 ** dim * cfd.vol * cfd.sigma_face
        pats = np.array(list(itertools.product((0, 1), repeat=dim)))
        sides = self.macro.side_of[:, np.arange(dim), pats]
        self.face_weight = face_weight = np.bincount(
            sides.reshape(-1),
            np.tile(np.bincount(cfd.axis, self.sample_weight, minlength=dim),
                    sides.size // dim),
            minlength=self.macro.grad.shape[0])

        # The stacked corrector block of every node is hmac^dim times the
        # cell operator, and the corner samples reach it only through the
        # node's mean macro gradient g_j and its jumps w_j.  One cell solve
        # against the face drives of a unit g (axis_select) and a unit w
        # (slope_w) gives node j's corrector -(x_g g_j + x_w w_j); ``resp``
        # is the energy Hessian left in (g_j, w_j).
        hdim = hmac ** dim
        drives = np.zeros((cfd.n_faces, dim + cfd.n_facets))
        drives[np.arange(cfd.n_faces), cfd.axis] = 1.0
        sw = cfd.slope_w       # one entry per membrane face
        drives[np.flatnonzero(np.diff(sw.indptr)), dim + sw.indices] = sw.data
        wdrives = (cfd.vol * cfd.sigma_face)[:, None] * drives
        rhs = cfd.slope_c.T @ wdrives
        x = self.cell_op.solve(rhs)
        self._x_g, self._x_w = x[:, :dim], x[:, dim:]
        cross = hdim * (rhs.T @ x)
        resp = hdim * (drives.T @ wdrives) - cross
        resp = 0.5 * (resp + resp.T)
        v, r_block = resp[dim:, :dim], resp[dim:, dim:]
        e_g = 0.5 * (cross[:dim, :dim] + cross[:dim, :dim].T)

        # macro Schur complement S = K_uu - Gbar' (I x e_g) Gbar in band
        # storage, with K_uu = grad' diag(face_weight) grad the (node-sized)
        # macro block of the sample Gram matrix, and the drive's load on the
        # macro rows
        mac = self.macro
        load_u = mac.grad.T @ (face_weight * mac.grad_load) \
            - mac.gbar_t((mac.gbar_load.reshape(n_nodes, dim) @ e_g
                          ).reshape(-1))
        self.flux_map = NodeFlux(weights=np.full(n_w, hdim * cfd.s_facet),
                                 r_block=r_block, v=v, macro=mac,
                                 schur=mac.grad_pairs(face_weight)
                                 - mac.gbar_pairs(e_g), load_u=load_u)
        self._bind_law(law, rate_coeff=params.alpha, arg_scale=1.0)

    def gap_norms(self, w: np.ndarray, w_orbit: np.ndarray) -> dict:
        """Macro H1, corrector and corrector-gradient norms (on the product
        domain) of the gaps between the rows of two (m, n_w) stacks of
        solutions, their jump norms and their stored energies: one column
        entry per row, from one stacked ``macro_fields`` call."""
        dw = w - w_orbit
        du, dc, _ = self._fields(dw, np.zeros(len(dw)))
        l2, grad = _macro_norms(self, du)
        cl2, cgrad = _corrector_norms(self, dc,
                                      dw.reshape(dc.shape[:2] + (-1,)))
        return {"norm_macro_h1": np.sqrt(l2 * l2 + grad * grad),
                "norm_corrector": cl2, "norm_corrector_grad": cgrad,
                "norm_jump": self.jump_norm(dw),
                "lyapunov": self.lyapunov(w, w_orbit)}

    # -- state reconstruction ---------------------------------------------

    def _fields(self, w: np.ndarray, drive: np.ndarray):
        """Macro potential, per-node correctors and node gradients of the
        jumps ``w`` at the drive factors ``drive``, one per jump vector;
        node j's corrector is -(x_g g_j + x_w w_j).  Any jump array goes
        through ``macro_fields`` as a stack of rows, and the fields keep
        the leading axes of ``w``: none for one jump vector, a sample axis
        for a stack."""
        lead = w.shape[:-1]
        ws = w.reshape(-1, w.shape[-1])
        macro, g = self.flux_map.macro_fields(ws, drive)
        wr = ws.reshape(len(ws), self.n_nodes, -1)
        corr = -(g @ self._x_g.T + wr @ self._x_w.T)
        return (macro.reshape(lead + macro.shape[1:]),
                corr.reshape(lead + corr.shape[1:]),
                g.reshape(lead + g.shape[1:]))

    def state_at(self, t: float | np.ndarray,
                 w: np.ndarray) -> "TwoScaleState":
        """The state of the jumps ``w`` at time ``t``.  A stack of jump
        vectors, one per row of ``w``, at the times ``t`` gives one state
        whose fields have a leading sample axis, with one mean defect per
        sample."""
        macro, corr, g = self._fields(w, self.drive_factors(t))
        means = self.cfd.vol * corr.sum(axis=-1)
        defect = np.max(np.abs(means), axis=-1, initial=0.0)
        corr -= means[..., None]
        wr, fl = w.reshape(corr.shape[:-1] + (-1,)), self.flux_map
        flux = -(wr @ fl.r_block + g @ fl.v.T) \
            / self.weights.reshape(wr.shape[-2:])
        return TwoScaleState(t=t, macro=macro, corrector=corr, jump=wr.copy(),
                             flux=flux, mean_defect=defect if w.ndim > 1
                             else float(defect))

    def mean_defects(self, ts: np.ndarray, jumps: np.ndarray) -> np.ndarray:
        """Corrector mean defect per sample, from one stacked ``state_at`` per
        chunk of ``SAMPLE_CHUNK`` samples."""
        return np.concatenate([
            self.state_at(ts[lo:lo + SAMPLE_CHUNK],
                          jumps[lo:lo + SAMPLE_CHUNK]).mean_defect
            for lo in range(0, len(ts), SAMPLE_CHUNK)])


@dataclass(frozen=True)
class TwoScaleState:
    """Macro potential, per-node zero-mean correctors, jumps and fluxes;
    a state of a stack of samples has a leading sample axis on each."""

    t: float | np.ndarray
    macro: np.ndarray
    corrector: np.ndarray
    jump: np.ndarray
    flux: np.ndarray
    mean_defect: float | np.ndarray


# a two-scale run, orbit and decay report come from the shared ``simulate``,
# ``find_periodic`` and ``decay_metrics``; these aliases go with the
# benchmark's next revision (ROADMAP item 1), their one caller
simulate_two_scale = simulate
find_periodic_two_scale = find_periodic
two_scale_decay_metrics = decay_metrics


def initial_two_scale_jump(system: TwoScaleSystem, kind: str, amplitude: float,
                           seed: int = 0) -> np.ndarray:
    """Built-in initial jump data on (macro node) x (cell facet)."""
    return jump_family(kind, system.macro.centers[:, 0], amplitude, seed=seed,
                       repeat=system.cfd.n_facets)


# -- norms --------------------------------------------------------------------

def _macro_norms(system: TwoScaleSystem, du: np.ndarray):
    """L2 and gradient norms of each row of a stack of macro fields."""
    mac = system.macro
    hdim = mac.spacing ** mac.dim
    l2 = np.sqrt(hdim * np.sum(du * du, axis=1))
    g = mac.grad @ du.T                                   # (faces, samples)
    acc = 0.0
    for qpat in itertools.product((0, 1), repeat=mac.dim):
        for d in range(mac.dim):
            gq = g[mac.side_of[:, d, qpat[d]]]
            acc += np.sum(gq * gq, axis=0)
    grad_sq = hdim / 2 ** mac.dim * acc
    return l2, np.sqrt(grad_sq)


def _corrector_norms(system: TwoScaleSystem, dc: np.ndarray, dw: np.ndarray):
    """L2 and gradient norms of each sample of a stack of per-node
    correctors ``dc`` (samples, nodes, cell) and jumps ``dw`` (samples,
    nodes, facets)."""
    cfd = system.cfd
    hdim = system.macro.spacing ** system.macro.dim
    l2 = np.sqrt(hdim * cfd.vol * np.sum(dc * dc, axis=(1, 2)))
    slopes = cfd.slope_c @ dc.reshape(-1, cfd.n_y).T \
        + cfd.slope_w @ dw.reshape(-1, cfd.n_facets).T   # (faces, cells)
    sq = np.sum(slopes * slopes, axis=0).reshape(dc.shape[:2])
    return l2, np.sqrt(hdim * cfd.vol * np.sum(sq, axis=1))


# -- comparison against the resolved solver ----------------------------------

def macro_on_fine_grid(system: TwoScaleSystem, state: TwoScaleState,
                       points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of the macro potential at arbitrary points.

    Knots are the macro cell centers extended by the Dirichlet values on the
    domain boundary, so the interpolant honors the boundary data.
    """
    from scipy.interpolate import RegularGridInterpolator

    mac = system.macro
    res, dim, h = mac.res, mac.dim, mac.spacing
    knots = np.concatenate([[0.0], (np.arange(res) + 0.5) * h, [1.0]])
    inner = (slice(1, -1),) * dim
    vals = np.empty((res + 2,) * dim)
    vals[inner] = state.macro.reshape((res,) * dim)
    edge = np.ones(vals.shape, dtype=bool)
    edge[inner] = False
    pts = np.column_stack([g[edge] for g in
                           np.meshgrid(*[knots] * dim, indexing="ij")])
    vals[edge] = system.drive.temporal(state.t) * system.drive.spatial(pts)
    interp = RegularGridInterpolator((knots,) * dim, vals, method="linear")
    return interp(points)


def micro_two_scale_gap(micro_system, micro_jump: np.ndarray,
                        system: TwoScaleSystem, state: TwoScaleState,
                        t: float) -> float:
    """Bulk L2 distance between a resolved solution and the macro potential."""
    dom = micro_system.domain
    u = micro_system.bulk_at(t, micro_jump)
    u_macro = macro_on_fine_grid(system, state, dom.centers)
    diff = u - u_macro
    return float(np.sqrt(dom.cell_volume * np.sum(diff * diff)))


# -- discrete weak-form certification ----------------------------------------

class _SampleGram:
    """S'S and S'l of the bulk samples S (a row per corner pattern, node
    and cell face) and their load l, by blocks, with no S formed.  A row's
    weight wt depends only on its cell face, and node j's corner patterns
    average its two side faces on each axis to its mean gradient Gbar_j,
    so with C = [slope_c | slope_w]:

    - the macro block is grad' diag(face weight) grad;
    - every node's (corrector, jump) block is the one cell-sized
      G_cc = 2^dim C' diag(wt) C, and no block couples two nodes;
    - the (macro, node j) block is Gbar_j' M, with M = 2^dim
      axis_select' diag(wt) C, dim x (n_y + n_facets);
    - S'l is grad' (face weight * grad load) on the macro rows and
      M' gbar_load_j on node j's rows."""

    def __init__(self, system: TwoScaleSystem):
        mac, cfd = system.macro, system.cfd
        c = sp.hstack([cfd.slope_c, cfd.slope_w], format="csr")
        wc = sp.diags(2 ** mac.dim * system.sample_weight) @ c
        self.cross = (cfd.axis_select.T @ wc).toarray()
        # node rows: [G_cc | M'] on node j's (cell, jump) parts over Gbar_j phi
        self.node = sp.hstack([c.T @ wc, sp.csr_matrix(self.cross.T)],
                              format="csr")
        self.system = system
        self.load_u = mac.grad.T @ (system.face_weight * mac.grad_load)

    def __call__(self, tests: Iterable[tuple], count: int):
        """S'S v and (S'l)·v for ``count`` (macro, cell, jump) tests v read
        one at a time from ``tests``: the macro rows (n_nodes, count) and
        node rows (n_y + n_facets, count, n_nodes) of S'S v, (S'l)·v and the
        test jumps (count, n_w)."""
        mac, n_y = self.system.macro, self.system.n_y
        n, dim, n_cell = mac.n_nodes, mac.dim, self.cross.shape[1]
        phi = np.empty((n, count))
        v = np.empty((n_cell + dim, count, n))
        for k, (phi_k, phic, phiw) in enumerate(tests):
            phi[:, k] = phi_k.reshape(-1)
            v[:n_y, k] = phic.reshape(n, -1).T
            v[n_y:n_cell, k] = phiw.reshape(n, -1).T
        v[n_cell:] = mac.gbar(phi).reshape(n, dim, -1).transpose(1, 2, 0)
        mv = (self.cross @ v[:n_cell].reshape(n_cell, -1)).reshape(dim, -1, n)
        z_u = mac.grad.T @ (self.system.face_weight[:, None]
                            * (mac.grad @ phi)) \
            + mac.gbar_t(mv.transpose(2, 0, 1).reshape(n * dim, -1))
        load = phi.T @ self.load_u + np.einsum(
            "dkj,jd->k", mv, mac.gbar_load.reshape(n, dim))
        z = (self.node @ v.reshape(len(v), -1)).reshape(n_cell, -1, n)
        return z_u, z, load, v[n_y:-dim].transpose(1, 2, 0).reshape(count, -1)


def _weak_sum(system: TwoScaleSystem, ts: np.ndarray, jumps: np.ndarray,
              test: Callable[[int, float], tuple], dt: float) -> float:
    """Steps 1..N of the discrete space-time weak form: bulk pairing and law
    at each step, with the time difference moved onto the test jump.

    The bulk pairing of the state x = (macro, correctors, jumps) at drive
    factor d with a zero-boundary test v is (S x + d l)·(S v) =
    x·(S'S v) + d (S'l)·v for the bulk samples S and their load l, through
    the blocks of S'S (``_SampleGram``).  The steps go in chunks of
    ``SAMPLE_CHUNK``; ``test`` is called once per step, and the sum holds
    one stacked chunk of tests and its Gram product.  One ``macro_fields``
    call gives the chunk's macro potentials and node gradients, and node
    j's corrector -(x_g g_j + x_w w_j) pairs through x_g and x_w."""
    gram = _SampleGram(system)
    # node j's (corrector, jump) parts from its (node gradient, jump) pair
    nf = system.cfd.n_facets
    lift = np.vstack([-np.hstack([system._x_g, system._x_w]),
                      np.eye(system.macro.dim + nf)[-nf:]])
    s2 = system.weights
    alpha = system.params.alpha
    total = 0.0
    phiw = test(0, float(ts[0]))[2].reshape(1, -1)
    for lo in range(1, len(ts), SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, len(ts))
        z_u, z, load, chunk_phiw = gram(
            (test(n, float(ts[n])) for n in range(lo, hi)), hi - lo)
        # the test jumps from the step before the chunk on
        phiw = np.concatenate([phiw[-1:], chunk_phiw])
        w = jumps[lo:hi]
        drive = system.drive_factors(ts[lo:hi])
        macro, g = system.flux_map.macro_fields(w, drive)
        # the chunk's (node gradient, jump) pairs in the layout of z
        gw = np.concatenate([g, w.reshape(g.shape[:2] + (-1,))],
                            axis=-1).transpose(2, 0, 1)
        bulk = (np.sum(z_u.T * macro) + drive @ load + np.sum(
            (lift.T @ z.reshape(len(z), -1)).reshape(gw.shape) * gw))
        del z, gw, chunk_phiw       # before the next chunk is stacked
        total += dt * float(bulk)
        total += dt * float(np.sum(s2 * system.law(w) * phiw[1:]))
        total -= alpha * float(np.sum(s2 * jumps[lo - 1:hi - 1]
                                      * np.diff(phiw, axis=0)))
    return total


def transient_weak_residual(system: TwoScaleSystem, traj: Trajectory,
                            test: Callable[[int, float], tuple]) -> float:
    """Residual of the discrete space-time weak form for one test pair.

    ``test(n, t)`` returns (macro part, cell part, jump part) at step ``n``;
    the jump part must vanish at the final step (the admissible test class),
    to 1e-12 of the largest jump part over the run, kept as a running
    maximum while the sum calls ``test``.
    The time derivative sits on the test jump, and the initial jump data
    enters through the boundary term of the summation by parts, mirroring
    the weak formulation the scheme discretizes.
    """
    if traj.stride != 1:
        raise ValueError("weak-form certification needs a stride-1 trajectory")
    scale = 0.0

    def tracked(n: int, t: float) -> tuple:
        nonlocal scale
        parts = test(n, t)
        scale = max(scale, float(np.max(np.abs(parts[2]), initial=0.0)))
        return parts

    total = _weak_sum(system, traj.ts, traj.jumps, tracked, system.params.dt)
    final_jump = np.max(np.abs(test(len(traj.ts) - 1, float(traj.ts[-1]))[2]),
                        initial=0.0)
    if final_jump > 1e-12 * max(scale, 1.0):
        raise ValueError("test jump part must vanish at the final time")
    first_jump = test(0, float(traj.ts[0]))[2].reshape(-1)
    return total - system.params.alpha * float(
        np.sum(system.weights * traj.jumps[0] * first_jump))


def periodic_weak_residual(system: TwoScaleSystem, orbit: PeriodicOrbit,
                           test: Callable[[int, float], tuple]) -> float:
    """Residual of the period-integrated weak form with 1-periodic tests.

    The test pair must agree at the two ends of the period to 1e-12 of its
    largest entry there (absolute below 1): the boundary term assumes
    equal test jumps at both ends."""
    n_steps = orbit.steps_per_period
    ts = np.arange(n_steps + 1) * orbit.dt
    first, last = test(0, float(ts[0])), test(n_steps, float(ts[-1]))
    scale = max(1.0, max(float(np.max(np.abs(p), initial=0.0))
                         for p in first + last))
    if not all(np.allclose(a, b, rtol=0.0, atol=1e-12 * scale)
               for a, b in zip(first, last)):
        raise ValueError("test pair must be 1-periodic")
    total = _weak_sum(system, ts, orbit.jumps, test, orbit.dt)
    # periodicity boundary term; bounded by the orbit defect
    return total + system.params.alpha * float(
        np.sum(system.weights * (orbit.jumps[-1] - orbit.jumps[0])
               * last[2].reshape(-1)))
