"""Dense reference implementations used as test oracles.

Everything here is assembled from first principles with plain loops and
solved with dense factorizations, independent of the production assembly
and Schur elimination paths.  The exception is ``dense_two_scale``: it
starts from the sample matrix of ``assemble_samples`` (checked against
loops by ``test_bulk_hessian_matches_dense_loops``) and eliminates the
whole stacked (macro, corrector) block at once, independent of the
per-node condensation.
``picard_orbit`` is the plain damped Picard iteration on the production
period map, the reference for the accelerated orbit solver.
``assemble_samples`` writes the bulk sample matrix S in one pass, the
reference for the blocks of S'S that the weak-form certificates pair
through, and ``per_step_weak_sum`` pairs every two-scale step with its test
through S itself, the reference for their chunked pairing.
``per_sample_mean_defects`` and ``per_sample_gap_columns`` rebuild one
trajectory sample at a time, the references for the stacked chunks of the
mean defects and decay rows.  ``per_step_energy_estimates`` sums the
orbit's energy bounds one step at a time, data terms included, the
reference for their closed form.  ``fit_growth_constants`` samples a law's
growth bound, the reference for the declared certificates of the built-in
laws.  ``per_pattern_samples`` is the per-pattern sample assembly, the
reference for that one pass; ``dense_gbar`` is the corner-averaged macro
gradient as a dense array, the reference for its stencil, and
``dense_schur`` and ``dense_capacitance`` are the dense macro-sized
matrices the two-scale system assembles in band storage;
``penalized_cell_solve`` pins the cell operator's constant mode
with a dense mean penalty instead of grounding.  ``corrector_for`` solves
one cell problem for one macro gradient and one cell's jumps, the reference
for the per-node correctors that the two-scale states rebuild from two
stored cell responses, and ``one_sided_membrane_fluxes`` takes a two-scale
state's membrane fluxes from either trace side, the continuity reference
for its flux.  ``dense_flux`` is either
system's flux map with its dense response, the reference for single steps
through ``dense_newton_step``.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tissue.errors import FixedPointError
from tissue.membrane import simulate
from tissue.micro import MicroSystem, sigma_gradient_energy
from tissue.periodic import PeriodicOrbit, poincare_map


def face_coefficient(dom, cond, face_idx: int) -> float:
    """Transmission coefficient of one interior face (flux integral per unit
    potential difference)."""
    faces = dom.faces
    h = dom.h
    s = h ** (dom.dim - 1)
    if faces.membrane[face_idx]:
        sig = 2.0 * cond.sigma_int * cond.sigma_out / (cond.sigma_int + cond.sigma_out)
    else:
        sig = cond.sigma_int if dom.inside[faces.cell_a[face_idx]] else cond.sigma_out
    return s * sig / h


def dense_bulk(dom, cond):
    """Dense A, B and facet coefficient vector from explicit loops."""
    n = dom.n_cells
    nf = dom.n_facets
    A = np.zeros((n, n))
    for i in range(len(dom.faces)):
        a = int(dom.faces.cell_a[i])
        b = int(dom.faces.cell_b[i])
        k = face_coefficient(dom, cond, i)
        A[a, a] += k
        A[b, b] += k
        A[a, b] -= k
        A[b, a] -= k
    s = dom.h ** (dom.dim - 1)
    k_bnd = 2.0 * cond.sigma_out * s / dom.h
    for i in range(len(dom.boundary)):
        c = int(dom.boundary.cell[i])
        A[c, c] += k_bnd
    B = np.zeros((n, nf))
    k_facet = np.zeros(nf)
    memb_faces = np.flatnonzero(dom.faces.membrane)
    for e in range(nf):
        k = face_coefficient(dom, cond, int(memb_faces[e]))
        k_facet[e] = k
        B[int(dom.facets.inner_cell[e]), e] = -k
        B[int(dom.facets.outer_cell[e]), e] = +k
    return A, B, k_facet, k_bnd


def dense_response(system):
    """Dense flux response diag(k) - B^T A^-1 B of a resolved system."""
    A, B, k_facet, _ = dense_bulk(system.domain, system.cond)
    return np.diag(k_facet) - B.T @ scipy.linalg.solve(A, B, assume_a="pos")


class CholeskyFactor:
    def __init__(self, mat: np.ndarray):
        self._cf = scipy.linalg.cho_factor(mat)

    def solve(self, r: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self._cf, r)


@dataclass(frozen=True)
class FluxResponse:
    """``FluxMap`` with the response R held as a dense matrix."""

    weights: np.ndarray
    response: np.ndarray
    load: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.response @ w

    def factor(self, d: np.ndarray) -> CholeskyFactor:
        mat = self.response.copy()
        mat[np.diag_indices_from(mat)] += d
        return CholeskyFactor(mat)


def dense_newton_step(flux: FluxResponse, law, rate_coeff: float,
                      arg_scale: float, w_prev: np.ndarray, drive: float,
                      dt: float, tol: float = 1e-14, max_iter: int = 100):
    """Implicit step by plain Newton with dense solves and halving line
    search on the 2-norm of the weighted residual

        weights (rate_coeff (w - w_prev)/dt + f(w/arg_scale)) + R w
            - drive load,

    iterated until the Newton update is below ``tol`` relative."""
    wts, resp = flux.weights, flux.response

    def resid(w):
        return (wts * (rate_coeff * (w - w_prev) / dt + law(w / arg_scale))
                + resp @ w - drive * flux.load)

    w = w_prev.copy()
    r = resid(w)
    for _ in range(max_iter):
        jac = resp + np.diag(wts * (rate_coeff / dt
                                    + law.deriv(w / arg_scale) / arg_scale))
        dw = np.linalg.solve(jac, -r)
        step_len = 1.0
        while True:
            r_try = resid(w + step_len * dw)
            if np.linalg.norm(r_try) < np.linalg.norm(r) or step_len < 1e-3:
                break
            step_len *= 0.5
        w, r = w + step_len * dw, r_try
        if np.max(np.abs(step_len * dw)) <= tol * max(1.0, np.max(np.abs(w))):
            return w
    raise RuntimeError("dense Newton reference did not converge")


def dense_lift(system):
    """Dense map from a jump vector to the bulk field it induces at zero
    boundary data: A^-1 B."""
    A, B, _, _ = dense_bulk(system.domain, system.cond)
    return scipy.linalg.solve(A, B, assume_a="pos")


def dense_boundary_load(dom, cond, drive, t: float, k_bnd: float) -> np.ndarray:
    rhs = np.zeros(dom.n_cells)
    vals = drive.values(dom.boundary.midpoint, t)
    for i in range(len(dom.boundary)):
        rhs[int(dom.boundary.cell[i])] += k_bnd * float(vals[i])
    return rhs


def dense_elliptic(dom, cond, drive, t: float, w: np.ndarray):
    """Direct dense solve of the bulk problem with a prescribed jump."""
    A, B, k_facet, k_bnd = dense_bulk(dom, cond)
    rhs = dense_boundary_load(dom, cond, drive, t, k_bnd) + B @ w
    u = scipy.linalg.solve(A, rhs, assume_a="pos")
    s = dom.facets.measure
    q = np.array([
        k_facet[e] * (u[int(dom.facets.outer_cell[e])]
                      - u[int(dom.facets.inner_cell[e])] - w[e]) / s
        for e in range(dom.n_facets)])
    return u, q


class DenseLinearStepper:
    """Monolithic dense backward-Euler stepper for a linear membrane law.

    Solves the coupled (bulk, jump) block system by one dense factorization;
    the production code eliminates the bulk first, so agreement is a real
    cross-check of both reductions.
    """

    def __init__(self, dom, cond, drive, params, kappa: float):
        self.dom = dom
        self.drive = drive
        self.params = params
        A, B, k_facet, k_bnd = dense_bulk(dom, cond)
        self.A, self.B, self.k_facet, self.k_bnd = A, B, k_facet, k_bnd
        n, nf = dom.n_cells, dom.n_facets
        s = dom.facets.measure
        eps = dom.epsilon
        dt = params.dt
        M = np.zeros((n + nf, n + nf))
        M[:n, :n] = A
        M[:n, n:] = -B
        # membrane rows: (a/dt + kappa/eps) w - q(u, w) = (a/dt) w_prev
        self.rate = params.alpha / eps / dt
        for e in range(nf):
            M[n + e, n + e] = self.rate + kappa / eps + k_facet[e] / s
            M[n + e, int(dom.facets.outer_cell[e])] -= k_facet[e] / s
            M[n + e, int(dom.facets.inner_cell[e])] += k_facet[e] / s
        self.lu = scipy.linalg.lu_factor(M)
        self.n = n
        self.nf = nf

    def step(self, t_next: float, w_prev: np.ndarray):
        rhs = np.zeros(self.n + self.nf)
        rhs[:self.n] = dense_boundary_load(self.dom, None, self.drive, t_next,
                                           self.k_bnd)
        rhs[self.n:] = self.rate * w_prev
        x = scipy.linalg.lu_solve(self.lu, rhs)
        return x[:self.n], x[self.n:]

    def run(self, w0: np.ndarray, n_steps: int):
        """Jump states at every step plus the final bulk field."""
        dt = self.params.dt
        ws = [w0.copy()]
        w = w0.copy()
        u = None
        for k in range(n_steps):
            u, w = self.step((k + 1) * dt, w)
            ws.append(w.copy())
        return np.asarray(ws), u

    def affine_period_map(self, n_steps: int):
        """Monodromy matrix and offset of the one-period jump map."""
        nf = self.nf
        dt = self.params.dt
        mat = np.eye(nf)
        off = np.zeros(nf)
        for k in range(n_steps):
            t = (k + 1) * dt
            rhs = np.zeros((self.n + self.nf, nf + 1))
            rhs[:self.n, -1] = dense_boundary_load(self.dom, None, self.drive,
                                                   t, self.k_bnd)
            rhs[self.n:, :nf] = self.rate * mat
            rhs[self.n:, -1] += self.rate * off
            x = scipy.linalg.lu_solve(self.lu, rhs)
            mat = x[self.n:, :nf]
            off = x[self.n:, -1]
        return mat, off


def dense_sigma_gradient_energy(dom, cond, u, w, bvals) -> float:
    """Face-by-face conductivity-weighted gradient energy, plain loops."""
    total = 0.0
    h = dom.h
    s = h ** (dom.dim - 1)
    memb_faces = np.flatnonzero(dom.faces.membrane)
    facet_of_face = {int(f): e for e, f in enumerate(memb_faces)}
    for i in range(len(dom.faces)):
        a = int(dom.faces.cell_a[i])
        b = int(dom.faces.cell_b[i])
        du = u[b] - u[a]
        if dom.faces.membrane[i]:
            e = facet_of_face[i]
            sign = 1.0 if dom.inside[a] else -1.0
            du -= sign * w[e]
            sig = 2 * cond.sigma_int * cond.sigma_out / (cond.sigma_int + cond.sigma_out)
        else:
            sig = cond.sigma_int if dom.inside[a] else cond.sigma_out
        total += s * h * sig * (du / h) ** 2
    for i in range(len(dom.boundary)):
        c = int(dom.boundary.cell[i])
        bv = 0.0 if bvals is None else float(bvals[i])
        du = (bv - u[c]) / (0.5 * h)
        total += s * 0.5 * h * cond.sigma_out * du * du
    return total


# -- dense two-scale assembly -------------------------------------------------

class DenseTwoScale:
    """Dense Hessian of the two-scale bulk energy, assembled by loops.

    Unknown layout matches the production system: [macro, correctors, jumps].
    ``hessian`` is the quadratic form, ``load`` the linear part per unit
    drive factor (so the bulk equations are H x + drive * load = 0 plus the
    membrane mass and law terms on the jump block).
    """

    def __init__(self, system):
        import itertools

        self.system = system
        mac = system.macro
        cfd = system.cfd
        dim = mac.dim
        n_nodes = mac.n_nodes
        n_y = cfd.n_y
        n_cf = cfd.n_facets
        n_tot = n_nodes + n_nodes * n_y + n_nodes * n_cf
        rows = []
        loads = []
        grad = mac.grad.toarray()
        cell = system.cell
        faces = cell.faces
        memb_faces = list(np.flatnonzero(faces.membrane))
        weight = mac.spacing ** dim / 2 ** dim
        for j in range(n_nodes):
            for qpat in itertools.product((0, 1), repeat=dim):
                for phi in range(cfd.n_faces):
                    d = int(faces.axis[phi])
                    face = int(mac.side_of[j, d, qpat[d]])
                    row = np.zeros(n_tot)
                    row[:n_nodes] = grad[face]
                    load = float(mac.grad_load[face])
                    a = int(faces.cell_a[phi])
                    b = int(faces.cell_b[phi])
                    row[n_nodes + j * n_y + a] -= 1.0 / cfd.spacing
                    row[n_nodes + j * n_y + b] += 1.0 / cfd.spacing
                    if faces.membrane[phi]:
                        e = memb_faces.index(phi)
                        sign = 1.0 if cell.inside[a] else -1.0
                        row[n_nodes + n_nodes * n_y + j * n_cf + e] -= \
                            sign / cfd.spacing
                    sw = np.sqrt(weight * cfd.vol * float(cfd.sigma_face[phi]))
                    rows.append(sw * row)
                    loads.append(sw * load)
        T = np.asarray(rows)
        tl = np.asarray(loads)
        self.hessian = T.T @ T
        self.load = T.T @ tl
        self.n_nodes = n_nodes
        self.n_y = n_y
        self.n_cf = n_cf
        self.n_tot = n_tot

    def linear_step_matrix(self, kappa: float):
        """Dense monolithic matrix of one implicit step for a linear law."""
        sys = self.system
        p = sys.params
        n_nodes, n_y, n_cf = self.n_nodes, self.n_y, self.n_cf
        nz = n_nodes + n_nodes * n_y
        M = self.hessian.copy()
        s2 = sys.weights
        for i in range(n_nodes * n_cf):
            M[nz + i, nz + i] += s2[i] * (p.alpha / p.dt + kappa)
        # pin the per-node corrector means (zero-mean constraint)
        for j in range(n_nodes):
            mean_row = np.zeros(self.n_tot)
            mean_row[n_nodes + j * n_y: n_nodes + (j + 1) * n_y] = \
                self.system.cfd.vol
            M += sys.cond.mean * sys.macro.spacing ** sys.macro.dim * \
                np.outer(mean_row, mean_row)
        return M

    def step(self, kappa: float, w_prev: np.ndarray, t_next: float):
        sys = self.system
        p = sys.params
        nz = self.n_nodes + self.n_nodes * self.n_y
        M = self.linear_step_matrix(kappa)
        rhs = -sys.drive.temporal(t_next) * self.load
        rhs[nz:] += sys.weights * (p.alpha / p.dt) * w_prev
        x = scipy.linalg.solve(M, rhs)
        return x[:self.n_nodes], \
            x[self.n_nodes:nz].reshape(self.n_nodes, self.n_y), x[nz:]


def dense_two_scale(system):
    """Stacked elimination of the two-scale bulk: the Gram matrix of the
    samples, the per-node mean penalty and one sparse factorization of the
    whole (macro, correctors) block, solved against every jump column.

    Returns the dense response and load of the production flux map, and the
    jump lift and drive lift of the (macro, corrector) block that
    ``TwoScaleSystem.state_at`` applies without forming them.
    """
    n_nodes, n_y = system.n_nodes, system.n_y
    n_z = n_nodes + n_nodes * n_y
    iz, iw = np.arange(n_z), np.arange(n_z, n_z + system.n_w)
    samples, sample_load, _ = assemble_samples(system)
    gram = (samples.T @ samples).tocsc()
    k_zz, k_zw = gram[iz][:, iz], gram[iz][:, iw]
    k_ww = gram[iw][:, iw]
    rhs = samples.T @ sample_load
    r_z, r_w = rhs[iz], rhs[iw]
    # exact mean penalty: loads are orthogonal to per-node constants
    mean_rows = sp.kron(sp.eye(n_nodes),
                        sp.csr_matrix(np.full((1, n_y), system.cfd.vol)))
    mean_rows = sp.hstack([sp.csr_matrix((n_nodes, n_nodes)), mean_rows])
    pen = system.cond.mean * system.macro.spacing ** system.macro.dim \
        * (mean_rows.T @ mean_rows)
    lu = spla.splu((k_zz + pen).tocsc())
    lift_jump = -lu.solve(k_zw.toarray())
    lift_drive = -lu.solve(r_z)
    response = k_ww.toarray() + k_zw.T @ lift_jump
    return types.SimpleNamespace(
        response=0.5 * (response + response.T),
        load=-(k_zw.T @ lift_drive + r_w),
        lift_jump=lift_jump, lift_drive=lift_drive)


def dense_flux(system) -> FluxResponse:
    """Either system's flux map with a dense response: ``dense_response``
    on a resolved system, ``dense_two_scale`` on a two-scale one."""
    if isinstance(system, MicroSystem):
        return FluxResponse(system.weights, dense_response(system),
                            system.flux_map.load)
    dense = dense_two_scale(system)
    return FluxResponse(system.weights, dense.response, dense.load)


def _padded_rows(m: sp.csr_matrix):
    """Columns and values of each row of a canonical CSR matrix, in column
    order and padded with zeros to the longest row, and the mask of the
    stored ones."""
    counts = np.diff(m.indptr)
    stored = np.arange(counts.max(initial=0)) < counts[:, None]
    cols = np.zeros(stored.shape, dtype=m.indices.dtype)
    vals = np.zeros(stored.shape)
    cols[stored], vals[stored] = m.indices, m.data
    return cols, vals, stored


def assemble_samples(system):
    """The bulk sample matrix S, its load l per unit drive and the summed
    sample weight of every macro face, in one pass: the reference for the
    blocks of S'S and S'l that the weak-form certificates pair through.

    Row (q, j, f) samples cell face f of node j at corner pattern q (in
    ``itertools.product`` order): sqrt(weight_f) times the macro gradient
    on f's axis at q's side there, plus f's slope (``slope_c``) and jump
    correction (``slope_w``) in node j's cell block.  Each part fills its
    slots of one padded array per CSR field from the padded rows of its
    operator, in column order, so the CSR arrays are written directly.
    A macro face's weight sums weight_f over the rows that sample it, so
    the macro block of the Gram matrix is grad' diag(face weight) grad."""
    import itertools

    macro, cfd = system.macro, system.cfd
    n, n_y, nf, dim = macro.n_nodes, cfd.n_y, cfd.n_facets, macro.dim
    weight = macro.spacing ** dim / 2 ** dim * cfd.vol * cfd.sigma_face
    n_cols = n + n * (n_y + nf)
    index = np.int32 if n_cols <= np.iinfo(np.int32).max else np.int64
    sqrt_w = np.sqrt(weight)
    pats = np.array(list(itertools.product((0, 1), repeat=dim)))
    # the macro face each pattern samples on each axis of each node, and
    # the one of each row, shape (patterns, nodes, cell faces)
    sides = macro.side_of[np.arange(n)[:, None], np.arange(dim),
                          pats[:, None, :]]
    fidx = sides[:, :, cfd.axis]
    (gc, gv, gs), *cell_parts = (_padded_rows(m) for m in
                                 (macro.grad, cfd.slope_c, cfd.slope_w))
    width = gc.shape[1] + sum(c.shape[1] for c, _, _ in cell_parts)
    cols = np.empty(fidx.shape + (width,), dtype=index)
    vals = np.empty(cols.shape)
    stored = np.empty(cols.shape, dtype=bool)
    k = gc.shape[1]
    for out, part in zip((cols, vals, stored), (gc, gv, gs)):
        np.take(part, fidx, axis=0, out=out[..., :k], mode="clip")
    vals[..., :k] *= sqrt_w[:, None]
    node = np.arange(n, dtype=index)[:, None, None]
    for (c, v, s), offset in zip(cell_parts, (n + node * n_y,
                                              n + n * n_y + node * nf)):
        part = slice(k, k + c.shape[1])
        cols[..., part], vals[..., part] = offset + c, v * sqrt_w[:, None]
        stored[..., part] = s
        k = part.stop
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=-1).reshape(-1))])
    samples = sp.csr_matrix((vals[stored], cols[stored], indptr),
                            shape=(fidx.size, n_cols))
    load = (sqrt_w * macro.grad_load[fidx]).reshape(-1)
    # each pattern samples a node's face on axis d once per cell face on d
    face_weight = np.bincount(
        sides.reshape(-1),
        np.tile(np.bincount(cfd.axis, weight, minlength=dim), sides.size // dim),
        minlength=macro.grad.shape[0])
    return samples, load, face_weight


def per_pattern_samples(system):
    """The bulk sample matrix and its load assembled one macro corner
    pattern at a time (row selection of the macro gradients, ``kron`` of
    the cell slopes, ``hstack``, ``diags`` and ``vstack``), the reference
    for the one-pass assembly of ``assemble_samples``."""
    import itertools

    macro, cfd = system.macro, system.cfd
    dim, n_nodes = macro.dim, macro.n_nodes
    sqrt_w = np.sqrt(macro.spacing ** dim / 2 ** dim * cfd.vol
                     * cfd.sigma_face)
    sqrt_w_tiled = np.tile(sqrt_w, n_nodes)
    eye_nodes = sp.eye(n_nodes, format="csr")
    t_c = sp.kron(eye_nodes, cfd.slope_c, format="csr")
    t_w = sp.kron(eye_nodes, cfd.slope_w, format="csr")
    blocks, loads = [], []
    n_rows = n_nodes * cfd.n_faces
    row_ids = np.arange(n_rows)
    yaxis_tiled = np.tile(cfd.axis, n_nodes)
    node_ids = np.repeat(np.arange(n_nodes), cfd.n_faces)
    for qpat in itertools.product((0, 1), repeat=dim):
        sides = np.asarray(qpat)[yaxis_tiled]
        fidx = macro.side_of[node_ids, yaxis_tiled, sides]
        rowsel = sp.coo_matrix((np.ones(n_rows), (row_ids, fidx)),
                               shape=(n_rows, macro.grad.shape[0])).tocsr()
        tq = sp.hstack([rowsel @ macro.grad, t_c, t_w], format="csr")
        blocks.append(sp.diags(sqrt_w_tiled) @ tq)
        loads.append(sqrt_w_tiled * (rowsel @ macro.grad_load))
    return sp.vstack(blocks, format="csr"), np.concatenate(loads)


def dense_gbar(macro) -> tuple[np.ndarray, np.ndarray]:
    """The corner-averaged gradient Gbar (row j * dim + d, the mean of node
    j's two side faces on axis d) as a dense array from the face gradients,
    and its boundary load per unit drive: the reference for the two-point
    stencil of ``MacroGrid``."""
    sides = macro.side_of.reshape(-1, 2)
    grad = macro.grad.toarray()
    return (0.5 * (grad[sides[:, 0]] + grad[sides[:, 1]]),
            0.5 * (macro.grad_load[sides[:, 0]]
                   + macro.grad_load[sides[:, 1]]))


def minus_node_blocks(base: np.ndarray, gbar: np.ndarray,
                      blocks: np.ndarray) -> np.ndarray:
    """base - Gbar' blockdiag(M_j) Gbar for (dim x dim) node blocks M_j,
    one per node or one shared by every node, with dense products."""
    n, dim = base.shape[0], gbar.shape[0] // base.shape[0]
    gr = gbar.reshape(n, dim, n)
    m = np.einsum("nik,nkm->nim", np.broadcast_to(blocks, (n, dim, dim)), gr)
    return base - gbar.T @ m.reshape(n * dim, n)


def penalized_cell_solve(op, rhs: np.ndarray) -> np.ndarray:
    """Solve of the cell operator pinned by the exact mean penalty
    A + mean(sigma) v v' (v the cell volumes), a dense matrix factored by
    SuperLU: the reference for the grounded solve of ``CellOperator``."""
    d = op.data
    ones = np.full(d.n_y, d.vol)
    pen = op.cond.mean * np.outer(ones, ones)
    return spla.splu(op.A + sp.csc_matrix(pen)).solve(rhs)


def corrector_for(op, gradient: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-mean corrector of the cell operator ``op`` for one macro
    gradient and one cell's membrane jumps, from one grounded cell solve of
    its own face drive: the reference for the per-node correctors that
    ``TwoScaleSystem`` rebuilds from its two stored cell responses."""
    d = op.data
    face_drive = d.axis_select @ np.asarray(gradient, dtype=float) \
        + d.slope_w @ w
    return op.solve(-d.slope_c.T @ (d.vol * d.sigma_face * face_drive))


def one_sided_membrane_fluxes(system, state):
    """Per-facet membrane fluxes of a two-scale state, one from each trace
    side, with the node gradients from the dense Gbar: the continuity
    reference for the state's flux."""
    cfd = system.cfd
    si, so = system.cond.sigma_int, system.cond.sigma_out
    half = 0.5 * cfd.spacing
    gbar, gbar_load = dense_gbar(system.macro)
    grads = (gbar @ state.macro + system.drive.temporal(state.t)
             * gbar_load).reshape(system.n_nodes, -1)
    facets = system.cell.facets
    w = state.jump
    gd = grads[:, facets.axis] * facets.sign
    c_in = state.corrector[:, facets.inner_cell]
    c_out = state.corrector[:, facets.outer_cell]
    trace_in = ((so - si) * gd * half + si * c_in
                + so * (c_out - w)) / (si + so)
    q_in = si * (gd + (trace_in - c_in) / half)
    q_out = so * (gd + (c_out - trace_in - w) / half)
    return q_in, q_out


def cell_responses(system, solve=penalized_cell_solve):
    """The cell solves x_g, x_w of unit macro gradients and unit jumps and
    the macro gradient block e_g of their energy, as ``TwoScaleSystem``
    forms them, with the cell solve ``solve(op, rhs)``."""
    cfd, dim = system.cfd, system.macro.dim
    drives = sp.hstack([cfd.axis_select, cfd.slope_w]).toarray()
    rhs = cfd.slope_c.T @ ((cfd.vol * cfd.sigma_face)[:, None] * drives)
    x = solve(system.cell_op, rhs)
    cross = system.macro.spacing ** dim * (rhs[:, :dim].T @ x[:, :dim])
    return x[:, :dim], x[:, dim:], 0.5 * (cross + cross.T)


def dense_schur(system) -> np.ndarray:
    """The macro Schur complement K_uu - Gbar' (I x e_g) Gbar as dense
    products: K_uu from the macro columns of the per-pattern samples, e_g
    from the system's own cell solves."""
    t_macro = per_pattern_samples(system)[0][:, :system.n_nodes]
    e_g = cell_responses(system, lambda op, rhs: op.solve(rhs))[2]
    return minus_node_blocks((t_macro.T @ t_macro).toarray(),
                             dense_gbar(system.macro)[0], e_g)


def dense_capacitance(system, factor) -> np.ndarray:
    """A pass factor's capacitance matrix S - Gbar' blockdiag(V' B_j^-1 V)
    Gbar as dense products, from the dense Schur complement."""
    return minus_node_blocks(dense_schur(system), dense_gbar(system.macro)[0],
                             system.flux_map.v.T @ factor.bv)


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    """The symmetric matrix of LAPACK lower band storage ``ab``."""
    n = ab.shape[1]
    full = np.zeros((n, n))
    for k, diag in enumerate(ab):
        full += np.diag(diag[:n - k], -k)
    return full + np.tril(full, -1).T


def per_step_weak_sum(system, ts, jumps, test, dt) -> float:
    """``twoscale._weak_sum`` one step at a time: the state (macro,
    correctors, jumps) of each step is recovered on its own and paired with
    its test through the samples, (S x + drive l)·(S v)."""
    tests = [test(n, float(t)) for n, t in enumerate(ts)]
    samples, sample_load, _ = assemble_samples(system)
    s2 = system.weights
    alpha = system.params.alpha
    total = 0.0
    for n in range(1, len(ts)):
        phi, phic, phiw = tests[n]
        t = float(ts[n])
        st = system.state_at(t, jumps[n])
        x = np.concatenate([st.macro, st.corrector.reshape(-1), jumps[n]])
        v = np.concatenate([phi.reshape(-1), phic.reshape(-1),
                            phiw.reshape(-1)])
        vals = samples @ x + system.drive.temporal(t) * sample_load
        total += dt * float(vals @ (samples @ v))
        total += dt * float(np.sum(s2 * system.law(jumps[n])
                                   * phiw.reshape(-1)))
        dphi = phiw.reshape(-1) - tests[n - 1][2].reshape(-1)
        total -= alpha * float(np.sum(s2 * jumps[n - 1] * dphi))
    return total


def per_sample_mean_defects(traj) -> np.ndarray:
    """Corrector mean defect of each sample of a two-scale run, from one
    ``state_at`` per sample."""
    return np.array([traj.state(i).mean_defect for i in range(len(traj))])


def per_sample_gap_columns(traj, orbit) -> dict:
    """``decay_metrics`` columns from one ``gap_norms`` call per sample (a
    stack of one) against the orbit jump at the sample's step."""
    system = traj.system
    dt = system.params.dt
    rows = [system.gap_norms(w[None],
                             orbit.jump_at_step(int(round(t / dt)))[None])
            for t, w in zip(traj.ts, traj.jumps)]
    return {name: np.concatenate([row[name] for row in rows])
            for name in rows[0]}



def per_step_energy_estimates(orbit, system) -> dict:
    """``verify_energy_estimates`` with every term summed step by step,
    the data gradient included: the reference for its closed-form data
    terms and whole-orbit jump sums."""
    cert = system.law.certificate
    lam_q, lam_a = cert.growth_quad, cert.growth_abs
    dom, cond, drive = system.domain, system.cond, system.drive
    dt, eps, s = orbit.dt, dom.epsilon, system.weights
    sig_cells = np.where(dom.inside, cond.sigma_int, cond.sigma_out)
    grad_u = jump_sq = rate_sq = data_grad = data_grad_rate = 0.0
    for k in range(1, orbit.steps_per_period + 1):
        t = k * dt
        w = orbit.jumps[k]
        u = system.bulk_at(t, w)
        bvals = drive.values(dom.boundary.midpoint, t)
        grad_u += dt * 0.5 * sigma_gradient_energy(dom, cond, u, w, bvals)
        jump_sq += dt * np.sum(s * w * w)
        dw = (orbit.jumps[k] - orbit.jumps[k - 1]) / dt
        rate_sq += dt * np.sum(s * dw * dw)
        g = drive.spatial_gradient(dom.centers) * drive.temporal(t)
        data_grad += dt * 0.5 * dom.cell_volume * float(
            np.sum(sig_cells * np.sum(g * g, axis=1)))
        gr = drive.spatial_gradient(dom.centers) * drive.temporal_rate(t)
        data_grad_rate += dt * 0.5 * dom.cell_volume * float(
            np.sum(sig_cells * np.sum(gr * gr, axis=1)))
    slack = eps / (2.0 * lam_q) * lam_a ** 2 * dom.memb_measure
    lhs_grad = grad_u + lam_q / (2.0 * eps) * jump_sq
    rhs_grad = data_grad + slack
    lhs_rate = system.params.alpha / (2.0 * eps) * rate_sq
    rhs_rate = data_grad_rate + data_grad + slack
    grad_ok = lhs_grad <= rhs_grad + 1e-12
    rate_ok = lhs_rate <= rhs_rate + 1e-12
    return {
        "growth_quad": lam_q,
        "growth_abs": lam_a,
        "gradient_bound": {"lhs": lhs_grad, "rhs": rhs_grad,
                           "margin": rhs_grad - lhs_grad, "passed": grad_ok},
        "rate_bound": {"lhs": lhs_rate, "rhs": rhs_rate,
                       "margin": rhs_rate - lhs_rate, "passed": rate_ok},
        "passed": bool(grad_ok and rate_ok),
    }

# -- dense decay constants ------------------------------------------------------

def _gradient_matrix(system) -> np.ndarray:
    """Dense map from a jump gap to the weighted face slopes of its bulk lift.

    Rows are scaled so the squared 2-norm of the image equals the squared
    gradient norm of the difference field (zero Dirichlet data).
    """
    dom = system.domain
    faces = dom.faces
    h = dom.h
    s_face = h ** (dom.dim - 1)
    uw = dense_lift(system)
    nf = dom.n_facets
    du = uw[faces.cell_b] - uw[faces.cell_a]
    memb = np.flatnonzero(faces.membrane)
    sign = np.where(faces.a_inside[memb], 1.0, -1.0)
    du[memb, np.arange(nf)] -= sign
    rows_int = np.sqrt(s_face * h) * du / h
    bnd = dom.boundary
    rows_bnd = np.sqrt(s_face * 0.5 * h) * (-uw[bnd.cell]) / (0.5 * h)
    return np.vstack([rows_int, rows_bnd])


def elliptic_stability_constant(system) -> float:
    """Largest gradient norm of the bulk lift per unit jump norm.

    Measured exactly on the grid via the top singular value of the lift map;
    gives the constant in gradient-norm <= C * jump-norm for differences of
    solutions with equal boundary data.
    """
    g = _gradient_matrix(system)
    scale = np.sqrt(system.weights)
    gs = g / scale[None, :]
    m = gs.T @ gs
    return float(np.sqrt(max(scipy.linalg.eigvalsh(m)[-1], 0.0)))


def poincare_constant(system) -> float:
    """Largest bulk norm per unit of (gradient norm + jump norm), measured
    as a generalized eigenvalue on the jump-gap space."""
    dom = system.domain
    uw = dense_lift(system)
    num = uw.T @ (dom.cell_volume * uw)
    g = _gradient_matrix(system)
    den = g.T @ g + np.diag(system.weights)
    lam = scipy.linalg.eigh(num, den, eigvals_only=True)[-1]
    return float(np.sqrt(max(lam, 0.0)))


def picard_orbit(system, tol: float = 1e-8, max_iters: int = 500,
                 theta: float = 1.0, w0=None):
    """Periodic orbit by plain damped Picard iteration on the period map.

    Iterates w <- (1 - theta) w + theta P(w) until |P(w) - w| <= tol, with
    the production loop's stall rule (theta halves at most once per 20
    iterations while the defect drops by less than 0.1% over the last 20),
    then runs the converged period again to record the orbit.  Raises
    ``FixedPointError`` with the defects when ``max_iters`` runs out.
    """
    w = np.zeros(system.weights.size) if w0 is None else w0.copy()
    defects = []
    window_start = 0
    for it in range(max_iters):
        pw = poincare_map(system, w)
        defect = system.jump_norm(pw - w)
        defects.append(defect)
        if defect <= tol:
            return PeriodicOrbit(jumps=simulate(system, w, 1.0).jumps,
                                 dt=system.params.dt, defect=defect,
                                 iterations=it + 1)
        if it - window_start >= 20 and defects[-1] > 0.999 * defects[-21]:
            theta = max(theta / 2.0, 1.0 / 64.0)
            window_start = it
        w = (1.0 - theta) * w + theta * pw
    raise FixedPointError(
        f"no periodic orbit within {max_iters} iterations "
        f"(last defect {defects[-1]:.3e})", defects=defects)


def fit_growth_constants(fn, s_max: float = 50.0,
                         n_samples: int = 10001) -> tuple[float, float]:
    """Fit the lower growth bound ``f(s) s >= q s^2 - a |s|`` on samples.

    For a strictly increasing law vanishing at zero the secant ``f(s)/s`` is
    positive, so the largest quadratic coefficient needing no linear slack
    is ``min f(s)/s``.  On a grid that minimum can only overestimate the
    infimum over all s: by the grid's resolution where the secant is
    smallest inside the range, and by the unsampled tail where it is
    smallest beyond it.
    """
    s = np.linspace(-s_max, s_max, n_samples)
    s = s[np.abs(s) > 1e-9]
    return float(np.min(np.asarray(fn(s), dtype=float) / s)), 0.0
