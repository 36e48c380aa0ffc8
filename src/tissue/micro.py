"""Resolved-microstructure solver: quasi-static bulk conduction coupled to
the dynamic membrane condition on the tiled membrane.

Finite volumes on the fitted grid.  Bulk unknowns are cell averages; each
membrane facet carries a jump unknown and its two trace values follow from
the facet-local flux-continuity elimination, which keeps the bulk operator
symmetric positive definite.  Time stepping is backward Euler on the jump
vector, iterated by the shared stepper.  The bulk stays a sparse operator
with one assembly, ``BulkOperator.matrix``, from a vector of face
conductances: the bulk matrix is that assembly at the face conductances,
and a factor of the stepper's matrix is the same assembly with the
membrane diagonal condensed into series face conductances, so one sparse
factorization of bulk size solves it; the jump update follows facet by
facet.  No facet-sized dense matrix is formed.  Every per-sample reader
(the CSV rows, the orbit's energy check, the decay gaps) reconstructs the
bulk of a stack of jump vectors through ``MicroSystem.bulk_norms`` or its
chunks: one multi-column solve per ``SAMPLE_CHUNK`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveError
from .geometry import Conductivity, EpsilonDomain
from .membrane import (SAMPLE_CHUNK, MembraneSystem, SolverParams,
                       jump_family, simulate, step)
from .nonlinearity import BoundaryData, Nonlinearity
from .periodic import PeriodicOrbit

__all__ = [
    "SolverParams", "BulkOperator", "SeriesFlux", "MicroState", "MicroSystem",
    "elliptic_solve_given_jump", "step", "simulate", "initial_jump",
    "dissipation_identity", "verify_energy_estimates", "bulk_l2",
    "gradient_l2", "sigma_gradient_energy",
]


class _TransposedLU:
    """SuperLU factor of a symmetric matrix, solved through the transpose."""

    __slots__ = ("lu",)

    def __init__(self, lu: spla.SuperLU):
        self.lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs, trans="T")


def _splu(matrix: sp.csc_matrix) -> _TransposedLU:
    """SuperLU factor of a symmetric bulk matrix: minimum degree on A^T + A
    (about half the fill of the default COLAMD) and single-column
    supernodes (larger relaxed supernodes and panels cost more than they
    save on these 2D grid matrices).  An exactly singular matrix raises
    LinAlgError.

    Every matrix factored here is exactly symmetric (``BulkOperator.matrix``
    writes each face's conductance at (a, b) and at (b, a)), so A^T x = b
    is the same system, and the factor's one solve is SuperLU's transposed
    solve.  With one right-hand side it is the faster one: 30 against 41 us
    at 1,024 cells, 127 against 164 us at 4,096, 0.79 against 0.93 ms at
    16,384 and 7.6 against 8.1 ms at 65,536 (medians of interleaved runs,
    one OpenBLAS thread).  On a stack of 16 columns (a chunk of
    ``bulk_norms``) the two are level up to 4,096 cells, and the transposed
    solve is 4-13% slower at 16,384 and 19% at 65,536."""
    try:
        return _TransposedLU(spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                                       relax=1, panel_size=1))
    except RuntimeError as exc:     # SuperLU: exactly singular
        raise np.linalg.LinAlgError(str(exc)) from exc


class BulkOperator:
    """Assembled bulk conduction operator with facet and boundary couplings.

    Row convention: ``A u = boundary_load + B w`` where ``w`` is the jump
    vector.  ``A`` is symmetric positive definite; membrane faces use the
    series (harmonic) conductivity of the two half cells.
    """

    def __init__(self, domain: EpsilonDomain, cond: Conductivity):
        self.domain = domain
        self.cond = cond
        dim = domain.dim
        h = domain.h
        s_face = h ** (dim - 1)
        faces = domain.faces
        facets = domain.facets

        self.k_face = cond.on_faces(domain.inside, faces) * s_face / h
        self.k_boundary = 2.0 * cond.sigma_out * s_face / h
        self.A = self.matrix(self.k_face)
        self.lu = _splu(self.A)

        # jump coupling: -k on the inner-cell row, +k on the outer-cell row;
        # the geometry enumerates membrane faces in facet order
        self.k_facet = self.k_face[faces.membrane]
        nf = len(facets)
        self.B = sp.coo_matrix(
            (np.concatenate([-self.k_facet, self.k_facet]),
             (np.concatenate([facets.inner_cell, facets.outer_cell]),
              np.concatenate([np.arange(nf), np.arange(nf)]))),
            shape=(domain.n_cells, nf)).tocsc()

    def matrix(self, k_face: np.ndarray) -> sp.csc_matrix:
        """The bulk matrix with face conductances ``k_face`` (one per
        interior face) and the Dirichlet boundary conductance."""
        a, b = self.domain.faces.cell_a, self.domain.faces.cell_b
        bnd = self.domain.boundary.cell
        n = self.domain.n_cells
        return sp.coo_matrix(
            (np.concatenate([k_face, k_face, -k_face, -k_face,
                             np.full(len(bnd), self.k_boundary)]),
             (np.concatenate([a, b, a, b, bnd]),
              np.concatenate([a, b, b, a, bnd]))),
            shape=(n, n)).tocsc()

    def lift(self, w: np.ndarray) -> np.ndarray:
        """Bulk field of the jump vector ``w`` at zero boundary data."""
        return self.lu.solve(self.B @ w)

    def boundary_load(self, boundary_values: np.ndarray) -> np.ndarray:
        rhs = np.zeros(self.domain.n_cells)
        np.add.at(rhs, self.domain.boundary.cell,
                  self.k_boundary * boundary_values)
        return rhs

    def solve(self, w: np.ndarray, boundary_values: np.ndarray,
              tol: float = 1e-10) -> np.ndarray:
        rhs = self.boundary_load(boundary_values) + self.B @ w
        u = self.lu.solve(rhs)
        res = float(np.linalg.norm(self.A @ u - rhs))
        ref = max(float(np.linalg.norm(rhs)), 1e-30)
        if res > tol * max(ref, 1.0):
            raise LinearSolveError(
                f"bulk solve residual {res:.3e} exceeds tolerance", [res])
        return u

    def flux_density(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Membrane normal flux per facet, from the eliminated traces."""
        f = self.domain.facets
        s = f.measure
        return self.k_facet * (u[f.outer_cell] - u[f.inner_cell] - w) / s

    def traces(self, u: np.ndarray, w: np.ndarray):
        f = self.domain.facets
        si, so = self.cond.sigma_int, self.cond.sigma_out
        inner = (si * u[f.inner_cell] + so * (u[f.outer_cell] - w)) / (si + so)
        return inner, inner + w

    def one_sided_fluxes(self, u: np.ndarray, w: np.ndarray):
        f = self.domain.facets
        half = 0.5 * self.domain.h
        t_in, t_out = self.traces(u, w)
        q_in = self.cond.sigma_int * (t_in - u[f.inner_cell]) / half
        q_out = self.cond.sigma_out * (u[f.outer_cell] - t_out) / half
        return q_in, q_out


class SeriesFlux:
    """Flux map of the jump vector with the bulk kept sparse.

    The response is R = diag(k) - B^T A^-1 B for the membrane face
    conductances k.  Eliminating the jump from a system with the pass matrix
    diag(d) + R leaves A - B diag(1/(d + k)) B^T on the bulk unknowns: the
    bulk assembly ``op.matrix`` with each membrane face's conductance k
    replaced by the series value k d / (k + d).
    """

    def __init__(self, op: BulkOperator, weights: np.ndarray,
                 load: np.ndarray):
        self.op = op
        self.weights = weights
        self.load = load
        self._bt = op.B.T.tocsr()

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.op.k_facet * w - self._bt @ self.op.lift(w)

    def factor(self, d: np.ndarray) -> "_SeriesFactor":
        return _SeriesFactor(self.op, d)


class _SeriesFactor:
    def __init__(self, op: BulkOperator, d: np.ndarray):
        k = op.k_facet
        self.op = op
        self.denom = d + k
        k_face = op.k_face.copy()
        k_face[op.domain.faces.membrane] = k * d / self.denom
        self.lu = _splu(op.matrix(k_face))

    def solve(self, r: np.ndarray) -> np.ndarray:
        op, f = self.op, self.op.domain.facets
        u = self.lu.solve(op.B @ (r / self.denom))
        du = u[f.outer_cell] - u[f.inner_cell]
        return (r + op.k_facet * du) / self.denom


def elliptic_solve_given_jump(op: BulkOperator, w: np.ndarray,
                              drive: BoundaryData, t: float,
                              tol: float = 1e-10):
    """Solve the bulk problem with a prescribed jump; returns (u, flux).

    The membrane flux is the average of the two one-sided discrete fluxes,
    which the elimination makes equal up to roundoff; a larger gap raises
    ``LinearSolveError``.
    """
    bvals = drive.values(op.domain.boundary.midpoint, t)
    u = op.solve(w, bvals, tol=tol)
    q_in, q_out = op.one_sided_fluxes(u, w)
    scale = max(1.0, float(np.max(np.abs(q_in), initial=0.0)))
    gap = float(np.max(np.abs(q_in - q_out), initial=0.0))
    if gap > 1e-8 * scale:
        raise LinearSolveError(
            f"one-sided membrane fluxes differ by {gap:.3e}", [gap])
    return u, 0.5 * (q_in + q_out)


@dataclass(frozen=True)
class MicroState:
    """Bulk potential, membrane jump, flux and the duplicated traces."""

    t: float
    u: np.ndarray
    jump: np.ndarray
    flux: np.ndarray
    trace_in: np.ndarray
    trace_out: np.ndarray

    def consistency_error(self) -> float:
        return float(np.max(np.abs(self.trace_out - self.trace_in - self.jump),
                            initial=0.0))


class MicroSystem(MembraneSystem):
    """Bulk operator bound to a membrane law and boundary data.

    Precomputes the bulk factorization and the separable boundary response.
    The flux response of the jump vector stays condensed in the sparse bulk
    operator (``SeriesFlux``).  ``bulk_at`` and ``state_at`` rebuild one
    sample; ``bulk_norms`` and ``gap_norms`` read a stack of samples in
    chunks.
    """

    def __init__(self, domain: EpsilonDomain, cond: Conductivity,
                 law: Nonlinearity, drive: BoundaryData, params: SolverParams):
        self.domain = domain
        self.cond = cond
        self.drive = drive
        self.params = params
        self.op = BulkOperator(domain, cond)

        s = np.full(domain.n_facets, domain.facets.measure)
        b_spatial = self.op.boundary_load(
            drive.spatial(domain.boundary.midpoint))
        self.u_drive = self.op.lu.solve(b_spatial)
        self.flux_map = SeriesFlux(self.op, s, self.op.B.T @ self.u_drive)
        self._bind_law(law, rate_coeff=params.alpha / domain.epsilon,
                       arg_scale=domain.epsilon)

    def bulk_at(self, t: float, w: np.ndarray) -> np.ndarray:
        return self.drive.temporal(t) * self.u_drive + self.op.lift(w)

    def state_at(self, t: float, w: np.ndarray) -> MicroState:
        u = self.bulk_at(t, w)
        t_in, t_out = self.op.traces(u, w)
        return MicroState(t=t, u=u, jump=w.copy(), flux=self.op.flux_density(u, w),
                          trace_in=t_in, trace_out=t_out)

    def _chunks(self, w: np.ndarray, drive: np.ndarray):
        """The jumps, bulk potentials and boundary values of each chunk of
        ``SAMPLE_CHUNK`` rows of the stack ``w`` at the drive factors
        ``drive``, one per row: one multi-column bulk solve per chunk,
        whose columns are the single-column solves bit for bit.  The
        potentials are C-ordered, so every per-row sum over them is
        numpy's pairwise sum, the bits of the same sum over one sample."""
        bnd = self.drive.spatial(self.domain.boundary.midpoint)
        for lo in range(0, len(w), SAMPLE_CHUNK):
            wc, d = w[lo:lo + SAMPLE_CHUNK], drive[lo:lo + SAMPLE_CHUNK, None]
            u = d * self.u_drive
            u += self.op.lift(wc.T).T
            yield wc, u, d * bnd

    def bulk_norms(self, w: np.ndarray, drive: np.ndarray) -> dict:
        """Bulk, gradient and jump norms of the rows of the (m, n_facets)
        stack ``w`` at the drive factors ``drive``: one column entry per
        row, equal to the norms of ``bulk_at`` of each row."""
        dom = self.domain
        chunks = [(bulk_l2(dom, u), gradient_l2(dom, u, wc, b))
                  for wc, u, b in self._chunks(w, drive)]
        return {"norm_l2": np.concatenate([c[0] for c in chunks]),
                "norm_grad": np.concatenate([c[1] for c in chunks]),
                "norm_jump": self.jump_norm(w)}

    def gap_norms(self, w: np.ndarray, w_orbit: np.ndarray) -> dict:
        """``bulk_norms`` of the gaps between the rows of two (m, n_facets)
        stacks of solutions at drive factor 0 (the drive cancels in the
        difference), and their stored energies."""
        r_w = w - w_orbit
        return {**self.bulk_norms(r_w, np.zeros(len(r_w))),
                "lyapunov": self.lyapunov(w, w_orbit)}


def initial_jump(domain: EpsilonDomain, kind: str, amplitude: float,
                 seed: int = 0) -> np.ndarray:
    """Built-in initial jump family, scaled by the cell size.

    The scaling keeps the squared membrane integral of the data bounded by
    (cell membrane measure) * amplitude^2 * epsilon, the admissible-data
    requirement of the transient problem.
    """
    return jump_family(kind, domain.facets.midpoint[:, 0],
                       domain.epsilon * amplitude, seed=seed)


def dissipation_identity(system: MicroSystem, prev: tuple,
                         curr: tuple) -> dict:
    """Discrete energy identity of the difference of two solutions.

    ``prev`` and ``curr`` are the jumps (w_a, w_b) of the two solutions at
    the start and the end of one step.  Splits the tested implicit
    difference equation into the bulk gradient term, the membrane storage
    rate and the membrane dissipation through the secant slope of the law.
    The three terms sum to the solver residual; backward Euler makes the
    stored jump energy nonincreasing on top of it.
    """
    p = system.params
    eps = system.domain.epsilon
    s = system.weights
    dt = p.dt
    (wa, wb), (wa_prev, wb_prev) = curr, prev
    r_new = wa - wb
    r_old = wa_prev - wb_prev

    # numpy's pairwise sum, whose bits do not depend on the BLAS threads
    bulk = float(np.add.reduce(r_new * system.flux_map.apply(r_new)))
    storage = float(p.alpha / eps * np.sum(s * (r_new - r_old) / dt * r_new))
    df = system.law(wa / eps) - system.law(wb / eps)
    dissipation = float(np.sum(s * df * r_new))

    secants = _secant_slopes(system.law, wa / eps, wb / eps)
    return {
        "bulk_term": bulk,
        "membrane_storage_delta": storage,
        "membrane_dissipation": dissipation,
        "residual_sum": bulk + storage + dissipation,
        "secant_min": float(secants.min(initial=np.inf)),
        "secant_max": float(secants.max(initial=-np.inf)),
    }


def _secant_slopes(law: Nonlinearity, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    apart = np.abs(a - b) > 1e-12     # else the slope at the midpoint
    return np.where(apart, (law(a) - law(b)) / np.where(apart, a - b, 1.0),
                    law.deriv(0.5 * (a + b)))


# -- discrete norms ---------------------------------------------------------

# Each norm takes one field or a stack of fields, one per row, and then
# gives one norm per row.

def bulk_l2(domain: EpsilonDomain, u: np.ndarray) -> float | np.ndarray:
    return np.sqrt(domain.cell_volume * np.sum(u * u, axis=-1))


def _face_differences(domain: EpsilonDomain, u: np.ndarray, w: np.ndarray,
                      boundary_values: Optional[np.ndarray]):
    """Per-face normal differences and quadrature volumes.

    Membrane faces subtract the jump; boundary faces difference against the
    Dirichlet value over the half spacing.  Returns (slopes, volumes, sigma
    selector) aligned as [interior faces..., boundary faces...].
    """
    faces = domain.faces
    h = domain.h
    s_face = h ** (domain.dim - 1)
    du = u[..., faces.cell_b] - u[..., faces.cell_a]
    jump_corr = np.zeros(du.shape)
    # jump is oriented inner->outer; convert to the a->b face orientation
    jump_corr[..., faces.membrane] = domain.facets.sign * w
    slopes_int = (du - jump_corr) / h
    vol_int = np.full(len(faces), s_face * h)

    bnd = domain.boundary
    if boundary_values is None:
        bvals = np.zeros(len(bnd))
    else:
        bvals = boundary_values
    slopes_bnd = (bvals - u[..., bnd.cell]) / (0.5 * h)
    vol_bnd = np.full(len(bnd), s_face * 0.5 * h)
    return slopes_int, vol_int, slopes_bnd, vol_bnd


def gradient_l2(domain: EpsilonDomain, u: np.ndarray, w: np.ndarray,
                boundary_values: Optional[np.ndarray] = None
                ) -> float | np.ndarray:
    si, vi, sb, vb = _face_differences(domain, u, w, boundary_values)
    return np.sqrt(np.sum(vi * si * si, axis=-1)
                   + np.sum(vb * sb * sb, axis=-1))


def sigma_gradient_energy(domain: EpsilonDomain, cond: Conductivity,
                          u: np.ndarray, w: np.ndarray,
                          boundary_values: Optional[np.ndarray] = None
                          ) -> float | np.ndarray:
    """Conductivity-weighted squared gradient energy (not a norm)."""
    sig_face = cond.on_faces(domain.inside, domain.faces)
    si, vi, sb, vb = _face_differences(domain, u, w, boundary_values)
    return (np.sum(vi * sig_face * si * si, axis=-1)
            + np.sum(vb * cond.sigma_out * sb * sb, axis=-1))


def verify_energy_estimates(orbit: PeriodicOrbit, system: MicroSystem) -> dict:
    """Period-averaged energy bounds of the orbit against the data energy.

    Checks the two discrete estimates that control the orbit: the gradient
    plus weighted-jump energy against the data gradient energy plus the
    growth slack, and the jump-rate energy against the data plus its time
    derivative, with the growth constants of the law's certificate.  Margins
    should be nonnegative.  The orbit's bulk comes from the chunks of
    ``bulk_norms``, and the gradient energy is summed step by step.
    """
    cert = system.law.certificate
    lam_q, lam_a = cert.growth_quad, cert.growth_abs
    dom = system.domain
    cond = system.cond
    drive = system.drive
    p = system.params
    dt = orbit.dt
    eps = dom.epsilon
    s = system.weights
    ts = dt * np.arange(1, orbit.steps_per_period + 1)

    grad_u = 0.0
    for w, u, bvals in system._chunks(orbit.jumps[1:],
                                      system.drive_factors(ts)):
        for energy in sigma_gradient_energy(dom, cond, u, w, bvals):
            grad_u += dt * 0.5 * energy
    jump_sq = dt * float(np.sum(orbit.jumps[1:] ** 2 @ s))
    rate_sq = float(np.sum(np.diff(orbit.jumps, axis=0) ** 2 @ s)) / dt
    # separable data: the gradient at (x, t) is spatial_gradient(x) temporal(t)
    g = drive.spatial_gradient(dom.centers)
    sig_cells = np.where(dom.inside, cond.sigma_int, cond.sigma_out)
    data = 0.5 * dom.cell_volume * float(np.sum(sig_cells * np.sum(g * g, axis=1)))
    data_grad = data * dt * sum(drive.temporal(t) ** 2 for t in ts)
    data_grad_rate = data * dt * sum(drive.temporal_rate(t) ** 2 for t in ts)

    slack = eps / (2.0 * lam_q) * lam_a ** 2 * dom.memb_measure
    lhs_grad = grad_u + lam_q / (2.0 * eps) * jump_sq
    rhs_grad = data_grad + slack
    lhs_rate = p.alpha / (2.0 * eps) * rate_sq
    rhs_rate = data_grad_rate + data_grad + slack
    report = {
        "growth_quad": lam_q,
        "growth_abs": lam_a,
        "gradient_bound": {
            "lhs": lhs_grad, "rhs": rhs_grad,
            "margin": rhs_grad - lhs_grad,
            "passed": lhs_grad <= rhs_grad + 1e-12,
        },
        "rate_bound": {
            "lhs": lhs_rate, "rhs": rhs_rate,
            "margin": rhs_rate - lhs_rate,
            "passed": lhs_rate <= rhs_rate + 1e-12,
        },
    }
    report["passed"] = bool(report["gradient_bound"]["passed"]
                            and report["rate_bound"]["passed"])
    return report
