"""Invariant suite behind the ``verify`` subcommand.

Runs the structural checks of every solver layer on the configured problem
with a coarsened time step, so a full sweep stays under a minute.  Each
check records (name, passed, detail, value): ``value`` holds the measured
defect, gap or residual as a number (None where there is none), ``detail``
only text that does not move at roundoff.  The CLI maps any failure to exit
code 4.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import RunConfig
from .decay import lyapunov_series
from .geometry import build_cell_geometry, make_conductivity, mean_conductivity
from .membrane import SolverParams
from .micro import (MicroSystem, dissipation_identity,
                    elliptic_solve_given_jump, initial_jump, simulate)
from .nonlinearity import (SIN_SECANT_ARGMIN, make_boundary_data,
                           make_nonlinearity, regularize)
from .periodic import find_periodic
from .twoscale import (TwoScaleSystem, initial_two_scale_jump,
                       transient_weak_residual)


def _verify_params(cfg: RunConfig) -> SolverParams:
    base = cfg.build_params()
    return replace(base, dt=max(base.dt, 1e-2))


def run_invariant_suite(cfg: RunConfig) -> list[dict]:
    checks = []

    def record(name, passed, detail, value=None):
        checks.append({"name": name, "passed": bool(passed), "detail": detail,
                       "value": None if value is None else float(value)})

    cell = cfg.build_cell()
    dom = cfg.build_domain(cell)
    cond = cfg.build_conductivity(cell)
    law = cfg.build_law()
    drive = cfg.build_drive()
    params = _verify_params(cfg)
    # the short runs: the whole steps closest to 0.2 time units, at least one
    short = max(1, round(0.2 / params.dt)) * params.dt

    # geometry ---------------------------------------------------------------
    per_cell = cell.memb_measure * dom.epsilon ** (cell.dim - 1)
    copies = round(1.0 / dom.epsilon) ** cell.dim
    closure = abs(copies * per_cell - dom.memb_measure)
    record("tiling_closure", closure <= 1e-12, "measure defect", closure)

    record("facet_normals_point_outward", dom.facets.point_out_of(dom.inside),
           "per-facet orientation")

    fine = build_cell_geometry(cell.margin, 2 * cell.resolution, dim=cell.dim)
    stable = (fine.area_int == cell.area_int
              and fine.memb_measure == cell.memb_measure
              and mean_conductivity(fine, cond.sigma_int, cond.sigma_out)
              == cond.mean)
    record("refinement_stability", stable, "measures bit-identical at 2x")

    record("mean_conductivity_bounds",
           min(cond.sigma_int, cond.sigma_out) <= cond.mean
           <= max(cond.sigma_int, cond.sigma_out),
           "mean conductivity", cond.mean)

    # membrane law ------------------------------------------------------------
    s = np.linspace(-10, 10, 1001)
    probe = np.sort(np.concatenate(
        [s, [-SIN_SECANT_ARGMIN, SIN_SECANT_ARGMIN, -1e6, -1e3, 1e3, 1e6]]))
    increasing = law(0.0) == 0.0 and bool(np.all(np.diff(law(probe)) > 0.0))
    margin = certificate_margin(law, probe)
    record("law_certificate", increasing and margin >= -1e-12,
           "min relative margin of the declared bounds", margin)

    fd = (law(s + 1e-5) - law(s - 1e-5)) / 2e-5
    scale = np.maximum(np.abs(law.deriv(s)), 1.0)
    rel = float(np.max(np.abs(fd - law.deriv(s)) / scale))
    record("law_derivative_consistency", rel <= 1e-6, "max rel gap", rel)

    twice = regularize(regularize(law, 0.03), 0.04)
    once = regularize(law, 0.07)
    gap = float(np.max(np.abs(twice(s) - once(s))))
    record("regularize_composition", gap <= 1e-14, "pointwise gap", gap)

    # bulk solver ---------------------------------------------------------------
    cond_uniform = make_conductivity(cell, 1.0, 1.0)
    sys_uniform = MicroSystem(dom, cond_uniform,
                              make_nonlinearity("linear", kappa=1.0),
                              make_boundary_data("affine", "constant", 1.0),
                              params)
    u, _ = elliptic_solve_given_jump(sys_uniform.op, np.zeros(dom.n_facets),
                                     sys_uniform.drive, 0.0)
    aff = float(np.max(np.abs(u - dom.centers[:, 0])))
    record("affine_exactness_uniform_sigma", aff <= 1e-10, "max error", aff)

    system = MicroSystem(dom, cond, law, drive, params)
    asym = abs(system.op.A - system.op.A.T).max()
    record("bulk_operator_symmetry", asym <= 1e-14, "max asymmetry", asym)

    rng = np.random.default_rng(cfg["seed"])
    w_probe = dom.epsilon * rng.uniform(-1, 1, dom.n_facets)
    st = system.state_at(0.25, w_probe)
    q_in, q_out = system.op.one_sided_fluxes(st.u, st.jump)
    qgap = float(np.max(np.abs(q_in - q_out), initial=0.0))
    record("flux_continuity", qgap <= 1e-8, "max one-sided gap", qgap)
    trace = st.consistency_error()
    record("trace_consistency", trace <= 1e-12, "max |outer-inner-jump|", trace)

    drive0 = make_boundary_data("constant", "constant", 0.0)
    sys0 = MicroSystem(dom, cond, law, drive0, params)
    traj0 = simulate(sys0, np.zeros(dom.n_facets), 10 * params.dt)
    zero_jump = float(np.max(np.abs(traj0.jumps)))
    record("zero_data_zero_solution", zero_jump <= 1e-13, "max jump", zero_jump)

    # dynamics -----------------------------------------------------------------
    wa = initial_jump(dom, "random", cfg["init.amplitude"], seed=cfg["seed"])
    wb = initial_jump(dom, "random", cfg["init.amplitude"], seed=cfg["seed"] + 1)
    ta = simulate(system, wa, 1.0)
    tb = simulate(system, wb, 1.0)
    ls = lyapunov_series(ta, tb)
    record("lyapunov_nonincreasing", ls.monotone, "max per-step increase",
           ls.max_increase)

    pa = dissipation_identity(system, (ta.jumps[-2], tb.jumps[-2]),
                              (ta.jumps[-1], tb.jumps[-1]))
    record("dissipation_identity", abs(pa["residual_sum"]) <= 1e-8,
           "terms sum", pa["residual_sum"])

    tneg = simulate(_negated(system), -wa, 1.0)
    odd = float(np.max(np.abs(tneg.jumps + ta.jumps)))
    record("odd_symmetry", odd <= 1e-10, "max mismatch", odd)

    lin_law = make_nonlinearity("linear", kappa=cfg["f.kappa"])
    base = MicroSystem(dom, cond, lin_law, drive, params)
    scaled = MicroSystem(dom, make_conductivity(cell, 3.0 * cond.sigma_int,
                                                3.0 * cond.sigma_out),
                         make_nonlinearity("linear", kappa=3.0 * cfg["f.kappa"]),
                         drive, replace(params, alpha=3.0 * params.alpha))
    tb1 = simulate(base, wa, short)
    tb2 = simulate(scaled, wa, short)
    sgap = float(np.max(np.abs(tb1.jumps - tb2.jumps)))
    record("common_factor_scaling", sgap <= 1e-10, "max jump gap", sgap)

    # periodic ----------------------------------------------------------------
    orbit = find_periodic(system, tol=1e-7, max_iters=200)
    record("periodic_defect", orbit.defect <= 1e-7,
           f"defect after {orbit.iterations} {orbit.map} maps", orbit.defect)

    # two-scale ----------------------------------------------------------------
    ts = TwoScaleSystem(cell, cond, law, drive, params,
                        macro_res=cfg["macro.resolution"],
                        macro_dim=cfg["macro.dimension"])
    row_sum = ts.cell_op.row_sum_defect()
    record("cell_operator_kernel", row_sum <= 1e-12, "row-sum defect", row_sum)
    w0 = initial_two_scale_jump(ts, "random", 1.0, seed=cfg["seed"])
    ttraj = simulate(ts, w0, short, stride=1)
    max_mean = float(ttraj.mean_defects.max())
    record("corrector_zero_mean", max_mean <= 1e-12, "max mean", max_mean)

    rngt = np.random.default_rng(cfg["seed"] + 2)
    phi = rngt.normal(size=ts.n_nodes)
    phc = rngt.normal(size=(ts.n_nodes, ts.n_y))
    phw = rngt.normal(size=ts.n_w)
    n_steps = len(ttraj.ts) - 1

    def test(n, t):
        fac = 1.0 - n / n_steps
        return phi * (1 + t), phc * fac, phw * fac

    res = transient_weak_residual(ts, ttraj, test)
    scale = max(1.0, float(np.max(np.abs(ttraj.jumps))))
    record("two_scale_weak_form", abs(res) <= 1e-8 * scale, "residual", res)

    return checks


def certificate_margin(law, s: np.ndarray) -> float:
    """Smallest relative margin of the law's declared bounds at ``s``.

    The bounds are f(s) s >= q s^2 - a |s| at every nonzero sample, and
    f'(s) >= coercivity, f'(s) >= tail_slope_min beyond tail_threshold and
    f'(s) <= slope_max where the certificate declares them; each margin is
    (lhs - rhs) / lhs, and (slope_max - f'(s)) / slope_max for the last.
    """
    cert = law.certificate
    s = s[s != 0.0]
    lhs = law(s) * s
    margins = [(lhs - cert.growth_quad * s * s
                + cert.growth_abs * np.abs(s)) / lhs]
    slope = law.deriv(s)
    if cert.coercivity is not None:
        margins.append((slope - cert.coercivity) / slope)
    if cert.tail_slope_min is not None:
        tail = slope[np.abs(s) >= cert.tail_threshold]
        margins.append((tail - cert.tail_slope_min) / tail)
    if cert.slope_max is not None:
        margins.append((cert.slope_max - slope) / cert.slope_max)
    return float(min(m.min() for m in margins))


def _negated(system: MicroSystem) -> MicroSystem:
    neg = make_boundary_data(system.drive.spatial_kind,
                             system.drive.temporal_kind,
                             amplitude=-system.drive.amplitude,
                             offset=system.drive.offset)
    return MicroSystem(system.domain, system.cond, system.law, neg,
                       system.params)
