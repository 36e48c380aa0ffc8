"""The benchmark's two workloads and the checks on their outputs.

The resolved ``micro`` stack at 1024 membrane unknowns, transient only, and
the ``twoscale`` stack at 256 unknowns with a periodic orbit.  Both workloads
also run linear-law trajectories on their system, so the factor-once path of
the membrane stepper is measured next to the Newton path at both sizes.

Only public ``tissue`` calls are made, the same ones the CLI subcommands
make, on the default configuration (8x8 cell, margin 0.25, ``sin`` law,
affine x sin drive, dt = 1e-3, random initial jump of amplitude 5).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from tissue import FixedPointError, MicroSystem, NewtonError, TwoScaleSystem
from tissue.config import finalize_config
from tissue.decay import lyapunov_series
from tissue.micro import elliptic_solve_given_jump, initial_jump, simulate
from tissue.nonlinearity import make_nonlinearity
from tissue.twoscale import (find_periodic_two_scale, initial_two_scale_jump,
                             periodic_weak_residual, simulate_two_scale,
                             two_scale_decay_metrics)

from tracing import NullTracer, clock

ORBIT_TOL = 1e-8
MEAN_DEFECT_TOL = 1e-12
WEAK_RESIDUAL_TOL = 1e-8      # times the jump scale max(1, max |w|)
STATE_TOL = 1e-10             # rebuilt states: trace pairs, direct solve
REFERENCE_RTOL = 1e-6         # norms against the stored references
AMPLITUDE = 5.0
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Scale:
    """Problem sizes and horizons; ``full`` is the benchmark, ``smoke`` the
    seconds-long version the benchmark's own tests run."""

    name: str
    epsilon: float            # 4096 cells, 1024 facets at full scale
    resolution: int           # 16 macro nodes x 16 facets = 256 jumps
    dt: float
    decay_horizon: float = 2.0
    lyapunov_horizon: float = 0.1
    stride: int = 10
    # the linear leg lasts about 2 s at either size, so its rate is not a
    # sub-second snapshot of a machine whose speed drifts
    linear_horizon_small: float = 10.0
    linear_horizon_large: float = 1.0


SCALES = {
    "full": Scale("full", 0.125, 4, 1e-3),
    "smoke": Scale("smoke", 0.5, 2, 1e-2, linear_horizon_small=1.0),
}


# -- one pass: checked operations and phase timings ---------------------------

class Pass:
    """One pass of a workload.

    ``op`` runs one checked operation: a solver error, a failed check or a
    missing input (an earlier operation failed) counts it as failed instead
    of ending the run.  Phase times feed the end-to-end metrics.  ``probe``,
    if given, runs before each operation (see ``speed.py``); its time is
    kept out of the pass's.
    """

    def __init__(self, tracer, seed: int, scale: Scale,
                 probe: Optional[Callable[[], float]] = None):
        self.tracer = tracer
        self.seed = seed
        self.scale = scale
        self.probe = probe
        self.probe_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.phase_s: dict = defaultdict(float)
        self.steps: dict = defaultdict(int)
        self.facts: dict = {}

    def op(self, name: str, fn: Callable, needs=(), phase: Optional[str] = None,
           steps=0, check: Optional[Callable] = None):
        """``steps`` is the number of implicit steps the call takes, or a
        function of its result that gives it."""
        self.attempted += 1
        if self.probe is not None:
            self.probe_s += self.probe()
        if any(n is None for n in needs):
            self.failures.append(f"{name}: input missing")
            return None
        t0 = clock()
        try:
            result = self.tracer.call(name, fn)
        except (NewtonError, FixedPointError) as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if phase is not None:
            self.phase_s[phase] += clock() - t0
            self.steps[phase] += steps(result) if callable(steps) else steps
        if check is not None:
            problem = check(result)
            if problem:
                self.failures.append(f"{name}: {problem}")
                return None
        return result


def _n_steps(p: Pass, horizon: float) -> int:
    return int(round(horizon / p.scale.dt))


def _orbit_steps(p: Pass):
    """Steps of a Picard orbit solve: one period per iteration, plus the
    recorded period."""
    return lambda orbit: (orbit.iterations + 1) * _n_steps(p, 1.0)


# -- set-up -------------------------------------------------------------------

def micro_setup(tr, cfg) -> MicroSystem:
    cell = tr.call("geometry.build_cell", cfg.build_cell)
    dom = tr.call("geometry.tile_domain", cfg.build_domain, cell)
    cond = tr.call("geometry.conductivity", cfg.build_conductivity, cell)
    law = tr.call("nonlinearity.build_law", cfg.build_law)
    drive = tr.call("nonlinearity.build_drive", cfg.build_drive)
    system = tr.call("micro.MicroSystem", MicroSystem, dom, cond, law, drive,
                     cfg.build_params())
    tr.instrument(system, "micro")
    return system


def twoscale_setup(tr, cfg) -> TwoScaleSystem:
    cell = tr.call("geometry.build_cell", cfg.build_cell)
    cond = tr.call("geometry.conductivity", cfg.build_conductivity, cell)
    law = tr.call("nonlinearity.build_law", cfg.build_law)
    drive = tr.call("nonlinearity.build_drive", cfg.build_drive)
    system = tr.call("twoscale.TwoScaleSystem", TwoScaleSystem, cell, cond,
                     law, drive, cfg.build_params(),
                     macro_res=cfg["macro.resolution"],
                     macro_dim=cfg["macro.dimension"])
    tr.instrument(system, "twoscale")
    return system


def dense_bytes(system) -> int:
    """Computed size of the dense bulk lift and flux response; a part the
    system does not hold counts 0."""
    lift = getattr(system, "u_jump", getattr(system, "lift_jump", None))
    response = getattr(getattr(system, "flux_map", None), "response", None)
    return sum(int(a.nbytes) for a in (lift, response) if a is not None)


# -- checks -------------------------------------------------------------------

def _weighted_norm(system, w) -> float:
    return float(np.sqrt(np.sum(system.weights * w * w)))


def orbit_summary(system, orbit) -> dict:
    per_step = np.sum(system.weights * orbit.jumps[:-1] ** 2, axis=1)
    return {"iterations": int(orbit.iterations),
            "norm_t0": _weighted_norm(system, orbit.jumps[0]),
            "norm_period": float(np.sqrt(orbit.dt * np.sum(per_step)))}


def _reference_problem(p: Pass, key: str, values: dict) -> Optional[str]:
    """``values`` against the stored references of ``key`` at this scale."""
    ref = load_references().get(p.scale.name, {}).get(key)
    if ref is None:
        return f"no stored reference for {p.scale.name}/{key}"
    if values.get("iterations", 0) > ref.get("iterations", 0):
        return (f"{values['iterations']} Picard iterations, reference "
                f"{ref['iterations']}")
    for name, value in values.items():
        if name == "iterations":
            continue
        rel = abs(value - ref[name]) / abs(ref[name])
        if rel > REFERENCE_RTOL:
            return (f"{name} {value:.12g} differs from reference "
                    f"{ref[name]:.12g} by {rel:.2e} (rtol {REFERENCE_RTOL:g})")
    return None


def _orbit_check(p: Pass, system, key: str):
    """Defect, Picard count and orbit norms against the stored references.

    The orbit starts from zero, so these values do not depend on the seed.
    A solver may take fewer Picard iterations than the reference, never more.
    """
    def check(orbit):
        summary = orbit_summary(system, orbit)
        p.facts["orbit"] = summary
        if not orbit.defect <= ORBIT_TOL:
            return f"orbit defect {orbit.defect:.3e} above {ORBIT_TOL:g}"
        return _reference_problem(p, key, summary)
    return check


def trajectory_summary(system, traj) -> dict:
    per_step = np.sum(system.weights * traj.jumps[1:] ** 2, axis=1)
    path_sq = traj.dt * traj.stride * np.sum(per_step)
    return {"norm_end": _weighted_norm(system, traj.jumps[-1]),
            "norm_path": float(np.sqrt(path_sq))}


def _zero_start_check(p: Pass, system, key: str, then):
    """``then``, and the trajectory's norms against the stored references:
    a trajectory from zero does not depend on the seed."""
    def check(traj):
        return then(traj) or _reference_problem(
            p, key, trajectory_summary(system, traj))
    return check


def _micro_states_check(tracer, system):
    """States rebuilt from the dense lift at up to 11 samples keep their trace
    pairs consistent, and the last one matches a direct bulk solve."""
    def check(traj):
        if not np.all(np.isfinite(traj.jumps)):
            return "non-finite jump"
        picks = np.unique(np.linspace(0, len(traj) - 1, 11).round().astype(int))
        for i in picks:
            state = system.state_at(float(traj.ts[i]), traj.jumps[i])
            defect = state.consistency_error()
            if not defect <= STATE_TOL * _jump_scale(state.jump):
                return f"trace pair misses the jump by {defect:.3e}"
        t, w = float(traj.ts[picks[-1]]), traj.jumps[picks[-1]]
        u_direct, _ = tracer.call("micro.elliptic_solve_given_jump",
                                  elliptic_solve_given_jump, system.op, w,
                                  system.drive, t)
        gap = float(np.max(np.abs(state.u - u_direct)))
        scale = max(1.0, float(np.max(np.abs(u_direct))))
        if gap > STATE_TOL * scale:
            return f"lifted bulk differs from direct solve by {gap:.3e}"
        return None
    return check


def _mean_defect_check(traj) -> Optional[str]:
    worst = float(np.max(traj.mean_defects))
    if not worst <= MEAN_DEFECT_TOL:
        return f"corrector mean defect {worst:.3e} above {MEAN_DEFECT_TOL:g}"
    return None


def _decay_check(report) -> Optional[str]:
    if not report.lyapunov_monotone:
        return "Lyapunov series increases"
    if report.fit.rate is None or not report.fit.rate < 0.0:
        return f"no decay toward the orbit (rate {report.fit.rate})"
    return None


def _weak_check(scale_of):
    def check(residual):
        scale = scale_of()
        if not abs(residual) <= WEAK_RESIDUAL_TOL * scale:
            return (f"weak residual {residual:.3e} above "
                    f"{WEAK_RESIDUAL_TOL:g} x {scale:.3g}")
        return None
    return check


def _jump_scale(jumps) -> float:
    return max(1.0, float(np.max(np.abs(jumps))))


# -- the shared linear-law leg ------------------------------------------------

class LinearLeg:
    """Linear-law trajectories from the seeded initial jump: the stepper
    factors once, then only solves.

    The leg runs as ``CHUNKS`` equal trajectories placed between the
    workload's other calls, so its steps sample the whole pass
    rather than one stretch of a machine whose speed drifts.
    """

    CHUNKS = 4

    def __init__(self, p: Pass, system, w0, module: str, sim, horizon: float):
        tr = p.tracer
        law = tr.call("nonlinearity.build_law", make_nonlinearity, "linear",
                      kappa=1.0)
        self.system = tr.call(f"{module}.with_law", system.with_law, law)
        tr.instrument(self.system, module)
        self.p, self.w0, self.sim = p, w0, sim
        self.name = f"{module}.{sim.__name__}"
        self.horizon = horizon / self.CHUNKS

    @staticmethod
    def _check(traj) -> Optional[str]:
        # the stepper itself raises NewtonError on a step residual above
        # tolerance, which counts as a failure too
        if not np.all(np.isfinite(traj.jumps)):
            return "non-finite jump"
        return None

    def run(self) -> None:
        self.p.op(self.name,
                  lambda: self.sim(self.system, self.w0, self.horizon,
                                   stride=self.p.scale.stride),
                  phase="linear", steps=_n_steps(self.p, self.horizon),
                  check=self._check)


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """The reason for each workload is in ``BENCHMARK.json`` and README.md."""

    name: str
    unknowns: int           # membrane unknowns at full scale
    config: Callable        # Scale -> dict of config values
    setup: Callable         # (tracer, cfg) -> system
    body: Callable          # (Pass, system) -> None


def _micro_transient_body(p: Pass, system) -> None:
    sc = p.scale
    starts = [p.tracer.call("micro.initial_jump", initial_jump, system.domain,
                            kind, AMPLITUDE, seed=p.seed)
              for kind in ("random", "zero")]
    leg = LinearLeg(p, system, starts[0], "micro", simulate,
                    sc.linear_horizon_large)
    states = _micro_states_check(p.tracer, system)
    checks = (states, _zero_start_check(p, system, "micro_transient_1024", states))
    trajs = []
    for w0, check in zip(starts, checks):
        leg.run()
        trajs.append(p.op("micro.simulate",
                          lambda w0=w0: simulate(system, w0,
                                                 sc.lyapunov_horizon, stride=1),
                          phase="sin", steps=_n_steps(p, sc.lyapunov_horizon),
                          check=check))
    leg.run()

    def lyapunov_check(series):
        if not series.monotone:
            return f"Lyapunov series increases by {series.max_increase:.3e}"
        return None

    p.op("decay.lyapunov_series", lambda: lyapunov_series(*trajs),
         needs=trajs, check=lyapunov_check)
    leg.run()


def _periodic_test_pair(system, n_steps: int, seed: int):
    """One seeded, 1-periodic weak-form test pair."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=system.n_nodes)
    phc = rng.normal(size=(system.n_nodes, system.n_y))
    phw = rng.normal(size=system.n_w)

    def test(n, t):
        fac = np.cos(2 * np.pi * n / n_steps)
        return phi * fac, phc * fac, phw * fac
    return test


def _twoscale_orbit_body(p: Pass, system) -> None:
    sc = p.scale
    w0 = p.tracer.call("twoscale.initial_two_scale_jump",
                       initial_two_scale_jump, system, "random", AMPLITUDE,
                       seed=p.seed)
    leg = LinearLeg(p, system, w0, "twoscale", simulate_two_scale,
                    sc.linear_horizon_small)
    leg.run()
    orbit = p.op("periodic.find_periodic_two_scale",
                 lambda: find_periodic_two_scale(system, tol=ORBIT_TOL),
                 phase="orbit", steps=_orbit_steps(p),
                 check=_orbit_check(p, system, "twoscale_orbit_256"))
    leg.run()
    test = _periodic_test_pair(system, _n_steps(p, 1.0), p.seed)
    p.op("twoscale.periodic_weak_residual",
         lambda: periodic_weak_residual(system, orbit, test), needs=(orbit,),
         check=_weak_check(lambda: _jump_scale(orbit.jumps)))
    traj = p.op("twoscale.simulate_two_scale",
                lambda: simulate_two_scale(system, w0, sc.decay_horizon,
                                           stride=sc.stride),
                phase="sin", steps=_n_steps(p, sc.decay_horizon),
                check=_mean_defect_check)
    leg.run()

    def decay_check(report):
        p.facts["decay_rate"] = report.fit.rate
        if not report.max_mean_defect <= MEAN_DEFECT_TOL:
            return f"corrector mean defect {report.max_mean_defect:.3e}"
        return _decay_check(report)

    p.op("decay.two_scale_decay_metrics",
         lambda: two_scale_decay_metrics(traj, orbit), needs=(traj, orbit),
         check=decay_check)
    leg.run()


WORKLOADS = {w.name: w for w in (
    Workload("micro_transient_1024", 1024,
             lambda sc: {"geometry.epsilon": sc.epsilon},
             micro_setup, _micro_transient_body),
    Workload("twoscale_orbit_256", 256,
             lambda sc: {"macro.resolution": sc.resolution},
             twoscale_setup, _twoscale_orbit_body),
)}


def make_config(workload: Workload, scale: Scale, overrides: dict):
    """Default configuration plus the workload's size and any overrides."""
    return finalize_config({"time.dt": scale.dt, **workload.config(scale),
                            **overrides})


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def run_pass(workload: Workload, cfg, tracer, seed: int, scale: Scale,
             probe: Optional[Callable[[], float]] = None) -> Pass:
    """Set up the workload's system and run its body once."""
    p = Pass(tracer, seed, scale, probe)
    t0 = clock()
    with tracer.span("bench.pass"):
        t_setup = clock()
        system = workload.setup(tracer, cfg)
        p.phase_s["setup"] = clock() - t_setup
        p.facts["dense_bytes"] = dense_bytes(system)
        workload.body(p, system)
    p.phase_s["total"] = clock() - t0 - p.probe_s
    return p


def time_setup(workload: Workload, cfg) -> float:
    """One untraced set-up, released before returning."""
    t0 = clock()
    system = workload.setup(NullTracer(), cfg)
    elapsed = clock() - t0
    del system
    return elapsed
