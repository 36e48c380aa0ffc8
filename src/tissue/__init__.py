"""Electrical conduction in periodic two-phase tissue with dynamic membrane
interfaces: transient solvers, time-periodic attractors, decay diagnostics
and the homogenized two-scale limit, at desk scale."""

__version__ = "0.1.0"

from .errors import (ConfigError, FixedPointError, GeometryError,
                     LinearSolveError, NewtonError, NonlinearityError,
                     TissueError)
from .geometry import (CellGeometry, Conductivity, EpsilonDomain,
                       build_cell_geometry, make_conductivity,
                       mean_conductivity, tile_domain)
from .membrane import SolverParams, Trajectory, simulate, step
from .nonlinearity import (BoundaryData, Nonlinearity, make_boundary_data,
                           make_nonlinearity, regularize)
from .micro import (BulkOperator, MicroState, MicroSystem,
                    dissipation_identity, elliptic_solve_given_jump,
                    initial_jump, verify_energy_estimates)
from .periodic import (PeriodicOrbit, find_periodic, find_periodic_regularized,
                       orbit_distance, poincare_map)
from .decay import (DecayReport, LyapunovSeries, decay_metrics, fit_rate,
                    lyapunov_series)
from .twoscale import (CellOperator, TwoScaleState, TwoScaleSystem,
                       initial_two_scale_jump)
