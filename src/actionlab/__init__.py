"""actionlab: action minimization over discrete measures, with dual certificates.

Discretizes Lagrangian action minimization on the torus as a finite linear
program over edge measures, solves it with exact combinatorial algorithms,
extracts the dual decomposition L = c0 + df + g, and verifies the optimality
structure numerically (energy conservation, complementary slackness, momentum
regularity).  A finite-horizon optimal-control variant runs on a time-layered
state grid with value-function and maximum-principle checks.
"""

from .grid import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    PhaseGrid,
    boundary_of_measure,
    build_torus_grid,
    discrete_differential,
    sample_lagrangian,
)
from .measure_lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    OptimalSolution,
    solve_boundary,
    solve_closed,
)
from .certificates import (
    DualCertificate,
    certify_boundary,
    certify_closed,
)
from .convexify import fiber_convex_envelope, momentum_field
from .diagnostics import (
    DiagnosticsReport,
    MeasureResult,
    discrete_hamiltonian,
    estimate_momentum_lipschitz,
    full_report,
    run_measure,
    verify_measure,
)
from .control import (
    ControlCertificate,
    ControlProblem,
    ControlResult,
    ValueFunction,
    certify_control,
    check_u_v_relation,
    extract_optimal_trajectories,
    hjb_residual,
    make_control_problem,
    maximum_principle_check,
    run_control,
    solve_relaxed_lp,
    solve_value_function,
)
from .scenarios import SCENARIOS, parse_config, refinement_sweep, run_scenario

__version__ = "0.1.0"
