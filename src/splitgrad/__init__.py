"""splitgrad: inertial gradient methods built from operator splitting.

The package keeps two independent routes to every algorithm: a direct
stepper over (x_{n-1}, x_n) pairs in `algorithms`, and a splitting-based
construction in `constructions` that discretizes the underlying continuous
system with explicit Euler and symplectic legs. Their pointwise agreement,
together with the Lyapunov-energy and coefficient-admissibility checks in
`analysis` and `schedules`, is what the verification suites certify.
"""

from .objectives import Objective, f1, f2, make_objective, quadratic
from .schedules import (AdmissibilityReport, Schedule, check_assumptions,
                        make_schedule, n_prime)
from .algorithms import (ALGORITHM_NAMES, IterState, RunResult, StoppingRule,
                         Trajectory, coefficient_map, init_state, make_stepper, run,
                         run_methods)
from .splitting import (HamiltonianSystem, compose, euler_advance,
                        forward_euler_hamiltonian, lie_trotter, rk4_step,
                        stormer_verlet, strang, symplectic_euler)
from .constructions import (ContinuousTrajectory, ardm_construction,
                            igahd_construction, integrate_first_order_vd,
                            integrate_second_order_hessian_vd,
                            lt_s_igahd_construction, lt_se1_construction,
                            lt_se3_construction, lt_sv2_construction,
                            nesterov_lie_trotter, nesterov_velocity_form,
                            pim_construction, v_from_x, xdot_from_v)
from .analysis import (EnergySeries, MonotoneReport, check_descent_lemma,
                       check_monotone, check_quadratic_lemma, energy,
                       energy_series, fit_rate, rate_bound_first_violation,
                       spurious_root_residual)

__version__ = "0.1.0"

__all__ = [
    "Objective", "f1", "f2", "make_objective", "quadratic",
    "AdmissibilityReport", "Schedule", "check_assumptions", "make_schedule",
    "n_prime",
    "ALGORITHM_NAMES", "IterState", "RunResult", "StoppingRule", "Trajectory",
    "coefficient_map", "init_state", "make_stepper", "run", "run_methods",
    "HamiltonianSystem", "compose", "euler_advance", "forward_euler_hamiltonian",
    "lie_trotter", "rk4_step", "stormer_verlet", "strang", "symplectic_euler",
    "ContinuousTrajectory", "ardm_construction", "igahd_construction",
    "integrate_first_order_vd", "integrate_second_order_hessian_vd",
    "lt_s_igahd_construction", "lt_se1_construction", "lt_se3_construction",
    "lt_sv2_construction", "nesterov_lie_trotter", "nesterov_velocity_form",
    "pim_construction", "v_from_x", "xdot_from_v",
    "EnergySeries", "MonotoneReport", "check_descent_lemma", "check_monotone",
    "check_quadratic_lemma", "energy", "energy_series", "fit_rate",
    "rate_bound_first_violation", "spurious_root_residual",
    "__version__",
]
