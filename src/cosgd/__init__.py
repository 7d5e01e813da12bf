"""Personalized collaborative stochastic optimization.

One agent minimizes its own quadratic objective while receiving
stochastic gradients from N heterogeneous collaborators.  The package
implements the three aggregation strategies (training alone, weighted
gradient averaging, and EMA bias correction plus its oracle variant),
the theory-prescribed hyperparameter schedules, evaluators for the
convergence bounds with explicit constants, a deterministic seeded
simulator, and a CLI harness reproducing the noisy-quadratic
experiments.
"""

from .aggregators import CollaborationWeights
from .bounds import (BoundInputs, bound_bc, bound_oracle,
                     bound_wga_nonconvex, bound_wga_pl,
                     bound_wga_pl_decreasing, gainfactor_surface)
from .config import ConfigError, ExperimentConfig, load_config, save_config
from .objective import (QuadraticTask, SimilarityParams, eval_loss,
                        similarity_params, true_gradient)
from .schedules import (ScheduleInputs, alpha_opt_oracle, alpha_opt_wga_general,
                        alpha_opt_wga_m0, beta_bc, eta_bc, eta_decreasing_pl,
                        eta_wga_nonconvex, eta_wga_pl, schedule_inputs,
                        sigma_tilde_sq, speedup_factor, tau_qp, zeta_tilde_sq)
from .simulator import (DecreasingPlSchedule, RunConfig, RunResult, Trace,
                        mean_dynamics_oracle, mean_fixed_point, run,
                        run_replicated, sweep)

__version__ = "0.1.0"
