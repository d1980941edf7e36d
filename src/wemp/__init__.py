"""Multiscale exponential-sum solvers for time-fractional diffusion.

The pieces, bottom up: two-level meshes (mesh), P1 operators (fem), the
exponential-sum kernel compression (soe), Caputo time stepping (stepping),
the wavelet-edge multiscale space (msfem), sequential solvers (solvers), the
parareal engine (parareal), and the experiment harness (experiments, cli).
"""

from .mesh import TwoLevelMesh, CoarseNeighborhood, build_mesh, coarse_neighborhood
from .fem import (CoefficientField, OperatorPair, assemble_operators,
                  assemble_load, norms, read_kappa_raster, write_kappa_raster)
from .soe import (SOEApproximation, StepCoefficients, build_soe,
                  build_soe_for_terms, soe_residual, step_coefficients,
                  validate_epsilon)
from .stepping import (L1Coefficients, history_weights, l1_coefficients,
                       mittag_leffler_neg, propagate_history_with,
                       soe_caputo_known_part)
from .msfem import (MultiscaleSpace, PartitionOfUnity, assemble_space,
                    build_partition_of_unity, edge_projection, edge_wavelets,
                    eta_indicator, weighted_coefficient)
from .solvers import (ProblemSpec, PropagatorContext, Trajectory,
                      fine_soe_solve, multiscale_soe_solve, reference_l1_solve,
                      relative_errors_percent)
from .parareal import (PararealState, build_context, coarse_propagate,
                       fine_propagate, hybrid_fixed_point, jump, wemp_solve)
from .experiments import ExperimentConfig, generate_kappa, parse_config, run_experiment

__version__ = "0.1.0"
