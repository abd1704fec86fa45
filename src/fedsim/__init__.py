"""Deterministic simulator of federated averaging under non-uniform,
time-varying link failures, with exact bias oracles and mixing-spectrum
diagnostics."""

__version__ = "0.1.0"

from .algorithms import (AlgorithmConfig, ExperimentResult, FleetState, MetricsRow,
                         matrix_form_check, run_experiment, run_round)
from .errors import (CapacityError, ConfigError, ContractViolationError,
                     DivergedRunError, FedsimError, StatisticalError)
from .link_model import (ActiveSet, StaticLinkProcess, ZipfCountLinkProcess,
                         build_trace, probabilities_at, sample_active_set)
from .mixing import (build_mixing, contraction_profile, ergodicity_bound, expected_square_exact,
                     expected_square_mc, rho)
from .numerics import integrate_weighted_product, second_eigenvalue_sym
from .objectives import (FederatedDataset, QuadraticObjective, SoftmaxObjective,
                         generate_synthetic, softmax_loss_grad)
from .oracles import (LimitWeights, fedavg_limit_integral, fedavg_limit_mc,
                      fedavg_limit_subset, kappa, local_perturbation_check)
from .streams import SeededStream

__all__ = [name for name in dir() if not name.startswith("_")]
