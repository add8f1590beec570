"""Nash-equilibrium quantizer design on social communication networks.

Agents with beta-distributed physical sources pick finite vocabularies
(regular scalar quantizers) that trade local fidelity against mutual
intelligibility; distributed Lloyd-Max dynamics drive the population to
equilibrium, which can then be verified and analyzed (loss decomposition,
shared-vocabulary detection, loss-in-translation along chains).
"""

from .densities import (
    BetaDensity,
    DomainError,
    EmptyCellError,
    KernelShape,
    MixtureDensity,
    NoiseKernel,
    POINT_KERNEL,
    hellinger_beta,
)
from .quantizers import (
    LloydMaxResult,
    RegularQuantizer,
    centroid_residual,
    lloyd_max,
    multi_start_lloyd_max,
    quantization_loss,
    quantizer_from_words,
)
from .networks import (
    AgentSpec,
    CommMatrix,
    IllPosedEnvironmentError,
    StateConsistencyError,
    detect_acyclic,
    hop_matrix,
    observed_environment,
    true_environment,
    true_environment_weights,
    word_usage,
)
from .game import (
    EquilibriumReport,
    GameState,
    QuantizationGame,
    StabilityReport,
    best_response,
    bootstrap,
    check_social_stability,
    observed_mixture,
    refresh_state,
    solve_equilibrium,
    sweep,
    verify_nash,
)
from .montecarlo import (
    ChainReport,
    LossReport,
    NoChainError,
    ProbeReport,
    chain_translate,
    enumerate_chains,
    estimate_losses,
    path_dependence_probe,
    path_dependence_probes,
    shared_vocabulary,
    true_env_residuals,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    load_state,
    save_state,
)

__version__ = "0.1.0"
