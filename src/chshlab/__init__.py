"""chshlab: CHSH/Bell-test toolkit.

Builds CHSH operators from qubit observables, decides violation spectrally,
verifies the C^2 commutator identity, enumerates the classical strategies
behind |S| <= 2, and runs reproducible seeded Monte Carlo Bell tests.  The
through-line: the violation ceiling is controlled entirely by the two
single-party commutators [a1, a2] and [b1, b2].
"""

__version__ = "0.1.0"

from .chsh import (
    IDENTITY_SIGN,
    Report,
    Scenario,
    analyze,
    chsh_operator,
    commutator_norms,
    extremal_eigenstate,
    max_s_over_settings,
    max_s_over_states,
    s_value,
    square_identity_residual,
    verify_identity_sign,
)
from .lhv import (
    Mixture,
    Strategy,
    classical_max,
    classical_min,
    enumerate_strategies,
    mixture_correlations,
    mixture_s_value,
    strategy_s_value,
)
from .quantum import (
    DensityMatrix,
    JointDistribution,
    Observable,
    bell_state,
    bloch_of,
    correlation,
    correlation_tensor,
    joint_distribution,
    maximally_mixed,
    observable_from_bloch,
    pure_state,
)
from .sampler import PairCounts, RunConfig, RunResult, run_experiment, sample_pair
from .sweep import (
    OptimizeResult,
    PlanarSettings,
    SweepResult,
    SweepRow,
    incompatibility_sweep,
    optimize_settings,
    settings_to_scenario,
)

__all__ = [
    "__version__",
    "IDENTITY_SIGN",
    "Report",
    "Scenario",
    "analyze",
    "chsh_operator",
    "commutator_norms",
    "extremal_eigenstate",
    "max_s_over_settings",
    "max_s_over_states",
    "s_value",
    "square_identity_residual",
    "verify_identity_sign",
    "Mixture",
    "Strategy",
    "classical_max",
    "classical_min",
    "enumerate_strategies",
    "mixture_correlations",
    "mixture_s_value",
    "strategy_s_value",
    "DensityMatrix",
    "JointDistribution",
    "Observable",
    "bell_state",
    "bloch_of",
    "correlation",
    "correlation_tensor",
    "joint_distribution",
    "maximally_mixed",
    "observable_from_bloch",
    "pure_state",
    "PairCounts",
    "RunConfig",
    "RunResult",
    "run_experiment",
    "sample_pair",
    "OptimizeResult",
    "PlanarSettings",
    "SweepResult",
    "SweepRow",
    "incompatibility_sweep",
    "optimize_settings",
    "settings_to_scenario",
]
