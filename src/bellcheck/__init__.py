"""bellcheck: simulate and verify Bell/CHSH experiments.

Local hidden-variable models run as actual trial sequences; the CHSH
statistic is computed empirically and exactly; the |S| <= 2 bound is
verified through the 16 equivalence classes of effective hidden
variables; singlet sampling provides the violating side; parity
constraint systems and joint-probability feasibility round out the
toolbox.
"""

from .core import (
    ALL_BEHAVIORS,
    SETTING_PAIRS,
    Behavior,
    CorrelationTable,
    LhvModel,
    behavior_of,
)
from .engine import (
    ChshReport,
    ClassFrequencies,
    MiDiagnostic,
    Series,
    TrialLog,
    chsh_report,
    chsh_statistic,
    class_frequencies,
    empirical_table,
    estimate_correlation,
    exact_class_frequencies,
    exact_class_weights,
    exact_correlation_table,
    hoeffding_epsilon,
    mi_diagnostic,
    run_experiment,
    theoretical_chsh,
    theoretical_correlations,
)
from .errors import BoundViolationError, ModelError, ResourceLimitError
from .ghz import (
    ProductConstraint,
    SatResult,
    check_satisfiable,
    ghz_constraint_system,
    ghz_correlation,
)
from .jointprob import (
    BehaviorStatistics,
    FeasibilityResult,
    JointProbability,
    ViolatedFacet,
    chsh_criterion,
    jp_feasible,
    jp_from_lhv,
    statistics_of,
)
from .quantum import (
    TSIRELSON_ANGLES,
    AnglePair,
    quantum_chsh,
    quantum_correlation_table,
    run_quantum_experiment,
    singlet_correlation,
)
from .zoo import (
    available_models,
    conspiracy_model,
    cosine_sign_model,
    dice_coin_model,
    get_model,
)

__version__ = "0.1.0"
