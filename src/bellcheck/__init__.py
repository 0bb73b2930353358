"""bellcheck: simulate and verify Bell/CHSH experiments.

Local hidden-variable models and the singlet are sampled into integer
counts per setting pair, and every report is computed from those counts. The CHSH statistic is computed empirically and exactly;
the |S| <= 2 bound is verified through the 16 equivalence classes of
effective hidden variables; the singlet provides the violating side;
parity constraint systems and joint-probability feasibility round out
the toolbox.
"""

from .core import (
    ALL_BEHAVIORS,
    SETTING_PAIRS,
    Behavior,
    CorrelationTable,
    LhvModel,
    ModelError,
    behavior_of,
)
from .engine import (
    VIOLATION_DELTA,
    ChshReport,
    ClassFrequencies,
    MiDiagnostic,
    RunCounts,
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    exact_class_weights,
    exact_correlation_table,
    exact_mi_holds,
    hoeffding_epsilon,
    mi_diagnostic,
    theoretical_chsh,
    theoretical_correlations,
    violation_p_value,
)
from .ghz import (
    ProductConstraint,
    SatResult,
    check_satisfiable,
    ghz_constraint_system,
    ghz_correlation,
)
from .jointprob import (
    BehaviorStatistics,
    Facet,
    FeasibilityResult,
    JointProbability,
    chsh_criterion,
    jp_feasible,
    jp_from_lhv,
    statistics_of,
)
from .quantum import (
    TSIRELSON_ANGLES,
    AnglePair,
    count_quantum_experiment,
    quantum_chsh,
    quantum_correlation_table,
    singlet_correlation,
)
from .zoo import (
    available_models,
    conspiracy_model,
    cosine_sign_model,
    dice_coin_model,
    get_model,
)

__version__ = "0.4.0"
