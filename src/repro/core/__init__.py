"""The MetaCore methodology — the paper's primary contribution.

Four components (Sec. 1): problem formulation / optimization degrees of
freedom (:mod:`~repro.core.parameters`), objective functions and
constraints (:mod:`~repro.core.objectives`), the cost-evaluation engine
(:mod:`~repro.core.evaluation`), and the multiresolution design-space
search (:mod:`~repro.core.search`) with its supporting grid machinery,
point coordinates, and Bayesian BER prediction.  :mod:`~repro.core.metacore`
bundles the four into one definition per core and runs any of them
through one facade.
"""

from repro.core.parameters import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
    frozen_point,
)
from repro.core.objectives import (
    BERThresholdCurve,
    Constraint,
    DesignGoal,
    Direction,
    Objective,
)
from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.evaluation import (
    CachingEvaluator,
    EvaluationLog,
    EvaluationRecord,
    Evaluator,
    FunctionEvaluator,
    TimedEvaluation,
)
from repro.core.parallel import ParallelEvaluator
from repro.core.grid import GridSample, Region
from repro.core.interpolate import point_coordinates
from repro.core.bayes import (
    BayesianBERPredictor,
    Gaussian,
    observation_from_counts,
)
from repro.core.search import MetacoreSearch, SearchConfig, SearchResult
from repro.core.metacore import (
    MetaCore,
    MetaCoreDefinition,
    definition_for_spec,
    metacore_definition,
    metacore_kinds,
    register_metacore,
)
from repro.core.strategies import (
    STRATEGIES,
    EvolutionaryStrategy,
    validate_strategy,
)
from repro.core.baselines import (
    ExhaustiveSearch,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.core.pareto import dominates, pareto_front
from repro.core.sensitivity import (
    ParameterSensitivity,
    analyze_sensitivity,
    format_sensitivity_table,
)
from repro.core.batch import SpecificationSweep, SweepRow

__all__ = [
    "ContinuousParameter",
    "Correlation",
    "DesignSpace",
    "DiscreteParameter",
    "Point",
    "frozen_point",
    "BERThresholdCurve",
    "Constraint",
    "DesignGoal",
    "Direction",
    "Objective",
    "CachingEvaluator",
    "EvaluationLog",
    "EvaluationRecord",
    "Evaluator",
    "FunctionEvaluator",
    "ParallelEvaluator",
    "PersistentEvalCache",
    "TimedEvaluation",
    "evaluator_fingerprint",
    "GridSample",
    "Region",
    "point_coordinates",
    "BayesianBERPredictor",
    "Gaussian",
    "observation_from_counts",
    "MetacoreSearch",
    "SearchConfig",
    "SearchResult",
    "MetaCore",
    "MetaCoreDefinition",
    "definition_for_spec",
    "metacore_definition",
    "metacore_kinds",
    "register_metacore",
    "STRATEGIES",
    "EvolutionaryStrategy",
    "validate_strategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "SimulatedAnnealing",
    "dominates",
    "pareto_front",
    "ParameterSensitivity",
    "analyze_sensitivity",
    "format_sensitivity_table",
    "SpecificationSweep",
    "SweepRow",
]
