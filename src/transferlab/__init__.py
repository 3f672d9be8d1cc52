"""Workbench for modeling learning and transfer as relations on finite sets.

The package splits along the analysis it supports:

* :mod:`transferlab.relations` — finite relational systems, cascade
  composition, goal-seeking consistency, morphisms and quotients;
* :mod:`transferlab.measures` — probability tables, estimation and
  divergences;
* :mod:`transferlab.learning` — learning systems with exact exhaustive
  selection, and the decomposition audits;
* :mod:`transferlab.transfer` — transfer systems (instance, parameter,
  pooled-penalized and feature-representation rules);
* :mod:`transferlab.structural` — roughness, shared-structure search,
  structural transferability;
* :mod:`transferlab.behavioral` — transfer distances, the error-bound
  decomposition, behavioral transferability;
* :mod:`transferlab.evaluation` — negative transfer, neighborhoods,
  generalists;
* :mod:`transferlab.scenarios` — seeded synthetic source/target pairs;
* :mod:`transferlab.cli` / :mod:`transferlab.specio` — the document
  format and command-line front end.
"""

__version__ = "0.1.0"

from .errors import TransferLabError
from .relations import (
    FiniteSet,
    FiniteSystem,
    GoalSeekingSpec,
    Morphism,
    QuotientReport,
    as_input_output,
    cascade,
    check_goal_seeking,
    enumerate_morphisms,
    identity_morphism,
    is_function_type,
    make_system,
    quotient,
)
from .measures import (
    ConditionalMeasure,
    EmpiricalMeasure,
    divergence,
    estimate_measure,
)
from .learning import (
    AlgorithmSpec,
    Dataset,
    EvaluationContext,
    HypothesisClass,
    LearningSystem,
    LossSpec,
    SystemPack,
    empirical_risk,
    evaluate,
    full_function_class,
    generalization_error,
    run_algorithm,
    verify_learning_axioms,
)
from .transfer import (
    FeatureRepSpec,
    Knowledge,
    TransferSystem,
    classify_approach,
    classify_setting,
    pool_data,
    run_transfer,
    select_knowledge,
    verify_transfer_is_learning_system,
)
from .structural import (
    homomorphic_structures,
    structural_transferability,
    transfer_roughness,
    truth_graph,
    useful_structures,
    valid_structures,
)
from .behavioral import (
    BoundReport,
    behavioral_transferability,
    bound_check,
    transfer_distance,
)
from .evaluation import (
    TransferOutcome,
    detect_negative_transfer,
    is_generalist,
    transferability,
)
from .scenarios import ScenarioSpec, generate_pair, shift_ladder

__all__ = [
    "AlgorithmSpec",
    "BoundReport",
    "ConditionalMeasure",
    "Dataset",
    "EmpiricalMeasure",
    "EvaluationContext",
    "FeatureRepSpec",
    "FiniteSet",
    "FiniteSystem",
    "GoalSeekingSpec",
    "HypothesisClass",
    "Knowledge",
    "LearningSystem",
    "LossSpec",
    "Morphism",
    "QuotientReport",
    "ScenarioSpec",
    "SystemPack",
    "TransferLabError",
    "TransferOutcome",
    "TransferSystem",
    "as_input_output",
    "behavioral_transferability",
    "bound_check",
    "cascade",
    "check_goal_seeking",
    "classify_approach",
    "classify_setting",
    "detect_negative_transfer",
    "divergence",
    "empirical_risk",
    "enumerate_morphisms",
    "estimate_measure",
    "evaluate",
    "full_function_class",
    "generalization_error",
    "generate_pair",
    "homomorphic_structures",
    "identity_morphism",
    "is_function_type",
    "is_generalist",
    "make_system",
    "pool_data",
    "quotient",
    "run_algorithm",
    "run_transfer",
    "select_knowledge",
    "shift_ladder",
    "structural_transferability",
    "transfer_distance",
    "transfer_roughness",
    "transferability",
    "truth_graph",
    "useful_structures",
    "valid_structures",
    "verify_learning_axioms",
    "verify_transfer_is_learning_system",
]
