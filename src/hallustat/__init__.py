"""Exact and empirical study of hallucination rates for rote memorizers.

Counting over shortlex-enumerated strings, length-CDF lower bounds, a
threshold memorizing learner, sufficiency/necessity sample-size bounds with
an exhaustive no-free-lunch verifier, diagonal constructions against finite
model lists, and smallest high-mass block sets for i.i.d. sources.
"""

__version__ = "0.1.0"

from .core import (
    Alphabet,
    Str,
    count_upto,
    empty_string,
    shortlex_index,
    shortlex_string,
    strings_of_length,
    strings_upto,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    DominationError,
    WorkbenchError,
)
from .evaluation import (
    HallucinationReport,
    SweepRow,
    derive_stream,
    evaluate_hp,
    exact_hp,
    hoeffding_halfwidth,
    mc_hp,
    run_trial,
    sweep,
    sweep_csv,
    unmemorized_mass_lower_bound,
)
from .flrm import (
    FlrmTrainer,
    MemorizerModel,
    model_from_json,
    model_to_json,
    threshold_length,
    train,
)
from .limits import (
    DiagonalConstruction,
    MarkovCheck,
    NecessityBound,
    NflInstance,
    NflReport,
    SufficiencyBound,
    TailCheck,
    construct_hard_support,
    diagonalize,
    general_lambda_t,
    lambda_t,
    markov_tail_check,
    memorize_constant_trainer,
    nfl_brute_force,
    nfl_sizes,
    random_table_models,
    required_sample_size,
    verify_diagonal,
)
from .measures import (
    CdfLowerBound,
    FiniteSupport,
    GeometricTail,
    LengthFactored,
    ReachesOne,
    dominates,
)
from .oracle import (
    Constant,
    Echo,
    GroundTruth,
    IndexShift,
    Labeler,
    TrainingSequence,
    generate_qualified,
    is_qualified,
)
from .shannon import (
    SourceModel,
    TypicalSetReport,
    check_source_coding,
    smallest_high_mass_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
