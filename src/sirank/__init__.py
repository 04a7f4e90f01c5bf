"""Scale-invariant ranking models and experiment tooling.

The scoring core combines a deep tower over scale-free features with a wide
bilinear term over logarithms of scale-variant features, which makes pairwise
score differences exactly invariant to per-query positive rescaling; its
forward and backward passes are written out by hand. The rest of the package
supplies synthetic retrieval data, five classic ranking losses with analytic
score gradients, NDCG and test statistics, perturbation cases, and a trainer
that reproduces the full loss-by-mode comparison grid.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    ParseError,
    SchemaError,
    TrainingError,
    ValidationError,
)
from .data import (
    Dataset,
    FeatureSchema,
    QueryFeature,
    QueryRecord,
    StandardizationStats,
    apply_standardization,
    fit_standardization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    split_holdout,
)
from .generator import GeneratorConfig, generate
from .scoring import (
    MODES,
    Ranking,
    build_model,
    invariance_gap,
    load_checkpoint,
    rank,
    save_checkpoint,
    scale_query,
    score_query,
)
from .losses import (
    LOSS_NAMES,
    LossOutput,
    lambdarank_loss,
    listmle_loss,
    listnet_loss,
    loss_by_name,
    pairwise_win_prob,
    rank_distribution,
    ranknet_loss,
    softrank_objective,
)
from .metrics import (
    EvalResult,
    bonferroni,
    mean_ndcg,
    ndcg,
    random_ranker_mean_ndcg,
    two_sample_t_test,
)
from .perturb import CASE_IDS, DEFAULT_TARGETS, PerturbationCase, apply_case
from .trainer import (
    ExperimentConfig,
    ExperimentReport,
    TrainConfig,
    render_csv,
    render_text,
    run_experiment,
    train,
)

# apply_standardization stays importable for the benchmark workloads, which
# call it; nothing else uses it, so it is left out of __all__
__all__ = [
    "__version__",
    # errors
    "DomainError", "ValidationError", "ParseError", "SchemaError", "ConfigError",
    "ContractError", "TrainingError",
    # data
    "FeatureSchema", "QueryFeature", "QueryRecord", "Dataset",
    "StandardizationStats", "load_dataset", "save_dataset", "load_schema",
    "save_schema", "fit_standardization", "split_holdout",
    # synthetic data
    "GeneratorConfig", "generate",
    # scoring
    "MODES", "build_model", "score_query", "rank", "Ranking", "scale_query",
    "invariance_gap", "save_checkpoint", "load_checkpoint",
    # losses
    "LOSS_NAMES", "LossOutput", "loss_by_name", "ranknet_loss", "lambdarank_loss",
    "listnet_loss", "listmle_loss", "softrank_objective", "rank_distribution",
    "pairwise_win_prob",
    # metrics
    "ndcg", "mean_ndcg", "EvalResult", "random_ranker_mean_ndcg",
    "two_sample_t_test", "bonferroni",
    # perturbation
    "PerturbationCase", "apply_case", "CASE_IDS", "DEFAULT_TARGETS",
    # training
    "TrainConfig", "train", "ExperimentConfig", "ExperimentReport",
    "run_experiment", "render_text", "render_csv",
]
