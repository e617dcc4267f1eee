"""Class bigram language models: exchange clustering, backoff baselines,
count interpolation, and perplexity evaluation."""

from types import ModuleType as _ModuleType

from .backoff import BackoffModel, fillup, train_backoff
from .classmodel import (
    ClassModel,
    ClusterMap,
    estimate_class_model,
    init_clustering,
    load_clusters,
    save_clusters,
)
from .corpus import (
    CountTable,
    Vocabulary,
    build_vocabulary,
    count_events,
    merge_counts,
    read_sentences,
    sentence_ids,
    tokenize_line,
)
from .criterion import (
    AdaptiveObjective,
    ClassCounts,
    CombinedClassCounts,
    StandardObjective,
    adaptive_score,
    aggregate_class_counts,
    combine_counts,
    combine_word_counts,
    loo_score,
)
from .discounting import Discount, discounted_distribution, estimate_discount
from .errors import (
    ClusterLMError,
    ConfigError,
    FormatError,
    InvalidMoveError,
    ModelIntegrityError,
    VocabMismatchError,
)
from .evaluate import (
    EvalReport,
    SuiteConfig,
    SuiteResult,
    experiment_suite,
    format_report,
    perplexity,
    relative_improvement,
    write_records,
)
from .exchange import (
    ExchangeConfig,
    ExchangeResult,
    IterationStats,
    optimize_lambda,
    run_exchange,
)

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
