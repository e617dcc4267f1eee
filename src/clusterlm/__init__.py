"""Class bigram language models: exchange clustering, backoff baselines,
count interpolation, and perplexity evaluation."""

from types import ModuleType as _ModuleType

from .backoff import BackoffModel, fillup, train_backoff
from .classmodel import (
    ClassModel,
    ClusterMap,
    class_counts,
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
    id_blocks,
    read_sentences,
    tokenize_line,
)
from .criterion import (
    AdaptiveObjective,
    StandardObjective,
    clustering_score,
    combine_word_counts,
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
    suite_records,
    write_records,
)
from .exchange import (
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
