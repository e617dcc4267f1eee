"""Perplexity evaluation, the train/adapt pipeline, and the comparison suite.

``train_backoff_model``, ``fillup_model``, ``train_class_model`` and
``adapt_class_model`` build every method of the comparison.  Both
``experiment_suite`` and the command line (``clusterlm.cli``) call them, so
a method is built by the same code whichever of the two runs it.  The
pipeline and the suite call ``run_exchange`` and ``perplexity`` through this
module's globals, which the benchmark's ``trend`` workload swaps to time
each step.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifact import each
from .backoff import BackoffModel, fillup, train_backoff
from .classmodel import ClassModel, ClusterMap, estimate_class_model, init_clustering
from .corpus import (
    CountTable, Vocabulary, build_vocabulary, count_events, id_blocks, map_counts,
    word_frequencies,
)
from .criterion import combine_word_counts
from .discounting import Discount, bigram_discount
from .errors import ConfigError, ModelIntegrityError
from .exchange import ExchangeResult, run_exchange

METHODS = ("back_bo", "back_cl", "adapt_bo", "adapt_cl", "fillup", "clust_adapt")
DEFAULT_LAMBDA_GRID = tuple(i / 10.0 for i in range(11))


@dataclass
class EvalReport:
    model_id: str
    perplexity: float
    tokens_scored: int
    oov_tokens: int
    oov_rate: float
    adaptation_words: int = 0
    vocab_md5: str = ""


def _add_logs(log_sum: float, probs_fn, keys: np.ndarray, n: int) -> float:
    """``log_sum`` plus the natural log of p(w|v) for each key v·n+w, added
    one by one in the order of ``keys``.  ``probs_fn`` is called once, on
    the distinct pairs, sorted, and each distinct value of p is logged
    once: a model's ``probs`` is elementwise, so the logs gathered back into
    the order of ``keys`` are those of each key.  Its arrays are freed when
    it returns, before the next block is read."""
    pairs, at = np.unique(keys, return_inverse=True)
    p = probs_fn(*np.divmod(pairs, n))
    if not (p > 0.0).all():
        i = int(np.argmin(p > 0.0))
        raise ModelIntegrityError(
            f"model returned p={float(p[i])!r} for id pair {divmod(int(pairs[i]), n)}")
    del pairs  # freed before the second sort, which can set the peak
    values, of = np.unique(p, return_inverse=True)
    logs = each(math.log, values)[of[at]]
    logs[0] += log_sum  # then added one by one, not pairwise as np.sum adds
    return float(np.add.accumulate(logs, out=logs)[-1])


def perplexity(
    probs_fn,
    sentences,
    vocab: Vocabulary,
    score_oov: bool = False,
    model_id: str = "",
    adaptation_words: int = 0,
) -> EvalReport:
    """Sentence-level perplexity under ``probs_fn(contexts, words)``, which
    gives p(w|v) for each pair of two id arrays (a model's ``probs``), of
    ``sentences`` or of the corpus file at that path.

    Every sentence is framed with the begin/end markers; the end marker is
    scored, the begin marker only conditions.  Out-of-vocabulary positions
    are skipped unless ``score_oov`` is set, but still serve as (unknown)
    context for their successor.  The corpus is scored in the blocks of
    ``corpus.id_blocks``, one ``probs_fn`` call each on the block's
    distinct pairs, and the natural logs of its positions are added one by
    one in corpus order, so the result does not depend on where the blocks
    are cut.
    """
    n = len(vocab)
    log_sum, scored, oov = 0.0, 0, 0
    for contexts, words in id_blocks(sentences, vocab):
        unknown = words == vocab.unk_id
        oov += int(np.count_nonzero(unknown))
        keys = contexts * n
        keys += words
        del contexts, words  # freed before the sort, where scoring peaks
        if not score_oov:
            keys = keys[~unknown]
        if keys.size:
            log_sum = _add_logs(log_sum, probs_fn, keys, n)
            scored += keys.size
    if scored == 0:
        raise ConfigError("no scorable positions in the evaluation corpus")
    positions = scored if score_oov else scored + oov
    return EvalReport(
        model_id=model_id,
        perplexity=math.exp(-log_sum / scored),
        tokens_scored=scored,
        oov_tokens=oov,
        oov_rate=oov / positions if positions else 0.0,
        adaptation_words=adaptation_words,
        vocab_md5=vocab.checksum(),
    )


def relative_improvement(baseline: float, treatment: float) -> float:
    """Relative reduction of ``treatment`` vs ``baseline``, in percent."""
    if baseline == 0:
        raise ConfigError("baseline value must be nonzero")
    return 100.0 * (baseline - treatment) / baseline


@dataclass(frozen=True)
class SuiteConfig:
    vocab_size: int = 20000
    clusters: int = 500
    cutoff: int = 1
    discount: float | None = None
    max_iterations: int = 20
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    methods: tuple[str, ...] = METHODS
    score_oov: bool = False

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size must be at least 4, got {self.vocab_size}")
        if self.clusters < 2:
            raise ConfigError(f"clusters must be at least 2, got {self.clusters}")
        if self.cutoff < 0:
            raise ConfigError(f"cutoff must be nonnegative, got {self.cutoff}")
        if self.discount is not None:
            Discount(self.discount)
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if not self.lambda_grid:
            raise ConfigError("lambda grid is empty")
        if any(not 0.0 <= g <= 1.0 for g in self.lambda_grid):
            raise ConfigError("lambda grid values must lie in [0, 1]")
        if not set(self.methods) <= set(METHODS):
            raise ConfigError(f"unknown methods: {sorted(set(self.methods) - set(METHODS))}")


@dataclass
class SuiteResult:
    config: dict
    baseline: dict[str, EvalReport] = field(default_factory=dict)
    adapted: dict[int, dict[str, EvalReport]] = field(default_factory=dict)
    lambdas: dict[int, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _take_words(sentences: list[list[str]], budget: int) -> tuple[list[list[str]], int]:
    """Longest sentence-aligned prefix not exceeding the word budget."""
    out: list[list[str]] = []
    total = 0
    for sent in sentences:
        if total + len(sent) > budget:
            break
        out.append(sent)
        total += len(sent)
    return out, total


def _clamp_clusters(requested: int, vocab: Vocabulary, notes: list[str] | None) -> int:
    movable = len(vocab) - 3
    if requested > movable and notes is not None:
        notes.append(f"clusters reduced {requested} -> {movable} to fit the vocabulary")
    return min(requested, movable)


def train_backoff_model(counts: CountTable, vocab: Vocabulary, cfg: SuiteConfig) -> BackoffModel:
    """Backoff model on ``counts`` with the discount of its own table."""
    return train_backoff(
        counts, bigram_discount(cfg.discount, counts),
        cutoff=cfg.cutoff, vocab_md5=vocab.checksum(),
    )


def fillup_model(
    adapt_counts: CountTable, background: BackoffModel, cfg: SuiteConfig
) -> BackoffModel:
    """Fill-up of ``background`` with the discount of the adaptation table."""
    return fillup(adapt_counts, background, bigram_discount(cfg.discount, adapt_counts))


def _class_model(counts, cm: ClusterMap, vocab: Vocabulary, cfg: SuiteConfig, label: str):
    forced = Discount(cfg.discount) if cfg.discount is not None else None
    return estimate_class_model(
        counts, cm, discount=forced, vocab_md5=vocab.checksum(), label=label
    )


def cluster_words(
    counts: CountTable, vocab: Vocabulary, k: int, cfg: SuiteConfig, notes: list[str] | None = None
) -> ExchangeResult:
    """Exchange clustering of ``counts`` into k classes per side, from the
    frequency init; a k above the clusterable words is reduced, with a note."""
    k = _clamp_clusters(k, vocab, notes)
    init = init_clustering(counts, k, k, vocab)
    return run_exchange(counts, None, init, cfg, vocab=vocab)


def train_class_model(
    counts: CountTable, vocab: Vocabulary, k: int, cfg: SuiteConfig, label: str,
    notes: list[str] | None = None,
) -> tuple[ClassModel, ExchangeResult]:
    """``cluster_words``, then the class model estimated on its map."""
    result = cluster_words(counts, vocab, k, cfg, notes)
    return _class_model(counts, result.cluster_map, vocab, cfg, label), result


def adapt_class_model(
    adapt_counts: CountTable, back_counts: CountTable, init: ClusterMap,
    vocab: Vocabulary, cfg: SuiteConfig,
) -> tuple[ClassModel, ExchangeResult]:
    """Clustered adaptation: adaptive exchange from ``init``, then the class
    model estimated on the counts interpolated with the chosen weight."""
    result = run_exchange(adapt_counts, back_counts, init, cfg, vocab=vocab)
    combined = combine_word_counts(adapt_counts, back_counts, result.lam)
    return _class_model(combined, result.cluster_map, vocab, cfg, "clust_adapt"), result


def experiment_suite(
    back_sents: list[list[str]],
    adapt_sents: list[list[str]],
    heldout_sents: list[list[str]],
    sizes: list[int],
    cfg: SuiteConfig,
) -> SuiteResult:
    """Train and evaluate the adaptation method family.

    Background-only baselines use a vocabulary built from the background
    corpus alone; the adapted models at each adaptation size share a joint
    vocabulary.  Perplexities are therefore directly comparable within each
    group but not across the two vocabularies.

    The background is clustered once per (k, words with background events), and
    ``back_cl`` and each ``clust_adapt`` start map take that map by word.  This is
    exact: the run sees only class tables and ranks words by (count, string), not
    id, and words without events rank last and keep their init classes.
    """
    if list(sizes) != sorted(sizes):
        raise ConfigError("adaptation sizes must be nondecreasing")
    result = SuiteResult(config=asdict(cfg))
    notes = result.notes
    corpus_words = sum(len(s) for s in adapt_sents)

    def ev(model, vocab, method, size, extra=0):
        rep = perplexity(
            model.probs, heldout_sents, vocab,
            score_oov=cfg.score_oov,
            model_id=method if size is None else f"{method}@{size}",
            adaptation_words=extra,
        )
        if size is None:
            result.baseline[method] = rep
        else:
            result.adapted.setdefault(size, {})[method] = rep
        return rep

    background_maps: dict[tuple, dict[str, tuple[int, int]]] = {}

    def background_map(counts: CountTable, vocab: Vocabulary, k: int) -> ClusterMap:
        ids = np.flatnonzero(counts.unigram).tolist()
        key = (k, frozenset(map(vocab.word, ids)))
        if key not in background_maps:
            cm = cluster_words(counts, vocab, k, cfg).cluster_map
            background_maps[key] = {vocab.word(w): (cm.state_of[w], cm.category_of[w]) for w in ids}
        cm = init_clustering(counts, k, k, vocab)
        for word, classes in background_maps[key].items():
            w = vocab.lookup(word)
            cm.state_of[w], cm.category_of[w] = classes
        return cm

    # the background is counted once, by word, and mapped into each vocabulary;
    # its word frequencies are counted once for every vocabulary
    back_freq = word_frequencies(back_sents)
    back_words = Vocabulary(back_freq)
    back_by_word = count_events(back_sents, back_words)
    wants_back = {"back_bo", "back_cl"} & set(cfg.methods)
    if wants_back:
        vocab_b = build_vocabulary([], back_freq, cfg.vocab_size)
        counts_b = map_counts(back_by_word, back_words, vocab_b)
        if "back_bo" in cfg.methods:
            ev(train_backoff_model(counts_b, vocab_b, cfg), vocab_b, "back_bo", None)
        if "back_cl" in cfg.methods:
            k = _clamp_clusters(cfg.clusters, vocab_b, notes)
            cm = background_map(counts_b, vocab_b, k)
            ev(_class_model(counts_b, cm, vocab_b, cfg, "back_cl"), vocab_b, "back_cl", None)

    adapted_methods = set(cfg.methods) - {"back_bo", "back_cl"}
    for size in sizes:
        if not adapted_methods:
            break
        adapt_slice, actual = _take_words(adapt_sents, size)
        if size > corpus_words:
            notes.append(
                f"size {size}: adaptation corpus has only {corpus_words} words; "
                f"using the full corpus"
            )
        if not adapt_slice:
            notes.append(f"size {size}: no sentence fits the budget, skipped")
            continue
        vocab_s = build_vocabulary(adapt_slice, back_freq, cfg.vocab_size)
        adapt_counts = count_events(adapt_slice, vocab_s)
        back_counts = map_counts(back_by_word, back_words, vocab_s)
        if {"adapt_cl", "clust_adapt"} & adapted_methods:
            k = _clamp_clusters(cfg.clusters, vocab_s, notes)

        if "adapt_bo" in cfg.methods:
            model = train_backoff_model(adapt_counts, vocab_s, cfg)
            ev(model, vocab_s, "adapt_bo", size, actual)
        if "adapt_cl" in cfg.methods:
            model, _ = train_class_model(adapt_counts, vocab_s, k, cfg, "adapt_cl")
            ev(model, vocab_s, "adapt_cl", size, actual)
        if "fillup" in cfg.methods:
            background = train_backoff_model(back_counts, vocab_s, cfg)
            ev(fillup_model(adapt_counts, background, cfg), vocab_s, "fillup", size, actual)
        if "clust_adapt" in cfg.methods:
            init = background_map(back_counts, vocab_s, k)
            model, ad = adapt_class_model(adapt_counts, back_counts, init, vocab_s, cfg)
            result.lambdas[size] = ad.lam
            ev(model, vocab_s, "clust_adapt", size, actual)

    return result


def suite_records(result: SuiteResult) -> list[dict]:
    records = []
    for method, rep in sorted(result.baseline.items()):
        rec = asdict(rep)
        rec["size"] = None
        records.append(rec)
    for size in sorted(result.adapted):
        for method, rep in sorted(result.adapted[size].items()):
            rec = asdict(rep)
            rec["size"] = size
            if method == "clust_adapt" and size in result.lambdas:
                rec["lambda"] = result.lambdas[size]
            records.append(rec)
    return records


def write_records(result: SuiteResult, path) -> None:
    payload = {
        "config": result.config,
        "records": suite_records(result),
        "notes": result.notes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(records: list[dict]) -> str:
    """One row per evaluation record, as ``suite_records`` gives them or
    ``clusterlm eval --out`` writes them: model, perplexity, OOV rate and
    tokens scored, with a λ column when some record holds one.  Records
    without a size come first, then sizes in numeric order, each by model."""
    rows = sorted(records, key=lambda r: (r.get("size") or 0, r.get("model_id", "")))
    with_lambda = any("lambda" in r for r in rows)
    head = f"{'model':<24} {'PP':>12} {'OOV%':>7} {'tokens':>9}"
    lines = [head + f" {'lambda':>8}" if with_lambda else head]
    for r in rows:
        line = (
            f"{r.get('model_id', '?'):<24} {r.get('perplexity', float('nan')):>12.3f} "
            f"{100 * r.get('oov_rate', 0.0):>6.2f}% {r.get('tokens_scored', 0):>9}"
        )
        if with_lambda:
            line += f" {r['lambda']:>8.3f}" if "lambda" in r else f" {'-':>8}"
        lines.append(line)
    return "\n".join(lines) + "\n"
