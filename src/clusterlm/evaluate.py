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
import operator
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import islice

import numpy as np

from .backoff import BackoffModel, fillup, train_backoff
from .classmodel import ClassModel, ClusterMap, estimate_class_model, init_clustering
from .corpus import CountTable, Vocabulary, build_vocabulary, count_events, sentence_ids
from .criterion import combine_word_counts
from .discounting import Discount, bigram_discount
from .errors import ConfigError, ModelIntegrityError
from .exchange import DEFAULT_LAMBDA_GRID, ExchangeConfig, ExchangeResult, run_exchange

METHODS = ("back_bo", "back_cl", "adapt_bo", "adapt_cl", "fillup", "clust_adapt")
SCORE_BLOCK = 1024  # sentences per ``probs`` call: a block stays near a megabyte


@dataclass
class EvalReport:
    model_id: str
    perplexity: float
    tokens_scored: int
    oov_tokens: int
    oov_rate: float
    adaptation_words: int = 0
    vocab_md5: str = ""


def perplexity(
    probs_fn,
    sentences,
    vocab: Vocabulary,
    score_oov: bool = False,
    model_id: str = "",
    adaptation_words: int = 0,
    vocab_md5: str = "",
) -> EvalReport:
    """Sentence-level perplexity under ``probs_fn(contexts, words)``, which
    gives p(w|v) for each pair of two id arrays (a model's ``probs``).

    Every sentence is framed with the begin/end markers; the end marker is
    scored, the begin marker only conditions.  Out-of-vocabulary positions
    are skipped unless ``score_oov`` is set, but still serve as (unknown)
    context for their successor.  The corpus is scored ``SCORE_BLOCK``
    sentences at a time, and the natural logs are added one by one in
    corpus order, so the result does not depend on the block size.
    """
    log_sum, scored, oov = 0.0, 0, 0
    sentences = iter(sentences)
    while block := [sentence_ids(sent, vocab) for sent in islice(sentences, SCORE_BLOCK)]:
        contexts = np.array([v for ids in block for v in ids[:-1]])
        words = np.array([w for ids in block for w in ids[1:]])
        unknown = words == vocab.unk_id
        oov += int(np.count_nonzero(unknown))
        if not score_oov:
            contexts, words = contexts[~unknown], words[~unknown]
        p = probs_fn(contexts, words)
        if not (p > 0.0).all():
            i = int(np.argmin(p > 0.0))
            raise ModelIntegrityError(
                f"model returned p={float(p[i])!r} for id pair ({contexts[i]}, {words[i]})")
        log_sum = reduce(operator.add, map(math.log, p.tolist()), log_sum)
        scored += p.size
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
        vocab_md5=vocab_md5,
    )


def relative_improvement(baseline: float, treatment: float) -> float:
    """Relative reduction of ``treatment`` vs ``baseline``, in percent."""
    if baseline == 0:
        raise ConfigError("baseline value must be nonzero")
    return 100.0 * (baseline - treatment) / baseline


@dataclass
class SuiteConfig:
    vocab_size: int = 20000
    clusters: int = 500
    cutoff: int = 1
    discount: float | None = None
    max_iterations: int = 20
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    methods: tuple[str, ...] = METHODS
    score_oov: bool = False


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


def _clamp_clusters(requested: int, vocab: Vocabulary, notes: list[str]) -> int:
    movable = len(vocab) - 3
    if requested > movable:
        notes.append(
            f"clusters reduced {requested} -> {movable} to fit the vocabulary"
        )
        return movable
    return requested


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
    counts: CountTable, vocab: Vocabulary, k: int, cfg: SuiteConfig
) -> ExchangeResult:
    """Exchange clustering of ``counts`` into k classes per side, from the
    frequency init."""
    xc = ExchangeConfig(max_iterations=cfg.max_iterations, discount=cfg.discount)
    init = init_clustering(counts, k, k, vocab)
    return run_exchange(counts, None, init, xc, vocab=vocab)


def train_class_model(
    counts: CountTable, vocab: Vocabulary, k: int, cfg: SuiteConfig, label: str
) -> tuple[ClassModel, ExchangeResult]:
    """``cluster_words``, then the class model estimated on its map."""
    result = cluster_words(counts, vocab, k, cfg)
    return _class_model(counts, result.cluster_map, vocab, cfg, label), result


def adapt_class_model(
    adapt_counts: CountTable, back_counts: CountTable, init: ClusterMap,
    vocab: Vocabulary, cfg: SuiteConfig,
) -> tuple[ClassModel, ExchangeResult]:
    """Clustered adaptation: adaptive exchange from ``init``, then the class
    model estimated on the counts interpolated with the chosen weight."""
    xc = ExchangeConfig(
        max_iterations=cfg.max_iterations, lambda_grid=cfg.lambda_grid,
        discount=cfg.discount,
    )
    result = run_exchange(adapt_counts, back_counts, init, xc, vocab=vocab)
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
    """
    unknown = set(cfg.methods) - set(METHODS)
    if unknown:
        raise ConfigError(f"unknown methods: {sorted(unknown)}")
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
            vocab_md5=vocab.checksum(),
        )
        if size is None:
            result.baseline[method] = rep
        else:
            result.adapted.setdefault(size, {})[method] = rep
        return rep

    wants_back = {"back_bo", "back_cl"} & set(cfg.methods)
    if wants_back:
        vocab_b = build_vocabulary([], back_sents, cfg.vocab_size)
        counts_b = count_events(back_sents, vocab_b)
        if "back_bo" in cfg.methods:
            ev(train_backoff_model(counts_b, vocab_b, cfg), vocab_b, "back_bo", None)
        if "back_cl" in cfg.methods:
            k = _clamp_clusters(cfg.clusters, vocab_b, notes)
            model, _ = train_class_model(counts_b, vocab_b, k, cfg, "back_cl")
            ev(model, vocab_b, "back_cl", None)

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
        vocab_s = build_vocabulary(adapt_slice, back_sents, cfg.vocab_size)
        adapt_counts = count_events(adapt_slice, vocab_s)
        back_counts = count_events(back_sents, vocab_s)
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
            init = cluster_words(back_counts, vocab_s, k, cfg).cluster_map
            model, ad = adapt_class_model(adapt_counts, back_counts, init, vocab_s, cfg)
            result.lambdas[size] = ad.lam
            ev(model, vocab_s, "clust_adapt", size, actual)

    return result


def _fmt_pp(value: float) -> str:
    """Three significant figures, plain decimal notation."""
    if value == 0 or not math.isfinite(value):
        return str(value)
    digits = 2 - int(math.floor(math.log10(abs(value))))
    rounded = round(value, digits)
    return f"{rounded:.{max(digits, 0)}f}"


def format_report(result: SuiteResult) -> str:
    lines = []
    if result.baseline:
        lines.append(
            "background-vocabulary baselines "
            "(different vocabulary; perplexities not directly comparable "
            "to the adapted models):"
        )
        lines.append(f"  {'model':<12} {'PP':>10} {'OOV%':>7} {'tokens':>9}")
        for method in METHODS:
            rep = result.baseline.get(method)
            if rep is None:
                continue
            lines.append(
                f"  {method:<12} {_fmt_pp(rep.perplexity):>10} "
                f"{100 * rep.oov_rate:>6.2f}% {rep.tokens_scored:>9}"
            )
        lines.append("")
    if result.adapted:
        sizes = sorted(result.adapted)
        methods = [
            m for m in METHODS if any(m in result.adapted[s] for s in sizes)
        ]
        show_delta = "adapt_cl" in methods and "clust_adapt" in methods
        head = f"  {'adapt. words':>12}" + "".join(f"{m:>12}" for m in methods)
        if result.lambdas:
            head += f"{'lambda':>8}"
        if show_delta:
            head += f"{'ca-vs-cl%':>11}"
        lines.append("adapted models (one row per adaptation slice):")
        lines.append(head)
        for s in sizes:
            reports = result.adapted[s]
            words = next(iter(reports.values())).adaptation_words
            row = f"  {words:>12}"
            for m in methods:
                rep = reports.get(m)
                row += f"{_fmt_pp(rep.perplexity):>12}" if rep else f"{'-':>12}"
            if result.lambdas:
                lam = result.lambdas.get(s)
                row += f"{lam:>8.2f}" if lam is not None else f"{'-':>8}"
            if show_delta:
                cl = reports.get("adapt_cl")
                ca = reports.get("clust_adapt")
                if cl and ca:
                    gain = relative_improvement(cl.perplexity, ca.perplexity)
                    row += f"{gain:>+10.2f}%"
                else:
                    row += f"{'-':>11}"
            lines.append(row)
        lines.append("")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines).rstrip() + "\n"


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
