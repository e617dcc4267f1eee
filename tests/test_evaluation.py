"""Perplexity accounting, improvement arithmetic, and the experiment suite."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

import oracles
from corpusgen import domain_corpus

from clusterlm import artifact, corpus, evaluate
from clusterlm.classmodel import estimate_class_model, init_clustering
from clusterlm.corpus import Vocabulary, build_vocabulary, count_events, id_blocks, read_sentences
from clusterlm.errors import ConfigError, ModelIntegrityError
from clusterlm.evaluate import (
    METHODS,
    SuiteConfig,
    _take_words,
    cluster_words,
    experiment_suite,
    format_report,
    perplexity,
    relative_improvement,
    suite_records,
    write_records,
)


# ------------------------------------------------------------ perplexity


def test_uniform_model_scores_vocab_size():
    vocab = Vocabulary(["a", "b", "c", "d", "e"])
    v = len(vocab)
    rep = perplexity(lambda s, w: np.full(w.shape, 1.0 / v), [["a", "b"], ["c"]], vocab)
    assert rep.perplexity == pytest.approx(v, abs=1e-9)
    assert rep.oov_tokens == 0


def test_hand_computed_perplexity():
    vocab = Vocabulary(["a", "b"])
    a, b = vocab.lookup("a"), vocab.lookup("b")
    table = {
        (vocab.bos_id, a): 0.5,
        (a, b): 0.25,
        (b, vocab.eos_id): 0.125,
    }
    rep = perplexity(
        lambda s, w: np.array([table[pair] for pair in zip(s.tolist(), w.tolist())]),
        [["a", "b"]], vocab,
    )
    assert rep.perplexity == pytest.approx(
        oracles.perplexity_by_hand([0.5, 0.25, 0.125]), rel=1e-12
    )
    assert rep.tokens_scored == 3


def _spy(table, calls):
    """A ``probs_fn`` that gives each pair its p in ``table`` (a KeyError for
    any other pair) and records the pairs of each call."""
    def probs(s, w):
        pairs = list(zip(s.tolist(), w.tolist()))
        calls.append(pairs)
        return np.array([table[pair] for pair in pairs])
    return probs


def _pp_in_order(ps):
    """Perplexity of per-position probabilities, logs added in corpus order."""
    log_sum = 0.0
    for p in ps:
        log_sum += math.log(p)
    return math.exp(-log_sum / len(ps))


def test_end_marker_scored_begin_marker_conditions_only():
    vocab = Vocabulary(["a"])
    a = vocab.lookup("a")
    table = {(vocab.bos_id, a): 0.5, (a, vocab.eos_id): 0.125}
    calls = []

    rep = perplexity(_spy(table, calls), [["a"], ["a"]], vocab)
    # one call on the block's distinct pairs, sorted; each is scored twice
    assert calls == [[(vocab.bos_id, a), (a, vocab.eos_id)]]
    assert rep.tokens_scored == 4
    assert rep.perplexity == _pp_in_order([0.5, 0.125, 0.5, 0.125])
    assert all(w != vocab.bos_id for _, w in calls[0])


def test_oov_skipped_but_still_conditions():
    vocab = Vocabulary(["a"])
    a = vocab.lookup("a")
    table = {(vocab.bos_id, a): 0.5, (vocab.unk_id, a): 0.25, (a, vocab.eos_id): 0.125}
    calls = []

    rep = perplexity(_spy(table, calls), [["a", "zzz", "a"]], vocab)
    # the unknown position is skipped, but the next word sees unk as context
    assert calls == [[(vocab.unk_id, a), (vocab.bos_id, a), (a, vocab.eos_id)]]
    assert rep.tokens_scored == 3
    assert rep.perplexity == _pp_in_order([0.5, 0.25, 0.125])
    assert rep.oov_tokens == 1
    assert rep.oov_rate == pytest.approx(1 / 4)


def test_oov_scored_when_requested():
    vocab = Vocabulary(["a"])
    rep = perplexity(
        lambda s, w: np.full(w.shape, 0.25), [["a", "zzz", "a"]], vocab, score_oov=True
    )
    assert rep.tokens_scored == 4
    assert rep.oov_tokens == 1


def test_nonpositive_probability_is_an_integrity_error():
    vocab = Vocabulary(["a"])
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(ModelIntegrityError):
            perplexity(lambda s, w: np.full(w.shape, bad), [["a"]], vocab)


def test_blocks_score_like_one_sum_in_corpus_order(monkeypatch, tmp_path):
    # A corpus of several scoring blocks, unknown words included: the blocks
    # add the same logs in the same order as a per-token loop.  Extra inputs:
    # unknown words scored, unknown words as the context of most positions,
    # the corpus streamed from a file, and a sentence longer than a block.
    monkeypatch.setattr(corpus, "ID_BLOCK", 4096)
    rng = random.Random(7)
    vocab = Vocabulary("abcde")
    table = np.array([[rng.uniform(0.01, 1.0) for _ in range(len(vocab))]
                      for _ in range(len(vocab))])
    plain = [rng.choices("abcdez", k=rng.randint(1, 30)) for _ in range(5000)]
    unknown_contexts = [[t for _ in range(rng.randint(1, 8))
                         for t in (rng.choice("xyz"), rng.choice("abcde"))]
                        for _ in range(3000)]
    long_sentence = plain[:300] + [rng.choices("abcdez", k=5000)] + plain[300:600]
    path = tmp_path / "heldout.txt"
    path.write_text("".join(" ".join(s) + "\n" for s in plain))
    cases = [(plain, plain, False), (plain, plain, True),
             (unknown_contexts, unknown_contexts, False),
             (plain, read_sentences(path), False), (long_sentence, long_sentence, False)]
    for sentences, given, score_oov in cases:
        want = 0.0
        scored = 0
        for sent in sentences:
            ids = [vocab.bos_id] + [vocab.lookup(t) for t in sent] + [vocab.eos_id]
            for v, w in zip(ids, ids[1:]):
                if score_oov or w != vocab.unk_id:
                    want += math.log(table[v, w])
                    scored += 1
        assert len(list(id_blocks(sentences, vocab))) >= 3
        rep = perplexity(lambda s, w: table[s, w], given, vocab, score_oov=score_oov)
        assert rep.tokens_scored == scored
        assert rep.perplexity == math.exp(-want / scored)


def test_a_class_model_with_repeated_probabilities_scores_logs_in_corpus_order():
    # A class model gives many pairs one probability (the contexts of a state
    # share its transitions), so far fewer distinct values than distinct
    # pairs are logged; the perplexity is still the bits of one math.log per
    # position, added in corpus order
    train = domain_corpus("target", seed=21, n_words=3000, topic_size=20)
    held = domain_corpus("target", seed=22, n_words=2000, topic_size=20)
    vocab = build_vocabulary(train, [], 60)
    counts = count_events(train, vocab)
    model = estimate_class_model(counts, init_clustering(counts, 4, 4, vocab))
    pairs = [(v, w) for sent in held
             for ids in [[vocab.bos_id] + [vocab.lookup(t) for t in sent] + [vocab.eos_id]]
             for v, w in zip(ids, ids[1:]) if w != vocab.unk_id]
    contexts, words = (np.array(x) for x in zip(*pairs))
    ps = model.probs(contexts, words)
    assert len(np.unique(ps)) < len(set(pairs)) / 2
    want = 0.0
    for p in ps.tolist():
        want += math.log(p)
    rep = perplexity(model.probs, held, vocab)
    assert rep.tokens_scored == len(pairs)
    assert rep.perplexity == math.exp(-want / len(pairs))


def test_blocks_with_nothing_to_score(monkeypatch, tmp_path):
    # A run of sentences of unknown words mid-corpus leaves blocks whose only
    # scored pair is (unk, end marker), and trailing blank lines of a corpus
    # file leave a last block with no pair at all: both score like a
    # per-token loop, with or without the unknown positions.
    monkeypatch.setattr(corpus, "ID_BLOCK", 16)
    monkeypatch.setattr(artifact, "LINE_BLOCK", 40)
    rng = random.Random(9)
    vocab = Vocabulary("abc")
    table = np.array([[rng.uniform(0.01, 1.0) for _ in range(len(vocab))]
                      for _ in range(len(vocab))])
    sentences = ([rng.choices("abcz", k=rng.randint(1, 6)) for _ in range(40)]
                 + [rng.choices("xyz", k=rng.randint(1, 6)) for _ in range(40)]
                 + [rng.choices("abcz", k=rng.randint(1, 6)) for _ in range(40)])
    path = tmp_path / "heldout.txt"
    path.write_text("".join(" ".join(s) + "\n" for s in sentences) + "\n" * 200)
    for given in (sentences, path):
        assert {vocab.unk_id, vocab.eos_id} in [set(w.tolist()) for _, w in id_blocks(given, vocab)]
    assert min(len(c) for c, _ in id_blocks(path, vocab)) == 0
    for score_oov in (False, True):
        log_sum, scored, oov = 0.0, 0, 0
        for sent in sentences:
            ids = [vocab.bos_id] + [vocab.lookup(t) for t in sent] + [vocab.eos_id]
            for v, w in zip(ids, ids[1:]):
                oov += w == vocab.unk_id
                if score_oov or w != vocab.unk_id:
                    log_sum += math.log(table[v, w])
                    scored += 1
        for given in (sentences, path):
            rep = perplexity(lambda s, w: table[s, w], given, vocab, score_oov=score_oov)
            assert (rep.tokens_scored, rep.oov_tokens) == (scored, oov)
            assert rep.perplexity == math.exp(-log_sum / scored)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_integrity_error_names_the_pair(bad):
    vocab = Vocabulary(["a", "b"])
    b = vocab.lookup("b")

    def probs(s, w):
        return np.where((s == b) & (w == vocab.eos_id), bad, 0.5)

    with pytest.raises(ModelIntegrityError, match=rf"p={bad!r} for id pair \({b}, {vocab.eos_id}\)"):
        perplexity(probs, [["a", "b"], ["b", "a"]], vocab)


def test_nothing_scorable_is_a_config_error():
    vocab = Vocabulary(["a"])
    with pytest.raises(ConfigError):
        perplexity(lambda s, w: np.full(w.shape, 0.5), [], vocab)


# ------------------------------------------------- relative improvement


def test_relative_improvement_formula():
    assert relative_improvement(50.0, 40.0) == pytest.approx(20.0)
    assert relative_improvement(40.0, 50.0) == pytest.approx(-25.0)
    with pytest.raises(ConfigError):
        relative_improvement(0.0, 10.0)


@pytest.mark.parametrize(
    "baseline,treatment,expected",
    [
        (57.0, 50.9, 10.7),
        (51.1, 48.1, 5.87),
        (46.4, 44.8, 3.45),
        (37.0, 38.0, -2.70),
        (33.4, 32.8, 1.80),
    ],
)
def test_relative_improvement_reference_values(baseline, treatment, expected):
    assert relative_improvement(baseline, treatment) == pytest.approx(
        expected, abs=0.05
    )


# ------------------------------------------------------------- formatting


def test_take_words_is_a_sentence_aligned_prefix():
    sents = [["a"] * 3, ["b"] * 4, ["c"] * 5]
    assert _take_words(sents, 8) == ([["a"] * 3, ["b"] * 4], 7)
    assert _take_words(sents, 2) == ([], 0)
    assert _take_words(sents, 100) == (sents, 12)
    assert _take_words(sents, 7) == ([["a"] * 3, ["b"] * 4], 7)


# ------------------------------------------------------------------ suite


def tiny_suite_inputs():
    back = domain_corpus("back", seed=3, n_words=2000, topic_size=15)
    adapt = domain_corpus("target", seed=4, n_words=700, topic_size=15)
    held = domain_corpus("target", seed=5, n_words=400, topic_size=15)
    return back, adapt, held


def tiny_config(**kw):
    defaults = dict(vocab_size=300, clusters=8, max_iterations=3)
    defaults.update(kw)
    return SuiteConfig(**defaults)


@pytest.fixture(scope="module")
def suite_result():
    back, adapt, held = tiny_suite_inputs()
    return experiment_suite(back, adapt, held, [150, 400], tiny_config())


def test_suite_covers_all_methods_and_sizes(suite_result):
    assert set(suite_result.baseline) == {"back_bo", "back_cl"}
    assert set(suite_result.adapted) == {150, 400}
    for size in (150, 400):
        assert set(suite_result.adapted[size]) == {
            "adapt_bo", "adapt_cl", "fillup", "clust_adapt"
        }
        assert suite_result.lambdas[size] in tiny_config().lambda_grid
        for rep in suite_result.adapted[size].values():
            assert math.isfinite(rep.perplexity) and rep.perplexity > 1
            assert rep.adaptation_words <= size


def test_suite_uses_separate_vocabularies(suite_result):
    base_md5 = suite_result.baseline["back_bo"].vocab_md5
    adapted_md5 = suite_result.adapted[150]["adapt_bo"].vocab_md5
    assert base_md5 and adapted_md5 and base_md5 != adapted_md5
    # within one slice every method shares the joint vocabulary
    md5s = {rep.vocab_md5 for rep in suite_result.adapted[150].values()}
    assert len(md5s) == 1


def test_suite_is_deterministic(suite_result, tmp_path):
    back, adapt, held = tiny_suite_inputs()
    rerun = experiment_suite(back, adapt, held, [150, 400], tiny_config())
    assert format_report(suite_records(rerun)) == format_report(suite_records(suite_result))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_records(suite_result, p1)
    write_records(rerun, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_suite_report_layout(suite_result):
    lines = format_report(suite_records(suite_result)).splitlines()
    assert lines[0].split() == ["model", "PP", "OOV%", "tokens", "lambda"]
    rows = [line.split() for line in lines[1:]]
    # baselines first, then one row per method@size, sizes in numeric order
    adapted = sorted(set(METHODS) - {"back_bo", "back_cl"})
    assert [row[0] for row in rows] == (
        ["back_bo", "back_cl"] + [f"{m}@{size}" for size in (150, 400) for m in adapted]
    )
    for row in rows:
        method, _, size = row[0].partition("@")
        want = f"{suite_result.lambdas[int(size)]:.3f}" if method == "clust_adapt" else "-"
        assert row[-1] == want, row[0]


def test_suite_records_round_trip(suite_result, tmp_path):
    path = tmp_path / "records.json"
    write_records(suite_result, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"config", "records", "notes"}
    assert payload["config"]["clusters"] == 8
    recs = payload["records"]
    assert len(recs) == len(suite_records(suite_result))
    by_id = {r["model_id"]: r for r in recs}
    assert by_id["clust_adapt@150"]["lambda"] == suite_result.lambdas[150]
    assert by_id["back_bo"]["size"] is None


def test_suite_notes_oversized_slice():
    back, adapt, held = tiny_suite_inputs()
    corpus_words = sum(len(s) for s in adapt)
    cfg = tiny_config(methods=("adapt_bo",))
    result = experiment_suite(back, adapt, held, [corpus_words + 500], cfg)
    assert any("full corpus" in n for n in result.notes)
    (size,) = result.adapted
    assert result.adapted[size]["adapt_bo"].adaptation_words == corpus_words


def test_suite_rejects_bad_requests():
    back, adapt, held = tiny_suite_inputs()
    with pytest.raises(ConfigError):
        experiment_suite(back, adapt, held, [400, 150], tiny_config())
    with pytest.raises(ConfigError):
        experiment_suite(
            back, adapt, held, [150], tiny_config(methods=("adapt_bo", "mystery"))
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("discount", 0.0, "discount must be in"),
        ("discount", 1.5, "discount must be in"),
        ("max_iterations", 0, "max_iterations must be at least 1"),
        ("lambda_grid", (), "lambda grid is empty"),
        ("lambda_grid", (0.5, 1.5), "must lie in"),
        ("methods", ("adapt_bo", "mystery"), "unknown methods"),
        ("vocab_size", 3, "vocab_size must be at least 4"),
        ("clusters", 1, "clusters must be at least 2"),
        ("cutoff", -1, "cutoff must be nonnegative"),
    ],
)
def test_suite_config_checks_each_setting_when_built(field, value, message):
    with pytest.raises(ConfigError, match=message):
        SuiteConfig(**{field: value})
    cfg = SuiteConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)


def test_suite_clamps_cluster_count_with_note():
    back, adapt, held = tiny_suite_inputs()
    cfg = tiny_config(methods=("adapt_cl",), clusters=5000)
    result = experiment_suite(back, adapt, held, [150], cfg)
    assert any("clusters reduced" in n for n in result.notes)
    assert result.adapted[150]["adapt_cl"].perplexity > 1


def test_suite_clamps_the_cluster_count_only_for_class_methods():
    back, adapt, held = tiny_suite_inputs()
    cfg = tiny_config(methods=("adapt_bo", "fillup"), clusters=500)
    result = experiment_suite(back, adapt, held, [150, 400], cfg)
    assert not any("clusters reduced" in n for n in result.notes)
    assert set(result.adapted) == {150, 400}


@pytest.mark.parametrize("vocab_size", [300, 120])
def test_suite_counts_the_background_once(monkeypatch, vocab_size):
    back, adapt, held = tiny_suite_inputs()
    sizes = [100, 250, 500]
    cfg = tiny_config(vocab_size=vocab_size, methods=("back_bo", "clust_adapt"))
    counted = []
    inner = evaluate.count_events

    def spy(corpus, vocab):
        counted.append(corpus)
        return inner(corpus, vocab)

    monkeypatch.setattr(evaluate, "count_events", spy)
    _, calls = spied_suite(monkeypatch, back, adapt, held, sizes, cfg)
    assert sum(corpus is back for corpus in counted) == 1
    tables = [back_counts for _, back_counts, _ in calls if back_counts is not None]
    assert len(tables) == len(sizes)
    for size, table in zip(sizes, tables):
        vocab = build_vocabulary(_take_words(adapt, size)[0], back, cfg.vocab_size)
        if vocab_size == 120:
            # the case under test: the cap drops background words into <unk>
            assert set(w for s in back for w in s) - set(vocab.entries)
        want = count_events(back, vocab)
        assert table.vocab_size == want.vocab_size
        for got_cells, want_cells in zip(table.cells(), want.cells()):
            assert np.array_equal(got_cells, want_cells)
        assert np.array_equal(table.unigram, want.unigram)


# ------------------------------------------------- one background clustering


def background_maps_per_size(back, adapt, sizes, cfg):
    """The map of each size's own leave-one-out run on the background counts,
    with the size's own vocabulary: the start map of its ``clust_adapt``."""
    maps = []
    for size in sizes:
        vocab = build_vocabulary(_take_words(adapt, size)[0], back, cfg.vocab_size)
        k = min(cfg.clusters, len(vocab) - 3)
        maps.append(cluster_words(count_events(back, vocab), vocab, k, cfg).cluster_map)
    return maps


def spied_suite(monkeypatch, back, adapt, held, sizes, cfg):
    """The suite's result and the (train, back, init) of each exchange run."""
    calls = []
    inner = evaluate.run_exchange

    def spy(train, back_counts, init, *args, **kwargs):
        calls.append((train, back_counts, init.copy()))
        return inner(train, back_counts, init, *args, **kwargs)

    monkeypatch.setattr(evaluate, "run_exchange", spy)
    return experiment_suite(back, adapt, held, sizes, cfg), calls


def background_runs(calls, back):
    tokens = sum(len(s) + 1 for s in back)
    return [c for c in calls if c[1] is None and c[0].total_tokens == tokens]


def assert_start_maps(calls, expected):
    starts = [init for _, back_counts, init in calls if back_counts is not None]
    assert len(starts) == len(expected)
    for init, own in zip(starts, expected):
        assert (init.k_states, init.k_cats) == (own.k_states, own.k_cats)
        assert oracles.same_map(init, own)


@pytest.mark.parametrize("methods", [METHODS, tuple(m for m in METHODS if m != "back_cl")])
def test_suite_clusters_the_background_once(monkeypatch, methods):
    back, adapt, held = tiny_suite_inputs()
    sizes = [100, 250, 500]
    cfg = tiny_config(methods=methods)
    expected = background_maps_per_size(back, adapt, sizes, cfg)
    result, calls = spied_suite(monkeypatch, back, adapt, held, sizes, cfg)
    assert_start_maps(calls, expected)
    # one background run, one adapt_cl run and one adaptive run per size;
    # each size used to cluster the background again
    assert len(background_runs(calls, back)) == 1
    assert len(calls) == 1 + 2 * len(sizes)
    assert set(result.adapted) == set(sizes)


def test_suite_clusters_again_when_the_vocabulary_drops_background_words(monkeypatch):
    back, adapt, held = tiny_suite_inputs()
    sizes = [100, 250, 500]
    cfg = tiny_config(vocab_size=120, methods=("back_cl", "clust_adapt"))
    back_words = set(build_vocabulary([], back, cfg.vocab_size).entries)
    size_words = [
        set(build_vocabulary(_take_words(adapt, size)[0], back, cfg.vocab_size).entries)
        for size in sizes
    ]
    assert all(back_words - words for words in size_words)  # the case under test
    expected = background_maps_per_size(back, adapt, sizes, cfg)
    _, calls = spied_suite(monkeypatch, back, adapt, held, sizes, cfg)
    assert_start_maps(calls, expected)
    assert len(background_runs(calls, back)) > 1


def test_suite_shares_the_start_map_of_an_empty_background(monkeypatch):
    # no word has background events, so every size has the same key
    _, adapt, held = tiny_suite_inputs()
    sizes = [100, 250]
    cfg = tiny_config(methods=("clust_adapt",))
    expected = background_maps_per_size([], adapt, sizes, cfg)
    _, calls = spied_suite(monkeypatch, [], adapt, held, sizes, cfg)
    assert_start_maps(calls, expected)
    assert len(background_runs(calls, [])) == 1
