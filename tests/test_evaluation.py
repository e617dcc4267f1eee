"""Perplexity accounting, improvement arithmetic, and the experiment suite."""

import json
import math
import random

import numpy as np
import pytest

import oracles
from corpusgen import domain_corpus

from clusterlm.corpus import Vocabulary
from clusterlm.errors import ConfigError, ModelIntegrityError
from clusterlm.evaluate import (
    METHODS,
    SCORE_BLOCK,
    SuiteConfig,
    _fmt_pp,
    _take_words,
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


def test_end_marker_scored_begin_marker_conditions_only():
    vocab = Vocabulary(["a"])
    queries = []

    def spy(s, w):
        queries.extend(zip(s.tolist(), w.tolist()))
        return np.full(w.shape, 0.5)

    rep = perplexity(spy, [["a"], ["a"]], vocab)
    a = vocab.lookup("a")
    assert queries == [
        (vocab.bos_id, a), (a, vocab.eos_id),
        (vocab.bos_id, a), (a, vocab.eos_id),
    ]
    assert rep.tokens_scored == 4
    assert all(w != vocab.bos_id for _, w in queries)


def test_oov_skipped_but_still_conditions():
    vocab = Vocabulary(["a"])
    a = vocab.lookup("a")
    queries = []

    def spy(s, w):
        queries.extend(zip(s.tolist(), w.tolist()))
        return np.full(w.shape, 0.25)

    rep = perplexity(spy, [["a", "zzz", "a"]], vocab)
    # the unknown position is skipped, but the next word sees unk as context
    assert queries == [(vocab.bos_id, a), (vocab.unk_id, a), (a, vocab.eos_id)]
    assert rep.tokens_scored == 3
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


def test_blocks_score_like_one_sum_in_corpus_order():
    # More positions than one scoring block, unknown words included: the
    # blocks add the same logs in the same order as a per-token loop.
    rng = random.Random(7)
    vocab = Vocabulary("abcde")
    table = np.array([[rng.uniform(0.01, 1.0) for _ in range(len(vocab))]
                      for _ in range(len(vocab))])
    sentences = [rng.choices("abcdez", k=rng.randint(1, 30)) for _ in range(5000)]
    want = 0.0
    scored = 0
    for sent in sentences:
        ids = [vocab.bos_id] + [vocab.lookup(t) for t in sent] + [vocab.eos_id]
        for v, w in zip(ids, ids[1:]):
            if w != vocab.unk_id:
                want += math.log(table[v, w])
                scored += 1
    assert len(sentences) > SCORE_BLOCK
    rep = perplexity(lambda s, w: table[s, w], sentences, vocab)
    assert rep.tokens_scored == scored
    assert rep.perplexity == math.exp(-want / scored)


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


def test_three_significant_figures():
    assert _fmt_pp(1234.5) == "1230"
    assert _fmt_pp(123.45) == "123"
    assert _fmt_pp(12.345) == "12.3"
    assert _fmt_pp(1.2345) == "1.23"
    assert _fmt_pp(0.12345) == "0.123"
    assert _fmt_pp(99.96) == "100.0"


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
    assert format_report(rerun) == format_report(suite_result)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_records(suite_result, p1)
    write_records(rerun, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_suite_report_layout(suite_result):
    text = format_report(suite_result)
    assert "not directly comparable" in text
    assert "adapt. words" in text
    assert "lambda" in text
    assert "ca-vs-cl%" in text
    # one adapted row per size plus headers; every method column present
    for m in METHODS:
        assert m in text


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


def test_suite_clamps_cluster_count_with_note():
    back, adapt, held = tiny_suite_inputs()
    cfg = tiny_config(methods=("adapt_cl",), clusters=5000)
    result = experiment_suite(back, adapt, held, [150], cfg)
    assert any("clusters reduced" in n for n in result.notes)
    assert result.adapted[150]["adapt_cl"].perplexity > 1
