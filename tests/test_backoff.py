"""Backoff training, fill-up adaptation, and model file round-trips."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from corpusgen import domain_corpus, random_table

from clusterlm import backoff
from clusterlm.backoff import BackoffModel, fillup, train_backoff
from clusterlm.corpus import CountTable, Vocabulary, build_vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import ConfigError, FormatError
from clusterlm.evaluate import SuiteConfig, fillup_model, train_backoff_model


def table(model):
    """p(w|v) for every pair, one row per context, from one ``probs`` call."""
    n = model.vocab_size
    contexts, words = np.divmod(np.arange(n * n), n)
    return model.probs(contexts, words).reshape(n, n)


def row_sum(model, v):
    n = model.vocab_size
    return model.probs(np.full(n, v), np.arange(n)).sum()


def test_training_rejects_empty_counts():
    with pytest.raises(ConfigError):
        train_backoff(CountTable(5), Discount(0.5))


def test_training_rejects_a_negative_cutoff():
    counts = CountTable(5, {1: {2: 3}})
    with pytest.raises(ConfigError, match="cutoff"):
        train_backoff(counts, Discount(0.5), cutoff=-1)


def test_rows_sum_to_one():
    rng = random.Random(11)
    for cutoff in (0, 1, 2):
        counts = random_table(rng, 12)
        model = train_backoff(counts, Discount(0.55), cutoff=cutoff)
        for v in range(12):
            assert row_sum(model, v) == pytest.approx(1.0, abs=1e-9)


def test_matches_direct_computation():
    rng = random.Random(23)
    for trial in range(10):
        vocab_size = rng.randint(5, 14)
        cutoff = rng.choice([0, 1])
        b = rng.uniform(0.1, 0.9)
        counts = random_table(rng, vocab_size)
        model = train_backoff(counts, Discount(b), cutoff=cutoff)
        uni = {w: int(c) for w, c in enumerate(counts.unigram)}
        for v in range(vocab_size):
            for w in range(vocab_size):
                want = oracles.backoff_probability(
                    counts.rows, uni, vocab_size, b, cutoff, v, w
                )
                assert model.prob(v, w) == pytest.approx(want, rel=1e-10)


def test_cutoff_drops_singletons():
    counts = CountTable(6, {3: {4: 1, 5: 7}})
    kept = train_backoff(counts, Discount(0.5), cutoff=1)
    assert 4 not in kept.explicit_lp[3]
    assert 5 in kept.explicit_lp[3]
    full = train_backoff(counts, Discount(0.5), cutoff=0)
    assert 4 in full.explicit_lp[3]


def test_tiny_discount_approaches_maximum_likelihood():
    counts = CountTable(8, {3: {4: 6, 5: 3, 6: 1}})
    model = train_backoff(counts, Discount(1e-6), cutoff=0)
    assert model.prob(3, 4) == pytest.approx(0.6, abs=1e-4)
    assert model.prob(3, 5) == pytest.approx(0.3, abs=1e-4)
    assert model.prob(3, 6) == pytest.approx(0.1, abs=1e-4)


def test_unseen_context_backs_off_to_unigram():
    counts = CountTable(6, {3: {4: 5}})
    model = train_backoff(counts, Discount(0.5))
    for w in range(6):
        assert model.prob(5, w) == pytest.approx(model.p_uni[w], rel=1e-12)
    assert row_sum(model, 5) == pytest.approx(1.0, abs=1e-9)


def test_full_coverage_context_renormalizes():
    counts = CountTable(4, {3: dict(enumerate([5, 4, 3, 2]))})
    model = train_backoff(counts, Discount(0.5), cutoff=1)
    assert model.alpha[3] == 0.0
    assert row_sum(model, 3) == pytest.approx(1.0, abs=1e-12)


def test_round_trip_is_byte_stable(tmp_path):
    rng = random.Random(5)
    counts = random_table(rng, 10)
    model = train_backoff(counts, Discount(0.4), vocab_md5="cafe")
    p1 = tmp_path / "m1.lm"
    model.save(p1)
    loaded = BackoffModel.load(p1)
    p2 = tmp_path / "m2.lm"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.vocab_md5 == "cafe"
    assert loaded.kind == model.kind
    assert np.array_equal(table(loaded), table(model))


def test_model_with_no_bigrams_loads_without_warnings(tmp_path):
    # every bigram occurs once, so the cutoff drops them all
    model = train_backoff(CountTable(6, {3: {4: 1, 5: 1}, 4: {5: 1}}), Discount(0.5))
    assert model.context.size == 0
    path = tmp_path / "m.lm"
    model.save(path)
    assert "\\bigrams:\n\\contexts:\n" in path.read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = BackoffModel.load(path)
    assert np.array_equal(table(loaded), table(model))


def test_each_gives_the_bits_of_a_python_loop():
    # numpy's power differs from Python's 10.0 ** x in the last bit of some
    # values, and a model's numbers are Python's
    rng = np.random.default_rng(4)
    lp = rng.uniform(-9.0, 0.0, (10_000, 2))[:, 0]  # a strided column, as a loader gives
    p = rng.uniform(1e-9, 1.0, 10_000)
    assert backoff._each(backoff._pow10, lp).tobytes() == np.array(
        [10.0 ** x for x in lp.tolist()]).tobytes()
    assert backoff._each(math.log10, p).tobytes() == np.array(
        [math.log10(x) for x in p.tolist()]).tobytes()
    assert not np.array_equal(np.power(10.0, lp), backoff._each(backoff._pow10, lp))


def test_a_loaded_model_stores_its_bigram_columns_contiguously(tmp_path):
    model = train_backoff(random_table(random.Random(8), 30), Discount(0.4), cutoff=0)
    path = tmp_path / "m.lm"
    model.save(path)
    loaded = BackoffModel.load(path)
    assert loaded.context.size > 10
    for got, want in zip((loaded.context, loaded.word, loaded.lp),
                         (model.context, model.word, model.lp)):
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_fillup_of_empty_adaptation_copies_background():
    rng = random.Random(9)
    back_counts = random_table(rng, 10)
    background = train_backoff(back_counts, Discount(0.5))
    adapted = fillup(CountTable(10), background, Discount(0.5))
    assert adapted.kind == "fillup"
    assert np.array_equal(table(adapted), table(background))


def test_fillup_rows_sum_to_one():
    rng = random.Random(31)
    for _ in range(5):
        back_counts = random_table(rng, 11)
        adapt_counts = random_table(rng, 11, density=0.1)
        background = train_backoff(back_counts, Discount(0.6))
        adapted = fillup(adapt_counts, background, Discount(0.45))
        for v in range(11):
            assert row_sum(adapted, v) == pytest.approx(1.0, abs=1e-9)


def test_fillup_fixpoint_when_adaptation_retrains_background():
    # Fill-up of a model with the exact counts it was trained from (no
    # cutoff, same discount) must reproduce that model.
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    corpus = [["w0", "w1", "w2"], ["w0", "w1", "w3"], ["w4", "w5"], ["w0", "w2"]]
    counts = count_events(corpus, vocab)
    disc = Discount(0.5)
    background = train_backoff(counts, disc, cutoff=0)
    adapted = fillup(counts, background, disc)
    assert np.allclose(table(adapted), table(background), rtol=1e-9, atol=1e-12)


def test_fillup_spreads_reserve_proportionally_to_background():
    # After context v the background strongly prefers w=5 over w=6; the
    # filled model must keep that preference among unobserved words.
    back_counts = CountTable(8, {3: {5: 9, 6: 1, 7: 1}})
    background = train_backoff(back_counts, Discount(0.5), cutoff=0)
    adapt_counts = CountTable(8, {3: {4: 4}})
    adapted = fillup(adapt_counts, background, Discount(0.5))
    assert adapted.prob(3, 5) > adapted.prob(3, 6)
    ratio = adapted.prob(3, 5) / adapted.prob(3, 6)
    want = background.prob(3, 5) / background.prob(3, 6)
    assert ratio == pytest.approx(want, rel=1e-9)


def test_fillup_renormalizes_when_background_mass_is_exhausted():
    back_counts = CountTable(4, {3: dict.fromkeys(range(4), 3)})
    background = train_backoff(back_counts, Discount(0.5), cutoff=0)
    adapt_counts = CountTable(4, {3: dict(enumerate([1, 2, 3, 4]))})
    adapted = fillup(adapt_counts, background, Discount(0.5))
    assert adapted.alpha[3] == 0.0
    assert row_sum(adapted, 3) == pytest.approx(1.0, abs=1e-12)


def test_fillup_requires_shared_vocabulary():
    background = train_backoff(
        count_events([["a"]], Vocabulary(["a"])), Discount(0.5)
    )
    with pytest.raises(ConfigError):
        fillup(CountTable(9), background, Discount(0.5))


def adaptation_only_setup(cutoff=0):
    # The background never sees 6, 7 or 8; the adaptation data sees all
    # three, and 6 also after context 3.
    back_counts = CountTable(10, {3: {5: 9, 4: 2}, 5: {4: 3}, 4: {5: 2}})
    adapt_counts = CountTable(10, {3: {4: 4, 6: 2}, 5: {7: 3, 8: 1}})
    background = train_backoff(back_counts, Discount(0.5), cutoff=cutoff)
    return adapt_counts, background


def test_training_records_the_words_the_counts_never_saw():
    _, background = adaptation_only_setup()
    assert background.unseen == {0, 1, 2, 3, 6, 7, 8, 9}


def test_fillup_splits_the_reserve_between_the_two_word_groups():
    adapt_counts, background = adaptation_only_setup()
    b = 0.45
    adapted = fillup(adapt_counts, background, Discount(b))
    assert adapted.fill_words == {6, 7, 8}
    assert adapted.unseen == {0, 1, 2, 3, 9}

    # Adaptation unigram: counts 4, 2, 3, 1 on words 4, 6, 7, 8.
    uni_counts = {4: 4, 6: 2, 7: 3, 8: 1}
    n = sum(uni_counts.values())
    p_a = [
        max(uni_counts.get(w, 0) - b, 0.0) / n + b * len(uni_counts) / n / 10
        for w in range(10)
    ]
    total = 6
    reserve = b * 2 / total
    q = (p_a[7] + p_a[8]) / (1.0 - p_a[4] - p_a[6])
    for w in (7, 8):
        share = p_a[w] / (p_a[7] + p_a[8])
        assert adapted.prob(3, w) == pytest.approx(reserve * q * share, rel=1e-9)
    assert adapted.prob(3, 6) == pytest.approx((2 - b) / total, rel=1e-12)

    # The other words share R(v) * (1 - q) in the background's proportions.
    others = [w for w in range(10) if w not in (4, 6, 7, 8)]
    bg_mass = sum(background.prob(3, w) for w in others)
    for w in others:
        want = reserve * (1.0 - q) * background.prob(3, w) / bg_mass
        assert adapted.prob(3, w) == pytest.approx(want, rel=1e-9)

    # A context the adaptation data never saw keeps the background on the
    # background's words, scaled by 1 - Q, and serves the adaptation-only
    # words from the adaptation unigram.
    big_q = p_a[6] + p_a[7] + p_a[8]
    rest_mass = 1.0 - sum(background.prob(4, w) for w in (6, 7, 8))
    for w in range(10):
        if w in (6, 7, 8):
            want = p_a[w]
        else:
            want = (1.0 - big_q) * background.prob(4, w) / rest_mass
        assert adapted.prob(4, w) == pytest.approx(want, rel=1e-9)
    for v in range(10):
        assert row_sum(adapted, v) == pytest.approx(1.0, abs=1e-9)


def test_fillup_adaptation_bigrams_at_or_below_cutoff_join_the_reserve():
    back_counts = CountTable(8, {2: {5: 9, 4: 3}})
    background = train_backoff(back_counts, Discount(0.5), cutoff=1)
    adapt_counts = CountTable(8, {3: {4: 1, 5: 6}})
    b = 0.4
    adapted = fillup(adapt_counts, background, Discount(b))
    assert set(adapted.explicit_lp[3]) == {5}
    assert adapted.prob(3, 5) == pytest.approx((6 - b) / 7, rel=1e-12)
    rest = sum(adapted.prob(3, w) for w in range(8) if w != 5)
    assert rest == pytest.approx((b + 1) / 7, rel=1e-9)

    # A context whose every adaptation bigram is dropped is filled like one
    # the adaptation data never saw.
    adapt_counts = CountTable(8, {3: {4: 1, 5: 6}, 6: {4: 1}})
    refilled = fillup(adapt_counts, background, Discount(b))
    for w in range(8):
        assert refilled.prob(6, w) == refilled.prob(7, w)


def test_fillup_rows_sum_to_one_when_background_misses_words():
    rng = random.Random(47)
    checked = 0
    for trial in range(8):
        back_counts = random_table(rng, 14, density=0.12)
        adapt_counts = random_table(rng, 14, density=0.3)
        background = train_backoff(
            back_counts, Discount(rng.uniform(0.2, 0.8)), cutoff=trial % 2
        )
        adapted = fillup(adapt_counts, background, Discount(rng.uniform(0.2, 0.8)))
        checked += bool(adapted.fill_words)
        for v in range(14):
            assert row_sum(adapted, v) == pytest.approx(1.0, abs=1e-9)
    assert checked >= 4


def test_fillup_round_trip_is_byte_stable(tmp_path):
    adapt_counts, background = adaptation_only_setup(cutoff=1)
    adapted = fillup(adapt_counts, background, Discount(0.45))
    assert adapted.fill_words and adapted.beta.any()
    p1, p2 = tmp_path / "f1.lm", tmp_path / "f2.lm"
    adapted.save(p1)
    loaded = BackoffModel.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.fill_words == adapted.fill_words
    assert loaded.unseen == adapted.unseen
    assert np.array_equal(table(loaded), table(adapted))


def test_trend_models_and_their_reloaded_copies_agree_bit_for_bit(tmp_path):
    # The trend corpora: the 5k-word adaptation slice has a 736-word vocabulary.
    back = domain_corpus("back", seed=71, n_words=100_000, topic_size=300)
    adapt = domain_corpus("target", seed=72, n_words=5_000, topic_size=300)
    while sum(map(len, adapt)) > 5_000:
        adapt.pop()
    vocab = build_vocabulary(adapt, back, 20_000)
    n = len(vocab)
    assert n == 736
    cfg = SuiteConfig()
    background = train_backoff_model(count_events(back, vocab), vocab, cfg)
    filled = fillup_model(count_events(adapt, vocab), background, cfg)
    for name, model in (("background", background), ("fillup", filled)):
        path = tmp_path / f"{name}.lm"
        model.save(path)
        loaded = BackoffModel.load(path)
        differ = np.count_nonzero(table(model) != table(loaded))
        assert differ == 0, f"{name}: {differ} of {n * n} probabilities differ"


def test_fillup_does_not_depend_on_where_its_counts_came_from(tmp_path):
    # The trend corpora at the 1k-word adaptation slice: fill-up on the
    # counted table and on its saved-and-reloaded copy must be one model.
    back = domain_corpus("back", seed=71, n_words=100_000, topic_size=300)
    adapt = domain_corpus("target", seed=72, n_words=1_000, topic_size=300)
    while sum(map(len, adapt)) > 1_000:
        adapt.pop()
    vocab = build_vocabulary(adapt, back, 20_000)
    n = len(vocab)
    cfg = SuiteConfig()
    background = train_backoff_model(count_events(back, vocab), vocab, cfg)
    counted = count_events(adapt, vocab)
    path = tmp_path / "adapt.counts"
    counted.save(path, vocab.checksum())
    reloaded = CountTable.load(path, vocab)
    filled = fillup_model(counted, background, cfg)
    refilled = fillup_model(reloaded, background, cfg)
    for name in ("context", "word", "lp", "listed", "alpha", "beta"):
        assert np.array_equal(getattr(filled, name), getattr(refilled, name)), name
    differ = np.count_nonzero(table(filled) != table(refilled))
    assert differ == 0, f"{differ} of {n * n} probabilities differ"


def test_file_without_the_new_sections_loads_as_before(tmp_path):
    _, background = adaptation_only_setup()
    path = tmp_path / "m.lm"
    background.save(path)
    text = path.read_text()
    assert "\\unseen:\n" in text
    path.write_text(text[: text.index("\\unseen:\n")])
    loaded = BackoffModel.load(path)
    assert loaded.unseen == frozenset() and loaded.fill_words == frozenset()
    assert np.array_equal(table(loaded), table(background))


def added(section, line):
    """The case that adds ``line`` at the top of ``section``."""
    marker = f"\\{section}:\n"
    return pytest.param(marker, marker + line + "\n", id=f"{section}-{line}")


@pytest.mark.parametrize(
    "old, new",
    [
        added("unseen", "3"),           # duplicate id
        added("unseen", "10"),          # out of range
        added("unseen", "-1"),
        added("unseen", "x"),
        added("unseen", "4 5"),
        added("fill-words", "7"),       # duplicate id
        added("fill-words", "12"),
        added("fill-contexts", "3 0.1"),  # duplicate context
        added("fill-contexts", "11 0.1"),
        added("fill-contexts", "4 1.5"),
        added("fill-contexts", "4 nan"),
        added("fill-contexts", "4 abc"),
        added("fill-contexts", "4"),
        # the mass sections must list the same contexts, and only with fill words
        added("fill-contexts", "6 0.1"),
        added("contexts", "6 1.0"),
        pytest.param("\\fill-words:\n6\n7\n8\n", "", id="fill-contexts-without-fill-words"),
        pytest.param("\\unseen:\n", "\\unseen:\n\\unseen:\n", id="unseen-twice"),
    ],
)
def test_load_rejects_bad_lines_in_the_new_sections(tmp_path, old, new):
    adapt_counts, background = adaptation_only_setup()
    adapted = fillup(adapt_counts, background, Discount(0.45))
    path = tmp_path / "m.lm"
    adapted.save(path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(FormatError):
        BackoffModel.load(path)


# Where a rejection is reported: the file, the section and the line.
REPORTED = {
    "bigram-fractional-id": r"m\.lm: \\bigrams: line 3: ",
    "huge-vocab-size": r"m\.lm: expected 1000000000000 lines in \\unigrams:",
}


@pytest.mark.parametrize(
    "old, new",
    [
        # word 0 is lost and word 9 set twice; the model no longer normalizes
        pytest.param("\\unigrams:\n0 ", "\\unigrams:\n-1 ", id="unigram-id-minus-one"),
        pytest.param("\\unigrams:\n", "\\unigrams:\n4 -1.0\n", id="duplicate-unigram"),
        pytest.param("\\contexts:\n", "\\contexts:\n999 0.5\n", id="context-out-of-range"),
        pytest.param("\\contexts:\n", "\\contexts:\n3 0.5\n", id="duplicate-context"),
        pytest.param("\\contexts:\n", "\\contexts:\n4 nan\n", id="context-mass-nan"),
        # context 3 holds 10/11 in explicit bigrams and 1/11 in its mass
        pytest.param("\\contexts:\n3 0.09090909090909091\n", "\\contexts:\n3 -5.0\n",
                     id="context-mass-negative"),
        pytest.param("\\contexts:\n3 0.09090909090909091\n", "\\contexts:\n3 0.7\n",
                     id="context-row-sum"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n6 4 -0.5\n", id="bigram-unlisted-context"),
        pytest.param("\\contexts:\n", "", id="missing-section"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n3 5 -0.5\n", id="duplicate-bigram"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n3 10 -0.5\n", id="bigram-out-of-range"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n-1 4 -0.5\n", id="bigram-negative-id"),
        pytest.param("vocab_size=10", "vocab_size", id="header-token"),
        pytest.param("\n\\contexts:\n", "\n\n\\contexts:\n", id="blank-line-in-bigrams"),
        pytest.param("\\unigrams:\n", "\\unigrams:\n \n", id="blank-line-in-unigrams"),
        pytest.param("\\bigrams:\n", "3 5 -0.5\n\\bigrams:\n", id="line-before-sections"),
        # cut to an integer, the id would load as the saved model
        pytest.param("\\bigrams:\n3 4 ", "\\bigrams:\n3.5 4 ", id="bigram-fractional-id"),
        # numpy refuses 10**12 values at once; never a size it could commit lazily
        pytest.param("vocab_size=10", "vocab_size=1000000000000", id="huge-vocab-size"),
    ],
)
def test_load_rejects_bad_lines_in_the_old_sections(tmp_path, old, new, request):
    _, background = adaptation_only_setup()
    path = tmp_path / "m.lm"
    background.save(path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(FormatError, match=REPORTED.get(request.node.callspec.id)):
        BackoffModel.load(path)


def test_load_checks_the_vocabulary_size_before_allocating(tmp_path):
    # three dense arrays of 200000 masses would take 4.8 MB
    _, background = adaptation_only_setup()
    path = tmp_path / "m.lm"
    background.save(path)
    text = path.read_text()
    assert " vocab_size=10 " in text
    path.write_text(text.replace(" vocab_size=10 ", " vocab_size=200000 "))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"expected 200000 lines in \\unigrams:"):
            BackoffModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_backoff_scores_are_its_file_numbers(tmp_path):
    # The file's numbers are the model: every probability, of the trained
    # model and of its reloaded copy, is rebuilt bit for bit from the text.
    adapt_counts, background = adaptation_only_setup(cutoff=1)
    filled = fillup(adapt_counts, background, Discount(0.45))
    assert filled.fill_words
    rng = random.Random(3)
    trained = train_backoff(random_table(rng, 12), Discount(0.35), cutoff=0)
    for name, model in (("background", background), ("fillup", filled), ("random", trained)):
        path = tmp_path / f"{name}.lm"
        model.save(path)
        want = np.array(oracles.backoff_file_probabilities(path.read_text()))
        for m in (model, BackoffModel.load(path)):
            assert np.array_equal(table(m), want), name
