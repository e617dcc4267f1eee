"""Backoff training, fill-up adaptation, and model file round-trips."""

import math
import random

import numpy as np
import pytest

import oracles
from corpusgen import random_table

from clusterlm.backoff import BackoffModel, fillup, train_backoff
from clusterlm.corpus import CountTable, Vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import ConfigError, FormatError


def row_sum(model, v):
    return sum(model.prob(v, w) for w in range(model.vocab_size))


def test_training_rejects_empty_counts():
    with pytest.raises(ConfigError):
        train_backoff(CountTable(5), Discount(0.5))


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
    counts = CountTable(6)
    counts.add_bigram(3, 4, 1)
    counts.add_bigram(3, 5, 7)
    kept = train_backoff(counts, Discount(0.5), cutoff=1)
    assert 4 not in kept.explicit_lp[3]
    assert 5 in kept.explicit_lp[3]
    full = train_backoff(counts, Discount(0.5), cutoff=0)
    assert 4 in full.explicit_lp[3]


def test_tiny_discount_approaches_maximum_likelihood():
    counts = CountTable(8)
    counts.add_bigram(3, 4, 6)
    counts.add_bigram(3, 5, 3)
    counts.add_bigram(3, 6, 1)
    model = train_backoff(counts, Discount(1e-6), cutoff=0)
    assert model.prob(3, 4) == pytest.approx(0.6, abs=1e-4)
    assert model.prob(3, 5) == pytest.approx(0.3, abs=1e-4)
    assert model.prob(3, 6) == pytest.approx(0.1, abs=1e-4)


def test_unseen_context_backs_off_to_unigram():
    counts = CountTable(6)
    counts.add_bigram(3, 4, 5)
    model = train_backoff(counts, Discount(0.5))
    for w in range(6):
        assert model.prob(5, w) == pytest.approx(model.p_uni[w], rel=1e-12)
    assert row_sum(model, 5) == pytest.approx(1.0, abs=1e-9)


def test_full_coverage_context_renormalizes():
    counts = CountTable(4)
    for w, c in enumerate([5, 4, 3, 2]):
        counts.add_bigram(3, w, c)
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
    for v in range(10):
        for w in range(10):
            assert loaded.prob(v, w) == model.prob(v, w)


def test_fillup_of_empty_adaptation_copies_background():
    rng = random.Random(9)
    back_counts = random_table(rng, 10)
    background = train_backoff(back_counts, Discount(0.5))
    adapted = fillup(CountTable(10), background, Discount(0.5))
    assert adapted.kind == "fillup"
    for v in range(10):
        for w in range(10):
            assert adapted.prob(v, w) == background.prob(v, w)


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
    for v in range(len(vocab)):
        for w in range(len(vocab)):
            assert adapted.prob(v, w) == pytest.approx(
                background.prob(v, w), rel=1e-9
            )


def test_fillup_spreads_reserve_proportionally_to_background():
    # After context v the background strongly prefers w=5 over w=6; the
    # filled model must keep that preference among unobserved words.
    back_counts = CountTable(8)
    back_counts.add_bigram(3, 5, 9)
    back_counts.add_bigram(3, 6, 1)
    back_counts.add_bigram(3, 7, 1)
    background = train_backoff(back_counts, Discount(0.5), cutoff=0)
    adapt_counts = CountTable(8)
    adapt_counts.add_bigram(3, 4, 4)
    adapted = fillup(adapt_counts, background, Discount(0.5))
    assert adapted.prob(3, 5) > adapted.prob(3, 6)
    ratio = adapted.prob(3, 5) / adapted.prob(3, 6)
    want = background.prob(3, 5) / background.prob(3, 6)
    assert ratio == pytest.approx(want, rel=1e-9)


def test_fillup_renormalizes_when_background_mass_is_exhausted():
    back_counts = CountTable(4)
    for w in range(4):
        back_counts.add_bigram(3, w, 3)
    background = train_backoff(back_counts, Discount(0.5), cutoff=0)
    adapt_counts = CountTable(4)
    for w, c in enumerate([1, 2, 3, 4]):
        adapt_counts.add_bigram(3, w, c)
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
    back_counts = CountTable(10)
    for v, w, c in [(3, 5, 9), (3, 4, 2), (5, 4, 3), (4, 5, 2)]:
        back_counts.add_bigram(v, w, c)
    adapt_counts = CountTable(10)
    for v, w, c in [(3, 4, 4), (3, 6, 2), (5, 7, 3), (5, 8, 1)]:
        adapt_counts.add_bigram(v, w, c)
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
    back_counts = CountTable(8)
    back_counts.add_bigram(2, 5, 9)
    back_counts.add_bigram(2, 4, 3)
    background = train_backoff(back_counts, Discount(0.5), cutoff=1)
    adapt_counts = CountTable(8)
    adapt_counts.add_bigram(3, 4, 1)
    adapt_counts.add_bigram(3, 5, 6)
    b = 0.4
    adapted = fillup(adapt_counts, background, Discount(b))
    assert set(adapted.explicit_lp[3]) == {5}
    assert adapted.prob(3, 5) == pytest.approx((6 - b) / 7, rel=1e-12)
    rest = sum(adapted.prob(3, w) for w in range(8) if w != 5)
    assert rest == pytest.approx((b + 1) / 7, rel=1e-9)

    # A context whose every adaptation bigram is dropped is filled like one
    # the adaptation data never saw.
    adapt_counts.add_bigram(6, 4, 1)
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
    assert adapted.fill_words and adapted.beta
    p1, p2 = tmp_path / "f1.lm", tmp_path / "f2.lm"
    adapted.save(p1)
    loaded = BackoffModel.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.fill_words == adapted.fill_words
    assert loaded.unseen == adapted.unseen
    for v in range(10):
        for w in range(10):
            assert loaded.prob(v, w) == adapted.prob(v, w)


def test_file_without_the_new_sections_loads_as_before(tmp_path):
    _, background = adaptation_only_setup()
    path = tmp_path / "m.lm"
    background.save(path)
    text = path.read_text()
    assert "\\unseen:\n" in text
    path.write_text(text[: text.index("\\unseen:\n")])
    loaded = BackoffModel.load(path)
    assert loaded.unseen == frozenset() and loaded.fill_words == frozenset()
    for v in range(10):
        for w in range(10):
            assert loaded.prob(v, w) == background.prob(v, w)


@pytest.mark.parametrize(
    "section, line",
    [
        ("unseen", "3"),           # duplicate id
        ("unseen", "10"),          # out of range
        ("unseen", "-1"),
        ("unseen", "x"),
        ("unseen", "4 5"),
        ("fill-words", "7"),       # duplicate id
        ("fill-words", "12"),
        ("fill-contexts", "3 0.1"),  # duplicate context
        ("fill-contexts", "11 0.1"),
        ("fill-contexts", "4 1.5"),
        ("fill-contexts", "4 nan"),
        ("fill-contexts", "4 abc"),
        ("fill-contexts", "4"),
    ],
)
def test_load_rejects_bad_lines_in_the_new_sections(tmp_path, section, line):
    adapt_counts, background = adaptation_only_setup()
    adapted = fillup(adapt_counts, background, Discount(0.45))
    path = tmp_path / "m.lm"
    adapted.save(path)
    marker = f"\\{section}:\n"
    text = path.read_text()
    assert marker in text
    path.write_text(text.replace(marker, marker + line + "\n"))
    with pytest.raises(FormatError):
        BackoffModel.load(path)


@pytest.mark.parametrize(
    "old, new",
    [
        # word 0 is lost and word 9 set twice; the model no longer normalizes
        pytest.param("\\unigrams:\n0 ", "\\unigrams:\n-1 ", id="unigram-id-minus-one"),
        pytest.param("\\unigrams:\n", "\\unigrams:\n4 -1.0\n", id="duplicate-unigram"),
        pytest.param("\\contexts:\n", "\\contexts:\n999 0.5\n", id="context-out-of-range"),
        pytest.param("\\contexts:\n", "\\contexts:\n3 0.5\n", id="duplicate-context"),
        pytest.param("\\contexts:\n", "\\contexts:\n4 nan\n", id="context-mass-nan"),
        pytest.param("\\contexts:\n", "", id="missing-section"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n3 5 -0.5\n", id="duplicate-bigram"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n3 10 -0.5\n", id="bigram-out-of-range"),
        pytest.param("\\bigrams:\n", "\\bigrams:\n-1 4 -0.5\n", id="bigram-negative-id"),
        pytest.param("vocab_size=10", "vocab_size", id="header-token"),
    ],
)
def test_load_rejects_bad_lines_in_the_old_sections(tmp_path, old, new):
    _, background = adaptation_only_setup()
    path = tmp_path / "m.lm"
    background.save(path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(FormatError):
        BackoffModel.load(path)
