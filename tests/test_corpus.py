"""Vocabulary and counting behaviour."""

import random
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles

from clusterlm import corpus as corpus_module
from clusterlm.corpus import (
    CountTable,
    Vocabulary,
    build_vocabulary,
    count_events,
    id_blocks,
    read_sentences,
    tokenize_line,
    word_frequencies,
)
from clusterlm.errors import ConfigError, FormatError, VocabMismatchError


def test_reserved_ids_are_fixed():
    vocab = Vocabulary(["alpha", "beta"])
    assert vocab.unk_id == 0
    assert vocab.bos_id == 1
    assert vocab.eos_id == 2
    assert vocab.lookup("alpha") == 3
    assert vocab.lookup("beta") == 4


def test_lookup_unknown_maps_to_unk():
    vocab = Vocabulary(["alpha"])
    assert vocab.lookup("missing") == vocab.unk_id
    assert "missing" not in vocab
    assert "alpha" in vocab


def test_add_is_idempotent():
    vocab = Vocabulary()
    first = vocab.add("tok")
    assert vocab.add("tok") == first
    assert len(vocab) == 4


def test_vocab_round_trip(tmp_path):
    vocab = Vocabulary(["one", "two", "three"])
    path = tmp_path / "words.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.entries == vocab.entries
    assert loaded.checksum() == vocab.checksum()


def test_vocab_load_rejects_missing_reserved(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("one\ntwo\n")
    with pytest.raises(FormatError):
        Vocabulary.load(path)


def test_vocab_load_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("<unk>\n<s>\n</s>\nword\nword\n")
    with pytest.raises(FormatError):
        Vocabulary.load(path)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param("", id="blank-line"),
        pytest.param("beta gamma", id="inner-space"),
        pytest.param("beta\tgamma", id="tab"),
        pytest.param("beta ", id="trailing-space"),
    ],
)
def test_vocab_load_rejects_entries_that_no_token_can_match(tmp_path, entry):
    path = tmp_path / "words.txt"
    path.write_text(f"<unk>\n<s>\n</s>\nalpha\n{entry}\nomega\n")
    with pytest.raises(FormatError, match=f"{path.name}:5: "):
        Vocabulary.load(path)


def test_checksum_tracks_content():
    assert Vocabulary(["a"]).checksum() != Vocabulary(["b"]).checksum()


def test_tokenize_collapses_whitespace():
    assert tokenize_line("  a \t b  c\n") == ["a", "b", "c"]


def test_read_sentences_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\n  \nc\n")
    assert list(read_sentences(path)) == [["a", "b"], ["c"]]


def test_read_sentences_rejects_sentence_markers(tmp_path):
    """Counting adds the markers, so a corpus that carries them would count
    them twice and predict the begin marker; ``<unk>`` stays a token."""
    path = tmp_path / "corpus.txt"
    for marker in ("<s>", "</s>"):
        path.write_text(f"a <unk> b</s> <s>b\n\nb a {marker} a\n")
        sentences = read_sentences(path)
        assert next(sentences) == ["a", "<unk>", "b</s>", "<s>b"]
        with pytest.raises(FormatError, match=f"corpus.txt:3: corpus token '{marker}'"):
            next(sentences)


def test_build_vocabulary_prefers_adaptation_words():
    adapt = [["rare", "shared"]]
    back = [["shared"] * 5, ["common"] * 9, ["filler"] * 2]
    vocab = build_vocabulary(adapt, back, max_size=6)
    # both adaptation words present even though background words are more frequent
    assert "rare" in vocab and "shared" in vocab
    # one slot left for the most frequent unseen background word
    assert "common" in vocab
    assert "filler" not in vocab
    assert len(vocab) == 6


def test_build_vocabulary_caps_adaptation_side_by_frequency():
    adapt = [["hot"] * 3 + ["mid"] * 2 + ["cold"]]
    vocab = build_vocabulary(adapt, [], max_size=5)
    assert "hot" in vocab and "mid" in vocab
    assert "cold" not in vocab


def test_build_vocabulary_breaks_frequency_ties_lexicographically():
    adapt = [["zeta", "beta"]]
    vocab = build_vocabulary(adapt, [], max_size=5)
    assert vocab.lookup("beta") == 3
    assert vocab.lookup("zeta") == 4


def test_build_vocabulary_rejects_tiny_cap():
    with pytest.raises(ConfigError):
        build_vocabulary([], [], max_size=3)


def test_id_blocks_frame_with_markers():
    vocab = Vocabulary(["a", "b"])
    [(contexts, words)] = id_blocks([["a", "b", "zzz"], []], vocab)
    # no event runs from one sentence's end marker to the next begin marker
    assert contexts.tolist() == [1, 3, 4, 0, 1]
    assert words.tolist() == [3, 4, 0, 2, 2]


def _random_corpus(rng, n_sentences, words):
    return [rng.choices(words, k=rng.randint(0, 12)) for _ in range(n_sentences)]


@pytest.mark.parametrize("case", ["oov", "empty_sentences", "long_sentence", "empty_corpus"])
def test_blocks_count_like_the_dict_loop(case, monkeypatch):
    """Counting in blocks gives the per-token dict loop's cells and unigram
    array, on corpora that span many blocks."""
    monkeypatch.setattr(corpus_module, "ID_BLOCK", 16)
    rng = random.Random(11)
    vocab = Vocabulary(["a", "b", "c", "d", "e"])
    corpus = {
        "oov": _random_corpus(rng, 300, "abcdexy"),
        "empty_sentences": [[]] * 5 + _random_corpus(rng, 200, "abc") + [[], []],
        "long_sentence": _random_corpus(rng, 40, "abcdez") + [rng.choices("abcdz", k=100)]
        + _random_corpus(rng, 40, "abcdez"),
        "empty_corpus": [],
    }[case]
    if corpus:
        assert len(list(id_blocks(corpus, vocab))) >= 3
    got, want = count_events(iter(corpus), vocab), oracles.reference_count_events(corpus, vocab)
    for a, b in zip(got.cells(), want.cells()):
        assert np.array_equal(a, b)
    assert np.array_equal(got.unigram, want.unigram)
    assert got.total_tokens == want.total_tokens


@pytest.mark.parametrize("marker", ["<s>", "</s>"])
def test_blocks_and_the_dict_loop_both_reject_a_marker(marker, monkeypatch):
    monkeypatch.setattr(corpus_module, "ID_BLOCK", 16)
    rng = random.Random(12)
    corpus = _random_corpus(rng, 60, "abc")
    corpus[41] = ["a", marker, "b"]
    vocab = Vocabulary(["a", "b", "c"])
    for count in (count_events, oracles.reference_count_events):
        with pytest.raises(ConfigError, match="marker"):
            count(corpus, vocab)


def test_word_frequencies_stand_in_for_the_background():
    rng = random.Random(13)
    back = _random_corpus(rng, 200, "abcdefghij") + [["<unk>", "a"]]
    adapt = _random_corpus(rng, 20, "abcxyz")
    for size in (4, 8, 12, 40):
        assert (build_vocabulary(adapt, word_frequencies(back), size).entries
                == build_vocabulary(adapt, back, size).entries)


def test_count_events_column_sums_equal_unigram():
    vocab = Vocabulary(["a", "b", "c"])
    corpus = [["a", "b"], ["b", "c", "a"], ["a"]]
    counts = count_events(corpus, vocab)
    totals = np.zeros(len(vocab), dtype=np.int64)
    for v, row in counts.rows.items():
        for w, c in row.items():
            totals[w] += c
    assert np.array_equal(totals, counts.unigram)
    # predicted positions: every token plus one end marker per sentence
    assert counts.total_tokens == 6 + 3
    assert counts.unigram[vocab.bos_id] == 0
    assert counts.unigram[vocab.eos_id] == 3


def test_count_events_bigram_values():
    vocab = Vocabulary(["a", "b"])
    counts = count_events([["a", "b"], ["a", "b"]], vocab)
    a, b = vocab.lookup("a"), vocab.lookup("b")
    assert counts.bigram(a, b) == 2
    assert counts.bigram(vocab.bos_id, a) == 2
    assert counts.bigram(b, vocab.eos_id) == 2
    assert counts.bigram(b, a) == 0
    assert sum(counts.rows[a].values()) == 2


@pytest.mark.parametrize(
    "corpus",
    [
        [["<s>", "a", "b", "a", "</s>"], ["<s>", "b", "a", "b", "</s>"]],
        [["a", "b"], ["b", "<s>"]],
        [["a", "</s>", "b"]],
    ],
)
def test_count_events_rejects_sentence_markers(corpus):
    """Counting frames every sentence itself, so a marker in the corpus
    would be counted twice or predicted."""
    with pytest.raises(ConfigError, match="marker"):
        count_events(corpus, Vocabulary(["a", "b"]))


def test_count_table_round_trip(tmp_path):
    vocab = Vocabulary(["a", "b"])
    counts = count_events([["a", "b", "a"]], vocab)
    path = tmp_path / "counts.txt"
    counts.save(path, vocab.checksum())
    loaded = CountTable.load(path, vocab)
    assert loaded.vocab_size == counts.vocab_size
    assert loaded.total_tokens == counts.total_tokens
    assert loaded.rows == counts.rows
    # the same row order at both levels, however the table was built
    assert list(loaded.rows) == list(counts.rows)
    assert [list(row) for row in loaded.rows.values()] == [
        list(row) for row in counts.rows.values()
    ]
    assert np.array_equal(loaded.unigram, counts.unigram)


def test_empty_count_table_round_trips_without_warnings(tmp_path):
    path = tmp_path / "counts.txt"
    vocab = Vocabulary(["a", "b"])
    CountTable(5).save(path, vocab.checksum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = CountTable.load(path, vocab)
    assert loaded.vocab_size == 5 and loaded.total_tokens == 0
    assert all(a.size == 0 and a.dtype == np.int64 for a in loaded.cells())


def test_count_table_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "counts.txt"
    vocab = Vocabulary(["a"])
    counts = count_events([["a"]], vocab)
    counts.save(path, vocab.checksum())
    # the header agrees with the vocabulary; a body id does not
    text = path.read_text()
    assert "\n3 2 1\n" in text
    path.write_text(text.replace("\n3 2 1\n", "\n4 2 1\n"))
    with pytest.raises(FormatError, match="id out of range"):
        CountTable.load(path, vocab)


def test_count_table_load_checks_the_vocabulary_before_the_body(tmp_path):
    vocab = Vocabulary(["a", "b", "c"])
    path = tmp_path / "counts.txt"
    count_events([["a", "b", "c", "a", "b"]], vocab).save(path, vocab.checksum())
    with pytest.raises(VocabMismatchError, match="different vocabulary"):
        CountTable.load(path, Vocabulary(["a", "b", "d"]))
    # a 125-byte file whose header would size a 10,000,000-word unigram
    # array (80 MB) is rejected before anything is allocated
    path.write_text(path.read_text().replace("vocab_size=6", "vocab_size=10000000"))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="10000000-word vocabulary, got 6 words"):
            CountTable.load(path, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _repeat_last_count_line(text):
    lines = text.splitlines()
    header = lines[0].split()
    total = int(header[2].split("=")[1]) + int(lines[-1].split()[2])
    header[2] = f"total_tokens={total}"
    return "\n".join([" ".join(header)] + lines[1:] + lines[-1:]) + "\n"


# Where a rejection is reported: the file, the part of it and the line.
REPORTED = {
    "non-integer": r"counts\.txt: body: line 9: ",
    "huge-vocab-size": r"counts\.txt: count file is for a 1000000000000-word vocabulary",
}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda t: t + "1 x 1\n", id="non-integer"),
        pytest.param(lambda t: t.replace(" total_tokens=", " junk total_tokens="),
                     id="header-token"),
        pytest.param(lambda t: t.replace("vocab_size=5", "vocab_size=-5"), id="negative-size"),
        pytest.param(lambda t: t + "3 3 0\n", id="zero-count"),
        pytest.param(lambda t: t + "3 4\n", id="two-fields"),
        pytest.param(_repeat_last_count_line, id="duplicate-bigram"),
        pytest.param(lambda t: t.replace(" 1\n", " 1\n\n", 1), id="blank-line"),
        pytest.param(lambda t: t + " \t\n", id="whitespace-line"),
        # cut to an integer, each of these would load as the saved table
        pytest.param(lambda t: t.replace("\n3 3 1\n", "\n3 3 1.5\n"), id="fractional-count"),
        pytest.param(lambda t: t.replace("\n3 4 1\n", "\n3.5 4 1\n"), id="fractional-id"),
        # the header's size is checked against the vocabulary before anything is allocated
        pytest.param(lambda t: t.replace("vocab_size=5", "vocab_size=1000000000000"),
                     id="huge-vocab-size"),
    ],
)
def test_count_table_load_rejects_malformed_files(tmp_path, edit, request):
    vocab = Vocabulary(["a", "b"])
    path = tmp_path / "counts.txt"
    count_events([["a", "b"], ["b", "a", "a"]], vocab).save(path, vocab.checksum())
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(FormatError, match=REPORTED.get(request.node.callspec.id)):
        CountTable.load(path, vocab)
