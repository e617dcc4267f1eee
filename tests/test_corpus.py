"""Vocabulary and counting behaviour."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles

from clusterlm import artifact
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
from clusterlm.evaluate import perplexity


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


def _chains(words, sentences):
    """Sentences that run along ``words`` from the first, each group one word
    longer than the last: each group's bigrams sort after all before it."""
    return [list(words[:k]) for k in range(2, len(words) + 1) for _ in range(sentences)]


def _inserted(corpus, vocab):
    """For each block after the first: the keys it adds to the table, and
    the table's first and last key before it."""
    n, seen, out = len(vocab), set(), []
    for contexts, words in id_blocks(corpus, vocab):
        keys = set((contexts * n + words).tolist())
        if seen:
            out.append((sorted(keys - seen), min(seen), max(seen)))
        seen |= keys
    return out


@pytest.mark.parametrize("case", [
    "oov", "empty_sentences", "long_sentence", "empty_corpus",
    "repeats_only", "new_before_first", "new_after_last",
])
def test_blocks_count_like_the_dict_loop(case, monkeypatch):
    """Counting in blocks gives the per-token dict loop's cells and unigram
    array, on corpora that span many blocks."""
    monkeypatch.setattr(corpus_module, "ID_BLOCK", 16)
    rng = random.Random(11)
    vocab = Vocabulary(["a", "b", "c", "d", "e", "f", "g", "h"])
    head = _random_corpus(random.Random(12), 30, "abc")
    corpus = {
        "oov": _random_corpus(rng, 300, "abcdexy"),
        "empty_sentences": [[]] * 5 + _random_corpus(rng, 200, "abc") + [[], []],
        "long_sentence": _random_corpus(rng, 40, "abcdez") + [rng.choices("abcdz", k=100)]
        + _random_corpus(rng, 40, "abcdez"),
        "empty_corpus": [],
        # later blocks only repeat bigrams of earlier ones: nothing is inserted
        "repeats_only": head * 4,
        # after sentences of words in the vocabulary, the empty sentence's
        # bigram, then the unknown word's: each group's sort before all
        # bigrams before it
        "new_before_first": [s for s in head if s] + [[]] * 8 + [["x"]] * 6 + [["x", "y"]] * 5,
        "new_after_last": head + _chains("cdefgh", 4),
    }[case]
    if corpus:
        assert len(list(id_blocks(corpus, vocab))) >= 3
    inserted = _inserted(corpus, vocab)
    if case == "repeats_only":
        assert sum(not new for new, _, _ in inserted) >= 3
    if case == "new_before_first":
        assert sum(bool(new) and new[-1] < first for new, first, _ in inserted) >= 3
    if case == "new_after_last":
        assert sum(bool(new) and new[0] > last for new, _, last in inserted) >= 3
    got, want = count_events(iter(corpus), vocab), oracles.reference_count_events(corpus, vocab)
    for a, b in zip(got.cells(), want.cells()):
        assert np.array_equal(a, b)
    assert np.array_equal(got.unigram, want.unigram)
    assert got.total_tokens == want.total_tokens


def test_counting_holds_no_more_than_the_table_and_a_block():
    """Counting frees each block once its runs are merged: the traced peak
    stays a small multiple of the finished table's bytes on a corpus whose
    events are over three times its cells: 1.8 to 2.2 times, where a count
    that keeps every block's keys till the end peaks at 3.5 times."""
    rng = random.Random(5)
    words = [f"w{i}" for i in range(3000)]
    sentences = [rng.choices(words, k=rng.randint(1, 20)) for _ in range(20000)]
    vocab = Vocabulary(words)
    tracemalloc.start()
    try:
        table = count_events(sentences * 3, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.total_tokens > 3 * len(table.cells()[0])
    assert peak < 2.5 * sum(a.nbytes for a in table.cells())


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


@pytest.mark.parametrize("marker", ["<s>", "</s>"])
def test_perplexity_rejects_a_marker_in_sentence_input(marker, monkeypatch):
    # as counting and a corpus file do: framing adds the markers itself
    def uniform(contexts, words):
        return np.full(words.shape, 0.2)

    vocab = Vocabulary(["a", "b"])
    with pytest.raises(ConfigError, match="marker"):
        perplexity(uniform, [["a", marker, "b"], ["a"]], vocab)
    monkeypatch.setattr(corpus_module, "ID_BLOCK", 16)
    corpus = _random_corpus(random.Random(13), 60, "ab")
    corpus[41] = ["a", marker, "b"]
    with pytest.raises(ConfigError, match="marker"):
        perplexity(uniform, corpus, vocab)


# Tokens and separators for corpus files: a token that only contains a
# marker, one that holds the end marker the file reader puts at each line
# end, a NUL, and whitespace that ``str.split`` splits on but that ends no
# line of a file read in text mode.
FILE_WORDS = ["a", "b", "c", "é", "\x00", "zz", "<s>x", "y</s>", "a</s>b", "<unk>"]
FILE_SEPARATORS = [" ", "\t", "  ", "\x85", "\u2028", "\u3000", "\x0b", "\x0c", "\x1c"]


def _corpus_file(path, rng, line_end="\n", last_line_end=True):
    """A corpus file of short lines, blank and whitespace-only ones among
    them; returns each line's tokens as a per-line loop reads them."""
    lines = []
    for _ in range(400):
        toks = rng.choices(FILE_WORDS, k=rng.randint(0, 9))
        sep = rng.choice(FILE_SEPARATORS)
        lines.append(sep.join(toks) if toks else rng.choice(["", " ", "\t", "\u3000"]))
    text = line_end.join(lines) + (line_end if last_line_end else "")
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.split()]


@pytest.mark.parametrize("line_end, last_line_end",
                         [("\n", True), ("\r\n", True), ("\n", False), ("\r\n", False)])
def test_a_file_read_in_blocks_gives_what_a_per_line_loop_gives(
        tmp_path, monkeypatch, line_end, last_line_end):
    """Sentences, frequencies, counts and perplexity of a corpus file that
    spans many blocks match those of its lines read one at a time."""
    monkeypatch.setattr(artifact, "LINE_BLOCK", 40)
    monkeypatch.setattr(corpus_module, "ID_BLOCK", 64)
    rng = random.Random(14)
    path = tmp_path / "corpus.txt"
    want = _corpus_file(path, rng, line_end, last_line_end)
    assert list(read_sentences(path)) == want
    freq = word_frequencies(path)
    assert list(freq.items()) == list(word_frequencies(want).items())
    vocab = Vocabulary(["a", "c", "é", "\x00", "a</s>b"])
    assert len(list(id_blocks(path, vocab))) >= 3
    got = count_events(path, vocab)
    for table in (oracles.reference_count_events(read_sentences(path), vocab),
                  oracles.reference_count_events(want, vocab)):
        for a, b in zip(got.cells(), table.cells()):
            assert np.array_equal(a, b)
    probs = np.array([[rng.uniform(0.01, 1.0) for _ in range(len(vocab))]
                      for _ in range(len(vocab))])
    log_sum, scored = 0.0, 0
    for sent in want:
        ids = [vocab.bos_id] + [vocab.lookup(t) for t in sent] + [vocab.eos_id]
        for v, w in zip(ids, ids[1:]):
            if w != vocab.unk_id:
                log_sum += math.log(probs[v, w])
                scored += 1
    report = perplexity(lambda v, w: probs[v, w], path, vocab)
    assert (report.tokens_scored, report.perplexity) == (scored, math.exp(-log_sum / scored))


@pytest.mark.parametrize("marker", ["<s>", "</s>"])
def test_a_marker_in_a_later_block_names_its_line(tmp_path, monkeypatch, marker):
    monkeypatch.setattr(artifact, "LINE_BLOCK", 40)
    rng = random.Random(15)
    lines = [" ".join(rng.choices("abc", k=rng.randint(1, 6))) for _ in range(300)]
    lines[236] = f"a {marker}x {marker} b"
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    message = f"corpus.txt:237: corpus token {marker!r} is a sentence marker"
    vocab = Vocabulary(["a", "b"])
    for read in (word_frequencies, lambda p: count_events(p, vocab),
                 lambda p: perplexity(lambda v, w: np.full(w.shape, 0.5), p, vocab)):
        with pytest.raises(FormatError, match=message):
            read(path)
    sentences = read_sentences(path)
    assert sum(1 for _ in zip(range(236), sentences)) == 236
    with pytest.raises(FormatError, match=message):
        next(sentences)


def test_a_decoding_error_comes_after_the_lines_that_decode(tmp_path):
    # A text file decodes a chunk of bytes at a time: a marker in a line
    # before the undecodable byte is reported first, as reading one line at
    # a time would, though the block that holds both is read at once.
    lines = [" ".join("abc"[i % 3] * (1 + i % 5) for i in range(k, k + 8)) for k in range(3000)]
    good = "\n".join(lines).encode() + b"\n"
    at = good.index(b"\n", 3 * 8192) + 1  # a line start in the fourth chunk
    path = tmp_path / "corpus.txt"
    vocab = Vocabulary(["a", "b"])
    path.write_bytes(good[:at] + b"\xff" + good[at:])
    with pytest.raises(UnicodeDecodeError):
        count_events(path, vocab)
    marker_line = good[:at].count(b"\n") - 20
    marked = good[:at].split(b"\n")
    marked[marker_line - 1] += b" <s>"
    path.write_bytes(b"\n".join(marked) + b"\xff" + good[at:])
    with pytest.raises(FormatError, match=f"corpus.txt:{marker_line}: corpus token '<s>'"):
        count_events(path, vocab)


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
    rows = counts.rows
    assert rows[a][b] == 2
    assert rows[vocab.bos_id][a] == 2
    assert rows[b][vocab.eos_id] == 2
    assert a not in rows[b]
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
    oracles.dict_table(5).save(path, vocab.checksum())
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
