"""Cluster maps, class model estimation, and their file formats."""

import random
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from corpusgen import random_table, table_from_sentences

from clusterlm.classmodel import (
    ClassModel,
    ClusterMap,
    estimate_class_model,
    init_clustering,
    load_clusters,
    save_clusters,
)
from clusterlm.corpus import Vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import ConfigError, FormatError


def small_setup():
    vocab = Vocabulary(["high", "mid", "low", "rare"])
    corpus = [
        ["high", "mid", "high", "low"],
        ["high", "mid", "rare"],
        ["mid", "high", "low"],
    ]
    counts = count_events(corpus, vocab)
    return vocab, counts


# ---------------------------------------------------------------- cluster map


def test_cluster_map_validates_shapes_and_range():
    with pytest.raises(ConfigError):
        ClusterMap([0, 1], [0], 2, 2)
    with pytest.raises(ConfigError):
        ClusterMap([0, 2], [0, 1], 2, 2)
    cm = ClusterMap([0, 1], [1, 0], 2, 2)
    assert cm.vocab_size == 2


def test_cluster_map_copy_is_independent():
    cm = ClusterMap([0, 1, 1], [1, 0, 1], 2, 2, frozen_states={0})
    dup = cm.copy()
    dup.state_of[0] = 1
    assert cm.state_of[0] == 0
    assert dup.frozen_states == {0}
    assert not cm.same_assignments(dup)
    assert cm.same_assignments(cm.copy())


def test_init_clustering_layout():
    vocab, counts = small_setup()
    cm = init_clustering(counts, k_states=3, k_cats=2, vocab=vocab)
    assert cm.n_states == 4 and cm.n_cats == 4
    assert cm.k_states == 3 and cm.k_cats == 2

    # begin marker owns the extra state and sits in the top regular category
    assert cm.state_of[vocab.bos_id] == 3
    assert cm.category_of[vocab.bos_id] == 1
    # end and unknown markers own the extra categories
    assert cm.category_of[vocab.eos_id] == 2
    assert cm.category_of[vocab.unk_id] == 3
    assert cm.state_of[vocab.eos_id] == 2
    assert cm.state_of[vocab.unk_id] == 2

    assert cm.frozen_states == {vocab.bos_id}
    assert cm.frozen_cats == {vocab.eos_id, vocab.unk_id}

    # "high" (4 tokens) and "mid" (3) take the singleton states, rest share
    high, mid = vocab.lookup("high"), vocab.lookup("mid")
    low, rare = vocab.lookup("low"), vocab.lookup("rare")
    assert cm.state_of[high] == 0
    assert cm.state_of[mid] == 1
    assert cm.state_of[low] == 2 and cm.state_of[rare] == 2
    # category side: only one singleton slot
    assert cm.category_of[high] == 0
    assert cm.category_of[mid] == 1 and cm.category_of[low] == 1


def test_init_clustering_breaks_count_ties_on_word_string():
    vocab = Vocabulary(["zz", "aa"])
    counts = count_events([["zz", "aa"]], vocab)
    cm = init_clustering(counts, 2, 2, vocab)
    assert cm.state_of[vocab.lookup("aa")] == 0
    assert cm.state_of[vocab.lookup("zz")] == 1


def test_init_clustering_rejects_bad_k():
    vocab, counts = small_setup()
    with pytest.raises(ConfigError):
        init_clustering(counts, 1, 2, vocab)
    with pytest.raises(ConfigError):
        init_clustering(counts, 2, 5, vocab)


def test_cluster_file_round_trip(tmp_path):
    vocab, counts = small_setup()
    cm = init_clustering(counts, 3, 2, vocab)
    path = tmp_path / "clusters.txt"
    save_clusters(path, vocab, cm, metadata={"score": -12.5, "iterations": 4})
    loaded, fields = load_clusters(path, vocab)
    assert loaded.same_assignments(cm)
    assert loaded.k_states == cm.k_states and loaded.k_cats == cm.k_cats
    assert loaded.frozen_states == cm.frozen_states
    assert loaded.frozen_cats == cm.frozen_cats
    assert fields["score"] == "-12.5"
    assert fields["iterations"] == "4"
    assert fields["vocab_md5"] == vocab.checksum()

    # second save of the loaded map is byte-identical
    path2 = tmp_path / "again.txt"
    save_clusters(path2, vocab, loaded, metadata={"score": -12.5, "iterations": 4})
    assert path.read_bytes() == path2.read_bytes()


def test_cluster_file_rejects_foreign_vocab(tmp_path):
    vocab, counts = small_setup()
    cm = init_clustering(counts, 2, 2, vocab)
    path = tmp_path / "clusters.txt"
    save_clusters(path, vocab, cm)
    with pytest.raises(FormatError):
        load_clusters(path, Vocabulary(["other", "words", "here", "now"]))


def test_cluster_file_rejects_incomplete_coverage(tmp_path):
    vocab, counts = small_setup()
    cm = init_clustering(counts, 2, 2, vocab)
    path = tmp_path / "clusters.txt"
    save_clusters(path, vocab, cm)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        load_clusters(path, vocab)


# ------------------------------------------------------------------ the model


def test_model_rows_sum_to_one():
    vocab, counts = small_setup()
    cm = init_clustering(counts, 3, 2, vocab)
    model = estimate_class_model(counts, cm)
    for v in range(len(vocab)):
        total = sum(model.prob(v, w) for w in range(len(vocab)))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_class_distributions_normalize():
    vocab, counts = small_setup()
    cm = init_clustering(counts, 2, 3, vocab)
    model = estimate_class_model(counts, cm)
    for s in range(cm.n_states):
        assert sum(
            model.class_p[s, g] for g in range(cm.n_cats)
        ) == pytest.approx(1.0, abs=1e-12)


def test_model_matches_direct_computation():
    rng = random.Random(77)
    for _ in range(8):
        vocab_size = rng.randint(6, 12)
        k_s, k_c = rng.randint(2, 4), rng.randint(2, 4)
        counts = random_table(rng, vocab_size)
        states = [rng.randrange(k_s) for _ in range(vocab_size)]
        cats = [rng.randrange(k_c) for _ in range(vocab_size)]
        cats[:k_c] = list(range(k_c))  # keep every category populated
        cm = ClusterMap(states, cats, k_s, k_c)
        b = rng.uniform(0.2, 0.8)
        model = estimate_class_model(counts, cm, discount=Discount(b))
        for v in range(vocab_size):
            for w in range(vocab_size):
                want = oracles.class_model_probability(
                    counts.rows, states, cats, k_s, k_c, b, b, b, v, w
                )
                assert model.prob(v, w) == pytest.approx(want, rel=1e-10)


def test_relabeling_clusters_preserves_probabilities():
    rng = random.Random(13)
    vocab_size, k_s, k_c = 12, 4, 5
    counts = random_table(rng, vocab_size)
    states = [rng.randrange(k_s) for _ in range(vocab_size)]
    cats = [rng.randrange(k_c) for _ in range(vocab_size)]
    perm_s = list(range(k_s))
    perm_c = list(range(k_c))
    rng.shuffle(perm_s)
    rng.shuffle(perm_c)
    cm1 = ClusterMap(states, cats, k_s, k_c)
    cm2 = ClusterMap(
        [perm_s[s] for s in states], [perm_c[g] for g in cats], k_s, k_c
    )
    m1 = estimate_class_model(counts, cm1, discount=Discount(0.5))
    m2 = estimate_class_model(counts, cm2, discount=Discount(0.5))
    for v in range(vocab_size):
        for w in range(vocab_size):
            assert m1.prob(v, w) == pytest.approx(m2.prob(v, w), rel=1e-12)


def test_model_file_round_trip(tmp_path):
    vocab, counts = small_setup()
    cm = init_clustering(counts, 3, 2, vocab)
    model = estimate_class_model(counts, cm, vocab_md5=vocab.checksum())
    p1 = tmp_path / "m1.lm"
    model.save(p1)
    loaded = ClassModel.load(p1)
    p2 = tmp_path / "m2.lm"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.vocab_md5 == vocab.checksum()
    for v in range(len(vocab)):
        for w in range(len(vocab)):
            assert loaded.prob(v, w) == model.prob(v, w)


def empty_cluster_model():
    """A model whose map leaves state 2 and category 3 empty."""
    vocab, counts = small_setup()
    words = range(len(vocab))
    cm = ClusterMap([w % 2 for w in words], [w % 3 for w in words], 3, 4)
    return vocab, estimate_class_model(counts, cm, vocab_md5=vocab.checksum())


def test_model_with_empty_clusters_round_trips(tmp_path):
    vocab, model = empty_cluster_model()
    p1, p2 = tmp_path / "m1.lm", tmp_path / "m2.lm"
    model.save(p1)
    loaded = ClassModel.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for m in (model, loaded):
        for v in range(len(vocab)):
            assert sum(m.prob(v, w) for w in range(len(vocab))) == pytest.approx(1.0, abs=1e-12)
            for w in range(len(vocab)):
                assert loaded.prob(v, w) == model.prob(v, w)
    # the empty category has no fallback entry, and the loader accepts none
    p1.write_text(p1.read_text().replace("\\category-unigrams:\n", "\\category-unigrams:\n3 -1.0\n"))
    with pytest.raises(FormatError):
        ClassModel.load(p1)


def read_model_text(text):
    """The cluster map and the ``ids -> value`` entries of every other
    section of a saved class model, parsed without package code."""
    state_of, category_of, sections = {}, {}, {}
    for line in text.splitlines()[1:]:
        if line.startswith("\\"):
            name = line
            sections[name] = {}
        elif name == "\\clusters:":
            w, s, g = map(int, line.split())
            state_of[w], category_of[w] = s, g
        else:
            *ids, value = line.split()
            sections[name][tuple(map(int, ids))] = float(value)
    return state_of, category_of, sections


def init_cluster_model():
    vocab, counts = small_setup()
    return vocab, estimate_class_model(counts, init_clustering(counts, 3, 2, vocab))


@pytest.mark.parametrize("build", [init_cluster_model, empty_cluster_model])
def test_model_scores_are_its_file_numbers(tmp_path, build):
    """p(w|v) = (10**lp(g|s) or 0 unseen + alpha(s) * 10**lp(g)) * 10**lp(w),
    bit for bit, from the log10 numbers of the saved file."""
    vocab, model = build()
    path = tmp_path / "m.lm"
    model.save(path)
    state_of, category_of, sec = read_model_text(path.read_text())
    pairs, alphas = sec["\\state-bigrams:"], sec["\\state-alphas:"]
    cats, words = sec["\\category-unigrams:"], sec["\\word-unigrams:"]
    word_p = np.power(10.0, np.array([words[(w,)] for w in range(len(vocab))]))
    for m in (model, ClassModel.load(path)):
        for v in range(len(vocab)):
            s = state_of[v]
            for w in range(len(vocab)):
                g = category_of[w]
                disc = 10.0 ** pairs[(s, g)] if (s, g) in pairs else 0.0
                q = 10.0 ** cats[(g,)] if (g,) in cats else 0.0
                class_p = disc + alphas[(s,)] * q
                assert m.class_p[s, g] == class_p
                assert m.prob(v, w) == class_p * word_p[w]


def test_estimate_rejects_size_mismatch():
    vocab, counts = small_setup()
    cm = init_clustering(counts, 2, 2, vocab)
    from clusterlm.corpus import CountTable

    with pytest.raises(ConfigError):
        estimate_class_model(CountTable(3), cm)


def test_structured_corpus_gets_useful_classes():
    # words that always precede the same successors share a state profile;
    # the estimate should give successors similar probabilities after them
    from corpusgen import block_corpus

    sents = block_corpus(60)
    vocab, counts = table_from_sentences(sents)
    cm = init_clustering(counts, 2, 2, vocab)
    # force the intended solution and check it predicts the held pattern
    for w in ("p0", "p1", "p2"):
        cm.state_of[vocab.lookup(w)] = 0
        cm.category_of[vocab.lookup(w)] = 0
    for w in ("q0", "q1", "q2"):
        cm.state_of[vocab.lookup(w)] = 1
        cm.category_of[vocab.lookup(w)] = 1
    model = estimate_class_model(counts, cm)
    p0, q0 = vocab.lookup("p0"), vocab.lookup("q0")
    assert model.prob(p0, q0) > model.prob(q0, q0)
    assert model.prob(q0, p0) > model.prob(p0, p0)


# Where a rejection is reported: the file, the part of it and the line.
REPORTED = {
    "non-numeric-value": r"m\.lm: \\category-unigrams: line 23: ",
    "non-integer-cluster-id": r"clusters\.txt: body: line 8: ",
    "huge-vocab-size": r"m\.lm: expected 1000000000000 lines in \\word-unigrams:",
    "huge-n-states": r"m\.lm: expected 1000000000000 lines in \\state-alphas:",
}


def _repeat_first_line(section):
    def edit(text):
        head, body = text.split(section + "\n", 1)
        return head + section + "\n" + body.split("\n", 1)[0] + "\n" + body
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(
            lambda t: t.replace("\\state-alphas:\n", "\\state-alphas:\n99 0.5\n"),
            id="state-out-of-range",
        ),
        pytest.param(lambda t: t[: t.index("\\word-unigrams:")], id="no-word-unigrams"),
        pytest.param(lambda t: re.sub(r"(\\state-bigrams:\n\d+ \d+ )\S+", r"\1-inf", t),
                     id="unseen-state-bigram-value"),
        pytest.param(lambda t: re.sub(r"(\\word-unigrams:\n\d+ )\S+", r"\1inf", t),
                     id="infinite-word-unigram"),
        pytest.param(lambda t: re.sub(r"(\\state-bigrams:\n\d+ )\d+", r"\g<1>99", t),
                     id="state-bigram-category-out-of-range"),
        pytest.param(lambda t: re.sub(r"(\\category-unigrams:\n)[^\n]*\n", r"\1", t),
                     id="missing-category"),
        pytest.param(_repeat_first_line("\\clusters:"), id="duplicate-cluster"),
        pytest.param(_repeat_first_line("\\state-bigrams:"), id="duplicate-state-bigram"),
        pytest.param(_repeat_first_line("\\state-alphas:"), id="duplicate-state-alpha"),
        pytest.param(_repeat_first_line("\\category-unigrams:"), id="duplicate-category"),
        pytest.param(_repeat_first_line("\\word-unigrams:"), id="duplicate-word"),
        pytest.param(
            lambda t: t.replace("\\clusters:\n0 ", "\\clusters:\n0 99 "), id="cluster-id-out-of-range"
        ),
        pytest.param(
            lambda t: t.replace("\\category-unigrams:\n", "\\category-unigrams:\n0 x\n"),
            id="non-numeric-value",
        ),
        pytest.param(lambda t: t + "\\extra:\n", id="unknown-section"),
        pytest.param(lambda t: t.replace(" b_cats=", " junk b_cats="), id="header-token"),
        pytest.param(lambda t: re.sub(r" k_cats=\d+", " k_cats=0", t, count=1),
                     id="no-movable-category"),
        pytest.param(lambda t: t.replace("\\state-alphas:\n", "\\state-alphas:\n\n"),
                     id="blank-line"),
        pytest.param(lambda t: t.replace("\\clusters:\n", "0 0 0\n\\clusters:\n"),
                     id="line-before-sections"),
        # numpy refuses 10**12 values at once; never a size it could commit lazily
        pytest.param(lambda t: re.sub(r" vocab_size=\d+", " vocab_size=1000000000000", t),
                     id="huge-vocab-size"),
        pytest.param(lambda t: re.sub(r" n_states=\d+", " n_states=1000000000000", t),
                     id="huge-n-states"),
    ],
)
def test_class_model_load_rejects_malformed_files(tmp_path, edit, request):
    vocab, counts = small_setup()
    model = estimate_class_model(counts, init_clustering(counts, 3, 2, vocab))
    path = tmp_path / "m.lm"
    model.save(path)
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(FormatError, match=REPORTED.get(request.node.callspec.id)):
        ClassModel.load(path)


@pytest.mark.parametrize("sizes, reported", [
    # 3000 x 3000 state-bigram cells would take 72 MB
    pytest.param("n_states=3000 n_cats=3000", r"expected 3000 lines in \\state-alphas:",
                 id="both-sizes"),
    # no section lists every category: the range is bounded by the words
    pytest.param("n_states=4 n_cats=3000", "4 states and 3000 categories for 7 words",
                 id="n-cats"),
])
def test_class_model_load_checks_header_sizes_before_allocating(tmp_path, sizes, reported):
    vocab, counts = small_setup()
    path = tmp_path / "m.lm"
    estimate_class_model(counts, init_clustering(counts, 3, 2, vocab)).save(path)
    text = path.read_text()
    assert " n_states=4 n_cats=4 " in text
    path.write_text(text.replace(" n_states=4 n_cats=4 ", f" {sizes} "))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=reported):
            ClassModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def header_field(key, value):
    """An edit that sets ``key=value`` in the header line of a cluster file."""
    def edit(lines):
        head, n = re.subn(rf" {key}=\S+", f" {key}={value}", lines[0])
        assert n == 1, key
        return [head] + lines[1:]
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " x"],
                     id="non-integer-cluster-id"),
        pytest.param(lambda lines: [lines[0] + " junk"] + lines[1:], id="header-token"),
        pytest.param(lambda lines: lines + lines[-1:], id="duplicate-word"),
        pytest.param(lambda lines: lines[:-1] + [lines[-1].split()[0] + " 99 0"],
                     id="state-out-of-range"),
        pytest.param(lambda lines: lines[:-1] + [lines[-1].split()[0] + " 0 -1"],
                     id="negative-category"),
        pytest.param(lambda lines: lines + ["stranger 0 0"], id="unknown-word"),
        pytest.param(header_field("k_cats", 0), id="no-movable-category"),
        pytest.param(header_field("k_states", 0), id="no-movable-state"),
        pytest.param(header_field("k_cats", 500), id="more-movable-categories-than-categories"),
        pytest.param(header_field("frozen_states", 99999), id="frozen-word-outside-vocabulary"),
        pytest.param(lambda lines: lines[:2] + [""] + lines[2:], id="blank-line"),
        # cut to an integer, the state would load as the saved map
        pytest.param(lambda lines: lines[:-1] + ["{} {}.5 {}".format(*lines[-1].split())],
                     id="fractional-state"),
    ],
)
def test_load_clusters_rejects_malformed_files(tmp_path, edit, request):
    vocab, counts = small_setup()
    path = tmp_path / "clusters.txt"
    save_clusters(path, vocab, init_clustering(counts, 3, 2, vocab))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(FormatError, match=REPORTED.get(request.node.callspec.id)):
        load_clusters(path, vocab)
