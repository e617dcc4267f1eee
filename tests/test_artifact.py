"""The artifact format: the bytes each saver writes, and ``artifact.write``
read back through ``Artifact`` value for value."""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpusgen import random_table

from clusterlm import artifact
from clusterlm.artifact import Artifact, finite, id_list, size, write
from clusterlm.backoff import BackoffModel, fillup, train_backoff
from clusterlm.classmodel import ClusterMap, estimate_class_model, init_clustering, save_clusters
from clusterlm.corpus import Vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import FormatError

# ------------------------------------------------------------ pinned bytes


def saved(save) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "artifact"
        save(path)
        return path.read_bytes()


def small_counts():
    vocab = Vocabulary(["a", "b", "c"])
    return vocab, count_events([["a", "b"], ["b", "a", "a"]], vocab)


def test_count_file_bytes():
    _, counts = small_counts()
    assert saved(lambda p: counts.save(p, "cafe")) == b"""\
clusterlm-counts vocab_size=6 total_tokens=7 vocab_md5=cafe
1 3 1
1 4 1
3 2 1
3 3 1
3 4 1
4 2 1
4 3 1
"""


def test_fillup_file_bytes():
    # the background never sees word 5, which the adaptation data does
    back = train_backoff(oracles.dict_table(6, {3: {4: 3}, 4: {3: 1, 2: 2}, 1: {3: 2, 4: 1}}),
                         Discount(0.5), cutoff=0)
    adapt = oracles.dict_table(6, {3: {5: 2}, 5: {2: 2}, 1: {5: 1, 3: 1}})
    model = fillup(adapt, back, Discount(0.5))
    assert saved(model.save) == b"""\
clusterlm-backoff kind=fillup vocab_size=6 b=0.5 cutoff=0 vocab_md5=
\\bigrams:
1 3 -0.6020599913279624
1 4 -0.7481880270062005
1 5 -0.6020599913279624
3 4 -0.6777807052660807
3 5 -0.12493873660829993
4 2 -0.559179994846571
4 3 -1.0363012495662336
5 2 -0.12493873660829993
\\contexts:
1 0.3214285714285711
3 0.03999999999999999
4 0.17374213836477984
5 0.08823529411764704
\\fill-contexts:
1 0.0
3 0.0
4 0.45833333333333337
5 0.16176470588235295
\\unigrams:
0 -1.8103359337550449
1 -1.8103359337550449
2 -0.965237893740788
3 -0.7689432485968198
4 -0.6342446746993636
5 -0.33881855655338095
\\fill-words:
5
\\unseen:
0
1
"""


def test_class_model_file_bytes():
    vocab, counts = small_counts()
    model = estimate_class_model(counts, init_clustering(counts, 2, 2, vocab), Discount(0.5),
                                 vocab_md5="cafe")
    assert saved(model.save) == b"""\
clusterlm-classmodel label=class vocab_size=6 n_states=3 n_cats=4 k_states=2 k_cats=2 \
frozen_states=1 frozen_cats=0,2 b_pairs=0.5 b_cats=0.5 b_words=0.5 vocab_md5=cafe
\\clusters:
0 1 3
1 2 1
2 1 2
3 0 0
4 1 1
5 1 1
\\state-bigrams:
0 0 -0.7781512503836436
0 1 -0.7781512503836436
0 2 -0.7781512503836436
1 0 -0.6020599913279624
1 2 -0.6020599913279624
2 0 -0.6020599913279624
2 1 -0.6020599913279624
\\state-alphas:
0 0.5
1 0.5
2 0.5
\\category-unigrams:
0 -0.38646019098860757
1 -0.5720967679505191
2 -0.5720967679505191
3 -1.271066772286538
\\word-unigrams:
0 0.0
1 -1.0791812460476249
2 0.0
3 0.0
4 -0.0791812460476248
5 -1.0791812460476249
"""


def test_cluster_file_bytes():
    vocab, _ = small_counts()
    cm = ClusterMap([1, 2, 3, 0, 0, 1], [2, 0, 1, 0, 1, 1], 4, 3, frozen_cats={2, 1})
    meta = {"score": -1 / 3, "lambda": 0.9, "iteration": 2}
    assert saved(lambda p: save_clusters(p, vocab, cm, meta)) == b"""\
clusterlm-clusters vocab_size=6 n_states=4 n_cats=3 k_states=4 k_cats=3 frozen_states=- \
frozen_cats=1,2 vocab_md5=530acd34604e401cd4a779f0b8a0b204 iteration=2 lambda=0.9 \
score=-0.3333333333333333
<unk> 1 2
<s> 2 0
</s> 3 1
a 0 0
b 0 1
c 1 1
"""


# ------------------------------------------------- write, then read back

N = 1000  # the id bound of id columns
INT64 = st.integers(-2**63, 2**63 - 1)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
# what a vocabulary holds: any text without whitespace
WORDS = st.sampled_from(["#", "a#b", "\\", "\\x", "\\a:", "nan", "inf", '"', '"a"b', "1_0"]) | (
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
    .filter(lambda w: w.split() == [w]))
TEXT = st.text(st.characters(blacklist_categories=("Cs",))).filter(
    lambda w: w.split() == [w] or not w)


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def read_back(fields, parts, read):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "artifact"
        write(path, "magic", fields, parts)
        with Artifact(path, "magic", "test") as art:
            return read(art)


def test_columns_of_unequal_length_are_not_cut_short(tmp_path):
    with pytest.raises(ValueError):
        write(tmp_path / "a", "magic", {}, [(None, (np.arange(3), np.arange(2)))])


def test_rows_written_in_blocks_match_per_row_formatting(tmp_path):
    # across several blocks of rows: floats written with %r, ints and words with %s
    rng = random.Random(5)
    specials = [0.1, -0.0, 5e-324, 1e300, -1e300, 1 / 3]
    n = 9000
    values = np.array([rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3)
                       for _ in range(n)])
    ints = np.array([rng.randint(-2**63, 2**63 - 1) for _ in range(n)], dtype=np.int64)
    ids = np.arange(n) - n // 2
    words = np.array([rng.choice(["a", "é", "zz"]) for _ in range(n)], dtype=object)
    write(tmp_path / "a", "magic", {}, [(None, (ids, values)), ("\\rows:", (words, ints, values)),
                                        ("\\ids:", (ids,))])
    want = ["magic\n", *("%s %r\n" % row for row in zip(ids.tolist(), values.tolist())),
            "\\rows:\n",
            *("%s %s %r\n" % row for row in zip(words, ints.tolist(), values.tolist())),
            "\\ids:\n", *("%s\n" % i for i in ids.tolist())]
    assert (tmp_path / "a").read_text(encoding="utf-8") == "".join(want)
    assert {0.1, -0.0, 5e-324, 1e300} <= set(values.tolist()) and ints.min() < 0 < ints.max()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(WORDS, st.integers(0, N - 1), INT64, FLOATS), max_size=20))
def test_body_columns_read_back_bit_for_bit(rows):
    words, ids, ints, values = zip(*rows) if rows else ((),) * 4
    got = read_back({}, [(None, (np.array(words, dtype=object), np.array(ids, dtype=np.int64),
                                 np.array(ints, dtype=np.int64), np.array(values, dtype=float)))],
                    lambda art: art.body((str, N, int, float)))
    assert got[0].tolist() == list(words)
    assert got[1].tolist() == list(ids) and got[2].tolist() == list(ints)
    assert bits(got[3]) == bits(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, N - 1), INT64), max_size=10),
       st.lists(st.tuples(st.integers(0, N - 1), FLOATS), max_size=10),
       st.lists(st.integers(0, N - 1), max_size=10))
def test_section_columns_read_back_bit_for_bit(pairs, values, ids):
    layout = {"\\pairs:": (N, int), "\\values:": (N, float), "\\ids:": (N,)}
    columns = {
        "\\pairs:": [np.array(c, dtype=np.int64) for c in zip(*pairs)] or [np.zeros(0, int)] * 2,
        "\\values:": [np.array(c) for c in zip(*values)] or [np.zeros(0, int), np.zeros(0)],
        "\\ids:": [np.array(ids, dtype=np.int64)],
    }
    got = read_back({}, list(columns.items()), lambda art: art.sections(layout))
    assert got["\\pairs:"][0].tolist() == [p[0] for p in pairs]
    assert got["\\pairs:"][1].tolist() == [p[1] for p in pairs]
    assert got["\\values:"][0].tolist() == [v[0] for v in values]
    assert bits(got["\\values:"][1]) == bits([v[1] for v in values])
    assert got["\\ids:"][0].tolist() == ids


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1),
    FLOATS | FLOATS.map(np.float64) | st.integers(0) | TEXT | st.frozensets(st.integers(0)),
))
def test_header_fields_read_back(fields):
    def read(art):
        return {k: art.field(k, finite if isinstance(v, float) else size if isinstance(v, int)
                             else id_list if isinstance(v, frozenset) else str)
                for k, v in fields.items()}
    got = read_back(fields, [], read)
    for k, v in fields.items():
        if isinstance(v, float):
            assert type(got[k]) is float and bits(got[k]) == bits(v)
        else:
            assert got[k] == v


# ----------------------------------------------------- faults in later blocks


def saved_model(path, vocab_size):
    model = train_backoff(random_table(random.Random(6), vocab_size), Discount(0.4), cutoff=0)
    model.save(path)
    return path.read_text().split("\n")


def fault_in(lines, fault):
    """``lines`` with ``fault`` put in, and the message that names it."""
    k = lines.index("\\bigrams:") + 60  # a bigram line, 0-based
    u = lines.index("\\unigrams:") + 9
    if fault == "bad-value":
        lines[k] += "x"
        return rf"\\bigrams: line {k + 1}: could not convert string '.*x'"
    if fault in ("blank", "whitespace-only"):
        lines.insert(k, "" if fault == "blank" else " \u3000\t")
        return rf"\\bigrams: line {k + 1}: blank line"
    if fault == "unexpected-marker":
        lines.insert(k, "\\bigrams:")
        return rf"m\.lm: line {k + 1}: unexpected '\\\\bigrams:'"
    if fault == "bad-value-then-blank":
        lines[k] += " 7"
        lines.insert(k + 3, "")
        return rf"\\bigrams: line {k + 1}: the dtype passed requires 3 columns"
    if fault == "blank-then-bad-value":
        lines.insert(k, "")
        lines[k + 3] += " 7"
        return rf"\\bigrams: line {k + 1}: blank line"
    assert fault == "bad-value-in-a-later-section"
    lines[u] = lines[u].replace(" ", " 1_0 ")
    return rf"\\unigrams: line {u + 1}: "


@pytest.mark.parametrize("block", [100, None])
@pytest.mark.parametrize("fault", [
    "bad-value", "blank", "whitespace-only", "unexpected-marker", "bad-value-then-blank",
    "blank-then-bad-value", "bad-value-in-a-later-section"])
def test_a_fault_in_a_later_block_names_its_line(tmp_path, monkeypatch, block, fault):
    """The reader takes the file a block of lines at a time (a few lines
    when patched small) and still names the line of the first fault."""
    if block:
        monkeypatch.setattr(artifact, "LINE_BLOCK", block)
    path = tmp_path / "m.lm"
    lines = saved_model(path, 60)
    message = fault_in(lines, fault)
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError, match=message):
        BackoffModel.load(path)


@pytest.mark.parametrize("block", [100, None])
def test_a_decoding_error_names_the_last_line_decoded(tmp_path, monkeypatch, block):
    # A text file decodes a chunk of bytes at a time, so the error comes up
    # at the last line that reading one line at a time decodes before it.
    if block:
        monkeypatch.setattr(artifact, "LINE_BLOCK", block)
    path = tmp_path / "m.lm"
    text = "\n".join(saved_model(path, 200)).encode()
    for at in (len(text) // 3, len(text) // 2):
        bad = text[:at] + b"\xff" + text[at + 1:]
        path.write_bytes(bad)
        decoded = 0
        with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError):
            for decoded, _ in enumerate(fh, 1):
                pass
        assert 2 < decoded < bad.count(b"\n")
        message = rf"\\bigrams: line {decoded}: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(FormatError, match=message):
            BackoffModel.load(path)


def test_sections_read_back_across_many_blocks(tmp_path, monkeypatch):
    path = tmp_path / "m.lm"
    saved_model(path, 60)
    whole = BackoffModel.load(path)
    monkeypatch.setattr(artifact, "LINE_BLOCK", 10)
    again = tmp_path / "again.lm"
    BackoffModel.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()
    assert bits(BackoffModel.load(path).lp) == bits(whole.lp)
