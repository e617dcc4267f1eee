"""Fuzz the four artifact loaders with mutated copies of valid files.

Every mutated file must either load or raise ``FormatError``; any other
exception is a loader bug.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpusgen import domain_corpus

from clusterlm.backoff import BackoffModel, fillup, train_backoff
from clusterlm.classmodel import ClassModel, estimate_class_model, init_clustering
from clusterlm.classmodel import load_clusters, save_clusters
from clusterlm.corpus import CountTable, build_vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import FormatError

TOKENS = [
    "-1", "0", "1", "2", "7", "999", "99999999999999999999", "x", "0.5", "1.5",
    "-0.25", "nan", "inf", "-inf", "1e308", "=", "a=b", "vocab_size=3", "-",
    "\\unigrams:", "\\clusters:", "",
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small valid file per loader, with the function that loads it."""
    d = tmp_path_factory.mktemp("valid")
    back = domain_corpus("back", 31, 300, topic_size=6)
    adapt = domain_corpus("target", 32, 120, topic_size=6)
    vocab = build_vocabulary(adapt, back, 40)
    back_counts = count_events(back, vocab)
    adapt_counts = count_events(adapt, vocab)
    cm = init_clustering(back_counts, 4, 3, vocab)
    background = train_backoff(back_counts, Discount(0.5), vocab_md5=vocab.checksum())

    back_counts.save(d / "counts", vocab.checksum())
    save_clusters(d / "clusters", vocab, cm, metadata={"score": -1.5})
    estimate_class_model(back_counts, cm).save(d / "class")
    fillup(adapt_counts, background, Discount(0.5)).save(d / "fillup")
    return {
        "counts": (d / "counts", lambda path: CountTable.load(path, vocab)),
        "clusters": (d / "clusters", lambda path: load_clusters(path, vocab)),
        "class": (d / "class", ClassModel.load),
        "fillup": (d / "fillup", BackoffModel.load),
    }


@st.composite
def mutated(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", ["counts", "clusters", "class", "fillup"])
def test_mutated_artifacts_load_or_raise_format_error(artifacts, kind):
    path, load = artifacts[kind]
    lines = path.read_text(encoding="utf-8").splitlines()
    target = path.with_name(f"{kind}.mutated")

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(lines))
    def check(text):
        target.write_text(text, encoding="utf-8")
        try:
            load(target)
        except FormatError:
            pass

    check()
