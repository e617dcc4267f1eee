"""End-to-end command-line pipeline plus its error paths."""

import json
import re

import pytest

import oracles
from corpusgen import domain_corpus

from clusterlm import artifact
from clusterlm import corpus as corpus_module
from clusterlm.backoff import BackoffModel, fillup, train_backoff
from clusterlm.classmodel import load_clusters
from clusterlm.cli import main
from clusterlm.corpus import CountTable, Vocabulary, read_sentences
from clusterlm.discounting import estimate_discount
from clusterlm.evaluate import (
    SuiteConfig,
    adapt_class_model,
    experiment_suite,
    format_report,
    perplexity,
    suite_records,
    train_class_model,
    write_records,
)


def write_corpus(path, sentences):
    path.write_text("".join(" ".join(s) + "\n" for s in sentences))


def histogram(counts):
    hist = {}
    for c in counts.cells()[2].tolist():
        hist[c] = hist.get(c, 0) + 1
    return hist


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole pipeline once; tests pick over the artifacts."""
    d = tmp_path_factory.mktemp("pipeline")
    write_corpus(d / "background.txt", domain_corpus("back", 21, 1500, topic_size=12))
    write_corpus(d / "adaptation.txt", domain_corpus("target", 22, 500, topic_size=12))
    write_corpus(d / "heldout.txt", domain_corpus("target", 23, 300, topic_size=12))

    def run(*argv):
        rc = main([str(a) for a in argv])
        assert rc == 0, f"command failed: {argv}"

    run(
        "vocab", "--adaptation", d / "adaptation.txt",
        "--background", d / "background.txt",
        "--vocab-size", "250", "--out", d / "words.txt",
    )
    run("counts", "--vocab", d / "words.txt",
        "--corpus", d / "background.txt", "--out", d / "back.counts")
    run("counts", "--vocab", d / "words.txt",
        "--corpus", d / "adaptation.txt", "--out", d / "adapt.counts")
    run(
        "train", "--method", "back_bo", "--vocab", d / "words.txt",
        "--counts", d / "back.counts", "--out", d / "back_bo.lm",
    )
    run(
        "train", "--method", "back_cl", "--vocab", d / "words.txt",
        "--counts", d / "back.counts", "--out", d / "back_cl.lm",
        "--clusters", "4", "--max-iterations", "4",
        "--clusters-out", d / "back.clusters", "--trace", d / "back.trace",
    )
    run(
        "train", "--method", "adapt_bo", "--vocab", d / "words.txt",
        "--counts", d / "adapt.counts", "--out", d / "adapt_bo.lm",
    )
    run(
        "adapt", "--method", "fillup", "--vocab", d / "words.txt",
        "--counts", d / "adapt.counts", "--model", d / "back_bo.lm",
        "--out", d / "fillup.lm",
    )
    run(
        "adapt", "--method", "clust_adapt", "--vocab", d / "words.txt",
        "--counts", d / "adapt.counts", "--back-counts", d / "back.counts",
        "--init-clusters", d / "back.clusters", "--max-iterations", "4",
        "--out", d / "clust_adapt.lm", "--clusters-out", d / "adapt.clusters",
        "--trace", d / "adapt.trace",
    )
    return d


def test_vocab_artifact(workdir):
    vocab = Vocabulary.load(workdir / "words.txt")
    assert 100 < len(vocab) <= 250
    assert vocab.entries[:3] == ["<unk>", "<s>", "</s>"]


def test_counts_artifact(workdir):
    vocab = Vocabulary.load(workdir / "words.txt")
    assert f" vocab_md5={vocab.checksum()}\n" in (workdir / "back.counts").read_text()
    table = CountTable.load(workdir / "back.counts", vocab)
    assert table.total_tokens > 1000


@pytest.mark.parametrize("block", [None, 64])
def test_counts_writes_the_bytes_of_the_reference_table(workdir, tmp_path, monkeypatch, block):
    """``counts`` on a corpus file, counted in one block or in many, writes
    what ``CountTable.save`` writes for the per-token dict loop's table."""
    if block:
        monkeypatch.setattr(corpus_module, "ID_BLOCK", block)
        monkeypatch.setattr(artifact, "LINE_BLOCK", block)
    vocab = Vocabulary.load(workdir / "words.txt")
    for name in ("background.txt", "adaptation.txt"):
        got, want = tmp_path / "got.counts", tmp_path / "want.counts"
        assert main(["counts", "--vocab", str(workdir / "words.txt"),
                     "--corpus", str(workdir / name), "--out", str(got)]) == 0
        table = oracles.reference_count_events(read_sentences(workdir / name), vocab)
        table.save(want, vocab.checksum())
        assert got.read_bytes() == want.read_bytes()


def test_cluster_artifacts(workdir):
    vocab = Vocabulary.load(workdir / "words.txt")
    cm, fields = load_clusters(workdir / "back.clusters", vocab)
    assert cm.k_states == 4 and cm.k_cats == 4
    assert "score" in fields
    trace = (workdir / "back.trace").read_text().splitlines()
    assert trace, "exchange should move something on this corpus"
    assert all(len(line.split()) == 7 for line in trace)

    _, adapted_fields = load_clusters(workdir / "adapt.clusters", vocab)
    assert "lambda" in adapted_fields
    assert 0.0 <= float(adapted_fields["lambda"]) <= 1.0


def test_trace_files_hold_the_moves_of_the_run(workdir):
    # the fixture ran train back_cl and adapt clust_adapt with --trace; the
    # library run on the same counts and settings returns the same moves
    vocab = Vocabulary.load(workdir / "words.txt")
    back, adapt = (
        CountTable.load(workdir / f"{name}.counts", vocab) for name in ("back", "adapt")
    )
    cfg = SuiteConfig(clusters=4, max_iterations=4)
    _, trained = train_class_model(back, vocab, 4, cfg, "back_cl")
    init, _ = load_clusters(workdir / "back.clusters", vocab)
    _, adapted = adapt_class_model(adapt, back, init, vocab, cfg)
    for name, result in (("back.trace", trained), ("adapt.trace", adapted)):
        lines = (workdir / name).read_text().splitlines()
        assert lines, f"{name}: exchange should move something on this corpus"
        assert lines == ["%d %d %s %d %d %r %r" % move for move in result.moves]


@pytest.mark.parametrize(
    "model", ["back_bo.lm", "back_cl.lm", "adapt_bo.lm", "fillup.lm", "clust_adapt.lm"]
)
def test_eval_every_model(workdir, model, capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "eval", "--model", str(workdir / model), "--vocab", str(workdir / "words.txt"),
        "--heldout", str(workdir / "heldout.txt"), "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PP" in stdout
    payload = json.loads(out.read_text())
    assert payload["perplexity"] > 1
    assert payload["tokens_scored"] > 0


def test_report_tabulates_records(workdir, capsys, tmp_path):
    reports = []
    for i, model in enumerate(["back_bo.lm", "fillup.lm"]):
        out = tmp_path / f"r{i}.json"
        main([
            "eval", "--model", str(workdir / model),
            "--vocab", str(workdir / "words.txt"),
            "--heldout", str(workdir / "heldout.txt"),
            "--model-id", model.removesuffix(".lm"), "--out", str(out),
        ])
        reports.append(out)
    capsys.readouterr()
    table_out = tmp_path / "table.txt"
    rc = main(["report", *map(str, reports), "--out", str(table_out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "back_bo" in text and "fillup" in text
    assert table_out.read_text() == text


def test_config_file_supplies_defaults(workdir, tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("# pipeline settings\nclusters = 3\nmax_iterations = 2\n")
    rc = main([
        "--config", str(cfg),
        "train", "--method", "back_cl", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "back.counts"), "--out", str(tmp_path / "m.lm"),
        "--clusters-out", str(tmp_path / "m.clusters"),
    ])
    assert rc == 0
    vocab = Vocabulary.load(workdir / "words.txt")
    cm, _ = load_clusters(tmp_path / "m.clusters", vocab)
    assert cm.k_states == 3

    # explicit flags beat the config file
    rc = main([
        "--config", str(cfg),
        "train", "--method", "back_cl", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "back.counts"), "--out", str(tmp_path / "m2.lm"),
        "--clusters", "2", "--clusters-out", str(tmp_path / "m2.clusters"),
    ])
    assert rc == 0
    cm2, _ = load_clusters(tmp_path / "m2.clusters", vocab)
    assert cm2.k_states == 2


def test_vocabulary_mismatch_is_reported(workdir, tmp_path, capsys):
    other = tmp_path / "other_vocab.txt"
    Vocabulary(["completely", "different", "words"]).save(other)
    rc = main([
        "eval", "--model", str(workdir / "back_bo.lm"), "--vocab", str(other),
        "--heldout", str(workdir / "heldout.txt"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_counts_against_wrong_vocab_fail(workdir, tmp_path, capsys):
    other = tmp_path / "v.txt"
    Vocabulary(["x", "y", "z"]).save(other)
    rc = main([
        "train", "--method", "back_bo", "--vocab", str(other),
        "--counts", str(workdir / "back.counts"), "--out", str(tmp_path / "m.lm"),
    ])
    assert rc == 2
    assert "different vocabulary" in capsys.readouterr().err


def test_counts_rejects_a_vocabulary_entry_holding_whitespace(workdir, tmp_path, capsys):
    vocab = tmp_path / "v.txt"
    vocab.write_text("<unk>\n<s>\n</s>\nalpha\nbeta gamma\n\n")
    rc = main([
        "counts", "--vocab", str(vocab),
        "--corpus", str(workdir / "adaptation.txt"), "--out", str(tmp_path / "c.counts"),
    ])
    assert rc == 2
    assert "v.txt:5: " in capsys.readouterr().err
    assert not (tmp_path / "c.counts").exists()


def test_counts_rejects_a_corpus_holding_sentence_markers(workdir, tmp_path, capsys):
    corpus = tmp_path / "marked.txt"
    corpus.write_text("<s> a b a </s>\n<s> b a b </s>\n")
    rc = main([
        "counts", "--vocab", str(workdir / "words.txt"),
        "--corpus", str(corpus), "--out", str(tmp_path / "c.counts"),
    ])
    assert rc == 2
    assert "marked.txt:1: corpus token '<s>'" in capsys.readouterr().err
    assert not (tmp_path / "c.counts").exists()


@pytest.mark.parametrize("command", ["vocab", "counts", "eval"])
def test_a_marker_in_a_later_block_is_reported_with_its_line(
        workdir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(artifact, "LINE_BLOCK", 64)
    lines = (workdir / "background.txt").read_text().splitlines()
    lines[40] += " </s>"
    corpus = tmp_path / "marked.txt"
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {
        "vocab": ["vocab", "--adaptation", workdir / "adaptation.txt",
                  "--background", corpus, "--out", out],
        "counts": ["counts", "--vocab", workdir / "words.txt", "--corpus", corpus, "--out", out],
        "eval": ["eval", "--model", workdir / "back_bo.lm", "--vocab", workdir / "words.txt",
                 "--heldout", corpus, "--out", out],
    }[command]
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}:41: corpus token '</s>' is a sentence marker, "
        "which counting adds itself\n")
    assert not out.exists()


def test_unrecognized_model_file(workdir, tmp_path, capsys):
    rc = main([
        "eval", "--model", str(workdir / "back.counts"),
        "--vocab", str(workdir / "words.txt"),
        "--heldout", str(workdir / "heldout.txt"),
    ])
    assert rc == 2
    assert "unrecognized" in capsys.readouterr().err


def test_vocab_requires_a_corpus(tmp_path, capsys):
    rc = main(["vocab", "--out", str(tmp_path / "v.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_lambda_grid_rejected(workdir, tmp_path, capsys):
    rc = main([
        "adapt", "--method", "clust_adapt", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"),
        "--back-counts", str(workdir / "back.counts"),
        "--init-clusters", str(workdir / "back.clusters"),
        "--lambda-grid", "0.5,potato",
        "--out", str(tmp_path / "m.lm"),
    ])
    assert rc == 2
    assert "lambda" in capsys.readouterr().err


def test_fillup_requires_backoff_model(workdir, tmp_path, capsys):
    rc = main([
        "adapt", "--method", "fillup", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"),
        "--model", str(workdir / "back_cl.lm"),
        "--out", str(tmp_path / "m.lm"),
    ])
    assert rc == 2
    assert "backoff" in capsys.readouterr().err


def test_fillup_requires_model_flag(workdir, tmp_path, capsys):
    rc = main([
        "adapt", "--method", "fillup", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"),
        "--out", str(tmp_path / "m.lm"),
    ])
    assert rc == 2
    assert "--model" in capsys.readouterr().err


def test_cli_fillup_matches_library_fillup(workdir, capsys, tmp_path):
    # The CLI adapts the saved background model; the words the background
    # never saw come from that file alone.
    assert "\\unseen:\n" in (workdir / "back_bo.lm").read_text()
    vocab = Vocabulary.load(workdir / "words.txt")
    back_counts = CountTable.load(workdir / "back.counts", vocab)
    adapt_counts = CountTable.load(workdir / "adapt.counts", vocab)
    background = train_backoff(
        back_counts, estimate_discount(histogram(back_counts)),
        cutoff=1, vocab_md5=vocab.checksum(),
    )
    library = fillup(adapt_counts, background, estimate_discount(histogram(adapt_counts)))
    assert library.fill_words, "the adaptation data should bring its own words"
    assert BackoffModel.load(workdir / "fillup.lm").fill_words == library.fill_words

    heldout = list(read_sentences(workdir / "heldout.txt"))
    want = perplexity(library.probs, heldout, vocab).perplexity
    out = tmp_path / "fillup.json"
    rc = main([
        "eval", "--model", str(workdir / "fillup.lm"), "--vocab", str(workdir / "words.txt"),
        "--heldout", str(workdir / "heldout.txt"), "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["perplexity"] == pytest.approx(want, rel=1e-12)


def test_eval_score_oov_scores_the_unknown_positions(workdir, capsys, tmp_path):
    # held-out text with words outside the vocabulary, two of them in a row
    vocab = Vocabulary.load(workdir / "words.txt")
    heldout = list(read_sentences(workdir / "heldout.txt"))[:40]
    heldout[0] = heldout[0] + ["zzz-unseen"]
    heldout[1] = ["qqq-unseen", "zzz-unseen"] + heldout[1]
    assert all(w not in vocab for w in ("zzz-unseen", "qqq-unseen"))
    write_corpus(tmp_path / "oov.txt", heldout)
    reports = {}
    for flags in ([], ["--score-oov"]):
        out = tmp_path / f"report{len(flags)}.json"
        assert main([
            "eval", "--model", str(workdir / "back_bo.lm"), "--vocab", str(workdir / "words.txt"),
            "--heldout", str(tmp_path / "oov.txt"), "--out", str(out), *flags,
        ]) == 0
        reports[bool(flags)] = json.loads(out.read_text())
    skipped, scored = reports[False], reports[True]
    assert scored["oov_tokens"] == skipped["oov_tokens"] >= 3
    assert scored["tokens_scored"] == skipped["tokens_scored"] + scored["oov_tokens"]
    model = BackoffModel.load(workdir / "back_bo.lm")
    want = perplexity(model.probs, heldout, vocab, score_oov=True)
    assert scored["tokens_scored"] == want.tokens_scored
    assert scored["perplexity"] == pytest.approx(want.perplexity, rel=1e-12)
    assert scored["perplexity"] != pytest.approx(skipped["perplexity"], rel=1e-6)


def test_malformed_fillup_model_exits_cleanly(workdir, tmp_path, capsys):
    text = (workdir / "fillup.lm").read_text()
    bad = tmp_path / "bad.lm"
    bad.write_text(text.replace("\\fill-words:\n", "\\fill-words:\n999999\n"))
    rc = main([
        "eval", "--model", str(bad), "--vocab", str(workdir / "words.txt"),
        "--heldout", str(workdir / "heldout.txt"),
    ])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_fillup_rejects_a_filled_background(workdir, tmp_path, capsys):
    rc = main([
        "adapt", "--method", "fillup", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"),
        "--model", str(workdir / "fillup.lm"),
        "--out", str(tmp_path / "m.lm"),
    ])
    assert rc == 2
    assert "fill words" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flag, value, records, named",
    [
        pytest.param("clusters 3\n", None, None, None, "key=value",
                     id="config-line-without-equals"),
        pytest.param("cutoff=abc\n", None, None, None, "cutoff", id="config-bad-cutoff"),
        pytest.param("clusterz=3\n", None, None, None, "clusterz", id="config-unknown-key"),
        pytest.param(
            "clusters = 3\nclusters = 5\n", None, None, None, "clusters",
            id="config-repeated-key",
        ),
        # every command checks every setting, used by its method or not
        pytest.param("max_iterations=0\n", None, None, None, "max_iterations",
                     id="config-zero-iterations"),
        pytest.param(
            "clusters=4\nmax_iterations=1\nlambda_grid=1.5\n", "--method", "back_cl", None,
            "lambda", id="config-lambda-out-of-range",
        ),
        pytest.param(
            "clusters=4\nmax_iterations=1\ncutoff=-1\n", "--method", "back_cl", None,
            "cutoff", id="config-negative-cutoff-for-back-cl",
        ),
        pytest.param("vocab_size=2\n", None, None, None, "vocab_size",
                     id="config-vocab-size-below-4"),
        pytest.param("clusters=1\n", None, None, None, "clusters", id="config-one-cluster"),
        # settings are checked before any input file is read
        pytest.param("cutoff=-1\n", "--vocab", "missing.txt", None, "cutoff",
                     id="negative-cutoff-and-missing-vocab"),
        pytest.param("vocab_size=3\n", "--counts", "missing.counts", None, "vocab_size",
                     id="vocab-size-below-4-and-missing-counts"),
        pytest.param("clusters=1\n", "--vocab", "missing.txt", None, "clusters",
                     id="one-cluster-and-missing-vocab"),
        pytest.param(None, "--discount", "abc", None, "discount", id="bad-discount"),
        pytest.param(None, "--discount", "1.5", None, "discount", id="discount-out-of-range"),
        pytest.param(None, "--cutoff", "x", None, "cutoff", id="bad-cutoff"),
        pytest.param(None, "--cutoff", "-1", None, "cutoff", id="negative-cutoff"),
        pytest.param(None, "--config", "missing.cfg", None, "missing.cfg", id="missing-config"),
        pytest.param(None, "--vocab", "missing.txt", None, "missing.txt", id="missing-vocab"),
        pytest.param(None, "--counts", "missing.counts", None, "missing.counts",
                     id="missing-counts"),
        pytest.param(None, None, None, "{bad json", None, id="report-bad-json"),
        pytest.param(None, None, None, "[1, 2]", None, id="report-records-not-objects"),
        pytest.param(None, None, None, '{"records": 5}', None, id="report-records-not-a-list"),
        pytest.param(
            None, None, None, '[{"model_id": "x", "perplexity": "abc"}]', None,
            id="report-perplexity-not-a-number",
        ),
        pytest.param(
            None, None, None, '[{"model_id": "x", "perplexity": 9.5, "lambda": "abc"}]',
            "lambda", id="report-lambda-not-a-number",
        ),
    ],
)
def test_bad_settings_and_missing_inputs_exit_2(
    workdir, tmp_path, capsys, config, flag, value, records, named
):
    flags = {
        "--method": "back_bo",
        "--vocab": str(workdir / "words.txt"),
        "--counts": str(workdir / "back.counts"),
        "--out": str(tmp_path / "m.lm"),
    }
    if config is not None:
        (tmp_path / "settings.cfg").write_text(config)
        flags["--config"] = str(tmp_path / "settings.cfg")
    if flag is not None:
        flags[flag] = str(tmp_path / value) if value.startswith("missing") else value
    argv = ["--config", flags.pop("--config")] if "--config" in flags else []
    argv += ["train"]
    for item in flags.items():
        argv += item
    if records is not None:
        (tmp_path / "records.json").write_text(records)
        argv = ["report", str(tmp_path / "records.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert named is None or named in err
    assert not (tmp_path / "m.lm").exists()


def test_a_header_size_too_large_to_allocate_exits_2(workdir, tmp_path, capsys):
    # the header's size is checked against the vocabulary before anything is allocated
    text = (workdir / "back.counts").read_text()
    bad = tmp_path / "bad.counts"
    bad.write_text(re.sub(r" vocab_size=\d+ ", " vocab_size=1000000000000 ", text, count=1))
    assert bad.read_text() != text
    rc = main([
        "train", "--method", "back_bo", "--vocab", str(workdir / "words.txt"),
        "--counts", str(bad), "--out", str(tmp_path / "m.lm"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err and "bad.counts" in err


def test_a_run_that_fails_writing_its_trace_leaves_no_model(workdir, tmp_path, capsys):
    out, clusters = tmp_path / "m.lm", tmp_path / "m.clusters"
    rc = main([
        "train", "--method", "back_cl", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "back.counts"), "--clusters", "4", "--max-iterations", "1",
        "--out", str(out), "--clusters-out", str(clusters),
        "--trace", str(tmp_path / "missing" / "t"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() and not clusters.exists()


def test_clust_adapt_with_a_malformed_init_map_exits_2(workdir, tmp_path, capsys):
    # a header with no movable category is a malformed file, not a crash
    text = (workdir / "back.clusters").read_text()
    bad = tmp_path / "bad.clusters"
    bad.write_text(text.replace(" k_cats=4 ", " k_cats=0 ", 1))
    assert bad.read_text() != text
    rc = main([
        "adapt", "--method", "clust_adapt", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"), "--back-counts", str(workdir / "back.counts"),
        "--init-clusters", str(bad), "--out", str(tmp_path / "m.lm"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err and "k_cats=0" in err


def test_train_on_a_corpus_dominated_by_one_bigram(tmp_path):
    # "a a" holds most of the events, so weighing a move of "a" back into its
    # own cluster must not read past the criterion's log tables
    d = tmp_path
    write_corpus(d / "skewed.txt", [["a"] * 10 + ["b"]] * 100)
    for argv in (
        ["vocab", "--background", d / "skewed.txt", "--out", d / "words.txt"],
        ["counts", "--vocab", d / "words.txt", "--corpus", d / "skewed.txt",
         "--out", d / "skewed.counts"],
        ["train", "--method", "back_cl", "--vocab", d / "words.txt",
         "--counts", d / "skewed.counts", "--out", d / "back_cl.lm", "--clusters", "2"],
    ):
        assert main([str(a) for a in argv]) == 0, argv


def test_cli_and_suite_build_the_same_adapted_models(workdir, tmp_path, capsys):
    # The fixture built clust_adapt.lm through the CLI with k=4 and four
    # iterations on each exchange; the suite must build the same model.
    back, adapt, heldout = (
        list(read_sentences(workdir / f"{name}.txt"))
        for name in ("background", "adaptation", "heldout")
    )
    words = sum(len(s) for s in adapt)
    cfg = SuiteConfig(
        vocab_size=250, clusters=4, max_iterations=4, methods=("adapt_cl", "clust_adapt")
    )
    # two sizes whose string order is not their numeric order
    sizes = [60, words]
    assert sorted(sizes, key=str) != sizes
    result = experiment_suite(back, adapt, heldout, sizes, cfg)
    suite = result.adapted[words]

    assert main([
        "train", "--method", "adapt_cl", "--vocab", str(workdir / "words.txt"),
        "--counts", str(workdir / "adapt.counts"), "--clusters", "4",
        "--max-iterations", "4", "--out", str(tmp_path / "adapt_cl.lm"),
    ]) == 0
    for method, model in (("adapt_cl", tmp_path / "adapt_cl.lm"),
                          ("clust_adapt", workdir / "clust_adapt.lm")):
        out = tmp_path / f"{method}.json"
        assert main([
            "eval", "--model", str(model), "--vocab", str(workdir / "words.txt"),
            "--heldout", str(workdir / "heldout.txt"), "--out", str(out),
        ]) == 0
        cli_pp = json.loads(out.read_text())["perplexity"]
        assert cli_pp == pytest.approx(suite[method].perplexity, rel=1e-12), method

    # the suite's records file gives the suite's table through the CLI
    records = tmp_path / "records.json"
    write_records(result, records)
    capsys.readouterr()
    assert main(["report", str(records)]) == 0
    text = capsys.readouterr().out
    assert text == format_report(suite_records(result))
    rows = [line.split() for line in text.splitlines()[1:]]
    assert [row[0] for row in rows] == [
        f"{method}@{size}" for size in sizes for method in ("adapt_cl", "clust_adapt")
    ]
    assert [row[-1] for row in rows] == [
        lam for size in sizes for lam in ("-", f"{result.lambdas[size]:.3f}")
    ]


@pytest.mark.parametrize("method, corpus", [("back_cl", "background"), ("adapt_cl", "adaptation")])
def test_train_clamps_the_default_cluster_count_with_a_note(tmp_path, capsys, method, corpus):
    # the README example's corpora and vocabulary; --clusters is left at its
    # default of 500, above the clusterable words, as the suite clamps it
    d = tmp_path
    for name, domain, seed, words in [("background", "back", 21, 3000),
                                      ("adaptation", "target", 22, 800)]:
        write_corpus(d / f"{name}.txt", domain_corpus(domain, seed, words, topic_size=12))
    for argv in (
        ["vocab", "--adaptation", d / "adaptation.txt", "--background", d / "background.txt",
         "--vocab-size", "250", "--out", d / "words.txt"],
        ["counts", "--vocab", d / "words.txt", "--corpus", d / f"{corpus}.txt",
         "--out", d / "c.counts"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    capsys.readouterr()
    rc = main([
        "train", "--method", method, "--vocab", str(d / "words.txt"),
        "--counts", str(d / "c.counts"), "--max-iterations", "1",
        "--clusters-out", str(d / "m.clusters"), "--out", str(d / "m.lm"),
    ])
    vocab = Vocabulary.load(d / "words.txt")
    movable = len(vocab) - 3
    assert movable < SuiteConfig().clusters
    assert rc == 0
    assert capsys.readouterr().err == (
        f"note: clusters reduced 500 -> {movable} to fit the vocabulary\n"
    )
    cm, _ = load_clusters(d / "m.clusters", vocab)
    assert cm.k_states == cm.k_cats == movable
    assert (d / "m.lm").exists()
