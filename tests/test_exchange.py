"""Exchange clustering: determinism, monotonicity, convergence, plumbing."""

import math
import random

import pytest

import oracles
from corpusgen import block_corpus, domain_corpus, table_from_sentences

from clusterlm.classmodel import class_counts, init_clustering
from clusterlm.corpus import Vocabulary, build_vocabulary, count_events
from clusterlm.criterion import clustering_score, combine_counts
from clusterlm.discounting import estimate_discount
from clusterlm.errors import ConfigError
from clusterlm import exchange
from clusterlm.evaluate import SuiteConfig
from clusterlm.exchange import (
    RARE_EVENTS,
    criterion_discount,
    optimize_lambda,
    run_exchange,
    _visit_order,
)


def block_setup(k=2):
    vocab, counts = table_from_sentences(block_corpus(80))
    cm = init_clustering(counts, k, k, vocab)
    return vocab, counts, cm


def adaptive_setup():
    back_sents = domain_corpus("back", seed=1, n_words=2500, topic_size=12)
    adapt_sents = domain_corpus("target", seed=2, n_words=700, topic_size=12)
    vocab = build_vocabulary(adapt_sents, back_sents, max_size=400)
    back = count_events(back_sents, vocab)
    adapt = count_events(adapt_sents, vocab)
    cm = init_clustering(back, 4, 4, vocab)
    return vocab, adapt, back, cm


# --------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        SuiteConfig(lambda_grid=())
    with pytest.raises(ConfigError):
        SuiteConfig(lambda_grid=(0.5, 1.5))
    SuiteConfig()


# ------------------------------------------------------------ visit ordering


def test_visit_order_most_frequent_first_then_word_string():
    vocab = Vocabulary(["bb", "aa", "cc"])
    counts = count_events([["bb", "aa", "cc", "aa"]], vocab)
    # aa twice; bb and cc once each -> tie broken by the string
    order = _visit_order(counts, None, vocab)
    words = [vocab.word(w) for w in order]
    assert words.index("aa") < words.index("bb") < words.index("cc")
    # without a vocabulary ties fall back to the id
    order_ids = _visit_order(counts, None, None)
    assert order_ids.index(vocab.lookup("bb")) < order_ids.index(vocab.lookup("cc"))


def test_visit_order_pools_both_tables():
    vocab = Vocabulary(["aa", "bb"])
    train = count_events([["aa"]], vocab)
    back = count_events([["bb", "bb", "bb"]], vocab)
    order = _visit_order(train, back, vocab)
    assert order.index(vocab.lookup("bb")) < order.index(vocab.lookup("aa"))


# ------------------------------------------------------------- standard runs


def test_standard_run_is_deterministic():
    vocab, counts, cm = block_setup()
    cfg = SuiteConfig()
    r1 = run_exchange(counts, None, cm, cfg, vocab=vocab)
    r2 = run_exchange(counts, None, cm, cfg, vocab=vocab)
    assert oracles.same_map(r1.cluster_map, r2.cluster_map)
    assert r1.score == r2.score
    assert [s.moves for s in r1.iterations] == [s.moves for s in r2.iterations]
    assert r1.moves == r2.moves


def test_standard_run_leaves_init_untouched():
    vocab, counts, cm = block_setup()
    baseline = cm.copy()
    run_exchange(counts, None, cm, SuiteConfig())
    assert oracles.same_map(cm, baseline)


def test_standard_run_monotone_and_convergent():
    vocab, counts, cm = block_setup()
    result = run_exchange(counts, None, cm, SuiteConfig(), vocab=vocab)
    assert result.converged
    assert result.score > run_exchange(
        counts, None, cm, SuiteConfig(max_iterations=1)
    ).iterations[0].score - 1e-9

    # every applied move strictly improves; the running score never dips
    last_running = -math.inf
    for it, w, side, src, dst, delta, running in result.moves:
        assert side in ("category", "state")
        assert src != dst
        assert delta > 0.0
        assert running >= last_running - 1e-9
        last_running = running

    # iteration-level scores never decrease either
    scores = [s.score for s in result.iterations]
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_standard_finds_block_structure():
    vocab, counts, cm = block_setup()
    result = run_exchange(counts, None, cm, SuiteConfig(), vocab=vocab)
    got = result.cluster_map
    p_ids = [vocab.lookup(w) for w in ("p0", "p1", "p2")]
    q_ids = [vocab.lookup(w) for w in ("q0", "q1", "q2")]
    for side_of in (got.state_of, got.category_of):
        assert len({int(side_of[i]) for i in p_ids}) == 1
        assert len({int(side_of[i]) for i in q_ids}) == 1
        assert int(side_of[p_ids[0]]) != int(side_of[q_ids[0]])


def test_converged_run_is_a_fixpoint():
    vocab, counts, cm = block_setup()
    first = run_exchange(counts, None, cm, SuiteConfig())
    again = run_exchange(counts, None, first.cluster_map, SuiteConfig())
    assert again.converged
    assert again.iterations[0].moves == 0
    assert again.score == pytest.approx(first.score, rel=1e-12)
    assert oracles.same_map(again.cluster_map, first.cluster_map)


def test_iteration_cap_is_respected():
    vocab, counts, cm = block_setup()
    result = run_exchange(counts, None, cm, SuiteConfig(max_iterations=1))
    assert len(result.iterations) == 1


# ------------------------------------------------------------- adaptive runs


def test_adaptive_run_improves_and_reports_lambda():
    vocab, adapt, back, cm = adaptive_setup()
    cfg = SuiteConfig(max_iterations=8)
    result = run_exchange(adapt, back, cm, cfg, vocab=vocab)
    assert result.lam in cfg.lambda_grid
    assert math.isfinite(result.score)
    scores = [s.score for s in result.iterations]
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_adaptive_run_is_deterministic():
    vocab, adapt, back, cm = adaptive_setup()
    cfg = SuiteConfig(max_iterations=5)
    r1 = run_exchange(adapt, back, cm, cfg, vocab=vocab)
    r2 = run_exchange(adapt, back, cm, cfg, vocab=vocab)
    assert oracles.same_map(r1.cluster_map, r2.cluster_map)
    assert r1.score == r2.score and r1.lam == r2.lam


def test_optimize_lambda_breaks_ties_toward_larger_weight():
    rng = random.Random(8)
    pairs = [[rng.randint(0, 6) for _ in range(3)] for _ in range(3)]
    a = oracles.bordered(pairs)
    b = oracles.bordered(pairs)
    for grid in ((0.0, 0.5, 1.0), (1.0, 0.5, 0.0)):
        lam, score = optimize_lambda(a, b, grid, 0.5)
        assert lam == 1.0
        assert math.isfinite(score)


def test_optimize_lambda_all_degenerate():
    a = oracles.bordered([[0, 0], [0, 0]])
    b = oracles.bordered([[0, 0], [0, 0]])
    lam, score = optimize_lambda(a, b, (0.0, 0.5, 1.0), 0.5)
    assert lam == 1.0
    assert score == -math.inf


def test_optimize_lambda_rejects_an_empty_grid():
    a = oracles.bordered([[1, 2], [3, 4]])
    for grid in ((), []):
        with pytest.raises(ConfigError, match="empty weight grid"):
            optimize_lambda(a, a, grid, 0.5)


def test_optimize_lambda_rejects_mismatched_cluster_ranges():
    a = oracles.bordered([[1, 2], [3, 4]])
    # one more category; and one state, which plain arrays would broadcast
    for b in (oracles.bordered([[1, 2, 0], [3, 4, 0]]), oracles.bordered([[4, 6]])):
        with pytest.raises(ConfigError, match="cluster ranges"):
            optimize_lambda(a, b, (0.0, 0.5, 1.0), 0.5)


@pytest.mark.parametrize("adaptive", [False, True])
def test_run_reports_the_score_of_the_map_it_returns(adaptive):
    vocab, adapt, back, cm = adaptive_setup()
    # a grid without 1.0 keeps lambda < 1, where the background enters the score
    cfg = SuiteConfig(max_iterations=3, lambda_grid=(0.0, 0.3, 0.6, 0.9))
    other = back if adaptive else None
    result = run_exchange(adapt, other, cm, cfg, vocab=vocab)
    assert result.iterations[0].moves > 0
    assert result.lam < 1.0 if adaptive else result.lam is None
    # moves are scored at the run's one weight: each sweep's running total
    # ends at the score of the map it leaves
    last = {move[0]: move[-1] for move in result.moves}
    for stats in result.iterations:
        if stats.moves:
            assert last[stats.iteration] == pytest.approx(stats.score, rel=1e-9)
    a = class_counts(adapt, result.cluster_map)
    combined = a
    if adaptive:
        combined = combine_counts(a, class_counts(back, result.cluster_map), result.lam)
    b = criterion_discount(adapt, other, cfg).b
    assert result.score == clustering_score(a, combined, b)


@pytest.mark.parametrize("adaptive", [False, True])
def test_lambda_is_chosen_once_on_the_start_map(monkeypatch, adaptive):
    vocab, adapt, back, cm = adaptive_setup()
    cfg = SuiteConfig(max_iterations=3, lambda_grid=(0.0, 0.3, 0.6, 0.9))
    calls = []

    def counted(*args):
        calls.append(args)
        return optimize_lambda(*args)

    monkeypatch.setattr(exchange, "optimize_lambda", counted)
    other = back if adaptive else None
    result = run_exchange(adapt, other, cm, cfg, vocab=vocab)
    # more than one sweep: a search per sweep would be counted
    assert len(result.iterations) > 1
    if not adaptive:
        assert calls == [] and result.lam is None
        return
    assert len(calls) == 1
    b = criterion_discount(adapt, back, cfg).b
    start = [class_counts(t, cm) for t in (adapt, back)]
    assert result.lam == optimize_lambda(*start, cfg.lambda_grid, b)[0]


# -------------------------------------------------------------- rare words


@pytest.mark.parametrize("criterion", ["standard", "adaptive"])
def test_words_seen_at_most_twice_keep_their_initial_classes(criterion):
    vocab, adapt, back, cm = adaptive_setup()
    if criterion == "standard":
        train, other = back, None
    else:
        train, other = adapt, back
    result = run_exchange(train, other, cm, SuiteConfig(max_iterations=5), vocab=vocab)
    rare = {w for w in range(len(vocab)) if 0 < train.unigram[w] <= RARE_EVENTS}
    assert len(rare) >= 10
    got = result.cluster_map
    for w in rare:
        assert int(got.state_of[w]) == int(cm.state_of[w])
        assert int(got.category_of[w]) == int(cm.category_of[w])
    moved = [move[1] for move in result.moves]
    assert moved, "exchange should move the frequent words"
    assert not rare & set(moved)
    assert all(train.unigram[w] > RARE_EVENTS for w in moved)


# ------------------------------------------------------- discount estimation


def test_criterion_discount_forced_or_estimated():
    vocab, counts, _ = block_setup()
    forced = criterion_discount(counts, None, SuiteConfig(discount=0.42))
    assert forced.b == 0.42
    auto = criterion_discount(counts, None, SuiteConfig())
    hist = {}
    for row in counts.rows.values():
        for c in row.values():
            hist[c] = hist.get(c, 0) + 1
    assert auto.b == estimate_discount(hist).b


def test_criterion_discount_pools_background():
    vocab, adapt, back, _ = adaptive_setup()
    pooled = criterion_discount(adapt, back, SuiteConfig())
    hist = {}
    for table in (adapt, back):
        for row in table.rows.values():
            for c in row.values():
                hist[c] = hist.get(c, 0) + 1
    assert pooled.b == estimate_discount(hist).b
