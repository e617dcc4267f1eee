"""Acceptance gate: nine scenario checks, one printed verdict line each.

Each test prints `[criterion N] PASS/FAIL - summary` straight to the
terminal (bypassing capture) and then asserts, so a full run always shows
the scoreboard.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import oracles
from corpusgen import block_corpus, domain_corpus, random_table, table_from_sentences

from clusterlm.backoff import fillup, train_backoff
from clusterlm.classmodel import ClusterMap, estimate_class_model, init_clustering
from clusterlm.corpus import build_vocabulary, count_events
from clusterlm.criterion import (
    CATEGORY_SIDE,
    STATE_SIDE,
    AdaptiveObjective,
    ClassCounts,
    StandardObjective,
    aggregate_class_counts,
    clustering_score,
    combine_class_counts,
    combine_word_counts,
)
from clusterlm.discounting import Discount
from clusterlm.evaluate import (
    SuiteConfig,
    experiment_suite,
    format_report,
    relative_improvement,
    suite_records,
)
from clusterlm.exchange import ExchangeConfig, run_exchange


def verdict(capsys, num, summary, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {num} failed: {summary}"


def close(got, want, rel):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


def cells_of(t):
    return {(s, g): int(c) for (s, g), c in np.ndenumerate(t.pairs) if c}


def random_maps(rng, vocab_size, k_s, k_c):
    return ClusterMap(
        [rng.randrange(k_s) for _ in range(vocab_size)],
        [rng.randrange(k_c) for _ in range(vocab_size)],
        k_s,
        k_c,
    )


def test_criterion_values_match_independent_references(capsys):
    start = time.monotonic()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(100):
        vocab_size = rng.randint(8, 30)
        k_s, k_c = rng.randint(2, 6), rng.randint(2, 6)
        cm = random_maps(rng, vocab_size, k_s, k_c)
        train = random_table(rng, vocab_size)
        back = random_table(rng, vocab_size)
        b = rng.uniform(0.1, 0.9)
        lam = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0])

        agg = aggregate_class_counts(train, cm)
        got = clustering_score(agg, agg, b)
        want = oracles.training_score(cells_of(agg), k_s, k_c, b)
        assert close(got, want, 1e-10), (got, want)
        if math.isfinite(want):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))

        agg_b = aggregate_class_counts(back, cm)
        got_a = clustering_score(agg, combine_class_counts(agg, agg_b, lam), b)
        want_a = oracles.adaptation_score(
            cells_of(agg), cells_of(agg_b), lam, k_s, k_c, b
        )
        assert close(got_a, want_a, 1e-10), (got_a, want_a)
        if math.isfinite(want_a):
            worst = max(worst, abs(got_a - want_a) / max(1.0, abs(want_a)))
    elapsed = time.monotonic() - start
    verdict(
        capsys, 1,
        f"training and adaptation scores vs independent references on 100 "
        f"instances (worst rel err {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-10 and elapsed < 10.0,
    )


def test_incremental_deltas_match_recomputation(capsys):
    start = time.monotonic()
    rng = random.Random(2002)
    worst = 0.0
    worst_cancel = 0.0
    checked = 0
    for i in range(20):
        vocab_size = rng.randint(10, 24)
        k_s, k_c = rng.randint(2, 5), rng.randint(2, 5)
        cm = random_maps(rng, vocab_size, k_s, k_c)
        train = random_table(rng, vocab_size)
        disc = Discount(rng.uniform(0.2, 0.8))
        if i % 2:
            back = random_table(rng, vocab_size)
            eng = AdaptiveObjective(train, back, cm, disc, rng.choice([0.3, 0.6]))
        else:
            eng = StandardObjective(train, cm, disc)
        moves = 0
        while moves < 50:
            side = rng.choice([CATEGORY_SIDE, STATE_SIDE])
            k = cm.k_cats if side == CATEGORY_SIDE else cm.k_states
            assign = cm.category_of if side == CATEGORY_SIDE else cm.state_of
            w = rng.randrange(vocab_size)
            dst = rng.randrange(k)
            if dst == int(assign[w]):
                continue
            src = int(assign[w])
            before = eng.score()
            delta = eng.move_delta(w, side, dst)
            eng.apply_move(w, side, dst)
            after = eng.score()
            moves += 1
            if math.isfinite(delta) and math.isfinite(after - before):
                worst = max(
                    worst, abs(delta - (after - before)) / max(1.0, abs(before))
                )
                rev = eng.move_delta(w, side, src)
                if math.isfinite(rev):
                    worst_cancel = max(worst_cancel, abs(delta + rev))
                checked += 1
    elapsed = time.monotonic() - start
    verdict(
        capsys, 2,
        f"{checked} incremental deltas vs full recomputes (worst rel err "
        f"{worst:.2e}, worst reverse residue {worst_cancel:.2e}, {elapsed:.1f}s)",
        worst <= 1e-8 and worst_cancel <= 1e-9 and elapsed < 30.0,
    )


def test_hill_climbing_is_monotone_and_converges(capsys):
    start = time.monotonic()
    sentences = domain_corpus("back", seed=33, n_words=10_500)[:1000]
    assert len(sentences) == 1000
    vocab, counts = table_from_sentences(sentences, max_size=500)
    init = init_clustering(counts, 20, 20, vocab)

    result = run_exchange(counts, None, init, ExchangeConfig(), vocab=vocab)
    all_positive = True
    nondecreasing = True
    last = -math.inf
    for _, _, _, _, _, delta, running in result.moves:
        all_positive &= delta > 0.0
        nondecreasing &= running >= last - 1e-9
        last = running
    scores = [s.score for s in result.iterations]
    nondecreasing &= all(b2 >= a2 - 1e-9 for a2, b2 in zip(scores, scores[1:]))

    # adaptive variant at its one weight, chosen on the start map: every
    # move improves, so each sweep's score is at least the last one's
    target = domain_corpus("target", seed=34, n_words=2_500)
    tv = build_vocabulary(target, sentences, 600)
    a_counts = count_events(target, tv)
    b_counts = count_events(sentences, tv)
    a_init = init_clustering(b_counts, 20, 20, tv)
    a_result = run_exchange(a_counts, b_counts, a_init, ExchangeConfig(), vocab=tv)
    for move in a_result.moves:
        all_positive &= move[5] > 0.0
    a_scores = [s.score for s in a_result.iterations]
    nondecreasing &= all(b2 >= a2 - 1e-9 for a2, b2 in zip(a_scores, a_scores[1:]))

    elapsed = time.monotonic() - start
    verdict(
        capsys, 3,
        f"strictly improving moves, nondecreasing trajectories, converged in "
        f"{len(result.iterations)}/{len(a_result.iterations)} iterations "
        f"({elapsed:.1f}s)",
        all_positive and nondecreasing and result.converged
        and a_result.converged and len(result.iterations) <= 20
        and len(a_result.iterations) <= 20 and elapsed < 120.0,
    )


def test_every_model_type_normalizes(capsys):
    back_sents = domain_corpus("back", seed=41, n_words=6_000, topic_size=25)
    adapt_sents = domain_corpus("target", seed=42, n_words=1_500, topic_size=25)
    vocab = build_vocabulary(adapt_sents, back_sents, max_size=100)
    back = count_events(back_sents, vocab)
    adapt = count_events(adapt_sents, vocab)
    disc = Discount(0.5)

    models = {}
    models["backoff"] = train_backoff(back, disc, cutoff=1)
    models["fillup"] = fillup(adapt, models["backoff"], disc)
    init = init_clustering(back, 8, 8, vocab)
    std = run_exchange(back, None, init, ExchangeConfig(max_iterations=5))
    models["class"] = estimate_class_model(back, std.cluster_map)
    ada = run_exchange(
        adapt, back, std.cluster_map,
        ExchangeConfig(max_iterations=5),
    )
    combined = combine_word_counts(adapt, back, ada.lam)
    models["adaptive class"] = estimate_class_model(combined, ada.cluster_map)

    worst = 0.0
    for name, model in models.items():
        for v in range(len(vocab)):
            total = sum(model.prob(v, w) for w in range(len(vocab)))
            worst = max(worst, abs(total - 1.0))
    verdict(
        capsys, 4,
        f"all four model types normalize over {len(vocab)} words "
        f"(worst deviation {worst:.2e})",
        worst <= 1e-9,
    )


def test_interpolation_endpoints_are_exact(capsys):
    rng = random.Random(5005)
    cells_exact = True
    score_exact = True
    for _ in range(25):
        n_s, n_c = rng.randint(2, 6), rng.randint(2, 6)
        mk = lambda: [
            [rng.choice([0, 0, 1, 2, 3, 5, 11]) for _ in range(n_c)]
            for _ in range(n_s)
        ]
        a = ClassCounts.from_matrix(mk())
        b = ClassCounts.from_matrix(mk())
        disc = rng.uniform(0.1, 0.9)

        at_one = combine_class_counts(a, b, 1.0)
        for got, want in ((at_one, a), (combine_class_counts(a, b, 0.0), b)):
            cells_exact &= bool(np.array_equal(got.pairs, want.pairs))
            cells_exact &= bool(np.array_equal(got.state_tot, want.state_tot))
            cells_exact &= bool(np.array_equal(got.cat_tot, want.cat_tot))
        # leave-one-out is the criterion with no background table
        score_exact &= clustering_score(a, at_one, disc) == clustering_score(a, a, disc)
    verdict(
        capsys, 5,
        "interpolation endpoints cell-exact; the adaptive score at full adaptation "
        "weight equals the leave-one-out score bit-for-bit",
        cells_exact and score_exact,
    )


def test_exchange_attains_enumerated_optimum_on_block_corpus(capsys):
    start = time.monotonic()
    vocab, counts = table_from_sentences(block_corpus(80))
    content = [vocab.lookup(w) for w in ("p0", "p1", "p2", "q0", "q1", "q2")]
    init = init_clustering(counts, 2, 2, vocab)
    disc = Discount(0.5)
    result = run_exchange(
        counts, None, init, ExchangeConfig(discount=0.5), vocab=vocab
    )

    # exhaustive enumeration over every clustering of the content words
    # (tokens without counts cannot change any class cell)
    V = len(vocab)
    M = np.zeros((V, V), dtype=np.int64)
    for v, row in counts.rows.items():
        for w, c in row.items():
            M[v, w] = c
    base_s = init.state_of.copy()
    base_c = init.category_of.copy()
    best = -math.inf
    n_evaluated = 0
    for s_bits in itertools.product((0, 1), repeat=6):
        S = base_s.copy()
        S[content] = s_bits
        R = np.zeros((V, init.n_states), dtype=np.int64)
        R[np.arange(V), S] = 1
        half = R.T @ M
        for c_bits in itertools.product((0, 1), repeat=6):
            G = base_c.copy()
            G[content] = c_bits
            C = np.zeros((V, init.n_cats), dtype=np.int64)
            C[np.arange(V), G] = 1
            pairs = half @ C
            t = ClassCounts.from_matrix(pairs)
            score = clustering_score(t, t, disc.b)
            best = max(best, score)
            n_evaluated += 1
    elapsed = time.monotonic() - start
    verdict(
        capsys, 6,
        f"exchange score {result.score:.6f} equals the maximum over all "
        f"{n_evaluated} clusterings ({best:.6f}, {elapsed:.1f}s)",
        math.isclose(result.score, best, rel_tol=1e-12) and elapsed < 10.0,
    )


@pytest.fixture(scope="module")
def trend_suite():
    back = domain_corpus("back", seed=71, n_words=100_000, topic_size=300)
    adapt = domain_corpus("target", seed=72, n_words=26_000, topic_size=300)
    held = domain_corpus("target", seed=73, n_words=10_000, topic_size=300)
    cfg = SuiteConfig(clusters=100)
    start = time.monotonic()
    result = experiment_suite(back, adapt, held, [1000, 5000, 25000], cfg)
    return result, time.monotonic() - start


def test_adaptation_trends_reproduce(capsys, trend_suite):
    result, elapsed = trend_suite
    pp = {
        (size, method): rep.perplexity
        for size, reps in result.adapted.items()
        for method, rep in reps.items()
    }
    gates = []
    for size in (1000, 5000):
        gates.append(pp[(size, "fillup")] < pp[(size, "adapt_bo")])
        gates.append(pp[(size, "adapt_cl")] < pp[(size, "adapt_bo")])
    ungated = ", ".join(
        f"{size}: {relative_improvement(pp[(size, 'adapt_cl')], pp[(size, 'clust_adapt')]):+.1f}%"
        for size in (1000, 5000, 25000)
    )
    summary = (
        "small-size ordering holds ("
        + "; ".join(
            f"{size}w fillup {pp[(size, 'fillup')]:.0f} / adapt_cl "
            f"{pp[(size, 'adapt_cl')]:.0f} < adapt_bo {pp[(size, 'adapt_bo')]:.0f}"
            for size in (1000, 5000)
        )
        + f"); clustered adaptation vs adapt_cl (not gated): {ungated}; "
        f"{elapsed:.0f}s"
    )
    verdict(capsys, 7, summary, all(gates) and elapsed < 1800.0)


def test_suite_runs_are_byte_identical(capsys):
    import json

    back = domain_corpus("back", seed=81, n_words=15_000, topic_size=60)
    adapt = domain_corpus("target", seed=82, n_words=3_000, topic_size=60)
    held = domain_corpus("target", seed=83, n_words=2_000, topic_size=60)
    cfg = SuiteConfig(clusters=20, max_iterations=8)
    r1 = experiment_suite(back, adapt, held, [500, 2000], cfg)
    r2 = experiment_suite(back, adapt, held, [500, 2000], cfg)
    same_text = format_report(r1) == format_report(r2)
    b1 = json.dumps(suite_records(r1), sort_keys=True).encode()
    b2 = json.dumps(suite_records(r2), sort_keys=True).encode()
    verdict(
        capsys, 8,
        "two identical suite runs render byte-identical reports and records",
        same_text and b1 == b2,
    )


def test_reported_improvements_match_published_comparisons(capsys):
    pairs = [
        (57.0, 50.9, 10.7),
        (51.1, 48.1, 5.87),
        (46.4, 44.8, 3.45),
        (37.0, 38.0, -2.70),
        (33.4, 32.8, 1.80),
    ]
    worst = max(
        abs(relative_improvement(base, treat) - want) for base, treat, want in pairs
    )
    verdict(
        capsys, 9,
        f"relative-improvement arithmetic reproduces all five reference "
        f"comparisons (worst deviation {worst:.3f}pp)",
        worst <= 0.05,
    )
