"""The clustering criterion: closed-form values, oracle agreement, deltas."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from corpusgen import domain_corpus, random_table, table_from_sentences

from clusterlm.classmodel import ClusterMap, init_clustering
from clusterlm.criterion import (
    CATEGORY_SIDE,
    NEG_INF,
    STATE_SIDE,
    AdaptiveObjective,
    ClassCounts,
    StandardObjective,
    _add_singleton_change,
    _tallies,
    aggregate_class_counts,
    cell_lookup,
    clustering_score,
    combine_class_counts,
    combine_counts,
    combine_word_counts,
    log_table,
)
from clusterlm.corpus import CountTable, build_vocabulary, count_events
from clusterlm.discounting import Discount
from clusterlm.errors import ConfigError, InvalidMoveError


def cells_of(t):
    return {(s, g): int(c) for (s, g), c in np.ndenumerate(t.pairs) if c}


def loo_score(t, b):
    """Leave-one-out: the criterion with no background."""
    return clustering_score(t, t, b)


def adaptive_score(a, bg, lam, b):
    return clustering_score(a, combine_class_counts(a, bg, lam), b)


def random_instance(rng, vocab_size=None, k_s=None, k_c=None):
    vocab_size = vocab_size or rng.randint(6, 16)
    k_s = k_s or rng.randint(2, 5)
    k_c = k_c or rng.randint(2, 5)
    counts = random_table(rng, vocab_size)
    cm = ClusterMap(
        [rng.randrange(k_s) for _ in range(vocab_size)],
        [rng.randrange(k_c) for _ in range(vocab_size)],
        k_s,
        k_c,
    )
    return counts, cm


# ----------------------------------------------------------------- rounding


def test_round_half_up():
    vals = np.array([0.0, 0.49, 0.5, 1.49, 1.5, 2.5, 3.49, 3.51])
    want = [0, 0, 1, 1, 2, 3, 3, 4]
    assert combine_counts(vals, np.zeros(len(vals)), 1.0).tolist() == want
    assert combine_counts(np.array([2]), np.array([3]), 0.5).tolist() == [3]


# ------------------------------------------------------------- training score


def test_training_score_hand_example():
    t = ClassCounts.from_matrix([[3, 0], [0, 2]])
    got = loo_score(t, 0.5)
    want = 3 * math.log(1.5) + 2 * math.log(0.5) - 6 * math.log(2)
    assert got == pytest.approx(want, rel=1e-14)


def test_training_score_singleton_cell_term():
    t = ClassCounts.from_matrix([[1, 0], [0, 3]])
    b = 0.4
    got = loo_score(t, b)
    # one singleton cell, two positive cells, two empty cells
    want = 3 * math.log(3 - 1 - b) + math.log(b * 1 / 3) - 2 * (3 * math.log(2))
    assert got == pytest.approx(want, rel=1e-14)


def test_training_score_degenerate_is_negative_infinity():
    assert loo_score(ClassCounts.from_matrix([[5, 0], [0, 0]]), 0.5) == NEG_INF
    assert loo_score(ClassCounts.from_matrix([[0, 0], [0, 0]]), 0.5) == NEG_INF


def test_training_score_matches_reference_on_random_tables():
    rng = random.Random(101)
    for _ in range(60):
        n_s, n_c = rng.randint(2, 6), rng.randint(2, 6)
        pairs = [
            [rng.choice([0, 0, 0, 1, 1, 2, 3, 7]) for _ in range(n_c)]
            for _ in range(n_s)
        ]
        b = rng.uniform(0.1, 0.9)
        t = ClassCounts.from_matrix(pairs)
        got = loo_score(t, b)
        want = oracles.training_score(cells_of(t), n_s, n_c, b)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_training_score_invariant_under_relabeling():
    rng = random.Random(7)
    pairs = np.array([[rng.randint(0, 6) for _ in range(4)] for _ in range(5)])
    perm_s = rng.sample(range(5), 5)
    perm_c = rng.sample(range(4), 4)
    permuted = pairs[np.ix_(perm_s, perm_c)]
    s1 = loo_score(ClassCounts.from_matrix(pairs), 0.5)
    s2 = loo_score(ClassCounts.from_matrix(permuted), 0.5)
    assert s1 == pytest.approx(s2, rel=1e-12)


# ----------------------------------------------------------------- aggregates


def test_aggregate_marginals_consistent():
    rng = random.Random(3)
    counts, cm = random_instance(rng)
    t = aggregate_class_counts(counts, cm)
    assert np.array_equal(t.state_tot, t.pairs.sum(axis=1))
    assert np.array_equal(t.cat_tot, t.pairs.sum(axis=0))
    assert _tallies(t.pairs)[1] + int((t.pairs == 0).sum()) == t.pairs.size
    # brute-force double loop
    want = oracles.cells_from_table(counts.rows, cm.state_of, cm.category_of)
    assert cells_of(t) == want
    assert t.state_tot.sum() == counts.total_tokens


def test_aggregate_single_cluster_collects_everything():
    counts = oracles.dict_table(5, {1: {2: 4}, 3: {4: 2}})
    cm = ClusterMap([0] * 5, [0] * 5, 1, 1)
    t = aggregate_class_counts(counts, cm)
    assert t.pairs[0, 0] == 6


def test_aggregate_identity_clustering_reproduces_table():
    rng = random.Random(4)
    counts = random_table(rng, 7)
    cm = ClusterMap(range(7), range(7), 7, 7)
    t = aggregate_class_counts(counts, cm)
    rows = counts.rows
    for v in range(7):
        for w in range(7):
            assert t.pairs[v, w] == rows.get(v, {}).get(w, 0)


# ------------------------------------------------------------ combined counts


def test_combine_counts_endpoints_exact():
    rng = random.Random(12)
    a = ClassCounts.from_matrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(3)])
    b = ClassCounts.from_matrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(3)])
    at_one = combine_class_counts(a, b, 1.0)
    assert np.array_equal(at_one.pairs, a.pairs)
    assert np.array_equal(at_one.state_tot, a.state_tot)
    at_zero = combine_class_counts(a, b, 0.0)
    assert np.array_equal(at_zero.pairs, b.pairs)
    assert np.array_equal(at_zero.cat_tot, b.cat_tot)
    # without a background the adaptation counts are the combined counts
    assert combine_class_counts(a, None, 0.3) is a


def test_combine_class_counts_rejects_mismatched_cluster_ranges():
    a = ClassCounts.from_matrix([[1, 2], [3, 4]])
    b = ClassCounts.from_matrix([[1, 2, 0], [3, 4, 0]])
    with pytest.raises(ConfigError, match="cluster ranges"):
        combine_class_counts(a, b, 0.5)


def test_combine_counts_rounds_ties_up():
    a = ClassCounts.from_matrix([[2]])
    b = ClassCounts.from_matrix([[5]])
    assert combine_class_counts(a, b, 0.5).pairs[0, 0] == 4  # 3.5 rounds away from zero


def test_combined_marginals_rounded_independently():
    # cells round down to zero but the marginal rounds up from its own sum
    a = ClassCounts.from_matrix([[1, 1, 1], [0, 0, 0]])
    b = ClassCounts.from_matrix([[0, 0, 0], [0, 0, 5]])
    combined = combine_class_counts(a, b, 0.4)
    assert list(combined.pairs[0]) == [0, 0, 0]  # each 0.4 -> 0
    # state margin: 0.4 * 3 = 1.2 -> 1, not the sum of rounded cells
    assert combined.state_tot[0] == 1


def test_combine_word_counts_endpoints_and_rounding():
    a = oracles.dict_table(5, {1: {2: 3}, 3: {4: 1}})
    b = oracles.dict_table(5, {1: {2: 2}, 4: {2: 6}})
    at_one = combine_word_counts(a, b, 1.0)
    assert at_one.rows == a.rows
    assert np.array_equal(at_one.unigram, a.unigram)
    at_zero = combine_word_counts(a, b, 0.0)
    assert at_zero.rows == b.rows
    mid = combine_word_counts(a, b, 0.5)
    assert mid.rows[1][2] == 3  # 2.5 rounds up
    assert mid.rows[3][4] == 1  # 0.5 rounds up
    assert mid.rows[4][2] == 3
    assert 2 not in mid.rows.get(0, {})
    # unigram column sums stay consistent with the rounded cells
    assert mid.unigram[2] == 6 and mid.unigram[4] == 1
    assert mid.total_tokens == 7


def test_combine_word_counts_drops_zero_cells():
    a = oracles.dict_table(4, {1: {2: 1}})
    b = oracles.dict_table(4)
    out = combine_word_counts(a, b, 0.3)  # 0.3 -> 0
    assert out.rows == {}
    assert out.total_tokens == 0


# ------------------------------------------------------------- adaptive score


def test_adaptive_score_matches_reference_on_random_pairs():
    rng = random.Random(55)
    for _ in range(60):
        n_s, n_c = rng.randint(2, 5), rng.randint(2, 5)
        mk = lambda: [
            [rng.choice([0, 0, 1, 2, 3, 9]) for _ in range(n_c)] for _ in range(n_s)
        ]
        a = ClassCounts.from_matrix(mk())
        bg = ClassCounts.from_matrix(mk())
        lam = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        b = rng.uniform(0.1, 0.9)
        got = adaptive_score(a, bg, lam, b)
        want = oracles.adaptation_score(
            cells_of(a), cells_of(bg), lam, n_s, n_c, b
        )
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_adaptive_score_empty_adaptation_counts():
    a = ClassCounts.from_matrix([[0, 0], [0, 0]])
    bg = ClassCounts.from_matrix([[4, 0], [0, 3]])
    b = 0.5
    got = adaptive_score(a, bg, 0.0, b)
    want = oracles.adaptation_score({}, cells_of(bg), 0.0, 2, 2, b)
    assert got == pytest.approx(want, rel=1e-12)


def test_adaptive_score_degenerate_combined_cells_is_negative_infinity():
    # two positive adaptation cells, but only one combined cell rounds above
    # zero (1.2 -> 1, 0.4 -> 0) -> the combined cell family degenerates
    a = ClassCounts.from_matrix([[3, 1], [0, 0]])
    bg = ClassCounts.from_matrix([[0, 0], [0, 0]])
    assert _tallies(combine_class_counts(a, bg, 0.4).pairs) == (1, 1)
    assert adaptive_score(a, bg, 0.4, 0.5) == NEG_INF
    assert oracles.adaptation_score(cells_of(a), {}, 0.4, 2, 2, 0.5) == NEG_INF
    assert math.isfinite(loo_score(a, 0.5))


def test_adaptive_equals_lambda_independent_when_tables_match():
    rng = random.Random(9)
    pairs = [[rng.randint(0, 7) for _ in range(4)] for _ in range(3)]
    a = ClassCounts.from_matrix(pairs)
    bg = ClassCounts.from_matrix(pairs)
    vals = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.array_equal(combine_class_counts(a, bg, lam).pairs, a.pairs)
        vals.append(adaptive_score(a, bg, lam, 0.6))
    assert max(vals) - min(vals) < 1e-12


# -------------------------------------------------------------- delta engines


def engine_with_counts(rng, adaptive):
    counts, cm = random_instance(rng)
    disc = Discount(rng.uniform(0.2, 0.8))
    if adaptive:
        back = random_table(rng, counts.vocab_size)
        lam = rng.choice([0.2, 0.5, 0.8])
        return AdaptiveObjective(counts, back, cm, disc, lam)
    return StandardObjective(counts, cm, disc)


def legal_random_move(rng, eng):
    cm = eng.cm
    for _ in range(300):
        side = rng.choice([CATEGORY_SIDE, STATE_SIDE])
        k = cm.k_cats if side == CATEGORY_SIDE else cm.k_states
        assign = cm.category_of if side == CATEGORY_SIDE else cm.state_of
        w = rng.randrange(cm.vocab_size)
        if eng.frozen(w, side) or k < 2:
            continue
        dst = rng.randrange(k)
        if dst != int(assign[w]):
            return w, side, int(assign[w]), dst
    raise AssertionError("could not sample a legal move")


def check_every_target(eng, w, side):
    """Each candidate delta of ``w`` equals the full recompute of its move,
    and the source slot is -inf; the engine is left as it was."""
    res = eng.candidate_deltas(w, side)
    if res is None:
        return 0
    targets, deltas = res
    src = int(eng.assignment(side)[0][w])
    assert deltas[src] == NEG_INF
    before = eng.score()
    checked = 0
    for dst, delta in zip(targets.tolist(), deltas.tolist()):
        if dst == src:
            continue
        eng.apply_move(w, side, dst)
        after = eng.score()
        eng.apply_move(w, side, src)
        if math.isinf(before):
            continue
        if math.isinf(after):
            assert delta == NEG_INF, f"{side} move {w}: {src}->{dst}"
            continue
        assert delta == pytest.approx(
            after - before, rel=1e-8, abs=1e-8
        ), f"{side} move {w}: {src}->{dst}"
        checked += 1
    assert eng.score() == before
    return checked


@pytest.mark.parametrize("adaptive", [False, True])
def test_move_delta_matches_full_recompute(adaptive):
    rng = random.Random(42 + adaptive)
    checked = 0
    for _ in range(12):
        eng = engine_with_counts(rng, adaptive)
        for _ in range(8):
            w, side, src, dst = legal_random_move(rng, eng)
            for either in (CATEGORY_SIDE, STATE_SIDE):
                checked += check_every_target(eng, w, either)
            before = eng.score()
            delta = oracles.move_delta(eng, w, side, dst)
            eng.apply_move(w, side, dst)
            after = eng.score()
            if math.isinf(before) or math.isinf(after):
                continue
            assert delta == pytest.approx(
                after - before, rel=1e-8, abs=1e-8
            ), f"{side} move {w}: {src}->{dst}"
    assert checked > 100


@pytest.mark.parametrize("adaptive", [False, True])
def test_every_lookup_stays_inside_the_log_tables(adaptive):
    # one cell holds most of the table: inserting its word back into its own
    # cluster would count twice the cell, past the tables' size
    vocab, counts = table_from_sentences([["a"] * 10 + ["b"]] * 100)
    cm = init_clustering(counts, 2, 2, vocab)
    if adaptive:
        eng = AdaptiveObjective(counts, counts, cm, Discount(0.5), lam=0.5)
    else:
        eng = StandardObjective(counts, cm, Discount(0.5))
    checked = 0
    for w in range(counts.vocab_size):
        for side in (CATEGORY_SIDE, STATE_SIDE):
            if not eng.frozen(w, side):
                checked += check_every_target(eng, w, side)
    assert checked > 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_reverse_move_cancels(adaptive):
    rng = random.Random(77 + adaptive)
    for _ in range(10):
        eng = engine_with_counts(rng, adaptive)
        w, side, src, dst = legal_random_move(rng, eng)
        d1 = oracles.move_delta(eng, w, side, dst)
        eng.apply_move(w, side, dst)
        d2 = oracles.move_delta(eng, w, side, src)
        if math.isinf(d1) or math.isinf(d2):
            continue
        assert d1 + d2 == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("adaptive", [False, True])
def test_maintained_state_survives_many_moves(adaptive):
    rng = random.Random(5 + adaptive)
    eng = engine_with_counts(rng, adaptive)
    for _ in range(40):
        w, side, src, dst = legal_random_move(rng, eng)
        eng.apply_move(w, side, dst)
    for t in (eng.a, eng.bg) if adaptive else (eng.a,):
        fresh = ClassCounts.from_matrix(t.pairs)
        assert np.array_equal(fresh.state_tot, t.state_tot)
        assert np.array_equal(fresh.cat_tot, t.cat_tot)
    assert _tallies(combine_class_counts(eng.a, eng.bg, eng.lam).pairs) == eng.tallies


def test_adaptive_engine_at_full_weight_is_leave_one_out():
    # at lambda = 1 the background drops out of every family: the adaptive
    # engine's candidate deltas are the standard engine's
    rng = random.Random(61)
    checked = 0
    for _ in range(15):
        counts, cm = random_instance(rng)
        back = random_table(rng, counts.vocab_size)
        disc = Discount(rng.uniform(0.2, 0.8))
        std = StandardObjective(counts, cm.copy(), disc)
        ada = AdaptiveObjective(counts, back, cm.copy(), disc, lam=1.0)
        assert ada.score() == std.score()
        for w in range(counts.vocab_size):
            for side in (CATEGORY_SIDE, STATE_SIDE):
                got, want = ada.candidate_deltas(w, side), std.candidate_deltas(w, side)
                if want is None:
                    # a word with only background counts moves nothing at full weight
                    assert got is None or (np.abs(got[1][np.isfinite(got[1])]) <= 1e-12).all()
                    continue
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(np.isinf(got[1]), np.isinf(want[1]))
                finite = np.isfinite(want[1])
                assert np.array_equal(got[1][~finite], want[1][~finite])
                assert got[1][finite] == pytest.approx(want[1][finite], rel=0, abs=1e-12)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("adaptive", [False, True])
def test_one_pass_kernel_gives_the_reference_bits_and_moves(adaptive):
    # two exchange sweeps over small corpusgen tables: every candidate array
    # is the previous four-helper kernel's, bit for bit, frozen words (whose
    # clusters lie past the movable ones) included; each move applied from
    # the pass leaves the engine equal to a fresh one on the moved map
    back = domain_corpus("back", seed=11, n_words=1500, topic_size=15)
    adapt = domain_corpus("target", seed=12, n_words=600, topic_size=15)
    vocab = build_vocabulary(adapt, back, 200)
    a, b = count_events(adapt, vocab), count_events(back, vocab)

    def engine(cm):
        if adaptive:
            return AdaptiveObjective(a, b, cm, Discount(0.6), lam=0.6)
        return StandardObjective(a, cm, Discount(0.6))

    def state(eng):
        tables = (eng.a, eng.bg) if adaptive else (eng.a,)
        return [x for t in tables for x in (t.pairs, t.state_tot, t.cat_tot)], eng.tallies

    eng = engine(init_clustering(a, 6, 5, vocab))
    compared = moves = 0
    for _ in range(2):
        for side in (CATEGORY_SIDE, STATE_SIDE):
            for w in range(len(vocab)):
                want = oracles.reference_candidate_deltas(eng, w, side)
                got = eng.candidate_deltas(w, side)
                if want is None:
                    assert got is None
                    continue
                assert np.array_equal(got[0], want[0])
                assert got[1].dtype == want[1].dtype
                assert got[1].tobytes() == want[1].tobytes(), f"{side} {w}"
                compared += 1
                best = None if eng.frozen(w, side) else eng.best_move(w, side)
                if best is None:
                    continue
                eng.apply_move(w, side, best[0])
                moves += 1
                (arrays, tallies), (fresh, fresh_tallies) = state(eng), state(engine(eng.cm.copy()))
                assert all(np.array_equal(x, y) for x, y in zip(arrays, fresh))
                assert tallies == fresh_tallies
    assert compared > 300 and moves > 20


@pytest.mark.parametrize("lam", [1.0, 0.6, 0.0, 0.1, 0.9])
def test_adaptive_pass_gives_the_two_table_bits(lam):
    # two exchange sweeps over small corpusgen tables: at full weight the
    # engine holds no background cells and moves the adaptation table alone,
    # yet every candidate array is the bits of gathering, moving and
    # combining both tables; below it the engine still holds both
    back = domain_corpus("back", seed=11, n_words=1500, topic_size=15)
    adapt = domain_corpus("target", seed=12, n_words=600, topic_size=15)
    vocab = build_vocabulary(adapt, back, 200)
    a, b = count_events(adapt, vocab), count_events(back, vocab)
    disc = Discount(0.6)

    def state(eng):
        tables = (eng.a,) if eng.bg is None else (eng.a, eng.bg)
        return [x for t in tables for x in (t.pairs, t.state_tot, t.cat_tot)], eng.tallies

    eng = AdaptiveObjective(a, b, init_clustering(a, 6, 5, vocab), disc, lam)
    assert (eng.bg is None) == (lam == 1.0)
    compared = moves = 0
    for _ in range(2):
        for side in (CATEGORY_SIDE, STATE_SIDE):
            for w in range(len(vocab)):
                want = oracles.two_table_candidate_deltas(a, b, eng.cm, disc, lam, w, side)
                got = eng.candidate_deltas(w, side)
                if want is None:
                    assert got is None
                    continue
                assert np.array_equal(got[0], want[0])
                assert got[1].dtype == want[1].dtype
                assert got[1].tobytes() == want[1].tobytes(), f"{side} {w}"
                compared += 1
                best = None if eng.frozen(w, side) else eng.best_move(w, side)
                if best is None:
                    continue
                eng.apply_move(w, side, best[0])
                moves += 1
                fresh = AdaptiveObjective(a, b, eng.cm.copy(), disc, lam)
                (arrays, tallies), (fresh_arrays, fresh_tallies) = state(eng), state(fresh)
                assert len(arrays) == len(fresh_arrays)
                assert all(np.array_equal(x, y) for x, y in zip(arrays, fresh_arrays))
                assert tallies == fresh_tallies
    assert compared > 300 and moves > 20


def hub_table(k, seed):
    """A table over k + 1 words whose last word, the hub, follows and
    precedes each of the others, plus random cells."""
    rng = np.random.default_rng(seed)
    context = np.concatenate([np.arange(k), np.full(k, k), rng.integers(0, k + 1, 4 * k)])
    word = np.concatenate([np.full(k, k), np.arange(k), rng.integers(0, k + 1, 4 * k)])
    keys, at = np.unique(context * (k + 1) + word, return_inverse=True)
    count = np.bincount(at, rng.integers(1, 5, at.size)).astype(np.int64)
    return CountTable(k + 1, keys // (k + 1), keys % (k + 1), count)


@pytest.mark.parametrize("lam", [None, 1.0, 0.6])
def test_one_pass_holds_one_count_block_per_table_and_one_complex_block(lam):
    # the hub is in cluster 0 of k singletons on each side, so its pass
    # gathers every row of the other side, the marginal too, at k columns:
    # one int64 block per table (8 bytes a cell), below full weight their
    # combined counts (8), and one complex lookup at a time (16); a pass
    # holding the counts before and after the move, and both lookups at
    # once, would need about twice that
    k = 200
    cm = ClusterMap(list(range(k)) + [0], list(range(k)) + [0], k, k)
    a, disc = hub_table(k, 1), Discount(0.5)
    eng = (StandardObjective(a, cm, disc) if lam is None
           else AdaptiveObjective(a, hub_table(k, 2), cm, disc, lam))
    per_cell = 24 if eng.bg is None else 40
    for side in (CATEGORY_SIDE, STATE_SIDE):
        eng.candidate_deltas(k, side)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            eng.candidate_deltas(k, side)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(eng._pass[3]) == k + 1  # every row, the marginal's too
        assert peak < 1.25 * (k + 1) * k * per_cell + 2**15, (side, peak)


@st.composite
def gathered_moves(draw):
    """A pass's gathered cells as (old, new) and its source column: one
    table's counts, or two tables' combined at a weight below one.  Some
    rows are zero in every table, as rows that only the background names
    are in the adaptation table at full weight."""
    n_rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    src = draw(st.integers(0, width - 1))
    zero = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))

    def table():
        cells = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=width,
                                                max_size=width),
                                       min_size=n_rows, max_size=n_rows)), dtype=np.int64)
        cells[zero] = 0
        # the word's counts lie inside its source column
        x = np.array([draw(st.integers(0, int(c))) for c in cells[:, src]], dtype=np.int64)
        # as the pass moves it: out of its source in place, then into each column
        cells[:, src] -= x
        old = cells.copy()
        cells += x[:, None]
        return old, cells

    lam = draw(st.sampled_from([None, 0.1, 0.5, 0.6, 0.9]))
    if lam is None:
        return (*table(), src)
    (a_old, a_new), (b_old, b_new) = table(), table()
    return combine_counts(a_old, b_old, lam), combine_counts(a_new, b_new, lam), src


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gathered_moves(), st.integers(0, 20), st.integers(0, 20), st.integers(0, 30))
def test_packed_tallies_equal_the_boolean_counts(move, more_one, more_pos, reach):
    # the tallies after each column's move, from the imaginary parts of one
    # complex lookup per matrix summed down its columns, decoded as the
    # engine's pass decodes them, are the previous kernel's boolean counts
    # added to the tallies before the move; the table's tallies count the
    # cells before the move, whose source column is the new one, and
    # possibly other cells too (a count-one cell is also a positive one)
    old, new, src = move
    assert (new >= old).all()
    before = old.copy()
    before[:, src] = new[:, src]
    n_one, n_pos = _tallies(before)
    n_one, n_pos = n_one + more_one, n_pos + more_pos + more_one
    lo = max(n_pos - len(old) - reach, 0)
    look = cell_lookup(0.5, int(new.max()) + 2, True)
    packed = (np.add.reduce(look[new], 0) - np.add.reduce(look[old], 0)).imag.astype(np.int64)
    packed += n_one * 2**32 + n_pos - lo - packed[src]
    one, at = np.divmod(packed, 2**32)
    d_one, d_pos = oracles._tally_change((old, new), src)
    assert np.array_equal(one, n_one + d_one)
    assert np.array_equal(at + lo, n_pos + d_pos)
    assert (at >= 0).all()


# the previous kernel's packed tally flags, read at min(count, 2)
_TALLY = np.array([0, 2**32 + 1, 1], dtype=np.int64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.integers(1, 310), st.sampled_from([2, 3, 40, 5000]),
       st.sampled_from([None, 0.1, 0.6]), st.integers(0, 2**32 - 1))
def test_complex_lookup_sums_are_the_float_kernel_bits(n_rows, width, top, lam, seed):
    # the numpy behaviour the pass relies on: a gathered block's complex
    # column sums are, in their real parts, the bits of the float column
    # sums of the cell log terms (weighted in place below full weight), and
    # in their imaginary parts the packed tally sums; the source column's
    # 1-D sum of the real view is the float one.  numpy sums a one-column
    # block as a 1-D array, pairwise in another order for complex than for
    # float, so only its column sum is compared: the engine's one-column
    # pass is a word in the only movable cluster, whose one slot is -inf
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, top + 1, size=(n_rows, width))
    src = int(rng.integers(width))
    b, n, times_n = 0.6, top + 2, lam is None
    logs, look = log_table(b, n, times_n), cell_lookup(b, n, times_n)
    t, z = logs[counts], look[counts]
    if lam is not None:
        w = rng.integers(0, top + 1, size=counts.shape)
        t = w * t
        real = z.real
        real *= w
    sums = np.add.reduce(z, 0)
    if width > 1:
        assert sums.real.tobytes() == t.sum(axis=0).tobytes()
    assert np.add.reduce(z.real[:, src]).tobytes() == t[:, src].sum().tobytes()
    assert np.array_equal(sums.imag.astype(np.int64), _TALLY.take(counts, mode="clip").sum(axis=0))
    assert (sums.imag == np.floor(sums.imag)).all()
    # a table is the prefix of a longer one, so a rebuild changes no value
    longer = n + int(rng.integers(1, 70_000))
    assert log_table(b, longer, times_n)[:n + 1].tobytes() == logs.tobytes()
    assert cell_lookup(b, longer, times_n)[:n + 1].tobytes() == look.tobytes()


def test_one_movable_cluster_gives_the_reference_bits():
    # one movable state, so a state pass gathers one column; each word has
    # about 20 successors in their own categories, enough rows for numpy's
    # complex and float sums of that column to differ for most words; the
    # column is the source, so the pass's one slot is -inf all the same
    n = 20
    counts = oracles.dict_table(n, {v: {w: 1 + (v * w) % 7 for w in range(n) if w != v or v % 2}
                            for v in range(n)})
    cm = ClusterMap([0] * n, list(range(n)), 1, n)
    for eng in (StandardObjective(counts, cm, Discount(0.5)),
                AdaptiveObjective(counts, random_table(random.Random(3), n), cm, Discount(0.5), 0.6)):
        for w in range(n):
            want = oracles.reference_candidate_deltas(eng, w, STATE_SIDE)
            got = eng.candidate_deltas(w, STATE_SIDE)
            assert got[1].tobytes() == want[1].tobytes() == np.array([NEG_INF]).tobytes()


@pytest.mark.parametrize("lam", [None, 1.0, 0.6])
def test_log_tables_grow_with_the_marginals_and_keep_the_reference_bits(lam):
    # words are piled into state 0 until its marginal passes the largest
    # marginal the engine was built with: the log tables are rebuilt longer,
    # and after each move every candidate array is the reference's bits and
    # the engine equals a fresh engine on the moved map, their log tables
    # equal over their common length
    back = domain_corpus("back", seed=11, n_words=900, topic_size=12)
    adapt = domain_corpus("target", seed=12, n_words=400, topic_size=12)
    vocab = build_vocabulary(adapt, back, 60)
    a, b = count_events(adapt, vocab), count_events(back, vocab)
    disc = Discount(0.6)

    def engine(cm):
        if lam is None:
            return StandardObjective(a, cm, disc)
        return AdaptiveObjective(a, b, cm, disc, lam)

    def state(eng):
        tables = (eng.a,) if eng.bg is None else (eng.a, eng.bg)
        return [x for t in tables for x in (t.pairs, t.state_tot, t.cat_tot)], eng.tallies

    eng = engine(init_clustering(a, 6, 5, vocab))
    first_top, first_len = eng._top, len(eng._logs[0])
    lengths, after = {first_len}, 0
    for w in sorted(range(len(vocab)), key=lambda w: -a.unigram[w]):
        if after == 4:
            break
        if eng.frozen(w, STATE_SIDE) or eng.cm.state_of[w] == 0:
            continue
        eng.apply_move(w, STATE_SIDE, 0)
        after += eng._top > first_top
        lengths.add(len(eng._logs[0]))
        assert len(eng._lookup) == len(eng._logs[0]) == len(eng._logs[1])
        fresh = engine(eng.cm.copy())
        (arrays, tallies), (fresh_arrays, fresh_tallies) = state(eng), state(fresh)
        assert all(np.array_equal(x, y) for x, y in zip(arrays, fresh_arrays))
        assert tallies == fresh_tallies
        for mine, theirs in zip(eng._logs, fresh._logs):
            m = min(len(mine), len(theirs))
            assert mine[:m].tobytes() == theirs[:m].tobytes()
        for either in (STATE_SIDE, CATEGORY_SIDE):
            for v in range(len(vocab)):
                want = oracles.reference_candidate_deltas(eng, v, either)
                got = eng.candidate_deltas(v, either)
                if want is None:
                    assert got is None
                    continue
                assert got[1].tobytes() == want[1].tobytes(), f"{either} {v}"
    held = (eng.a,) if eng.bg is None else (eng.a, eng.bg)
    assert after == 4 and max(t.state_tot[0] for t in held) == eng._top
    assert min(lengths) == first_len and len(lengths) > 2


@pytest.mark.parametrize("lam", [None, 1.0, 0.6])
def test_singleton_window_at_its_edges_gives_the_reference_bits(lam):
    # k=2: three of the four cells are positive at the start, so the window
    # around the positive tally is cut at the number of cells.  A word alone
    # in its cluster leaves it, emptying its cells, unless that leaves one
    # positive cell; any other word takes its best move.  The tally then
    # falls to the window's lower edge, where candidates turn degenerate,
    # and each move that changes it rebuilds the window; every candidate
    # array over two sweeps must be the reference's, with no warning
    vocab, a = table_from_sentences([list("abcdab"), list("cadb"), list("dcba"), list("bd")])
    b = count_events([list("abcd"), list("ddaa")], vocab)
    # <s> alone in state 1, </s> alone in category 0
    cm = ClusterMap([0, 1, 0, 0, 0, 0, 0], [1, 1, 0, 1, 1, 1, 1], 2, 2)
    disc = Discount(0.5)
    if lam is None:
        eng = StandardObjective(a, cm, disc)
    else:
        eng = AdaptiveObjective(a, b, cm, disc, lam)
    assert eng.tallies[1] == eng.a.pairs.size - 1
    seen, compared, degenerate = {eng.tallies}, 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2):
            for side in (STATE_SIDE, CATEGORY_SIDE):
                assign = eng.assignment(side)[0]
                for w in range(len(vocab)):
                    want = oracles.reference_candidate_deltas(eng, w, side)
                    got = eng.candidate_deltas(w, side)
                    if want is None:
                        assert got is None
                        continue
                    assert np.array_equal(got[0], want[0])
                    assert got[1].tobytes() == want[1].tobytes(), f"{side} {w}"
                    compared += 1
                    degenerate += int(np.isneginf(got[1]).sum()) > 1
                    src = int(assign[w])
                    if (assign == src).sum() == 1 and np.isfinite(got[1][1 - src]):
                        eng.apply_move(w, side, 1 - src)
                    elif (best := eng.best_move(w, side)) is not None:
                        eng.apply_move(w, side, best[0])
                    fresh = _tallies(combine_class_counts(eng.a, eng.bg, eng.lam).pairs)
                    assert eng.tallies == fresh
                    seen.add(fresh)
    assert compared >= 18 and degenerate > 0
    assert len(seen) >= 3 and min(pos for _, pos in seen) == 2


# the window's log ratios are finite and never -0.0: adding +0.0 clears the sign
_RATIOS = st.floats(-20.0, 20.0).map(lambda r: r + 0.0)
_DELTAS = st.sampled_from([0.0, -0.0, math.inf, -math.inf]) | st.floats(-50.0, 50.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_DELTAS, st.integers(0, 3), _RATIOS), min_size=1, max_size=8),
       st.sampled_from([0.0, NEG_INF]) | st.floats(-30.0, 30.0))
@example([(-0.0, 0, -1.5)], 0.0)  # a zero term taken as +0.0 would keep this delta -0.0
def test_singleton_change_needs_no_count_one_mask(columns, now):
    # the pass adds the singleton term after each move, less the term now,
    # without zeroing the columns with no count-one cell: the bits of the
    # masked arithmetic for every delta, count-one tally, ratio and term
    deltas, one, ratio = (np.array(c) for c in zip(*columns))
    one = one.astype(np.int64)
    want, got = deltas.copy(), deltas.copy()
    with np.errstate(invalid="ignore"):  # -inf + inf is nan on both sides
        single = one * ratio
        single[one == 0] = 0.0
        single -= now
        want += single
        _add_singleton_change(got, one, ratio, now)
    assert got.tobytes() == want.tobytes()


@st.composite
def bordered_engines(draw):
    """Two small count tables, a map with one pinned word in an extra state
    and one in an extra category, a weight (None for the standard engine)
    and moves as (word, side, step to the target)."""
    n = draw(st.integers(4, 9))
    k_s, k_c = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    events = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 6)),
                      min_size=1, max_size=30)

    def table():
        rows = {}
        for v, w, c in draw(events):
            rows.setdefault(v, {}).setdefault(w, 0)
            rows[v][w] += c
        return oracles.dict_table(n, rows)

    movable = lambda k, size: draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    cm = ClusterMap([k_s] + movable(k_s, n - 1), movable(k_c, 1) + [k_c] + movable(k_c, n - 2),
                    k_s + 1, k_c + 1, k_s, k_c, frozen_states={0}, frozen_cats={1})
    moves = st.tuples(st.integers(2, n - 1), st.sampled_from([CATEGORY_SIDE, STATE_SIDE]),
                      st.integers(0, 2))
    return (table(), table(), cm, draw(st.sampled_from([None, 1.0, 0.6])),
            draw(st.lists(moves, min_size=1, max_size=10)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bordered_engines())
def test_bordered_tables_keep_their_marginals_through_moves(case):
    # after each move every held table's border holds the marginals of its
    # cells and its corner their total; combining two bordered arrays
    # combines each part as it would be combined alone; and every candidate
    # array, pinned words included, is the reference's bits
    a, back, cm, lam, moves = case
    disc = Discount(0.6)
    eng = (StandardObjective(a, cm, disc) if lam is None
           else AdaptiveObjective(a, back, cm, disc, lam))
    assert (eng.bg is None) == (lam in (None, 1.0))
    for w, side, step in [(None, None, None)] + moves:
        if w is not None:
            assign, k, _ = eng.assignment(side)
            eng.apply_move(w, side, (int(assign[w]) + 1 + step % (k - 1)) % k)
        held = [(eng.a, a)] if eng.bg is None else [(eng.a, a), (eng.bg, back)]
        for t, counts in held:
            assert np.array_equal(t.state_tot, t.pairs.sum(axis=1))
            assert np.array_equal(t.cat_tot, t.pairs.sum(axis=0))
            assert t.table[-1, -1] == t.pairs.sum() == counts.total_tokens
            assert np.array_equal(t.table, aggregate_class_counts(counts, eng.cm).table)
        bg = aggregate_class_counts(back, eng.cm) if eng.bg is None else eng.bg
        for weight in {eng.lam, 0.6}:
            c = combine_class_counts(eng.a, bg, weight)
            for part in (lambda t: t.pairs, lambda t: t.state_tot, lambda t: t.cat_tot,
                         lambda t: t.table[-1:, -1:]):
                want = combine_counts(part(eng.a), part(bg), weight)
                assert part(c).tobytes() == want.tobytes()
        for v in range(cm.vocab_size):
            for either in (CATEGORY_SIDE, STATE_SIDE):
                want = oracles.reference_candidate_deltas(eng, v, either)
                got = eng.candidate_deltas(v, either)
                if want is None:
                    assert got is None
                    continue
                assert np.array_equal(got[0], want[0])
                assert got[1].tobytes() == want[1].tobytes(), f"{either} {v}"


def test_candidate_deltas_marks_source_and_prefers_lowest_tie():
    counts = oracles.dict_table(4, {3: {1: 5, 2: 5, 0: 4}, 0: {1: 1, 2: 1}})
    cm = ClusterMap([0, 0, 0, 0], [0, 1, 2, 0], 1, 3)
    eng = StandardObjective(counts, cm, Discount(0.5))
    targets, deltas = eng.candidate_deltas(0, CATEGORY_SIDE)
    assert deltas[0] == NEG_INF
    assert deltas[1] == deltas[2]
    best = eng.best_move(0, CATEGORY_SIDE)
    if best is not None:
        assert best[0] == 1


def test_word_with_no_counts_has_no_moves():
    counts = oracles.dict_table(6, {3: {4: 3}})
    cm = ClusterMap([0] * 6, [0, 1, 0, 1, 0, 1], 2, 2)
    eng = StandardObjective(counts, cm, Discount(0.5))
    assert eng.candidate_deltas(5, CATEGORY_SIDE) is None
    assert eng.best_move(5, CATEGORY_SIDE) is None
    assert oracles.move_delta(eng, 5, CATEGORY_SIDE, 0) == 0.0


def test_invalid_moves_are_rejected():
    rng = random.Random(2)
    counts = random_table(rng, 8)
    cm = ClusterMap(
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 0, 1, 0, 1, 0, 1, 0],
        2,
        2,
        frozen_states={0},
        frozen_cats={1},
    )
    eng = StandardObjective(counts, cm, Discount(0.5))
    with pytest.raises(InvalidMoveError):
        eng.apply_move(0, STATE_SIDE, 1)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(1, CATEGORY_SIDE, 1)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(2, STATE_SIDE, 5)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(2, STATE_SIDE, 0)  # already there


def test_singleton_donor_cluster_delta_matches_recompute():
    counts = oracles.dict_table(5, {0: {1: 2}, 1: {2: 3}, 2: {3: 4}, 4: {1: 2}})
    # word 4 alone in state 2; moving it empties that cluster
    cm = ClusterMap([0, 1, 0, 1, 2], [0, 1, 1, 0, 1], 3, 2)
    eng = StandardObjective(counts, cm, Discount(0.5))
    before = eng.score()
    delta = oracles.move_delta(eng, 4, STATE_SIDE, 0)
    eng.apply_move(4, STATE_SIDE, 0)
    assert eng.a.state_tot[2] == 0
    assert delta == pytest.approx(eng.score() - before, rel=1e-10, abs=1e-10)


def test_adaptive_engine_scores_at_the_weight_it_is_built_with():
    rng = random.Random(31)
    counts = random_table(rng, 9)
    back = random_table(rng, 9)
    cm = ClusterMap(
        [rng.randrange(3) for _ in range(9)],
        [rng.randrange(3) for _ in range(9)],
        3,
        3,
    )
    for lam in (0.3, 0.9):
        eng = AdaptiveObjective(counts, back, cm, Discount(0.5), lam)
        assert eng.lam == lam
        want = oracles.adaptation_score(
            oracles.cells_from_table(counts.rows, cm.state_of, cm.category_of),
            oracles.cells_from_table(back.rows, cm.state_of, cm.category_of),
            lam,
            3,
            3,
            0.5,
        )
        assert eng.score() == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------------- tables


def test_log_tables_values_and_growth():
    cell = log_table(0.5, 50_000, times_n=True)
    lnm1b = log_table(0.5, 50_000, times_n=False)
    assert cell.shape == lnm1b.shape == (50_001,)
    assert cell[0] == 0.0 and cell[1] == 0.0
    assert cell[2] == pytest.approx(2 * math.log(0.5))
    assert lnm1b[7] == pytest.approx(math.log(7 - 1.5))
    assert cell[50_000] == pytest.approx(50_000 * math.log(50_000 - 1.5))
    arr = cell[np.array([0, 1, 2, 3])]
    assert arr.shape == (4,)
