"""Both clustering criteria: closed-form values, oracle agreement, deltas."""

import math
import random

import numpy as np
import pytest

import oracles
from corpusgen import random_table, table_from_sentences

from clusterlm.classmodel import ClusterMap, init_clustering
from clusterlm.criterion import (
    CATEGORY_SIDE,
    NEG_INF,
    STATE_SIDE,
    AdaptiveObjective,
    ClassCounts,
    CombinedClassCounts,
    StandardObjective,
    aggregate_class_counts,
    adaptive_score,
    combine_counts,
    combine_word_counts,
    log_table,
    loo_score,
    round_combined,
)
from clusterlm.corpus import CountTable
from clusterlm.discounting import Discount
from clusterlm.errors import InvalidMoveError


def cells_of(t):
    out = {}
    for s in range(t.n_states):
        for g in range(t.n_cats):
            c = int(t.pairs[s, g])
            if c:
                out[(s, g)] = c
    return out


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
    vals = [0.0, 0.49, 0.5, 1.49, 1.5, 2.5, 3.49, 3.51]
    want = [0, 0, 1, 1, 2, 3, 3, 4]
    assert list(round_combined(vals)) == want
    assert round_combined(2.5).tolist() == 3


# ------------------------------------------------------------- training score


def test_training_score_hand_example():
    t = ClassCounts.from_matrix([[3, 0], [0, 2]])
    got = loo_score(t, Discount(0.5))
    want = 3 * math.log(1.5) + 2 * math.log(0.5) - 6 * math.log(2)
    assert got == pytest.approx(want, rel=1e-14)


def test_training_score_singleton_cell_term():
    t = ClassCounts.from_matrix([[1, 0], [0, 3]])
    b = 0.4
    got = loo_score(t, Discount(b))
    # one singleton cell, two positive cells, two empty cells
    want = 3 * math.log(3 - 1 - b) + math.log(b * 1 / 3) - 2 * (3 * math.log(2))
    assert got == pytest.approx(want, rel=1e-14)


def test_training_score_degenerate_is_negative_infinity():
    assert loo_score(ClassCounts.from_matrix([[5, 0], [0, 0]]), Discount(0.5)) == NEG_INF
    assert loo_score(ClassCounts.from_matrix([[0, 0], [0, 0]]), Discount(0.5)) == NEG_INF


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
        got = loo_score(t, Discount(b))
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
    b = Discount(0.5)
    s1 = loo_score(ClassCounts.from_matrix(pairs), b)
    s2 = loo_score(ClassCounts.from_matrix(permuted), b)
    assert s1 == pytest.approx(s2, rel=1e-12)


# ----------------------------------------------------------------- aggregates


def test_aggregate_marginals_consistent():
    rng = random.Random(3)
    counts, cm = random_instance(rng)
    t = aggregate_class_counts(counts, cm)
    assert np.array_equal(t.state_tot, t.pairs.sum(axis=1))
    assert np.array_equal(t.cat_tot, t.pairs.sum(axis=0))
    assert t.tallies["cell"][1] + int((t.pairs == 0).sum()) == t.n_cells
    # brute-force double loop
    want = oracles.cells_from_table(counts.rows, cm.state_of, cm.category_of)
    assert cells_of(t) == want
    assert t.state_tot.sum() == counts.total_tokens


def test_aggregate_single_cluster_collects_everything():
    counts = CountTable(5, {1: {2: 4}, 3: {4: 2}})
    cm = ClusterMap([0] * 5, [0] * 5, 1, 1)
    t = aggregate_class_counts(counts, cm)
    assert t.pairs[0, 0] == 6


def test_aggregate_identity_clustering_reproduces_table():
    rng = random.Random(4)
    counts = random_table(rng, 7)
    cm = ClusterMap(range(7), range(7), 7, 7)
    t = aggregate_class_counts(counts, cm)
    for v in range(7):
        for w in range(7):
            assert t.pairs[v, w] == counts.bigram(v, w)


# ------------------------------------------------------------ combined counts


def test_combine_counts_endpoints_exact():
    rng = random.Random(12)
    a = ClassCounts.from_matrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(3)])
    b = ClassCounts.from_matrix([[rng.randint(0, 9) for _ in range(4)] for _ in range(3)])
    cc = combine_counts(a, b, 1.0)
    assert np.array_equal(cc.combined_pairs(), a.pairs)
    assert np.array_equal(cc.combined_state_tot(), a.state_tot)
    cc.set_lambda(0.0)
    assert np.array_equal(cc.combined_pairs(), b.pairs)
    assert np.array_equal(cc.combined_cat_tot(), b.cat_tot)


def test_combine_counts_rounds_ties_up():
    a = ClassCounts.from_matrix([[2]])
    b = ClassCounts.from_matrix([[5]])
    cc = combine_counts(a, b, 0.5)
    assert cc.combined_pairs()[0, 0] == 4  # 3.5 rounds away from zero


def test_combined_marginals_rounded_independently():
    # cells round down to zero but the marginal rounds up from its own sum
    a = ClassCounts.from_matrix([[1, 1, 1], [0, 0, 0]])
    b = ClassCounts.from_matrix([[0, 0, 0], [0, 0, 5]])
    cc = combine_counts(a, b, 0.4)
    assert list(cc.combined_pairs()[0]) == [0, 0, 0]  # each 0.4 -> 0
    # state margin: 0.4 * 3 = 1.2 -> 1, not the sum of rounded cells
    assert cc.combined_state_tot()[0] == 1
    assert cc.tallies["state"][0] == 1


def test_combine_word_counts_endpoints_and_rounding():
    a = CountTable(5, {1: {2: 3}, 3: {4: 1}})
    b = CountTable(5, {1: {2: 2}, 4: {2: 6}})
    at_one = combine_word_counts(a, b, 1.0)
    assert at_one.rows == a.rows
    assert np.array_equal(at_one.unigram, a.unigram)
    at_zero = combine_word_counts(a, b, 0.0)
    assert at_zero.rows == b.rows
    mid = combine_word_counts(a, b, 0.5)
    assert mid.bigram(1, 2) == 3  # 2.5 rounds up
    assert mid.bigram(3, 4) == 1  # 0.5 rounds up
    assert mid.bigram(4, 2) == 3
    assert 2 not in mid.rows.get(0, {})
    # unigram column sums stay consistent with the rounded cells
    assert mid.unigram[2] == 6 and mid.unigram[4] == 1
    assert mid.total_tokens == 7


def test_combine_word_counts_drops_zero_cells():
    a = CountTable(4, {1: {2: 1}})
    b = CountTable(4)
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
        cc = combine_counts(a, bg, lam)
        got = adaptive_score(cc, Discount(b))
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
    got = adaptive_score(combine_counts(a, bg, 0.0), Discount(b))
    want = oracles.adaptation_score({}, cells_of(bg), 0.0, 2, 2, b)
    assert got == pytest.approx(want, rel=1e-12)


def test_adaptive_score_degenerate_marginal_family_is_negative_infinity():
    # combined cells both positive, but the single active state's combined
    # marginal rounds to exactly one -> marginal family degenerates
    a = ClassCounts.from_matrix([[1, 1], [0, 0]])
    bg = ClassCounts.from_matrix([[0, 0], [0, 0]])
    cc = combine_counts(a, bg, 0.7)
    assert cc.tallies["cell"][1] == 2
    assert cc.tallies["state"] == (1, 1)
    assert adaptive_score(cc, Discount(0.5)) == NEG_INF
    assert oracles.adaptation_score(cells_of(a), {}, 0.7, 2, 2, 0.5) == NEG_INF


def test_adaptive_equals_lambda_independent_when_tables_match():
    rng = random.Random(9)
    pairs = [[rng.randint(0, 7) for _ in range(4)] for _ in range(3)]
    a = ClassCounts.from_matrix(pairs)
    bg = ClassCounts.from_matrix(pairs)
    vals = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        cc = combine_counts(a, bg, lam)
        assert np.array_equal(cc.combined_pairs(), a.pairs)
        vals.append(adaptive_score(cc, Discount(0.6)))
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
            delta = eng.move_delta(w, side, dst)
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
        d1 = eng.move_delta(w, side, dst)
        eng.apply_move(w, side, dst)
        d2 = eng.move_delta(w, side, src)
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
    if adaptive:
        fresh_a = ClassCounts(eng.a.n_states, eng.a.n_cats)
        fresh_a.pairs = eng.a.pairs.copy()
        fresh_a.recount()
        assert np.array_equal(fresh_a.state_tot, eng.a.state_tot)
        assert np.array_equal(fresh_a.cat_tot, eng.a.cat_tot)
        fresh = CombinedClassCounts(eng.a, eng.bg, eng.lam)
        assert fresh.tallies == eng.cc.tallies
    else:
        fresh = ClassCounts(eng.t.n_states, eng.t.n_cats)
        fresh.pairs = eng.t.pairs.copy()
        fresh.recount()
        assert np.array_equal(fresh.state_tot, eng.t.state_tot)
        assert np.array_equal(fresh.cat_tot, eng.t.cat_tot)
        assert fresh.tallies == eng.t.tallies


def test_candidate_deltas_marks_source_and_prefers_lowest_tie():
    counts = CountTable(4, {3: {1: 5, 2: 5, 0: 4}, 0: {1: 1, 2: 1}})
    cm = ClusterMap([0, 0, 0, 0], [0, 1, 2, 0], 1, 3)
    eng = StandardObjective(counts, cm, Discount(0.5))
    targets, deltas = eng.candidate_deltas(0, CATEGORY_SIDE)
    assert deltas[0] == NEG_INF
    assert deltas[1] == deltas[2]
    best = eng.best_move(0, CATEGORY_SIDE)
    if best is not None:
        assert best[0] == 1


def test_word_with_no_counts_has_no_moves():
    counts = CountTable(6, {3: {4: 3}})
    cm = ClusterMap([0] * 6, [0, 1, 0, 1, 0, 1], 2, 2)
    eng = StandardObjective(counts, cm, Discount(0.5))
    assert eng.candidate_deltas(5, CATEGORY_SIDE) is None
    assert eng.best_move(5, CATEGORY_SIDE) is None
    assert eng.move_delta(5, CATEGORY_SIDE, 0) == 0.0


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
        eng.move_delta(0, STATE_SIDE, 1)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(1, CATEGORY_SIDE, 1)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(2, STATE_SIDE, 5)
    with pytest.raises(InvalidMoveError):
        eng.apply_move(2, STATE_SIDE, 0)  # already there


def test_singleton_donor_cluster_delta_matches_recompute():
    counts = CountTable(5, {0: {1: 2}, 1: {2: 3}, 2: {3: 4}, 4: {1: 2}})
    # word 4 alone in state 2; moving it empties that cluster
    cm = ClusterMap([0, 1, 0, 1, 2], [0, 1, 1, 0, 1], 3, 2)
    eng = StandardObjective(counts, cm, Discount(0.5))
    before = eng.score()
    delta = eng.move_delta(4, STATE_SIDE, 0)
    eng.apply_move(4, STATE_SIDE, 0)
    assert eng.t.state_tot[2] == 0
    assert delta == pytest.approx(eng.score() - before, rel=1e-10, abs=1e-10)


def test_adaptive_set_lambda_changes_score_consistently():
    rng = random.Random(31)
    counts = random_table(rng, 9)
    back = random_table(rng, 9)
    cm = ClusterMap(
        [rng.randrange(3) for _ in range(9)],
        [rng.randrange(3) for _ in range(9)],
        3,
        3,
    )
    eng = AdaptiveObjective(counts, back, cm, Discount(0.5), lam=0.3)
    s_a = eng.score()
    eng.set_lambda(0.9)
    assert eng.lam == 0.9
    want = oracles.adaptation_score(
        oracles.cells_from_table(counts.rows, cm.state_of, cm.category_of),
        oracles.cells_from_table(back.rows, cm.state_of, cm.category_of),
        0.9,
        3,
        3,
        0.5,
    )
    assert eng.score() == pytest.approx(want, rel=1e-12)
    eng.set_lambda(0.3)
    assert eng.score() == pytest.approx(s_a, rel=1e-14)


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
