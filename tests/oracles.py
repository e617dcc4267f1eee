"""Independent reference implementations used to verify the package.

Everything here is written in the plainest style available -- dicts, loops,
math.log -- and shares no code with the package internals, so agreement
between the two is meaningful evidence of correctness.  A few adapters
come first: the table of a dict, a comparison of two cluster maps, the
engine's delta for one move, and the class counts of a matrix of cells.
"""

import math

import numpy as np

from clusterlm.corpus import CountTable
from clusterlm.errors import ConfigError

NEG_INF = float("-inf")


def dict_table(vocab_size, rows=None):
    """The ``CountTable`` of a ``{context: {word: count}}`` dict, in any order."""
    cells = [(v, w, c) for v, row in (rows or {}).items() for w, c in row.items()]
    return CountTable(vocab_size, *np.array(cells, dtype=np.int64).reshape(-1, 3).T)


def same_map(a, b):
    """Whether two cluster maps have the same ranges and assignments."""
    return ((a.n_states, a.n_cats) == (b.n_states, b.n_cats)
            and np.array_equal(a.state_of, b.state_of)
            and np.array_equal(a.category_of, b.category_of))


def move_delta(engine, word, side, dst):
    """The engine's score delta for moving ``word`` to ``dst``, from its pass
    over every target; 0.0 for a word with no counts on that side."""
    res = engine.candidate_deltas(word, side)
    return 0.0 if res is None else float(res[1][dst])


def bordered(pairs):
    """The class counts of a (state, category) matrix of cells, laid out as
    ``classmodel.class_counts`` lays them out: each row's total in an extra
    last column, each column's total in an extra last row, the total in the
    corner."""
    pairs = np.asarray(pairs, dtype=np.int64)
    table = np.zeros((pairs.shape[0] + 1, pairs.shape[1] + 1), dtype=np.int64)
    table[:-1, :-1] = pairs
    table[:-1, -1] = pairs.sum(axis=1)
    table[-1, :-1] = pairs.sum(axis=0)
    table[-1, -1] = pairs.sum()
    return table


def reference_count_events(corpus, vocab):
    """``count_events`` as a per-token loop over a ``{context: {word: count}}``
    dict, each sentence framed as bos, token ids, eos."""
    rows = {}
    sentences = 0
    for sentences, sent in enumerate(corpus, start=1):
        ids = [vocab.bos_id] + [vocab.lookup(tok) for tok in sent] + [vocab.eos_id]
        for v, w in zip(ids, ids[1:]):
            row = rows.setdefault(v, {})
            row[w] = row.get(w, 0) + 1
    table = dict_table(len(vocab), rows)
    # Framing predicts one end marker per sentence and never the begin marker.
    if table.unigram[vocab.bos_id] or table.unigram[vocab.eos_id] != sentences:
        raise ConfigError("a sentence holds a marker, which counting adds itself")
    return table


def round_nearest(x):
    """Nearest integer, halves away from zero (inputs are nonnegative)."""
    return int(math.floor(x + 0.5))


def training_score(cells, n_states, n_cats, b):
    """Leave-one-out clustering score from a dict (s, g) -> count."""
    positive = [c for c in cells.values() if c > 0]
    n_pos = len(positive)
    if n_pos <= 1:
        return NEG_INF
    n_one = sum(1 for c in positive if c == 1)
    n_zero = n_states * n_cats - n_pos
    total = 0.0
    for c in positive:
        if c > 1:
            total += c * math.log(c - 1 - b)
    if n_one:
        total += n_one * math.log(b * (n_pos - 1) / (n_zero + 1))
    state_m = {}
    cat_m = {}
    for (s, g), c in cells.items():
        state_m[s] = state_m.get(s, 0) + c
        cat_m[g] = cat_m.get(g, 0) + c
    for c in state_m.values():
        if c > 1:
            total -= c * math.log(c - 1)
    for c in cat_m.values():
        if c > 1:
            total -= c * math.log(c - 1)
    return total


def _marginals(cells, axis):
    out = {}
    for (s, g), c in cells.items():
        key = s if axis == 0 else g
        out[key] = out.get(key, 0) + c
    return out


def adaptation_score(a_cells, b_cells, lam, n_states, n_cats, b):
    """Adaptive clustering score from paired dicts (s, g) -> count."""
    keys = set(a_cells) | set(b_cells)
    comb = {
        k: round_nearest(lam * a_cells.get(k, 0) + (1 - lam) * b_cells.get(k, 0))
        for k in keys
    }
    n_pos = sum(1 for c in comb.values() if c > 0)
    if n_pos <= 1:
        return NEG_INF
    n_one = sum(1 for c in comb.values() if c == 1)
    n_zero = n_states * n_cats - n_pos
    total = 0.0
    for k in keys:
        na = a_cells.get(k, 0)
        nc = comb[k]
        if na >= 1 and nc > 1:
            total += na * math.log(nc - 1 - b)
    if n_one:
        total += n_one * math.log(b * (n_pos - 1) / (n_zero + 1))
    # the marginals take no discount and have no singleton term
    for axis in (0, 1):
        ma = _marginals(a_cells, axis)
        mb = _marginals(b_cells, axis)
        for k in set(ma) | set(mb):
            na = ma.get(k, 0)
            nc = round_nearest(lam * na + (1 - lam) * mb.get(k, 0))
            if na >= 1 and nc > 1:
                total -= na * math.log(nc - 1)
    return total


def cells_from_table(counts_rows, state_of, category_of):
    """Aggregate word bigram rows into a dict (state, category) -> count."""
    cells = {}
    for v, row in counts_rows.items():
        for w, c in row.items():
            key = (state_of[v], category_of[w])
            cells[key] = cells.get(key, 0) + c
    return cells


def combined_rows(adapt_rows, back_rows, lam):
    """Word bigram rows interpolated cell by cell, rounded halves up, with
    zero-rounded cells and emptied rows dropped."""
    out = {}
    for v in set(adapt_rows) | set(back_rows):
        row_a = adapt_rows.get(v, {})
        row_b = back_rows.get(v, {})
        merged = {}
        for w in set(row_a) | set(row_b):
            c = round_nearest(lam * row_a.get(w, 0) + (1.0 - lam) * row_b.get(w, 0))
            if c > 0:
                merged[w] = c
        if merged:
            out[v] = merged
    return out


def unigram_distribution(unigram_counts, vocab_size, b):
    """Absolute-discounted unigram with a uniform fallback, as a dict."""
    total = sum(unigram_counts.values())
    if total == 0:
        return {w: 1.0 / vocab_size for w in range(vocab_size)}
    n_plus = sum(1 for c in unigram_counts.values() if c > 0)
    out = {}
    for w in range(vocab_size):
        c = unigram_counts.get(w, 0)
        out[w] = max(c - b, 0.0) / total + (b * n_plus / total) / vocab_size
    return out


def backoff_probability(rows, unigram_counts, vocab_size, b, cutoff, v, w):
    """Direct computation of one backoff query from raw counts."""
    uni = unigram_distribution(unigram_counts, vocab_size, b)
    row = rows.get(v, {})
    retained = {x: c for x, c in row.items() if c > cutoff}
    total = sum(row.values())
    if total == 0 or not retained:
        return uni[w]
    if w in retained:
        return (retained[w] - b) / total
    dropped = total - sum(retained.values())
    reserve = (b * len(retained) + dropped) / total
    tail = 1.0 - sum(uni[x] for x in retained)
    return reserve * uni[w] / tail


def backoff_file_probabilities(text):
    """Every p(w|v) of a saved backoff or fill-up model, rows by context,
    rebuilt from the file's text.

    An explicit bigram gives 10**lp.  Any other pair gives
    alpha(v) * u(w) / Z(v), or beta(v) * u(w) / F(v) for a fill word, where
    Z and F are the unigram mass of the tail outside and inside the fill
    words: the group's total minus its explicit words after v, added one by
    one in word order.  A context without masses takes the group totals.
    The unigram u is 10**lp as numpy raises it (``np.power``), whose last bit
    can differ from Python's pow; the fill total is summed in word order,
    as numpy sums fewer than eight values.
    """
    lines = text.splitlines()
    n = int(dict(tok.split("=", 1) for tok in lines[0].split()[1:])["vocab_size"])
    sections = {}
    for line in lines[1:]:
        if line.startswith("\\"):
            rows = sections.setdefault(line, [])
        else:
            rows.append(line.split())
    explicit = {(int(v), int(w)): float(lp) for v, w, lp in sections["\\bigrams:"]}
    alpha = {int(v): float(m) for v, m in sections["\\contexts:"]}
    beta = {int(v): float(m) for v, m in sections.get("\\fill-contexts:", [])}
    uni_lp = [0.0] * n
    for w, lp in sections["\\unigrams:"]:
        uni_lp[int(w)] = float(lp)
    u = np.power(10.0, np.array(uni_lp)).tolist()
    fill = sorted(int(w) for (w,) in sections.get("\\fill-words:", []))
    assert len(fill) < 8
    fill_total = 0.0
    for w in fill:
        fill_total += u[w]
    rest_total = 1.0 - fill_total
    out = []
    for v in range(n):
        rest, in_fill = 0.0, 0.0
        for w in range(n):
            if (v, w) in explicit:
                if w in fill:
                    in_fill += u[w]
                else:
                    rest += u[w]
        z, f = max(rest_total - rest, 0.0), max(fill_total - in_fill, 0.0)
        row = []
        for w in range(n):
            if (v, w) in explicit:
                row.append(10.0 ** explicit[(v, w)])
            elif w in fill:
                row.append(beta.get(v, fill_total) * u[w] / f)
            else:
                row.append(alpha.get(v, rest_total) * u[w] / z)
        out.append(row)
    return out


def class_model_probability(rows, state_of, category_of, n_states, n_cats,
                            b_pairs, b_cats, b_words, context, w):
    """Two-factor class model query recomputed from raw counts."""
    cells = cells_from_table(rows, state_of, category_of)
    cat_tot = _marginals(cells, 1)
    word_weight = {}
    for v, row in rows.items():
        for x, c in row.items():
            word_weight[x] = word_weight.get(x, 0) + c
    members = {}
    for x, g in enumerate(category_of):
        members.setdefault(g, []).append(x)
    nonempty = sorted(members)

    # category fallback: discounted category unigram over nonempty categories
    grand = sum(cat_tot.values())
    n_plus = sum(1 for g in nonempty if cat_tot.get(g, 0) > 0)
    def fallback(g):
        if grand == 0:
            return 1.0 / len(nonempty)
        c = cat_tot.get(g, 0)
        disc = max(c - b_cats, 0.0) / grand
        return disc + (b_cats * n_plus / grand) / len(nonempty)

    s = state_of[context]
    g = category_of[w]
    row_total = _marginals(cells, 0).get(s, 0)
    if row_total == 0:
        p_g = fallback(g)
    else:
        seen = sum(1 for (s2, _), c in cells.items() if s2 == s and c > 0)
        disc = max(cells.get((s, g), 0) - b_pairs, 0.0) / row_total
        p_g = disc + (b_pairs * seen / row_total) * fallback(g)

    mates = members[g]
    local = sum(word_weight.get(x, 0) for x in mates)
    if local == 0:
        p_w = 1.0 / len(mates)
    else:
        seen_w = sum(1 for x in mates if word_weight.get(x, 0) > 0)
        disc = max(word_weight.get(w, 0) - b_words, 0.0) / local
        p_w = disc + (b_words * seen_w / local) / len(mates)
    return p_g * p_w


def perplexity_by_hand(probs):
    """exp of the mean negative log of the given probabilities."""
    return math.exp(-sum(math.log(p) for p in probs) / len(probs))


# ------------------------------------------ the previous move kernel, bit for bit
#
# Unlike the rest of this module, what follows reads the move engine's own
# state (its per-side cells, log tables and tallies) and calls the package's
# rounding and profile code: it is the engine's candidate evaluation as it was
# before it became one pass, split into the helpers it had then, so that tests
# can require the one pass to give the same bits, not only close values.

from clusterlm.criterion import _class_profile, _singleton_term, combine_counts  # noqa: E402

_ROW = np.zeros(1, dtype=np.int64)  # the one row of a marginal family


def _reference_side(engine, word, side):
    other, n, index, blocks, _ = engine._sides[side]
    # the cells alone: the marginals and the word's totals are summed from
    # them here, not read from the engine's borders or its profiles' totals
    cells = [t[:n, :-1] for t in blocks]
    profiles = [_class_profile(i, word, other, n)[:n] for i in index]
    rows = sum(profiles[1:], profiles[0]).nonzero()[0]
    if not len(rows):
        return None
    margs = [m.sum(axis=0)[None] for m in cells]
    return ((cells, rows, [p[rows] for p in profiles]),
            (margs, _ROW, [p.sum(keepdims=True) for p in profiles]))


def _move_counts(matrix, rows, add, src, k):
    old = matrix[rows, :max(k, src + 1)]
    new = old + add[:, None]
    old[:, src] -= add
    new[:, src] -= add
    return old, new


def _family_delta(c, at, look, w):
    old, new = c
    if w is None:
        t_old, t_new = look[old], look[new]
    else:
        t_old, t_new = w[0] * look[old], w[1] * look[new]
    rem = t_old[:, at].sum() - t_new[:, at].sum()
    ins = t_new.sum(axis=0) - t_old.sum(axis=0)
    return rem, ins


def _tally_change(c, at):
    old, new = c
    d_pos = ((new > 0) > (old > 0)).sum(axis=0)
    d_one = (new == 1).sum(axis=0) - (old == 1).sum(axis=0)
    return d_one - d_one[at], d_pos - d_pos[at]


def _singleton_change(n_one, n_pos, d_one, d_pos, size, b):
    one = n_one + d_one
    pos = n_pos + d_pos
    ln_ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log((size + 1.0) - pos)
    new = one * ln_ratio
    new[one == 0] = 0.0
    return new - _singleton_term(n_one, n_pos, size, b), pos <= 1


def reference_candidate_deltas(engine, word, side):
    """``engine.candidate_deltas(word, side)`` as the four-helper kernel
    computed it: (targets, deltas), or None for a word with no counts on
    that side.  The engine is not changed."""
    families = _reference_side(engine, word, side)
    if families is None:
        return None
    assign, k, _ = engine.assignment(side)
    src = int(assign[word])
    moved = []
    for mats, rows, xs in families:
        per = [_move_counts(m, rows, x, src, k) for m, x in zip(mats, xs)]
        moved.append((None, per[0]) if engine.bg is None
                     else (per[0], [combine_counts(*counts, engine.lam) for counts in zip(*per)]))
    (c_w, c), (m_w, m) = moved
    c_rem, c_ins = _family_delta(c, src, engine._logs[0], c_w)
    m_rem, m_ins = _family_delta(m, src, engine._logs[1], m_w)
    single, bad = _singleton_change(*engine.tallies, *_tally_change(c, src),
                                    families[0][0][0].size, engine.discount.b)
    deltas = c_rem + c_ins - m_rem - m_ins
    deltas += single
    deltas[bad] = NEG_INF
    deltas[src] = NEG_INF
    return np.arange(k), deltas[:k]


# ------------------------------------------ the two-table pass, from the count tables
#
# The engine at full weight keeps no background cells, so this reference
# builds its state from the count tables and the map on every call: both
# tables' cells are gathered and moved, combined at ``lam`` and weighted by
# the adaptation counts, as the engine's pass does below full weight.

from clusterlm.criterion import STATE_SIDE, log_table  # noqa: E402


def two_table_candidate_deltas(adapt, back, cm, discount, lam, word, side):
    """The candidate deltas of ``word`` on ``side`` under the adaptive
    criterion at weight ``lam``, by gathering, moving and combining both
    tables: (targets, deltas), or None for a word with no counts in either
    table on that side."""
    state = side == STATE_SIDE
    assign, k = (cm.state_of, cm.k_states) if state else (cm.category_of, cm.k_cats)
    other, n = (cm.category_of, cm.n_cats) if state else (cm.state_of, cm.n_states)
    src = int(assign[word])
    cells, margs, profiles = [], [], []
    for table in (adapt, back):
        context, w, count = table.cells()
        pairs = np.zeros((cm.n_states, cm.n_cats), dtype=np.int64)
        np.add.at(pairs, (cm.state_of[context], cm.category_of[w]), count)
        cells.append(pairs.T if state else pairs)
        margs.append(pairs.sum(axis=1) if state else pairs.sum(axis=0))
        # the clusters of the word's neighbours on the other side
        at, ids = (context == word, other[w]) if state else (w == word, other[context])
        profiles.append(np.bincount(ids[at], weights=count[at], minlength=n).astype(np.int64))
    rows = (profiles[0] + profiles[1]).nonzero()[0]
    if not len(rows):
        return None
    moved = []
    for mats, at, xs in ((cells, rows, [p[rows] for p in profiles]),
                         ([m[None] for m in margs], _ROW, [p.sum(keepdims=True) for p in profiles])):
        per = [_move_counts(m, at, x, src, k) for m, x in zip(mats, xs)]
        moved.append((per[0], [combine_counts(*counts, lam) for counts in zip(*per)]))
    (c_w, c), (m_w, m) = moved
    b = discount.b
    largest = max(int(adapt.total_tokens), int(back.total_tokens)) + 2
    c_rem, c_ins = _family_delta(c, src, log_table(b, largest, False), c_w)
    m_rem, m_ins = _family_delta(m, src, log_table(0.0, largest, False), m_w)
    combined = combine_counts(cells[0], cells[1], lam)
    tallies = int((combined == 1).sum()), int((combined > 0).sum())
    single, bad = _singleton_change(*tallies, *_tally_change(c, src), combined.size, b)
    deltas = c_rem + c_ins - m_rem - m_ins
    deltas += single
    deltas[bad] = NEG_INF
    deltas[src] = NEG_INF
    return np.arange(k), deltas[:k]
