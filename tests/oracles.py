"""Independent reference implementations used to verify the package.

Everything here is written in the plainest style available -- dicts, loops,
math.log -- and shares no code with the package internals, so agreement
between the two is meaningful evidence of correctness.
"""

import math

import numpy as np

NEG_INF = float("-inf")


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
    for axis, n_axis in ((0, n_states), (1, n_cats)):
        ma = _marginals(a_cells, axis)
        mb = _marginals(b_cells, axis)
        mkeys = set(ma) | set(mb)
        mc = {
            k: round_nearest(lam * ma.get(k, 0) + (1 - lam) * mb.get(k, 0))
            for k in mkeys
        }
        for k in mkeys:
            na = ma.get(k, 0)
            nc = mc[k]
            if na >= 1 and nc > 1:
                total -= na * math.log(nc - 1 - b)
        m_pos = sum(1 for c in mc.values() if c > 0)
        m_one = sum(1 for c in mc.values() if c == 1)
        m_zero = n_axis - m_pos
        if m_one:
            if m_pos <= 1:
                return NEG_INF
            total -= m_one * math.log(b * (m_pos - 1) / (m_zero + 1))
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
