"""The clustering criterion and the one engine that evaluates and applies moves.

There is one criterion.  It sums over three *families* of class-level
counts: the cells and the two marginals, each named after its side.  A
family with weights ``w`` and combined counts ``c`` contributes
``Σ w·ln(c−1−b)`` over its members with ``c > 1``; the cells take the
discount ``b``, the marginals ``b = 0``.  Only the cells keep
*tallies* (their numbers of count-one and positive members) and add the
singleton mass term ``n1·ln(b (n+ − 1) / (n0 + 1))``, n0 being the number of
empty cells.  A score is the cells minus the two marginals.

The weights are the adaptation counts; the combined counts are their
rounded interpolation ``c = round(λ·a + (1−λ)·b)`` with the background
counts, which ``combine_counts`` alone computes, for word cells, class
tables and moves alike.  Leave-one-out, for training-set clustering (Kneser
& Ney 1993), is the case with no background table, as at λ = 1: the
training counts are both the weights and the combined counts.

One engine, ``_Objective``, evaluates and applies moves with or without a
background table.  Its weight λ is fixed when it is built, and it holds the
combined cells' tallies.  A word's candidates are one pass over its rows:
its profile is projected onto the other side's clusters once; each table's
cells at those rows, and its marginal as one 1-D row, are gathered once as
the counts before and after inserting the word into each cluster.  The log
terms come from those arrays, the tallies after each move from one packed
lookup of them (``_TALLY``), and the singleton term from a window of its
log ratio around the positive tally.  ``apply_move`` writes a move from
the pass that evaluated it, without projecting the word again.

At λ = 1 the combined counts are the adaptation counts exactly, so the
engine keeps no background aggregate and gathers, moves and combines the
adaptation table alone, as leave-one-out does.  The background then only
names rows: a pass still sums over the rows either table touches, which
keeps every delta the bits of the two-table pass.
"""

from __future__ import annotations

import math

import numpy as np

from .classmodel import ClusterMap, class_bigrams
from .corpus import CountTable
from .discounting import Discount
from .errors import ConfigError, InvalidMoveError

NEG_INF = float("-inf")

# The two sides; each names its marginal family.
CATEGORY_SIDE = "category"
STATE_SIDE = "state"

# a count's flags, count-one << 32 | positive, read at min(count, 2)
_PACKED = 1 << 32
_TALLY = np.array([0, _PACKED + 1, 1], dtype=np.int64)


def combine_counts(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """The interpolation ``λ·a + (1−λ)·b`` of nonnegative count arrays,
    rounded to integers, halves up."""
    # the cast truncates, which is the floor for nonnegative values
    return (lam * a + (1.0 - lam) * b + 0.5).astype(np.int64)


def _tallies(c) -> tuple[int, int]:
    """(count-one, positive) members of a family."""
    return int((c == 1).sum()), int((c > 0).sum())


class ClassCounts:
    """Dense class-level bigram table, states as rows, with its marginals."""

    def __init__(self, pairs: np.ndarray, state_tot: np.ndarray, cat_tot: np.ndarray):
        self.pairs, self.state_tot, self.cat_tot = pairs, state_tot, cat_tot

    @classmethod
    def from_matrix(cls, pairs) -> "ClassCounts":
        pairs = np.array(pairs, dtype=np.int64)
        return cls(pairs, pairs.sum(axis=1), pairs.sum(axis=0))


def aggregate_class_counts(counts: CountTable, cm: ClusterMap) -> ClassCounts:
    """Project word bigram counts onto (state, category) cells."""
    return ClassCounts.from_matrix(class_bigrams(counts, cm))


def combine_word_counts(adapt: CountTable, back: CountTable, lam: float) -> CountTable:
    """Word-level interpolated counts, each cell rounded to an integer.

    Zero-rounded cells are dropped; the unigram vector is recomputed as the
    column sums of the rounded cells so downstream estimation stays
    internally consistent.
    """
    if adapt.vocab_size != back.vocab_size:
        raise ConfigError("tables cover different vocabularies")
    n = adapt.vocab_size
    (va, wa, ca), (vb, wb, cb) = adapt.cells(), back.cells()
    # one key per (context, word) cell of either table
    keys, at = np.unique(np.concatenate([va * n + wa, vb * n + wb]), return_inverse=True)
    a = np.zeros(len(keys), dtype=np.int64)
    b = np.zeros(len(keys), dtype=np.int64)
    a[at[:len(va)]] = ca
    b[at[len(va):]] = cb
    c = combine_counts(a, b, lam)
    keep = c > 0
    return CountTable.from_cells(n, keys[keep] // n, keys[keep] % n, c[keep])


def log_table(b: float, n: int, times_n: bool) -> np.ndarray:
    """``ln(N-1-b)``, or ``N ln(N-1-b)`` with ``times_n``, for each count N up
    to ``n``; entries below N=2 are zero so masked sums need no branching."""
    # in place: a build holds at most two count-sized arrays
    table = np.arange(n + 1, dtype=np.float64)
    table -= 1.0
    table -= b
    np.maximum(table, 1e-300, out=table)
    np.log(table, out=table)
    table[:2] = 0.0
    if times_n:
        table *= np.arange(n + 1, dtype=np.float64)
    return table


def _singleton_term(n_one: int, n_pos: int, size: int, b: float) -> float:
    """Mass correction for count-one members: n1 * ln(b (n+ - 1) / (n0 + 1))."""
    if n_one == 0:
        return 0.0
    if n_pos <= 1:
        return NEG_INF
    return n_one * math.log(b * (n_pos - 1) / (size - n_pos + 1))


def _move_counts(old, x, src: int):
    """``old``, a gathered copy of counts with the moving side's clusters on
    its last axis, and the same counts after inserting the word's counts
    ``x`` into each cluster, as (old, new).  The word leaves its source first,
    so no count passes a table's total and every lookup stays in the logs."""
    old[..., src] -= x
    return old, old + x[..., None]


def _tallies_after(old, new, src: int, base: int):
    """Per column of the cells (old, new) from ``_move_counts``, the (count-one,
    positive) tallies after that move, from ``base``: the tallies before it packed."""
    d = (_TALLY.take(new, mode="clip") - _TALLY.take(old, mode="clip")).sum(axis=0)
    d += base - d[src]  # the source column holds the removal, reversed
    return np.divmod(d, _PACKED)


def _family_term(w, c, b: float) -> float:
    """Σ w ln(c-1-b) over the members with c > 1."""
    mask = c > 1
    return float((w[mask] * np.log(c[mask] - 1.0 - b)).sum())


def clustering_score(weights: ClassCounts, combined: ClassCounts, b: float) -> float:
    """The criterion of ``weights`` on ``combined`` counts with discount
    ``b``: the cells and their singleton term, minus the states and the
    categories.  Leave-one-out is ``clustering_score(t, t, b)``.  A table
    with at most one positive combined cell is degenerate and scores -inf."""
    n_one, n_pos = _tallies(combined.pairs)
    single = NEG_INF if n_pos <= 1 else _singleton_term(n_one, n_pos, combined.pairs.size, b)
    return (_family_term(weights.pairs, combined.pairs, b) + single
            - _family_term(weights.state_tot, combined.state_tot, 0.0)
            - _family_term(weights.cat_tot, combined.cat_tot, 0.0))


def combine_class_counts(adapt: ClassCounts, back: ClassCounts | None, lam: float) -> ClassCounts:
    """The combined cells and marginals of two aggregate tables, each rounded
    on its own.  Without a background the adaptation counts are the combined
    counts, whatever the weight."""
    if back is None:
        return adapt
    if adapt.pairs.shape != back.pairs.shape:
        raise ConfigError("aggregate tables have mismatched cluster ranges")
    return ClassCounts(combine_counts(adapt.pairs, back.pairs, lam),
                       combine_counts(adapt.state_tot, back.state_tot, lam),
                       combine_counts(adapt.cat_tot, back.cat_tot, lam))


def _word_profiles(counts: CountTable, weighted: bool = True):
    """The contexts before each word and the words after each context, as
    two cluster-independent (start offsets, ids, counts) indexes: word x's
    profile in an index is the slice from ``starts[x]`` to ``starts[x + 1]``.
    An unweighted index holds None for its counts: its profiles count a
    word's neighbours, not their events, and are nonzero at the same rows."""
    context, word, count = counts.cells()

    def index(key, ids):
        order = np.argsort(key, kind="stable")
        starts = np.zeros(counts.vocab_size + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=counts.vocab_size), out=starts[1:])
        return starts.tolist(), ids[order], count[order] if weighted else None

    return index(word, context), index(context, word)


def _totals(index) -> np.ndarray:
    """Each word's total count in a ``_word_profiles`` index."""
    starts, _, cnt = index
    return np.diff(np.concatenate(([0], np.cumsum(cnt)))[starts])


def _class_profile(index, word: int, assign: np.ndarray, n: int) -> np.ndarray:
    """Project the profile of ``word`` in ``index`` onto the n clusters of ``assign``."""
    starts, ids, cnt = index
    at = slice(starts[word], starts[word + 1])
    weights = None if cnt is None else cnt[at]
    return np.bincount(assign[ids[at]], weights=weights, minlength=n).astype(np.int64)


class _Objective:
    """The move engine of the criterion, over the counts being clustered
    and an optional background table, at the weight ``lam`` it is built
    with.  It holds the combined cells' ``tallies``, which moves keep exact,
    and the background aggregate ``bg`` only below λ = 1.  A pass gathers at
    most one row per cluster of the other side, so a move shifts the positive
    tally by at most ``_reach``; ``_window`` holds the singleton log ratio at
    those 2·reach + 1 tallies, up to the number of cells, not a float per
    cell, and is rebuilt only when a move changes the tallies.  The last
    ``candidate_deltas`` pass is kept until a move, for ``apply_move`` to
    reuse.  ``perfbench/tracing.py`` wraps ``__init__``, ``best_move`` and
    ``apply_move`` from each class's own ``__dict__``, so each subclass
    defines its constructor and aliases the other two in its class body:
    ``best_move = _Objective.best_move``."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount,
                 back: CountTable | None = None, lam: float = 1.0):
        self.cm, self.discount, self.lam = cm, discount, float(lam)
        self.a = aggregate_class_counts(counts, cm)
        # at full weight the background's counts cannot change a combined one
        self.bg = None if back is None or self.lam == 1.0 else aggregate_class_counts(back, cm)
        self._pass, self._reach = None, max(cm.n_states, cm.n_cats)
        self._set_tallies(_tallies(combine_class_counts(self.a, self.bg, self.lam).pairs))
        given = [t for t in (counts, back) if t is not None]
        tables = [t for t in (self.a, self.bg) if t is not None]
        # a table not held only names rows, so its profiles need no counts
        profiles = [_word_profiles(t, i < len(tables)) for i, t in enumerate(given)]
        # One table's counts are both its weights and its combined counts, so
        # its log tables hold N ln(N-1-b) and a move needs no multiply; the
        # combined counts of two tables are weighted by the first's counts.
        one = self.bg is None
        # the counts gathered stay below the largest total of a table held
        largest = max(int(t.total_tokens) for t in given[:len(tables)]) + 2
        self._logs = (log_table(discount.b, largest, one), log_table(0.0, largest, one))
        # per side: the other side's assignment and range, the profile index
        # of each table given, then per table held each word's total, the
        # cell matrix and the marginal, with the moving side's clusters as
        # columns
        self._sides = {}
        for side, other, n in ((CATEGORY_SIDE, cm.state_of, cm.n_states),
                               (STATE_SIDE, cm.category_of, cm.n_cats)):
            state = side == STATE_SIDE
            index = [p[state] for p in profiles]  # (preds, succs)[state]
            totals = [_totals(i) for i in index[:len(tables)]]
            cells = [t.pairs.T if state else t.pairs for t in tables]
            margs = [t.state_tot if state else t.cat_tot for t in tables]
            self._sides[side] = (other, n, index, totals, cells, margs)

    def _set_tallies(self, tallies: tuple[int, int]) -> None:
        """Hold the tallies and ``_window`` (packed - lo, lo, ratio from lo, term)."""
        self.tallies = n_one, n_pos = tallies
        b, size = self.discount.b, self.a.pairs.size
        lo = max(n_pos - self._reach, 0)
        pos = np.arange(lo, min(n_pos + self._reach, size) + 1)
        # both logs take positive arguments, as pos never exceeds the cells
        ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log((size + 1.0) - pos)
        self._window = (n_one * _PACKED + n_pos - lo, lo, ratio,
                        _singleton_term(n_one, n_pos, size, b))

    def score(self) -> float:
        return clustering_score(self.a, combine_class_counts(self.a, self.bg, self.lam),
                                self.discount.b)

    def assignment(self, side: str):
        """(assignment array, movable cluster count, frozen words) of a side."""
        cm = self.cm
        if side == CATEGORY_SIDE:
            return cm.category_of, cm.k_cats, cm.frozen_cats
        if side == STATE_SIDE:
            return cm.state_of, cm.k_states, cm.frozen_states
        raise ConfigError(f"unknown side {side!r}")

    def frozen(self, word: int, side: str) -> bool:
        return word in self.assignment(side)[2]

    def _check_move(self, word: int, side: str, dst: int) -> None:
        assign, k, frozen = self.assignment(side)
        if word in frozen:
            raise InvalidMoveError(f"word {word} is pinned on the {side} side")
        if not 0 <= dst < k:
            raise InvalidMoveError(f"target cluster {dst} outside 0..{k - 1}")
        if dst == int(assign[word]):
            raise InvalidMoveError("target equals current cluster")

    def candidate_deltas(self, word: int, side: str):
        """Score deltas for moving ``word`` to each regular cluster.

        Returns (targets, deltas) or None when the word has no counts on
        that side.  The source cluster's slot is -inf.  The pass is kept for
        an ``apply_move`` of the same word and side.
        """
        self._pass = None  # freed before this pass allocates its own arrays
        other, n, index, totals, cells, margs = self._sides[side]
        assign, k, _ = self.assignment(side)
        src = int(assign[word])
        profiles = [_class_profile(i, word, other, n) for i in index]
        # the rows any table touches; the start value spares one table an add
        rows = sum(profiles[1:], profiles[0]).nonzero()[0]
        if not len(rows):
            self._pass = (word, side, src, rows, [], None)
            return None
        # per table held, the word's counts at the rows and its total
        shifts = [(p[rows], t[word]) for p, t in zip(profiles, totals)]
        width = max(k, src + 1)
        # per table, the cells at the rows and the marginal, as (old, new)
        moved = [(*_move_counts(m[rows, :width], x, src),
                  *_move_counts(marg[:width].copy(), total, src))
                 for m, marg, (x, total) in zip(cells, margs, shifts)]
        cell_log, marg_log = self._logs
        logs = (cell_log, cell_log, marg_log, marg_log)
        weights = moved[0]
        counts = weights if self.bg is None else [
            combine_counts(a, b, self.lam) for a, b in zip(*moved)]
        del moved  # the background's own counts are needed only combined
        t_old, t_new, m_old, m_new = (look[c] if self.bg is None else w * look[c]
                                      for w, look, c in zip(weights, logs, counts))
        # the removal sums the source column as one 1-D sum, the insertion
        # sums each column down the rows
        deltas = (t_old[:, src].sum() - t_new[:, src].sum()
                  + (t_new.sum(axis=0) - t_old.sum(axis=0))
                  - (m_old[src] - m_new[src]) - (m_new - m_old))
        del t_old, t_new  # freed before the tallies allocate theirs
        base, lo, ratio, single_now = self._window
        one, at = _tallies_after(*counts[:2], src, base)  # at: the positive tally - lo
        self._pass = (word, side, src, rows, shifts, (one, at))
        single = one * ratio[at]  # the singleton term after each move
        single[one == 0] = 0.0
        single -= single_now
        deltas += single
        # moves to at most one positive cell are invalid; only lo <= 1 allows one
        if lo <= 1:
            deltas[at <= 1 - lo] = NEG_INF
        deltas[src] = NEG_INF
        return np.arange(k), deltas[:k]

    def move_delta(self, word: int, side: str, dst: int) -> float:
        self._check_move(word, side, dst)
        res = self.candidate_deltas(word, side)
        return 0.0 if res is None else float(res[1][dst])

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        res = self.candidate_deltas(word, side)
        if res is None:
            return None
        targets, deltas = res
        j = int(deltas.argmax())
        val = float(deltas[j])
        if val > 0.0 and math.isfinite(val):
            return int(targets[j]), val
        return None

    def apply_move(self, word: int, side: str, dst: int) -> None:
        """Move ``word`` to cluster ``dst``, from the counts the last
        ``candidate_deltas`` pass evaluated when it was of this word and side."""
        self._check_move(word, side, dst)
        if self._pass is None or self._pass[:2] != (word, side):
            self.candidate_deltas(word, side)
        _, _, src, rows, shifts, change = self._pass
        self._pass = None
        cells, margs = self._sides[side][4:]
        for m, marg, (x, total) in zip(cells, margs, shifts):
            m[rows, src] -= x
            m[rows, dst] += x
            marg[src] -= total
            marg[dst] += total
        if shifts:
            tallies = (int(change[0][dst]), int(change[1][dst]) + self._window[1])
            if tallies != self.tallies:
                self._set_tallies(tallies)
        self.assignment(side)[0][word] = dst


class StandardObjective(_Objective):
    """Leave-one-out: the criterion on one table, with no background."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount):
        super().__init__(counts, cm, discount)

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move


class AdaptiveObjective(_Objective):
    """The criterion on adaptation counts combined with background counts
    at the weight ``lam``."""

    def __init__(
        self,
        adapt_counts: CountTable,
        back_counts: CountTable,
        cm: ClusterMap,
        discount: Discount,
        lam: float,
    ):
        super().__init__(adapt_counts, cm, discount, back_counts, lam)

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move
