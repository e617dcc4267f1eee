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
counts.  Leave-one-out, for training-set clustering (Kneser & Ney 1993), is
the case with no background table, as at λ = 1: the training counts are
both the weights and the combined counts.

One engine, ``_Objective``, evaluates and applies moves with or without a
background table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classmodel import ClusterMap, class_bigrams
from .corpus import CountTable
from .discounting import Discount
from .errors import ConfigError, InvalidMoveError

NEG_INF = float("-inf")

# The two sides; each names its marginal family.
CATEGORY_SIDE = "category"
STATE_SIDE = "state"


def round_combined(value):
    """Round interpolated nonnegative counts to integers, halves up."""
    # the cast truncates, which is the floor for nonnegative values
    return (np.asarray(value, dtype=np.float64) + 0.5).astype(np.int64)


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
    c = round_combined(lam * a + (1.0 - lam) * b)
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


# ------------------------------------------------------------ move kernel

_ROW = np.zeros(1, dtype=np.int64)  # the one row of a marginal family
_SHIFT = np.array([-1, 1])  # a move takes counts from the source to the target


def _move_counts(matrix, rows, add, src: int, k: int):
    """Counts a move of ``add`` out of column ``src`` changes, at ``rows``
    and every column below k (and the source past them), as (old, new): a
    column's counts before and after inserting into it.  The source column
    holds the insertion into the source once the word has left it: the
    removal reversed, so no count grows past the largest one held."""
    old = matrix[rows, :max(k, src + 1)]
    new = old + add[:, None]
    old[:, src] -= add
    new[:, src] -= add
    return old, new


def _family_delta(c, at: int, look, w):
    """One family's change under a move, from the (old, new) ``_move_counts``
    combined counts ``c`` and their weights ``w``: without ``w`` the weights
    are ``c`` and the log table ``look`` holds ``c ln(c-1-b)``, else
    ``ln(c-1-b)``.  Returns the removal's change of ``Σ w ln(c-1-b)`` and
    the insertion's change of it per column."""
    old, new = c
    if w is None:
        t_old, t_new = look[old], look[new]
    else:
        t_old, t_new = w[0] * look[old], w[1] * look[new]
    rem = t_old[:, at].sum() - t_new[:, at].sum()
    ins = t_new.sum(axis=0) - t_old.sum(axis=0)
    return rem, ins


def _tally_change(c, at: int):
    """Per column, the change of the numbers of count-one and positive members
    under a move, removal at column ``at`` included, from the (old, new)
    ``_move_counts`` combined counts ``c``."""
    old, new = c
    # insertion only raises counts: a member turns positive or stays
    d_pos = ((new > 0) > (old > 0)).sum(axis=0)
    d_one = (new == 1).sum(axis=0) - (old == 1).sum(axis=0)
    return d_one - d_one[at], d_pos - d_pos[at]


def _singleton_change(n_one: int, n_pos: int, d_one, d_pos, size: int, b: float):
    """Per-target change of the cells' singleton term, and the targets that
    leave at most one positive cell (such a table scores -inf)."""
    one = n_one + d_one
    pos = n_pos + d_pos
    # both logs take positive arguments: pos never exceeds the family size
    ln_ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log((size + 1.0) - pos)
    new = one * ln_ratio
    new[one == 0] = 0.0
    return new - _singleton_term(n_one, n_pos, size, b), pos <= 1


@dataclass
class Terms:
    """The criterion's families: the cells' weighted log sum and singleton
    term, and the weighted log sums of the two marginals."""

    pair_term: float
    pair_singleton: float
    state_term: float
    cat_term: float

    @property
    def score(self) -> float:
        return self.pair_term + self.pair_singleton - self.state_term - self.cat_term


def _family_term(w, c, b: float) -> float:
    """Σ w ln(c-1-b) over the members with c > 1."""
    mask = c > 1
    return float((w[mask] * np.log(c[mask] - 1.0 - b)).sum())


def clustering_terms(weights: ClassCounts, combined: ClassCounts, b: float) -> Terms:
    """The families of the criterion of ``weights`` on ``combined`` counts
    with discount ``b``.  A table with at most one positive combined cell is
    degenerate: its singleton term, and so its score, is -inf."""
    n_one, n_pos = _tallies(combined.pairs)
    return Terms(
        _family_term(weights.pairs, combined.pairs, b),
        NEG_INF if n_pos <= 1 else _singleton_term(n_one, n_pos, combined.pairs.size, b),
        _family_term(weights.state_tot, combined.state_tot, 0.0),
        _family_term(weights.cat_tot, combined.cat_tot, 0.0),
    )


def clustering_score(weights: ClassCounts, combined: ClassCounts, b: float) -> float:
    """The criterion's value; leave-one-out is ``clustering_score(t, t, b)``."""
    return clustering_terms(weights, combined, b).score


class CombinedClassCounts:
    """Adaptation aggregates, optional background aggregates, and their
    rounded interpolation, with the combined cells' tallies kept exactly.

    Without a background the adaptation counts are the combined counts,
    whatever the weight.  Dense combined matrices are recomputed on demand.
    """

    def __init__(self, adapt: ClassCounts, back: ClassCounts | None = None, lam: float = 1.0):
        if back is not None and adapt.pairs.shape != back.pairs.shape:
            raise ConfigError("aggregate tables have mismatched cluster ranges")
        self.adapt = adapt
        self.back = back
        self.set_lambda(lam)

    def combine(self, a, b):
        """Adaptation counts ``a`` and background counts ``b`` interpolated
        with the current weight and rounded."""
        return round_combined(self.lam * a + (1.0 - self.lam) * b)

    def combined(self) -> ClassCounts:
        """The combined cells and marginals, each rounded on its own."""
        a, b = self.adapt, self.back
        if b is None:
            return a
        return ClassCounts(self.combine(a.pairs, b.pairs), self.combine(a.state_tot, b.state_tot),
                           self.combine(a.cat_tot, b.cat_tot))

    def set_lambda(self, lam: float) -> ClassCounts:
        """Set the weight, recount the combined cells' tallies and return the
        combined counts they were counted on."""
        self.lam = float(lam)
        combined = self.combined()
        self.tallies = _tallies(combined.pairs)
        return combined


def _word_profiles(counts: CountTable):
    """The contexts before each word and the words after each context, as
    two cluster-independent (start offsets, ids, counts) indexes: word x's
    profile in an index is the slice from ``starts[x]`` to ``starts[x + 1]``."""
    context, word, count = counts.cells()

    def index(key, ids):
        order = np.argsort(key, kind="stable")
        starts = np.zeros(counts.vocab_size + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=counts.vocab_size), out=starts[1:])
        return starts.tolist(), ids[order], count[order]

    return index(word, context), index(context, word)


def _totals(index) -> np.ndarray:
    """Each word's total count in a ``_word_profiles`` index."""
    starts, _, cnt = index
    return np.diff(np.concatenate(([0], np.cumsum(cnt)))[starts])


def _class_profile(index, word: int, assign: np.ndarray, n: int) -> np.ndarray:
    """Project the profile of ``word`` in ``index`` onto the n clusters of ``assign``."""
    starts, ids, cnt = index
    at = slice(starts[word], starts[word + 1])
    return np.bincount(assign[ids[at]], weights=cnt[at], minlength=n).astype(np.int64)


class _Objective:
    """The move engine of the criterion, over the counts being clustered
    and an optional background table.  ``perfbench/tracing.py`` wraps
    ``__init__``, ``best_move`` and ``apply_move`` from each class's own
    ``__dict__``, so each subclass defines its constructor and aliases the
    other two in its class body: ``best_move = _Objective.best_move``."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount,
                 back: CountTable | None = None, lam: float = 1.0):
        self.cm, self.discount = cm, discount
        self.a = aggregate_class_counts(counts, cm)
        self.bg = None if back is None else aggregate_class_counts(back, cm)
        self.cc = CombinedClassCounts(self.a, self.bg, lam)
        given = [t for t in (counts, back) if t is not None]
        tables = [t for t in (self.a, self.bg) if t is not None]
        profiles = [_word_profiles(t) for t in given]
        # One table's counts are both its weights and its combined counts, so
        # its log tables hold N ln(N-1-b) and a move needs no multiply; the
        # combined counts of two tables are weighted by the first's counts.
        one = back is None
        self._combine = None if one else self.cc.combine
        # counts stay below the largest total
        largest = max(int(t.total_tokens) for t in given) + 2
        self._logs = (log_table(discount.b, largest, one), log_table(0.0, largest, one))
        # per side: the other side's assignment and range, then per table the
        # profile index, each word's total in it, the cell matrix and the
        # one-row marginal, with the moving side's clusters as columns
        self._sides = {}
        for side, other, n in ((CATEGORY_SIDE, cm.state_of, cm.n_states),
                               (STATE_SIDE, cm.category_of, cm.n_cats)):
            state = side == STATE_SIDE
            index = [p[state] for p in profiles]  # (preds, succs)[state]
            cells = [t.pairs.T if state else t.pairs for t in tables]
            margs = [(t.state_tot if state else t.cat_tot)[None] for t in tables]
            self._sides[side] = (other, n, index, [_totals(i) for i in index], cells, margs)

    @property
    def lam(self) -> float:
        return self.cc.lam

    def set_lambda(self, lam: float) -> None:
        self.cc.set_lambda(lam)

    def score(self) -> float:
        return clustering_score(self.a, self.cc.combined(), self.discount.b)

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

    def _side(self, word: int, side: str):
        """The cells and the marginal a move of ``word`` on ``side`` changes,
        each as (per-table matrices, rows, per-table counts of the word at
        those rows); None if the word has no counts on that side."""
        other, n, index, totals, cells, margs = self._sides[side]
        profiles = [_class_profile(i, word, other, n) for i in index]
        # the rows any table touches; the start value spares one table an add
        rows = sum(profiles[1:], profiles[0]).nonzero()[0]
        if not len(rows):
            return None
        return ((cells, rows, [p[rows] for p in profiles]),
                (margs, _ROW, [t[word:word + 1] for t in totals]))

    def candidate_deltas(self, word: int, side: str):
        """Score deltas for moving ``word`` to each regular cluster.

        Returns (targets, deltas) or None when the word has no counts on
        that side.  The source cluster's slot is -inf.
        """
        families = self._side(word, side)
        if families is None:
            return None
        assign, k, _ = self.assignment(side)
        src = int(assign[word])
        # per family: the (old, new) weights (None for one table) and combined counts
        moved = []
        for mats, rows, xs in families:
            per = [_move_counts(m, rows, x, src, k) for m, x in zip(mats, xs)]
            moved.append((None, per[0]) if self._combine is None
                         else (per[0], [self._combine(*counts) for counts in zip(*per)]))
        (c_w, c), (m_w, m) = moved
        c_rem, c_ins = _family_delta(c, src, self._logs[0], c_w)
        m_rem, m_ins = _family_delta(m, src, self._logs[1], m_w)
        single, bad = _singleton_change(*self.cc.tallies, *_tally_change(c, src),
                                        families[0][0][0].size, self.discount.b)
        deltas = c_rem + c_ins - m_rem - m_ins
        deltas += single
        # moves into a degenerate configuration are invalid, not attractive
        deltas[bad] = NEG_INF
        deltas[src] = NEG_INF
        return np.arange(k), deltas[:k]

    def move_delta(self, word: int, side: str, dst: int) -> float:
        self._check_move(word, side, dst)
        res = self.candidate_deltas(word, side)
        if res is None:
            return 0.0
        return float(res[1][dst])

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        res = self.candidate_deltas(word, side)
        if res is None:
            return None
        targets, deltas = res
        j = int(np.argmax(deltas))
        val = float(deltas[j])
        if val > 0.0 and math.isfinite(val):
            return int(targets[j]), val
        return None

    def apply_move(self, word: int, side: str, dst: int) -> None:
        self._check_move(word, side, dst)
        assign = self.assignment(side)[0]
        src = int(assign[word])
        families = self._side(word, side)
        if families is not None:
            (cells, rows, xs), (margs, _, totals) = families
            # the cells the move changes, at rows x (source, target)
            at = rows[:, None], [src, dst]
            before = [m[at] for m in cells]
            after = [b + x[:, None] * _SHIFT for b, x in zip(before, xs)]
            (one0, pos0), (one1, pos1) = (
                _tallies(per[0] if self._combine is None else self._combine(*per))
                for per in (before, after)
            )
            n_one, n_pos = self.cc.tallies
            self.cc.tallies = (n_one + one1 - one0, n_pos + pos1 - pos0)
            for m, counts in zip(cells, after):
                m[at] = counts
            # each marginal moves the word's total from the source to the target
            for m, x in zip(margs, totals):
                m[0, src] -= x[0]
                m[0, dst] += x[0]
        assign[word] = dst


class StandardObjective(_Objective):
    """Leave-one-out: the criterion on one table, with no background."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount):
        super().__init__(counts, cm, discount)

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move


class AdaptiveObjective(_Objective):
    """The criterion on adaptation counts combined with background counts."""

    def __init__(
        self,
        adapt_counts: CountTable,
        back_counts: CountTable,
        cm: ClusterMap,
        discount: Discount,
        lam: float = 0.5,
    ):
        super().__init__(adapt_counts, cm, discount, back_counts, lam)

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move
