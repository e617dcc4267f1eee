"""Clustering objectives and the one engine that evaluates and applies moves.

Both scores sum over three *families* of class-level counts: the cells
(family ``"cell"``) and the two marginals, each named after its side.  A
family with weights ``w`` and combined counts ``c`` contributes
``Σ w·ln(c−1−b)`` over its members with ``c > 1``.  A family that keeps
*tallies* (its numbers of count-one and positive members) also contributes
the singleton mass term ``n1·ln(b (n+ − 1) / (n0 + 1))``, n0 being its
number of empty members.  A score is the cells minus the two marginals.

* Leave-one-out, for training-set clustering (Kneser & Ney 1993), is the
  special case ``c = w`` = the training counts; its marginals take ``b = 0``
  and keep no tallies.
* The adaptive score weights by the adaptation counts and combines the
  rounded interpolation ``c = round(λ·a + (1−λ)·b)`` of adaptation and
  background counts, with the discount and tallies on every family.

One engine, ``_Objective``, evaluates and applies moves for both.  A
criterion declares its class-count tables, one word-profile index per table,
one log table per family, how its per-table counts combine, and its tallies,
kept exactly on the families with a singleton term (the fact that both the
full score and the engine read).
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

# The families: the cells, and a marginal named after its side.
CELL_FAMILY = "cell"
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
    """Dense class-level bigram table with marginals and its cell tallies."""

    def __init__(self, n_states: int, n_cats: int):
        self.n_states = n_states
        self.n_cats = n_cats
        self.pairs = np.zeros((n_states, n_cats), dtype=np.int64)
        self.state_tot = np.zeros(n_states, dtype=np.int64)
        self.cat_tot = np.zeros(n_cats, dtype=np.int64)
        self.tallies = {CELL_FAMILY: (0, 0)}

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_cats

    def recount(self) -> None:
        self.state_tot = self.pairs.sum(axis=1)
        self.cat_tot = self.pairs.sum(axis=0)
        self.tallies[CELL_FAMILY] = _tallies(self.pairs)

    @classmethod
    def from_matrix(cls, pairs) -> "ClassCounts":
        pairs = np.asarray(pairs, dtype=np.int64)
        t = cls(pairs.shape[0], pairs.shape[1])
        t.pairs = pairs.copy()
        t.recount()
        return t


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


def _family_delta(c, at: int, look, w, tallies: bool):
    """One family's change under a move, from the (old, new) ``_move_counts``
    combined counts ``c`` and their weights ``w``: without ``w`` the weights
    are ``c`` and the log table ``look`` holds ``c ln(c-1-b)``, else
    ``ln(c-1-b)``.  Returns the removal's change of ``Σ w ln(c-1-b)``, the
    insertion's change of it per column, and per column the change of the
    numbers of positive and count-one members, removal included (0 unless
    ``tallies``)."""
    old, new = c
    d_pos = d_one = 0
    if tallies:
        # insertion only raises counts: a member turns positive or stays
        d_pos = ((new > 0) > (old > 0)).sum(axis=0)
        d_one = (new == 1).sum(axis=0) - (old == 1).sum(axis=0)
        d_pos = d_pos - d_pos[at]
        d_one = d_one - d_one[at]
    if w is None:
        t_old, t_new = look[old], look[new]
    else:
        t_old, t_new = w[0] * look[old], w[1] * look[new]
    rem = t_old[:, at].sum() - t_new[:, at].sum()
    ins = t_new.sum(axis=0) - t_old.sum(axis=0)
    return rem, ins, d_pos, d_one


def _singleton_change(n_one: int, n_pos: int, d_one, d_pos, size: int, b: float, cells: bool):
    """Per-target change of a family's singleton term, and the targets that
    leave the family degenerate: a singleton term of -inf or, for the cell
    family, at most one positive cell (such a table scores -inf)."""
    one = n_one + d_one
    pos = n_pos + d_pos
    # both logs take positive arguments: pos never exceeds the family size
    ln_ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log((size + 1.0) - pos)
    new = one * ln_ratio
    new[one == 0] = 0.0
    bad = (pos <= 1) if cells else (pos <= 1) & (one > 0)
    return new - _singleton_term(n_one, n_pos, size, b), bad


@dataclass
class Terms:
    """A score's three families: weighted log sums and singleton terms."""

    pair_term: float
    pair_singleton: float
    state_term: float
    state_singleton: float
    cat_term: float
    cat_singleton: float

    @property
    def score(self) -> float:
        # A degenerate singleton family (log of a nonpositive argument) marks
        # the whole configuration as invalid, whichever side it sits on.
        if NEG_INF in (self.pair_singleton, self.state_singleton, self.cat_singleton):
            return NEG_INF
        return (self.pair_term + self.pair_singleton - self.state_term
                - self.state_singleton - self.cat_term - self.cat_singleton)


def _family_term(w, c, b: float, tallies=None) -> tuple[float, float]:
    """(Σ w ln(c-1-b) over members with c > 1, singleton term); the family
    has no singleton term when ``tallies`` (count-one, positive) is None."""
    mask = c > 1
    term = float((w[mask] * np.log(c[mask] - 1.0 - b)).sum())
    return term, 0.0 if tallies is None else _singleton_term(*tallies, c.size, b)


def loo_terms(t: ClassCounts, discount: Discount) -> Terms:
    tallies = t.tallies.get
    return Terms(
        *_family_term(t.pairs, t.pairs, discount.b, tallies(CELL_FAMILY)),
        *_family_term(t.state_tot, t.state_tot, 0.0, tallies(STATE_SIDE)),
        *_family_term(t.cat_tot, t.cat_tot, 0.0, tallies(CATEGORY_SIDE)),
    )


def loo_score(t: ClassCounts, discount: Discount) -> float:
    """Leave-one-out clustering score; degenerate tables score -inf."""
    if t.tallies[CELL_FAMILY][1] <= 1:
        return NEG_INF
    return loo_terms(t, discount).score


class CombinedClassCounts:
    """Adaptation and background aggregates plus their rounded interpolation.

    Only the singleton tallies of the combined table are materialized
    permanently; dense combined matrices are recomputed on demand.
    """

    def __init__(self, adapt: ClassCounts, back: ClassCounts, lam: float):
        if adapt.n_states != back.n_states or adapt.n_cats != back.n_cats:
            raise ConfigError("aggregate tables have mismatched cluster ranges")
        self.adapt = adapt
        self.back = back
        self.set_lambda(lam)

    def combine(self, a, b):
        """Adaptation counts ``a`` and background counts ``b`` interpolated
        with the current weight and rounded."""
        return round_combined(self.lam * a + (1.0 - self.lam) * b)

    def combined_pairs(self) -> np.ndarray:
        return self.combine(self.adapt.pairs, self.back.pairs)

    def combined_state_tot(self) -> np.ndarray:
        return self.combine(self.adapt.state_tot, self.back.state_tot)

    def combined_cat_tot(self) -> np.ndarray:
        return self.combine(self.adapt.cat_tot, self.back.cat_tot)

    def set_lambda(self, lam: float) -> None:
        """Set the weight and recount the combined tallies of every family."""
        self.lam = float(lam)
        self.tallies = {
            CELL_FAMILY: _tallies(self.combined_pairs()),
            STATE_SIDE: _tallies(self.combined_state_tot()),
            CATEGORY_SIDE: _tallies(self.combined_cat_tot()),
        }


def combine_counts(adapt: ClassCounts, back: ClassCounts, lam: float) -> CombinedClassCounts:
    return CombinedClassCounts(adapt, back, lam)


def adaptive_terms(cc: CombinedClassCounts, discount: Discount) -> Terms:
    b, a, tallies = discount.b, cc.adapt, cc.tallies.get
    return Terms(
        *_family_term(a.pairs, cc.combined_pairs(), b, tallies(CELL_FAMILY)),
        *_family_term(a.state_tot, cc.combined_state_tot(), b, tallies(STATE_SIDE)),
        *_family_term(a.cat_tot, cc.combined_cat_tot(), b, tallies(CATEGORY_SIDE)),
    )


def adaptive_score(cc: CombinedClassCounts, discount: Discount) -> float:
    """Adaptive clustering score; -inf when the combined table is degenerate."""
    if cc.tallies[CELL_FAMILY][1] <= 1:
        return NEG_INF
    return adaptive_terms(cc, discount).score


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
    """The move engine of both criteria, set up by ``_declare``.
    ``perfbench/tracing.py`` wraps ``__init__``, ``best_move`` and
    ``apply_move`` from each class's own ``__dict__``, so each criterion
    aliases the last two in its class body: ``best_move = _Objective.best_move``."""

    def _declare(self, cm, discount, tables, profiles, logs, combine, tallies_of) -> None:
        """A criterion's map, discount and class-count ``tables``, one
        ``_word_profiles`` pair per table, one ``log_table`` per family, and
        ``combine``: per-table counts to combined counts weighted by the first
        table's, with ``ln(N-1-b)`` logs; or None for one table, whose counts
        are both, with ``N ln(N-1-b)`` logs.  ``tallies_of.tallies`` always
        holds the cells' tallies."""
        self.cm, self.discount = cm, discount
        self._combine, self._tallies_of, self._logs = combine, tallies_of, logs
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
        """The cell and marginal families a move of ``word`` on ``side``
        changes, each as (name, per-table matrices, rows, per-table counts of
        the word at those rows, log table); None if the word has none."""
        other, n, index, totals, cells, margs = self._sides[side]
        profiles = [_class_profile(i, word, other, n) for i in index]
        # the rows any table touches; the start value spares one table an add
        rows = sum(profiles[1:], profiles[0]).nonzero()[0]
        if not len(rows):
            return None
        xs = [p[rows] for p in profiles]
        return (
            (CELL_FAMILY, cells, rows, xs, self._logs[CELL_FAMILY]),
            (side, margs, _ROW, [t[word:word + 1] for t in totals], self._logs[side]),
        )

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
        changes = []
        for name, mats, rows, xs, look in families:
            per = [_move_counts(m, rows, x, src, k) for m, x in zip(mats, xs)]
            if self._combine is None:
                w, c = None, per[0]
            else:
                w, c = per[0], [self._combine(*counts) for counts in zip(*per)]
            tallies = self._tallies_of.tallies.get(name)
            rem, ins, d_pos, d_one = _family_delta(c, src, look, w, tallies is not None)
            changes.append((rem, ins, None if tallies is None else _singleton_change(
                *tallies, d_one, d_pos, mats[0].size, self.discount.b, name == CELL_FAMILY
            )))
        (c_rem, c_ins, (single, bad)), (m_rem, m_ins, m_single) = changes
        deltas = c_rem + c_ins - m_rem - m_ins
        deltas += single
        if m_single is not None:
            deltas -= m_single[0]
            bad = bad | m_single[1]
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
            tallies = self._tallies_of.tallies
            for name, mats, rows, xs, _ in families:
                if name not in tallies:
                    # a marginal without tallies: a scalar move of the word's count
                    for m, x in zip(mats, xs):
                        m[0, src] -= x[0]
                        m[0, dst] += x[0]
                    continue
                # the members the move changes, at rows x (source, target)
                at = rows[:, None], [src, dst]
                before = [m[at] for m in mats]
                after = [b + x[:, None] * _SHIFT for b, x in zip(before, xs)]
                (one0, pos0), (one1, pos1) = (
                    _tallies(per[0] if self._combine is None else self._combine(*per))
                    for per in (before, after)
                )
                n_one, n_pos = tallies[name]
                tallies[name] = (n_one + one1 - one0, n_pos + pos1 - pos0)
                for m, counts in zip(mats, after):
                    m[at] = counts
        assign[word] = dst


class StandardObjective(_Objective):
    """Leave-one-out objective with O(profile x clusters) move evaluation."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount):
        self.t = aggregate_class_counts(counts, cm)
        # cells take the discount, marginals b = 0; counts stay below the total
        largest = int(counts.total_tokens) + 2
        marg = log_table(0.0, largest, times_n=True)
        self._declare(
            cm, discount, [self.t], [_word_profiles(counts)],
            {CELL_FAMILY: log_table(discount.b, largest, times_n=True),
             STATE_SIDE: marg, CATEGORY_SIDE: marg},
            None, self.t,
        )

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move

    def score(self) -> float:
        return loo_score(self.t, self.discount)


class AdaptiveObjective(_Objective):
    """Adaptive objective over paired adaptation/background aggregates."""

    def __init__(
        self,
        adapt_counts: CountTable,
        back_counts: CountTable,
        cm: ClusterMap,
        discount: Discount,
        lam: float = 0.5,
    ):
        self.a = aggregate_class_counts(adapt_counts, cm)
        self.bg = aggregate_class_counts(back_counts, cm)
        self.cc = CombinedClassCounts(self.a, self.bg, lam)
        log = log_table(
            discount.b, max(int(adapt_counts.total_tokens), int(back_counts.total_tokens)) + 2,
            times_n=False,
        )
        self._declare(
            cm, discount, [self.a, self.bg],
            [_word_profiles(adapt_counts), _word_profiles(back_counts)],
            dict.fromkeys((CELL_FAMILY, STATE_SIDE, CATEGORY_SIDE), log),
            self.cc.combine, self.cc,
        )

    best_move = _Objective.best_move
    apply_move = _Objective.apply_move

    @property
    def lam(self) -> float:
        return self.cc.lam

    def set_lambda(self, lam: float) -> None:
        self.cc.set_lambda(lam)

    def score(self) -> float:
        return adaptive_score(self.cc, self.discount)
