"""Clustering objectives and incremental move evaluation.

Both scores sum over three *families* of class-level counts: the
class-bigram cells, the states and the categories.  A family with weights
``w`` and combined counts ``c`` contributes ``Σ w·ln(c−1−b)`` over its
members with ``c > 1``, plus the singleton mass term
``n1·ln(b (n+ − 1) / (n0 + 1))`` from its numbers of count-one, positive and
empty members.  A score is the cell family minus the two marginal families.

* Leave-one-out, for training-set clustering (Kneser & Ney 1993), is the
  special case ``c = w`` = the training counts, whose two marginal families
  take ``b = 0`` and no singleton term.
* The adaptive score weights by the adaptation counts and combines the
  rounded interpolation ``c = round(λ·a + (1−λ)·b)`` of adaptation and
  background counts, with the discount and singleton term on every family.

One kernel, ``_family_delta``, gives a family's change of ``Σ w·ln(c−1−b)``
and of its positive and count-one tallies when a word leaves its source
cluster and enters each target; ``_singleton_change`` turns the tallies into
the change of the singleton term.  Both objectives evaluate all candidate
moves of one word, and apply a move, through these two with vectorized
table lookups.
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
    """Dense class-level bigram table with marginals and singleton tallies."""

    def __init__(self, n_states: int, n_cats: int):
        self.n_states = n_states
        self.n_cats = n_cats
        self.pairs = np.zeros((n_states, n_cats), dtype=np.int64)
        self.state_tot = np.zeros(n_states, dtype=np.int64)
        self.cat_tot = np.zeros(n_cats, dtype=np.int64)
        self.n_one = 0
        self.n_pos = 0

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_cats

    @property
    def total(self) -> int:
        return int(self.state_tot.sum())

    def recount(self) -> None:
        self.state_tot = self.pairs.sum(axis=1)
        self.cat_tot = self.pairs.sum(axis=0)
        self.n_one, self.n_pos = _tallies(self.pairs)

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


class LogTables:
    """Lookup tables for ``ln(N-1-b)`` and ``N ln(N-1-b)`` indexed by count.

    Entries below N=2 are zero so masked sums need no branching.  The tables
    cover every count up to ``n``, which the caller sizes from the largest
    count its table can hold.  Each table is built on its first lookup, so
    an objective holds only the one it reads.
    """

    def __init__(self, b: float, n: int):
        self.b = float(b)
        self._size = int(n) + 1
        self._tables: dict[bool, np.ndarray] = {}  # keyed by "times N"

    def _table(self, times_n: bool) -> np.ndarray:
        table = self._tables.get(times_n)
        if table is None:
            # in place: a build holds at most two count-sized arrays
            table = np.arange(self._size, dtype=np.float64)
            table -= 1.0
            table -= self.b
            np.maximum(table, 1e-300, out=table)
            np.log(table, out=table)
            table[:2] = 0.0
            if times_n:
                table *= np.arange(self._size, dtype=np.float64)
            self._tables[times_n] = table
        return table

    def cell(self, n):
        return self._table(True)[n]

    def lnm1b(self, n):
        return self._table(False)[n]


def _singleton_term(n_one: int, n_pos: int, size: int, b: float) -> float:
    """Mass correction for count-one members: n1 * ln(b (n+ - 1) / (n0 + 1))."""
    if n_one == 0:
        return 0.0
    if n_pos <= 1:
        return NEG_INF
    return n_one * math.log(b * (n_pos - 1) / (size - n_pos + 1))


# ------------------------------------------------------------ move kernel

_ROW = np.zeros(1, dtype=np.int64)  # the one row of a marginal family


def _move_counts(matrix, rows, add, src: int, k: int, dst: int | None = None):
    """Counts a move of ``add`` out of column ``src`` changes, at ``rows``.

    Covers every column below k (and the source past them), or with ``dst``
    only the source and ``dst``.  Returns (old, new), each rows x columns:
    a column's counts before and after inserting into it.  The source
    column (``src``, or 0 with ``dst``) holds the insertion into the source
    once the word has left it: the removal reversed, so no count grows past
    the largest one held.
    """
    if dst is None:
        old, at = matrix[rows, :max(k, src + 1)], src
    else:
        old, at = matrix[rows[:, None], [src, dst]], 0
    new = old + add[:, None]
    old[:, at] -= add
    new[:, at] -= add
    return old, new


def _family_delta(c, at: int, look=None, w=None, tallies=True):
    """One family's change under a move, from ``_move_counts`` arrays.

    ``c`` holds the family's (old, new) combined counts and ``w`` their
    weights.  Without ``w`` the weights are ``c`` themselves and ``look``
    gives ``c ln(c-1-b)`` (leave-one-out), else ``ln(c-1-b)``.  Returns the
    removal's change of ``Σ w ln(c-1-b)`` (0.0 without ``look``), the
    insertion's change of it per column, and the change of the numbers of
    positive and of count-one members per column, removal included (0
    unless ``tallies``).
    """
    old, new = c
    d_pos = d_one = 0
    if tallies:
        # insertion only raises counts: a member turns positive or stays
        d_pos = ((new > 0) > (old > 0)).sum(axis=0)
        d_one = (new == 1).sum(axis=0) - (old == 1).sum(axis=0)
        d_pos = d_pos - d_pos[at]
        d_one = d_one - d_one[at]
    if look is None:
        return 0.0, 0.0, d_pos, d_one
    if w is None:
        t_old, t_new = look(old), look(new)
    else:
        t_old, t_new = w[0] * look(old), w[1] * look(new)
    rem = t_old[:, at].sum() - t_new[:, at].sum()
    ins = t_new.sum(axis=0) - t_old.sum(axis=0)
    return rem, ins, d_pos, d_one


def _singleton_change(
    n_one: int, n_pos: int, d_one, d_pos, size: int, b: float, cells: bool
):
    """Per-target change of a family's singleton term, and the targets that
    leave the family degenerate: a singleton term of -inf or, for the cell
    family, at most one positive cell (such a table scores -inf)."""
    one = n_one + d_one
    pos = n_pos + d_pos
    # both logs take positive arguments: pos never exceeds the family size
    ln_ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log(size - pos + 1.0)
    new = one * ln_ratio
    new = np.where(one == 0, 0.0, new)
    bad = (pos <= 1) if cells else (pos <= 1) & (one > 0)
    return new - _singleton_term(n_one, n_pos, size, b), bad


def _store(matrix, rows, src: int, dst: int, counts) -> None:
    """Write back the source and ``dst`` counts of ``_move_counts`` with ``dst``."""
    matrix[rows, src] = counts[0][:, 0]
    matrix[rows, dst] = counts[1][:, 1]


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
    return Terms(
        *_family_term(t.pairs, t.pairs, discount.b, (t.n_one, t.n_pos)),
        *_family_term(t.state_tot, t.state_tot, 0.0),
        *_family_term(t.cat_tot, t.cat_tot, 0.0),
    )


def loo_score(t: ClassCounts, discount: Discount) -> float:
    """Leave-one-out clustering score; degenerate tables score -inf."""
    if t.n_pos <= 1:
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
        self.n_states = adapt.n_states
        self.n_cats = adapt.n_cats
        self.set_lambda(lam)

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_cats

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
        self.n_bi_one, self.n_bi_pos = _tallies(self.combined_pairs())
        self.n_s_one, self.n_s_pos = _tallies(self.combined_state_tot())
        self.n_g_one, self.n_g_pos = _tallies(self.combined_cat_tot())


def combine_counts(adapt: ClassCounts, back: ClassCounts, lam: float) -> CombinedClassCounts:
    return CombinedClassCounts(adapt, back, lam)


def adaptive_terms(cc: CombinedClassCounts, discount: Discount) -> Terms:
    b, a = discount.b, cc.adapt
    return Terms(
        *_family_term(a.pairs, cc.combined_pairs(), b, (cc.n_bi_one, cc.n_bi_pos)),
        *_family_term(a.state_tot, cc.combined_state_tot(), b, (cc.n_s_one, cc.n_s_pos)),
        *_family_term(a.cat_tot, cc.combined_cat_tot(), b, (cc.n_g_one, cc.n_g_pos)),
    )


def adaptive_score(cc: CombinedClassCounts, discount: Discount) -> float:
    """Adaptive clustering score; -inf when the combined table is degenerate."""
    if cc.n_bi_pos <= 1:
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


def _class_profile(index, word: int, assign: np.ndarray, n: int) -> np.ndarray:
    """Project the profile of ``word`` in ``index`` onto the n clusters of ``assign``."""
    starts, ids, cnt = index
    at = slice(starts[word], starts[word + 1])
    return np.bincount(assign[ids[at]], weights=cnt[at], minlength=n).astype(np.int64)


class _MoveRules:
    """Move validation and the best-move pick, shared by both objectives.

    Each objective supplies ``cm`` and ``candidate_deltas``.  Each still
    defines its own ``__init__``, ``best_move`` and ``apply_move``:
    ``perfbench/tracing.py`` wraps those per class, from the class's own
    ``__dict__``.
    """

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

    def move_delta(self, word: int, side: str, dst: int) -> float:
        self._check_move(word, side, dst)
        res = self.candidate_deltas(word, side)
        if res is None:
            return 0.0
        return float(res[1][dst])

    @staticmethod
    def _candidates(deltas, bad, src: int, k: int):
        """(targets, deltas) over the k regular clusters, with invalid
        targets and the source at -inf."""
        # moves into a degenerate configuration are invalid, not attractive
        deltas = np.where(bad, NEG_INF, deltas)
        deltas[src] = NEG_INF
        return np.arange(k), deltas[:k]

    def _best_move(self, word: int, side: str):
        res = self.candidate_deltas(word, side)
        if res is None:
            return None
        targets, deltas = res
        j = int(np.argmax(deltas))
        val = float(deltas[j])
        if val > 0.0 and math.isfinite(val):
            return int(targets[j]), val
        return None


class StandardObjective(_MoveRules):
    """Leave-one-out objective with O(profile x clusters) move evaluation."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount):
        self.cm = cm
        self.discount = discount
        self.t = aggregate_class_counts(counts, cm)
        # cells take the discount, marginals b = 0; counts stay below the total
        largest = int(counts.total_tokens) + 2
        self.tables = LogTables(discount.b, largest)
        self.marg_tables = LogTables(0.0, largest)
        self._preds, self._succs = _word_profiles(counts)

    def score(self) -> float:
        return loo_score(self.t, self.discount)

    def _side(self, word: int, side: str):
        """Matrix view, marginal vector, move range and profile for one side."""
        assign, k, _ = self.assignment(side)
        t, cm = self.t, self.cm
        if side == CATEGORY_SIDE:
            prof, other, n = self._preds, cm.state_of, cm.n_states
            matrix, marg = t.pairs, t.cat_tot
        else:
            prof, other, n = self._succs, cm.category_of, cm.n_cats
            matrix, marg = t.pairs.T, t.state_tot
        prof = _class_profile(prof, word, other, n)
        idx = np.flatnonzero(prof)
        return matrix, marg, k, assign, idx, prof[idx]

    def candidate_deltas(self, word: int, side: str):
        """Score deltas for moving ``word`` to each regular cluster.

        Returns (targets, deltas) or None when the word has no counts on
        that side.  The source cluster's slot is -inf.
        """
        matrix, marg, k, assign, idx, vals = self._side(word, side)
        if len(idx) == 0:
            return None
        src = int(assign[word])
        t = self.t
        cell_rem, cell_ins, d_pos, d_one = _family_delta(
            _move_counts(matrix, idx, vals, src, k), src, self.tables.cell
        )
        marg_rem, marg_ins, _, _ = _family_delta(
            _move_counts(marg[None], _ROW, vals.sum(keepdims=True), src, k), src,
            self.marg_tables.cell, tallies=False,
        )
        single, bad = _singleton_change(
            t.n_one, t.n_pos, d_one, d_pos, t.n_cells, self.discount.b, cells=True
        )
        deltas = cell_rem + cell_ins - marg_rem - marg_ins + single
        return self._candidates(deltas, bad, src, k)

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        return self._best_move(word, side)

    def apply_move(self, word: int, side: str, dst: int) -> None:
        self._check_move(word, side, dst)
        matrix, marg, k, assign, idx, vals = self._side(word, side)
        src = int(assign[word])
        t = self.t
        if len(idx):
            counts = _move_counts(matrix, idx, vals, src, k, dst)
            _, _, d_pos, d_one = _family_delta(counts, 0)
            t.n_pos += int(d_pos[1])
            t.n_one += int(d_one[1])
            _store(matrix, idx, src, dst, counts)
            u = int(vals.sum())
            marg[src] -= u
            marg[dst] += u
        assign[word] = dst


class AdaptiveObjective(_MoveRules):
    """Adaptive objective over paired adaptation/background aggregates."""

    def __init__(
        self,
        adapt_counts: CountTable,
        back_counts: CountTable,
        cm: ClusterMap,
        discount: Discount,
        lam: float = 0.5,
    ):
        self.cm = cm
        self.discount = discount
        self.a = aggregate_class_counts(adapt_counts, cm)
        self.bg = aggregate_class_counts(back_counts, cm)
        self.cc = CombinedClassCounts(self.a, self.bg, lam)
        self.tables = LogTables(
            discount.b, max(int(adapt_counts.total_tokens), int(back_counts.total_tokens)) + 2
        )
        self._preds_a, self._succs_a = _word_profiles(adapt_counts)
        self._preds_b, self._succs_b = _word_profiles(back_counts)

    @property
    def lam(self) -> float:
        return self.cc.lam

    def set_lambda(self, lam: float) -> None:
        self.cc.set_lambda(lam)

    def score(self) -> float:
        return adaptive_score(self.cc, self.discount)

    def _side(self, word: int, side: str):
        """The cell and marginal families of one side, each as (adaptation
        and background matrices, rows, the word's adaptation and background
        counts at those rows, tally prefix), then move range, assignment and
        the size of the word's union profile."""
        assign, k, _ = self.assignment(side)
        cm, a, bg = self.cm, self.a, self.bg
        if side == CATEGORY_SIDE:
            other, n_other = cm.state_of, cm.n_states
            prof_a, prof_b = self._preds_a, self._preds_b
            A, B, mA, mB, prefix = a.pairs, bg.pairs, a.cat_tot, bg.cat_tot, "n_g"
        else:
            other, n_other = cm.category_of, cm.n_cats
            prof_a, prof_b = self._succs_a, self._succs_b
            A, B, mA, mB, prefix = a.pairs.T, bg.pairs.T, a.state_tot, bg.state_tot, "n_s"
        pa = _class_profile(prof_a, word, other, n_other)
        pb = _class_profile(prof_b, word, other, n_other)
        idx = np.flatnonzero(pa + pb)
        pa, pb = pa[idx], pb[idx]
        families = (
            (A, B, idx, pa, pb, "n_bi"),
            (mA[None], mB[None], _ROW, pa.sum(keepdims=True), pb.sum(keepdims=True), prefix),
        )
        return families, k, assign, len(idx)

    def candidate_deltas(self, word: int, side: str):
        families, k, assign, n = self._side(word, side)
        if n == 0:
            return None
        src = int(assign[word])
        cc, look, b = self.cc, self.tables.lnm1b, self.discount.b
        out = []
        for A, B, rows, xa, xb, prefix in families:
            w = _move_counts(A, rows, xa, src, k)
            c = [cc.combine(x, y) for x, y in zip(w, _move_counts(B, rows, xb, src, k))]
            rem, ins, d_pos, d_one = _family_delta(c, src, look, w)
            single, bad = _singleton_change(
                getattr(cc, prefix + "_one"), getattr(cc, prefix + "_pos"), d_one, d_pos,
                A.size, b, cells=prefix == "n_bi",
            )
            out.append((rem, ins, single, bad))
        (pair_rem, pair_ins, bi_single, bi_bad), (marg_rem, marg_ins, m_single, m_bad) = out
        deltas = pair_rem + pair_ins + bi_single - (marg_rem + marg_ins) - m_single
        return self._candidates(deltas, bi_bad | m_bad, src, k)

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        return self._best_move(word, side)

    def apply_move(self, word: int, side: str, dst: int) -> None:
        self._check_move(word, side, dst)
        families, k, assign, n = self._side(word, side)
        src = int(assign[word])
        cc = self.cc
        if n:
            for A, B, rows, xa, xb, prefix in families:
                wa = _move_counts(A, rows, xa, src, k, dst)
                wb = _move_counts(B, rows, xb, src, k, dst)
                _, _, d_pos, d_one = _family_delta(
                    [cc.combine(x, y) for x, y in zip(wa, wb)], 0
                )
                setattr(cc, prefix + "_pos", getattr(cc, prefix + "_pos") + int(d_pos[1]))
                setattr(cc, prefix + "_one", getattr(cc, prefix + "_one") + int(d_one[1]))
                _store(A, rows, src, dst, wa)
                _store(B, rows, src, dst, wb)
        assign[word] = dst
