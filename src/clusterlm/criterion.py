"""Clustering objectives and incremental move evaluation.

Two scores over class-level bigram count tables:

* a leave-one-out score for training-set clustering, built from discounted
  cell terms ``N ln(N-1-b)``, marginal corrections ``N ln(N-1)``, and a
  singleton mass term;
* an adaptive variant that scores adaptation counts against interpolated
  adaptation/background counts rounded to integers, with the same shape of
  singleton corrections applied to cells and both marginals.

The objective classes keep dense count matrices plus the few scalars the
singleton terms need, and evaluate all candidate moves of one word with
vectorized table lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classmodel import ClusterMap
from .corpus import CountTable
from .discounting import Discount
from .errors import ConfigError, InvalidMoveError

NEG_INF = float("-inf")

CATEGORY_SIDE = "category"
STATE_SIDE = "state"


def round_combined(value):
    """Round interpolated nonnegative counts to integers, halves up."""
    return np.floor(np.asarray(value, dtype=np.float64) + 0.5).astype(np.int64)


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
        self.n_pos = int((self.pairs > 0).sum())
        self.n_one = int((self.pairs == 1).sum())

    @classmethod
    def from_matrix(cls, pairs) -> "ClassCounts":
        pairs = np.asarray(pairs, dtype=np.int64)
        t = cls(pairs.shape[0], pairs.shape[1])
        t.pairs = pairs.copy()
        t.recount()
        return t


def aggregate_class_counts(counts: CountTable, cm: ClusterMap) -> ClassCounts:
    """Project word bigram counts onto (state, category) cells."""
    if counts.vocab_size != cm.vocab_size:
        raise ConfigError("counts and cluster map disagree on vocabulary size")
    t = ClassCounts(cm.n_states, cm.n_cats)
    S, G = cm.state_of, cm.category_of
    for v, row in counts.rows.items():
        s = S[v]
        for w, c in row.items():
            t.pairs[s, G[w]] += c
    t.recount()
    return t


def combine_word_counts(adapt: CountTable, back: CountTable, lam: float) -> CountTable:
    """Word-level interpolated counts, each cell rounded to an integer.

    Zero-rounded cells are dropped; the unigram vector is recomputed as the
    column sums of the rounded cells so downstream estimation stays
    internally consistent.
    """
    if adapt.vocab_size != back.vocab_size:
        raise ConfigError("tables cover different vocabularies")
    out = CountTable(adapt.vocab_size)
    for v in sorted(set(adapt.rows) | set(back.rows)):
        row_a = adapt.rows.get(v, {})
        row_b = back.rows.get(v, {})
        merged = {}
        for w in set(row_a) | set(row_b):
            c = int(round_combined(lam * row_a.get(w, 0) + (1.0 - lam) * row_b.get(w, 0)))
            if c > 0:
                merged[w] = c
                out.unigram[w] += c
        if merged:
            out.rows[v] = merged
    out.total_tokens = int(out.unigram.sum())
    return out


class LogTables:
    """Lookup tables for ``ln(N-1-b)`` and ``N ln(N-1-b)`` indexed by count.

    Entries below N=2 are zero so masked sums need no branching.  Tables grow
    geometrically on demand; memory scales with the largest count seen.
    """

    def __init__(self, b: float):
        self.b = float(b)
        self._size = 0
        self._cell = np.zeros(0)
        self._lnm1b = np.zeros(0)
        self.ensure(1024)

    def ensure(self, n: int) -> None:
        if n < self._size:
            return
        size = max(int(n) + 1, 1024, int(self._size * 3 // 2))
        idx = np.arange(size, dtype=np.float64)
        self._lnm1b = np.where(idx >= 2, np.log(np.maximum(idx - 1.0 - self.b, 1e-300)), 0.0)
        self._cell = idx * self._lnm1b
        self._size = size

    def cell(self, n):
        return self._cell[n]

    def lnm1b(self, n):
        return self._lnm1b[n]


def _loo_marg(n: int) -> float:
    return n * math.log(n - 1) if n > 1 else 0.0


def _loo_marg_vec(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=np.float64)
    return np.where(n > 1, n * np.log(np.maximum(n - 1.0, 1.0)), 0.0)


def _singleton_term(n_one: int, n_pos: int, n_cells: int, b: float) -> float:
    """Mass correction for count-one events: n1 * ln(b (n+ - 1) / (n0 + 1))."""
    if n_one == 0:
        return 0.0
    if n_pos <= 1:
        return NEG_INF
    return n_one * math.log(b * (n_pos - 1) / (n_cells - n_pos + 1))


def _singleton_term_vec(n_one, n_pos, n_cells: int, b: float) -> np.ndarray:
    n_one = np.asarray(n_one, dtype=np.float64)
    n_pos = np.asarray(n_pos, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = n_one * (
            math.log(b)
            + np.log(np.maximum(n_pos - 1.0, 1e-300))
            - np.log(n_cells - n_pos + 1.0)
        )
    term = np.where(n_one == 0, 0.0, body)
    return np.where((n_pos <= 1) & (n_one > 0), NEG_INF, term)


@dataclass
class LooTerms:
    pair_term: float
    pair_singleton: float
    state_term: float
    cat_term: float

    @property
    def score(self) -> float:
        return self.pair_term + self.pair_singleton - self.state_term - self.cat_term


def loo_terms(t: ClassCounts, discount: Discount) -> LooTerms:
    b = discount.b
    cells = t.pairs[t.pairs > 1].astype(np.float64)
    pair = float((cells * np.log(cells - 1.0 - b)).sum())
    single = _singleton_term(t.n_one, t.n_pos, t.n_cells, b)
    st = t.state_tot[t.state_tot > 1].astype(np.float64)
    state = float((st * np.log(st - 1.0)).sum())
    ct = t.cat_tot[t.cat_tot > 1].astype(np.float64)
    cat = float((ct * np.log(ct - 1.0)).sum())
    return LooTerms(pair, single, state, cat)


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
        self.lam = float(lam)
        self.n_bi_one = 0
        self.n_bi_pos = 0
        self.n_s_one = 0
        self.n_s_pos = 0
        self.n_g_one = 0
        self.n_g_pos = 0
        self._refresh()

    @property
    def n_cells(self) -> int:
        return self.n_states * self.n_cats

    def combined_pairs(self) -> np.ndarray:
        return round_combined(
            self.lam * self.adapt.pairs + (1.0 - self.lam) * self.back.pairs
        )

    def combined_state_tot(self) -> np.ndarray:
        return round_combined(
            self.lam * self.adapt.state_tot + (1.0 - self.lam) * self.back.state_tot
        )

    def combined_cat_tot(self) -> np.ndarray:
        return round_combined(
            self.lam * self.adapt.cat_tot + (1.0 - self.lam) * self.back.cat_tot
        )

    def _refresh(self) -> None:
        c = self.combined_pairs()
        self.n_bi_pos = int((c > 0).sum())
        self.n_bi_one = int((c == 1).sum())
        cs = self.combined_state_tot()
        self.n_s_pos = int((cs > 0).sum())
        self.n_s_one = int((cs == 1).sum())
        cg = self.combined_cat_tot()
        self.n_g_pos = int((cg > 0).sum())
        self.n_g_one = int((cg == 1).sum())

    def set_lambda(self, lam: float) -> None:
        self.lam = float(lam)
        self._refresh()


def combine_counts(adapt: ClassCounts, back: ClassCounts, lam: float) -> CombinedClassCounts:
    return CombinedClassCounts(adapt, back, lam)


@dataclass
class AdaptiveTerms:
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
        return (
            self.pair_term
            + self.pair_singleton
            - self.state_term
            - self.state_singleton
            - self.cat_term
            - self.cat_singleton
        )


def adaptive_terms(cc: CombinedClassCounts, discount: Discount) -> AdaptiveTerms:
    b = discount.b
    a = cc.adapt

    c = cc.combined_pairs().astype(np.float64)
    mask = c > 1
    pair = float((a.pairs[mask] * np.log(c[mask] - 1.0 - b)).sum())
    pair_single = _singleton_term(cc.n_bi_one, cc.n_bi_pos, cc.n_cells, b)

    cs = cc.combined_state_tot().astype(np.float64)
    mask = cs > 1
    state = float((a.state_tot[mask] * np.log(cs[mask] - 1.0 - b)).sum())
    state_single = _singleton_term(cc.n_s_one, cc.n_s_pos, cc.n_states, b)

    cg = cc.combined_cat_tot().astype(np.float64)
    mask = cg > 1
    cat = float((a.cat_tot[mask] * np.log(cg[mask] - 1.0 - b)).sum())
    cat_single = _singleton_term(cc.n_g_one, cc.n_g_pos, cc.n_cats, b)

    return AdaptiveTerms(pair, pair_single, state, state_single, cat, cat_single)


def adaptive_score(cc: CombinedClassCounts, discount: Discount) -> float:
    """Adaptive clustering score; -inf when the combined table is degenerate."""
    if cc.n_bi_pos <= 1:
        return NEG_INF
    return adaptive_terms(cc, discount).score


def _word_profiles(counts: CountTable):
    """Per-word context and successor id/count arrays, cluster-independent."""
    preds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    succs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    pred_lists: dict[int, list[tuple[int, int]]] = {}
    for v, row in counts.rows.items():
        ids = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
        cnt = np.fromiter(row.values(), dtype=np.int64, count=len(row))
        succs[v] = (ids, cnt)
        for w, c in row.items():
            pred_lists.setdefault(w, []).append((v, c))
    for w, pairs in pred_lists.items():
        ids = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        cnt = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        preds[w] = (ids, cnt)
    return preds, succs


_EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _class_profile(entry, assign: np.ndarray, n: int):
    """Project raw id/count arrays onto clusters; returns nonzero (ids, counts)."""
    ids, cnt = entry
    if len(ids) == 0:
        return _EMPTY
    prof = np.bincount(assign[ids], weights=cnt, minlength=n).astype(np.int64)
    idx = np.nonzero(prof)[0]
    return idx, prof[idx]


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
        self.tables = LogTables(discount.b)
        self.tables.ensure(int(counts.total_tokens) + 2)
        self._preds, self._succs = _word_profiles(counts)

    def score(self) -> float:
        return loo_score(self.t, self.discount)

    def _side(self, word: int, side: str):
        """Matrix view, marginal vector, move range and profile for one side."""
        assign, k, _ = self.assignment(side)
        t, cm = self.t, self.cm
        if side == CATEGORY_SIDE:
            idx, vals = _class_profile(
                self._preds.get(word, _EMPTY), cm.state_of, cm.n_states
            )
            return t.pairs, t.cat_tot, k, assign, idx, vals
        idx, vals = _class_profile(
            self._succs.get(word, _EMPTY), cm.category_of, cm.n_cats
        )
        return t.pairs.T, t.state_tot, k, assign, idx, vals

    def candidate_deltas(self, word: int, side: str):
        """Score deltas for moving ``word`` to each regular cluster.

        Returns (targets, deltas) or None when the word has no counts on
        that side.  The source cluster's slot is -inf.
        """
        matrix, marg, k, assign, idx, vals = self._side(word, side)
        if len(idx) == 0:
            return None
        src = int(assign[word])
        t, tab, b = self.t, self.tables, self.discount.b

        src_col = matrix[idx, src]
        new_src = src_col - vals
        cell_rem = float(tab.cell(new_src).sum() - tab.cell(src_col).sum())
        d_pos_rem = -int((new_src == 0).sum())
        d_one_rem = int((new_src == 1).sum()) - int((src_col == 1).sum())
        u = int(vals.sum())
        marg_rem = _loo_marg(int(marg[src]) - u) - _loo_marg(int(marg[src]))

        M = matrix[idx, :k]
        Mv = M + vals[:, None]
        cell_ins = tab.cell(Mv).sum(axis=0) - tab.cell(M).sum(axis=0)
        d_pos_ins = (M == 0).sum(axis=0)
        d_one_ins = (Mv == 1).sum(axis=0) - (M == 1).sum(axis=0)
        margs = marg[:k]
        marg_ins = _loo_marg_vec(margs + u) - _loo_marg_vec(margs)

        n_one_new = t.n_one + d_one_rem + d_one_ins
        n_pos_new = t.n_pos + d_pos_rem + d_pos_ins
        single_old = _singleton_term(t.n_one, t.n_pos, t.n_cells, b)
        single_new = _singleton_term_vec(n_one_new, n_pos_new, t.n_cells, b)
        single_new = np.where(n_pos_new <= 1, NEG_INF, single_new)

        deltas = cell_rem + cell_ins - marg_rem - marg_ins + (single_new - single_old)
        deltas = np.where(np.isneginf(single_new), NEG_INF, deltas)
        if src < k:
            deltas[src] = NEG_INF
        return np.arange(k), deltas

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        return self._best_move(word, side)

    def apply_move(self, word: int, side: str, dst: int) -> None:
        self._check_move(word, side, dst)
        matrix, marg, k, assign, idx, vals = self._side(word, side)
        src = int(assign[word])
        t = self.t
        if len(idx):
            src_col = matrix[idx, src]
            dst_col = matrix[idx, dst]
            new_src = src_col - vals
            new_dst = dst_col + vals
            t.n_pos += int((new_dst > 0).sum()) - int((dst_col > 0).sum())
            t.n_pos -= int((new_src == 0).sum())
            t.n_one += int((new_src == 1).sum()) - int((src_col == 1).sum())
            t.n_one += int((new_dst == 1).sum()) - int((dst_col == 1).sum())
            matrix[idx, src] = new_src
            matrix[idx, dst] = new_dst
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
        self.tables = LogTables(discount.b)
        self.tables.ensure(
            max(int(adapt_counts.total_tokens), int(back_counts.total_tokens)) + 2
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
        assign, k, _ = self.assignment(side)
        cm = self.cm
        if side == CATEGORY_SIDE:
            other, n_other = cm.state_of, cm.n_states
            ia, va = _class_profile(self._preds_a.get(word, _EMPTY), other, n_other)
            ib, vb = _class_profile(self._preds_b.get(word, _EMPTY), other, n_other)
            return (
                self.a.pairs, self.bg.pairs, self.a.cat_tot, self.bg.cat_tot,
                k, cm.n_cats, assign, ia, va, ib, vb,
                "n_g",
            )
        other, n_other = cm.category_of, cm.n_cats
        ia, va = _class_profile(self._succs_a.get(word, _EMPTY), other, n_other)
        ib, vb = _class_profile(self._succs_b.get(word, _EMPTY), other, n_other)
        return (
            self.a.pairs.T, self.bg.pairs.T, self.a.state_tot, self.bg.state_tot,
            k, cm.n_states, assign, ia, va, ib, vb,
            "n_s",
        )

    @staticmethod
    def _union_profile(ia, va, ib, vb):
        idx = np.union1d(ia, ib)
        pa = np.zeros(len(idx), dtype=np.int64)
        pb = np.zeros(len(idx), dtype=np.int64)
        pa[np.searchsorted(idx, ia)] = va
        pb[np.searchsorted(idx, ib)] = vb
        return idx, pa, pb

    def candidate_deltas(self, word: int, side: str):
        (MA_full, MB_full, margA, margB, k, n_side, assign,
         ia, va, ib, vb, family) = self._side(word, side)
        if len(ia) == 0 and len(ib) == 0:
            return None
        idx, pa, pb = self._union_profile(ia, va, ib, vb)
        src = int(assign[word])
        cc, tab, b = self.cc, self.tables, self.discount.b
        lam, mu = cc.lam, 1.0 - cc.lam

        # --- removal from the source column ---
        aS = MA_full[idx, src]
        bS = MB_full[idx, src]
        aS2 = aS - pa
        bS2 = bS - pb
        cS_old = round_combined(lam * aS + mu * bS)
        cS_new = round_combined(lam * aS2 + mu * bS2)
        pair_rem = float((aS2 * tab.lnm1b(cS_new)).sum() - (aS * tab.lnm1b(cS_old)).sum())
        d_bi_pos_rem = int((cS_new > 0).sum()) - int((cS_old > 0).sum())
        d_bi_one_rem = int((cS_new == 1).sum()) - int((cS_old == 1).sum())

        uA = int(pa.sum())
        uB = int(pb.sum())
        mA_src = int(margA[src])
        mB_src = int(margB[src])
        cm_src_old = int(round_combined(lam * mA_src + mu * mB_src))
        cm_src_new = int(round_combined(lam * (mA_src - uA) + mu * (mB_src - uB)))
        marg_rem = float(
            (mA_src - uA) * tab.lnm1b(cm_src_new) - mA_src * tab.lnm1b(cm_src_old)
        )
        d_m_pos_rem = int(cm_src_new > 0) - int(cm_src_old > 0)
        d_m_one_rem = int(cm_src_new == 1) - int(cm_src_old == 1)

        # --- insertion into each regular target ---
        MA = MA_full[idx, :k]
        MB = MB_full[idx, :k]
        MAv = MA + pa[:, None]
        MBv = MB + pb[:, None]
        c_old = round_combined(lam * MA + mu * MB)
        c_new = round_combined(lam * MAv + mu * MBv)
        pair_ins = (MAv * tab.lnm1b(c_new)).sum(axis=0) - (MA * tab.lnm1b(c_old)).sum(axis=0)
        d_bi_pos_ins = (c_new > 0).sum(axis=0) - (c_old > 0).sum(axis=0)
        d_bi_one_ins = (c_new == 1).sum(axis=0) - (c_old == 1).sum(axis=0)

        mA_t = margA[:k]
        mB_t = margB[:k]
        cm_t_old = round_combined(lam * mA_t + mu * mB_t)
        cm_t_new = round_combined(lam * (mA_t + uA) + mu * (mB_t + uB))
        marg_ins = (mA_t + uA) * tab.lnm1b(cm_t_new) - mA_t * tab.lnm1b(cm_t_old)
        d_m_pos_ins = (cm_t_new > 0).astype(np.int64) - (cm_t_old > 0).astype(np.int64)
        d_m_one_ins = (cm_t_new == 1).astype(np.int64) - (cm_t_old == 1).astype(np.int64)

        # --- singleton corrections ---
        n_bi_one_new = cc.n_bi_one + d_bi_one_rem + d_bi_one_ins
        n_bi_pos_new = cc.n_bi_pos + d_bi_pos_rem + d_bi_pos_ins
        bi_single_old = _singleton_term(cc.n_bi_one, cc.n_bi_pos, cc.n_cells, b)
        bi_single_new = _singleton_term_vec(n_bi_one_new, n_bi_pos_new, cc.n_cells, b)
        bi_single_new = np.where(n_bi_pos_new <= 1, NEG_INF, bi_single_new)

        if family == "n_g":
            m_one, m_pos = cc.n_g_one, cc.n_g_pos
        else:
            m_one, m_pos = cc.n_s_one, cc.n_s_pos
        m_one_new = m_one + d_m_one_rem + d_m_one_ins
        m_pos_new = m_pos + d_m_pos_rem + d_m_pos_ins
        m_single_old = _singleton_term(m_one, m_pos, n_side, b)
        m_single_new = _singleton_term_vec(m_one_new, m_pos_new, n_side, b)

        deltas = (
            pair_rem + pair_ins
            + (bi_single_new - bi_single_old)
            - (marg_rem + marg_ins)
            - (m_single_new - m_single_old)
        )
        # moves into a degenerate configuration are invalid, not attractive
        bad = np.isneginf(m_single_new) | np.isneginf(bi_single_new)
        deltas = np.where(bad, NEG_INF, deltas)
        if src < k:
            deltas[src] = NEG_INF
        return np.arange(k), deltas

    def best_move(self, word: int, side: str):
        """(target, delta) of the best strictly improving move, else None."""
        return self._best_move(word, side)

    def apply_move(self, word: int, side: str, dst: int) -> None:
        self._check_move(word, side, dst)
        (MA_full, MB_full, margA, margB, k, n_side, assign,
         ia, va, ib, vb, family) = self._side(word, side)
        src = int(assign[word])
        cc = self.cc
        lam, mu = cc.lam, 1.0 - cc.lam
        if len(ia) or len(ib):
            idx, pa, pb = self._union_profile(ia, va, ib, vb)
            for cols, sign in ((src, -1), (dst, +1)):
                aC = MA_full[idx, cols]
                bC = MB_full[idx, cols]
                aN = aC + sign * pa
                bN = bC + sign * pb
                c_old = round_combined(lam * aC + mu * bC)
                c_new = round_combined(lam * aN + mu * bN)
                cc.n_bi_pos += int((c_new > 0).sum()) - int((c_old > 0).sum())
                cc.n_bi_one += int((c_new == 1).sum()) - int((c_old == 1).sum())
                MA_full[idx, cols] = aN
                MB_full[idx, cols] = bN
            uA = int(pa.sum())
            uB = int(pb.sum())
            d_pos = d_one = 0
            for col, sA, sB in ((src, -uA, -uB), (dst, uA, uB)):
                m_old = int(round_combined(lam * margA[col] + mu * margB[col]))
                m_new = int(
                    round_combined(lam * (margA[col] + sA) + mu * (margB[col] + sB))
                )
                d_pos += int(m_new > 0) - int(m_old > 0)
                d_one += int(m_new == 1) - int(m_old == 1)
                margA[col] += sA
                margB[col] += sB
            if family == "n_g":
                cc.n_g_pos += d_pos
                cc.n_g_one += d_one
            else:
                cc.n_s_pos += d_pos
                cc.n_s_one += d_one
        assign[word] = dst


def move_delta(objective, word: int, side: str, src: int, dst: int) -> float:
    """Score change for one move, validated against the current assignment."""
    assign = objective.assignment(side)[0]
    if int(assign[word]) != src:
        raise InvalidMoveError(
            f"word {word} is in cluster {int(assign[word])}, not {src}"
        )
    return objective.move_delta(word, side, dst)
