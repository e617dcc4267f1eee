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

Class counts have one form, the cells bordered by their marginals that
``classmodel.class_counts`` builds; combined, each marginal is rounded on
its own, not summed from the rounded cells.

One engine, ``_Objective``, evaluates and applies moves with or without a
background table, at a weight λ in [0, 1] fixed when it is built.  It holds
each table's class counts, transposed on the state side, so the moving
side's marginal is its last row.  A word's candidates are one
straight-line pass: its profile is projected onto the other side's clusters
once, its total at the marginal's row, and the adaptation block at those
rows is gathered once, as is the background block below λ = 1.  The word
leaves its source column in place and the counts are looked up and reduced;
then the word's counts enter every column in place and the first lookup is
freed before the second, so a pass holds one count block per table and one
complex block at a time.  Each cell count is looked up in a complex table
of the cell log term plus i times the count's packed tally flags, so one
column sum gives both the log sums and the tally change.  The singleton
term comes from a window of its log ratio around the positive tally, less
the term before the move, taken as -0.0 when zero so that no column needs
a mask.  The log tables end at the largest count a pass can gather, the
largest marginal held plus the largest word total; a move that takes a
marginal past it rebuilds them.

At λ = 1 the combined counts are the adaptation counts exactly, so the
engine keeps no background class counts and gathers, moves and looks up the
adaptation block alone, as leave-one-out does.  The background's profile
then only names rows: a pass still sums over the rows either table
touches, which keeps every delta the bits of the two-table pass.
"""

from __future__ import annotations

import math

import numpy as np

from .classmodel import ClusterMap, class_counts
from .corpus import CountTable
from .discounting import Discount
from .errors import ConfigError, InvalidMoveError

NEG_INF = float("-inf")

# The two sides; each names its marginal family.
CATEGORY_SIDE = "category"
STATE_SIDE = "state"

# a count's tally flags, count-one << 32 | positive
_PACKED = 1 << 32


def combine_counts(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """The interpolation ``λ·a + (1−λ)·b`` of nonnegative count arrays,
    rounded to integers, halves up."""
    # the cast truncates, which is the floor for nonnegative values
    return (lam * a + (1.0 - lam) * b + 0.5).astype(np.int64)


def _tallies(c) -> tuple[int, int]:
    """(count-one, positive) members of a family."""
    return int((c == 1).sum()), int((c > 0).sum())


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
    return CountTable(n, keys[keep] // n, keys[keep] % n, c[keep])


def log_table(b: float, n: int, times_n: bool) -> np.ndarray:
    """``ln(N-1-b)``, or ``N ln(N-1-b)`` with ``times_n``, for each count N up
    to ``n``; entries below N=2 are zero so masked sums need no branching.
    Each entry is computed on its own, so a table is the prefix of any
    longer one and can be rebuilt longer without changing a value."""
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


def cell_lookup(b: float, n: int, times_n: bool) -> np.ndarray:
    """The cells' complex table: ``log_table(b, n, times_n)`` plus i times
    each count's packed tally flags, ``(N == 1) << 32 | (N > 0)``, which a
    column sum of up to 2**20 counts keeps exact."""
    table = np.zeros(n + 1, dtype=np.complex128)
    table.real = log_table(b, n, times_n)
    table.imag[1:] = 1.0
    table.imag[1] += _PACKED
    return table


def _singleton_term(n_one: int, n_pos: int, size: int, b: float) -> float:
    """Mass correction for count-one members: n1 * ln(b (n+ - 1) / (n0 + 1))."""
    if n_one == 0:
        return 0.0
    if n_pos <= 1:
        return NEG_INF
    return n_one * math.log(b * (n_pos - 1) / (size - n_pos + 1))


def _add_singleton_change(deltas, one, ratio, now: float) -> None:
    """Add ``one * ratio`` less ``now``, the singleton term after and before
    each move, to ``deltas``.  A zero ``now`` is taken as -0.0, so the ±0.0
    product of a zero ``one`` gives +0.0; ``ratio`` is never -0.0."""
    single = one * ratio
    single -= now or -0.0
    deltas += single


def _family_term(w, c, b: float) -> float:
    """Σ w ln(c-1-b) over the members with c > 1."""
    mask = c > 1
    return float((w[mask] * np.log(c[mask] - 1.0 - b)).sum())


def clustering_score(weights: np.ndarray, combined: np.ndarray, b: float) -> float:
    """The criterion of the ``weights`` class counts on the ``combined`` ones,
    both bordered as ``class_counts`` builds them, with discount ``b``: the
    cells and their singleton term, minus the states and the categories.
    Leave-one-out is ``clustering_score(t, t, b)``.  A table with at most one
    positive combined cell is degenerate and scores -inf."""
    cells = combined[:-1, :-1]
    n_one, n_pos = _tallies(cells)
    single = NEG_INF if n_pos <= 1 else _singleton_term(n_one, n_pos, cells.size, b)
    return (_family_term(weights[:-1, :-1], cells, b) + single
            - _family_term(weights[:-1, -1], combined[:-1, -1], 0.0)
            - _family_term(weights[-1, :-1], combined[-1, :-1], 0.0))


def _word_profiles(counts: CountTable, weighted: bool = True):
    """The contexts before each word and the words after each context, as two
    cluster-independent (start offsets, ids, counts, totals) indexes: word
    x's profile in an index is the slice from ``starts[x]`` to ``starts[x + 1]``.
    The successor index holds the table's own cells, which are sorted by
    context.  An unweighted index holds None for its counts: its profiles and
    totals count a word's neighbours, not their events, and are nonzero alike."""
    context, word, count = counts.cells()

    def index(key, ids, order):
        sizes = np.bincount(key, minlength=counts.vocab_size)
        starts = np.concatenate(([0], np.cumsum(sizes))).tolist()
        totals = np.bincount(key, count, counts.vocab_size).astype(np.int64) if weighted else sizes
        return starts, ids[order], count[order] if weighted else None, totals

    return index(word, context, np.argsort(word, kind="stable")), index(context, word, slice(None))


def _class_profile(index, word: int, assign: np.ndarray, n: int) -> np.ndarray:
    """``word``'s profile in ``index`` on the n clusters of ``assign``, its total at n."""
    starts, ids, cnt, totals = index
    at = slice(starts[word], starts[word + 1])
    weights = None if cnt is None else cnt[at]
    profile = np.bincount(assign[ids[at]], weights=weights, minlength=n + 1).astype(np.int64)
    profile[n] = totals[word]
    return profile


class _Objective:
    """The move engine of the criterion, over the counts being clustered
    and an optional background table, at the weight ``lam`` it is built
    with.  It holds the class counts ``a`` of the counts being clustered,
    those of the background ``bg`` only below λ = 1, and the combined
    cells' ``tallies``, which moves keep exact.  ``_logs`` holds
    the real view of the complex cell table ``_lookup`` and the marginals'
    table, both ending at ``_top``, the largest marginal held, plus
    ``_most``, the largest word total, plus 2; ``apply_move`` rebuilds them
    when a marginal passes ``_top``.  A pass gathers at most one row per
    cluster of the other side, so a move shifts the positive tally by at
    most ``_reach``; ``_window`` holds the singleton log ratio at those
    2·reach + 1 tallies, up to the number of cells, not a float per cell,
    and the term before a move; it is rebuilt only when a move changes the
    tallies.  The last pass, over the adaptation block and below λ = 1 the
    background block, is kept until a move, for ``apply_move`` to reuse.
    ``perfbench/tracing.py`` wraps ``__init__``, ``best_move`` and
    ``apply_move`` from each class's own ``__dict__``, so each subclass
    defines its constructor and aliases the other two in its class body:
    ``best_move = _Objective.best_move``."""

    def __init__(self, counts: CountTable, cm: ClusterMap, discount: Discount,
                 back: CountTable | None = None, lam: float = 1.0):
        self.cm, self.discount, self.lam = cm, discount, float(lam)
        if not 0.0 <= self.lam <= 1.0:  # NaN too
            raise ConfigError(f"weight {lam} outside [0, 1]")
        self.a = class_counts(counts, cm)
        # at full weight the background's counts cannot change a combined one
        self.bg = None if back is None or self.lam == 1.0 else class_counts(back, cm)
        self._pass, self._reach = None, max(cm.n_states, cm.n_cats)
        self._set_tallies(_tallies(self._combined()[:-1, :-1]))
        given = [t for t in (counts, back) if t is not None]
        tables = [t for t in (self.a, self.bg) if t is not None]
        # a table not held only names rows, so its profiles need no counts
        profiles = [_word_profiles(t, i < len(tables)) for i, t in enumerate(given)]
        # per side: the other side's assignment and range, the profile index of
        # each table given, per table held its bordered array with the moving
        # side's clusters as columns, and the targets every pass returns, read-only
        self._sides = {}
        for side, other, n in ((CATEGORY_SIDE, cm.state_of, cm.n_states),
                               (STATE_SIDE, cm.category_of, cm.n_cats)):
            state = side == STATE_SIDE
            index = [p[state] for p in profiles]  # (preds, succs)[state]
            blocks = [t.T if state else t for t in tables]
            targets = np.arange(self.assignment(side)[1])
            targets.flags.writeable = False
            self._sides[side] = (other, n, index, blocks, targets)
        self._most = max(int(i[3].max(initial=0)) for p in profiles[:len(tables)] for i in p)
        self._set_logs()

    def _set_logs(self) -> None:
        """Build the log tables up to the largest count a pass can gather."""
        self._lookup = self._logs = None  # freed first: a rebuild holds one set
        self._top = max(int(t[-1, :-1].max(initial=0)) for s in self._sides.values() for t in s[3])
        largest = self._top + self._most + 2
        # One table's counts are both its weights and its combined counts, so
        # its log tables hold N ln(N-1-b) and a move needs no multiply; the
        # combined counts of two tables are weighted by the first's counts.
        one = self.bg is None
        self._lookup = cell_lookup(self.discount.b, largest, one)
        self._logs = (self._lookup.real, log_table(0.0, largest, one))

    def _set_tallies(self, tallies: tuple[int, int]) -> None:
        """Hold the tallies and ``_window`` (packed - lo, lo, ratio from lo, term)."""
        self.tallies = n_one, n_pos = tallies
        b, size = self.discount.b, self.cm.n_states * self.cm.n_cats
        lo = max(n_pos - self._reach, 0)
        pos = np.arange(lo, min(n_pos + self._reach, size) + 1)
        # both logs take positive arguments, as pos never exceeds the cells
        ratio = math.log(b) + np.log(np.maximum(pos - 1.0, 1e-300)) - np.log((size + 1.0) - pos)
        self._window = (n_one * _PACKED + n_pos - lo, lo, ratio,
                        _singleton_term(n_one, n_pos, size, b))

    def _combined(self) -> np.ndarray:
        """The combined class counts: the adaptation counts alone at λ = 1."""
        return self.a if self.bg is None else combine_counts(self.a, self.bg, self.lam)

    def score(self) -> float:
        return clustering_score(self.a, self._combined(), self.discount.b)

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

    def candidate_deltas(self, word: int, side: str):
        """Score deltas for moving ``word`` to each regular cluster.

        Returns (targets, deltas) or None when the word has no counts on
        that side.  The source cluster's slot is -inf.  The pass is kept for
        an ``apply_move`` of the same word and side.
        """
        self._pass = None  # freed before this pass allocates its own arrays
        other, n, index, blocks, targets = self._sides[side]
        k, look, marg = len(targets), self._lookup, self._logs[1]
        src = int((self.cm.state_of if side == STATE_SIDE else self.cm.category_of)[word])
        xa = _class_profile(index[0], word, other, n)
        xb = _class_profile(index[1], word, other, n) if len(index) > 1 else None
        rows = (xa if xb is None else xa + xb).nonzero()[0]  # either table's, n last
        if not len(rows):
            self._pass = (word, side, src, rows, None, None, None, None)
            return None
        # the adaptation block, and below λ = 1 the background's, at the rows:
        # the word leaves its source first, so no count passes a marginal plus
        # its total, the log tables' reach; then it enters each column
        width, xa = max(k, src + 1), xa[rows]
        ga, gb = blocks[0][rows, :width], None if self.bg is None else blocks[1][rows, :width]
        ga[:, src] -= xa
        if gb is not None:
            xb = xb[rows]
            gb[:, src] -= xb
        # the column sums of each cell count's complex lookup, the source
        # column's log sum and the marginal's log terms; two tables' log terms
        # are weighted by the adaptation counts, their tally flags not
        c = ga if gb is None else combine_counts(ga, gb, self.lam)
        z, m_old = look[c[:-1]], marg[c[-1]]
        if gb is not None:
            np.multiply(z.real, ga[:-1], out=z.real)
            m_old *= ga[-1]
        z_old, t_old = np.add.reduce(z, 0), np.add.reduce(z.real[:, src])
        del c, z  # freed first: a pass holds one complex block at a time
        ga += xa[:, None]
        if gb is not None:
            gb += xb[:, None]
        c = ga if gb is None else combine_counts(ga, gb, self.lam)
        z, m_new = look[c[:-1]], marg[c[-1]]
        if gb is not None:
            np.multiply(z.real, ga[:-1], out=z.real)
            m_new *= ga[-1]
        change, t_new = np.add.reduce(z, 0), np.add.reduce(z.real[:, src])
        # t_old - t_new + change - (m_old[src] - m_new[src]) - (m_new - m_old), in place
        change -= z_old
        deltas = change.real + (t_old - t_new)
        deltas -= m_old[src] - m_new[src]
        deltas -= np.subtract(m_new, m_old, out=m_new)
        base, lo, ratio, single_now = self._window
        packed = change.imag.astype(np.int64)
        packed += base - packed[src]  # the source column holds the removal, reversed
        one, at = packed >> 32, packed & (_PACKED - 1)  # at: the positive tally - lo
        self._pass = (word, side, src, rows, xa, xb, one, at)
        _add_singleton_change(deltas, one, ratio[at], single_now)
        # moves to at most one positive cell are invalid; only lo <= 1 allows one
        if lo <= 1:
            deltas[at <= 1 - lo] = NEG_INF
        deltas[src] = NEG_INF
        return targets, deltas[:k]

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
        assign, k, frozen = self.assignment(side)
        if word in frozen:
            raise InvalidMoveError(f"word {word} is pinned on the {side} side")
        if not 0 <= dst < k:
            raise InvalidMoveError(f"target cluster {dst} outside 0..{k - 1}")
        if dst == int(assign[word]):
            raise InvalidMoveError("target equals current cluster")
        if self._pass is None or self._pass[:2] != (word, side):
            self.candidate_deltas(word, side)
        _, _, src, rows, xa, xb, one, at = self._pass
        self._pass = None
        assign[word] = dst
        if xa is None:  # no counts on this side: no cell or tally moves
            return
        for t, x in zip(self._sides[side][3], (xa, xb)):  # xb below λ = 1 only
            t[rows, src] -= x
            t[rows, dst] += x
            if t[-1, dst] > self._top:
                self._set_logs()  # the next pass could gather past the tables
        tallies = (int(one[dst]), int(at[dst]) + self._window[1])
        if tallies != self.tallies:
            self._set_tallies(tallies)


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
