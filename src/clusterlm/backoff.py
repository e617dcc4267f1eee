"""Backoff bigram model with absolute discounting, plus fill-up adaptation.

A model keeps log10 probabilities as its canonical values (the same numbers
its file format stores); linear probabilities are derived with Python's
``10.0 ** x`` per value, so that a model and its saved file always agree bit
for bit.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .artifact import Artifact, dense, finite, size, write
from .corpus import CountTable, cell_rows
from .discounting import Discount, discounted_distribution
from .errors import ConfigError

BACKOFF_MAGIC = "clusterlm-backoff"


def _each(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` of each value as a Python float: numpy's pow and log10 differ.
    A few thousand values at a time are Python floats."""
    values = chain.from_iterable(a[lo:lo + 4096].tolist() for lo in range(0, a.size, 4096))
    return np.fromiter(map(fn, values), float, a.size)


_pow10 = partial(pow, 10.0)  # 10.0 ** x


class BackoffModel:
    """Explicit discounted bigrams, per-context backoff masses, unigram tail.

    A model stores the numbers of its file as arrays: the explicit bigrams
    as (``context``, ``word``) cells sorted like ``CountTable.cells()`` with
    their log10 values ``lp``, the mask ``listed`` of the contexts the file
    lists, dense per-context masses ``alpha`` and ``beta``, and the log10
    unigram ``uni_lp``.  ``probs(contexts, words)`` gives p(w|v) for each
    pair of two id arrays: the explicit probability when one is stored.
    Otherwise the word lies in the tail of context v, which has two parts:

    * a word outside ``fill_words`` gets alpha(v) * p_uni(w) / Z(v), where
      Z(v) renormalizes the unigram over the tail words outside
      ``fill_words``;
    * a word in ``fill_words`` gets beta(v) * p_uni(w) / F(v), where F(v)
      renormalizes the unigram over the tail words in ``fill_words``.

    A trained backoff model has no fill words, so its whole tail is the
    first part.  A fill-up model puts the words that only its adaptation
    data saw in the second part (see ``fillup``).  A context the file does
    not list has no explicit bigrams, and its masses give the unigram
    itself.  ``unseen`` records the words the training counts never saw, so
    that fill-up can tell them apart.  ``prob(v, w)`` is the one-pair case
    of ``probs``; ``explicit_lp`` is a ``{context: {word: lp}}`` view.
    """

    def __init__(self, vocab_size: int, b: float, cutoff: int, uni_lp: np.ndarray,
                 cells: tuple, listed: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                 kind: str = "backoff", vocab_md5: str = "",
                 unseen: frozenset[int] = frozenset(), fill_words: frozenset[int] = frozenset()):
        """``cells`` are (context, word, lp) arrays in any order; the contexts
        outside ``listed`` get their masses here."""
        self.vocab_size, self.b, self.cutoff = vocab_size, b, cutoff
        self.kind, self.vocab_md5 = kind, vocab_md5
        self.unseen, self.fill_words = frozenset(unseen), frozenset(fill_words)
        self.uni_lp, self.p_uni = uni_lp, np.power(10.0, uni_lp)
        self.is_fill = np.isin(np.arange(vocab_size), sorted(self.fill_words))
        fill_mass = float(self.p_uni[self.is_fill].sum())
        key = cells[0] * vocab_size + cells[1]
        order = slice(None) if (np.diff(key) > 0).all() else np.argsort(key, kind="stable")
        self._keys = key[order]
        # contiguous: a loader's columns are strided views of its record array
        self.context, self.word, self.lp = (np.ascontiguousarray(a[order]) for a in cells)
        self.p = _each(_pow10, self.lp)
        alpha[~listed], beta[~listed] = 1.0 - fill_mass, fill_mass
        self.listed, self.alpha, self.beta = listed, alpha, beta
        # Z(v), F(v): the group's total minus its explicit words' unigram after v, added
        # in word order (bincount adds in index order; the other group adds exact 0.0s).
        in_fill, uni = self.is_fill[self.word], self.p_uni[self.word]
        self.tail, self.fill_tail = (
            np.maximum(mass - np.bincount(self.context, np.where(g, uni, 0.0), vocab_size), 0.0)
            for mass, g in ((1.0 - fill_mass, ~in_fill), (fill_mass, in_fill))
        )

    @property
    def explicit_lp(self) -> dict[int, dict[int, float]]:
        return cell_rows(self.context, self.word, self.lp)

    def probs(self, contexts: np.ndarray, words: np.ndarray) -> np.ndarray:
        key = contexts * self.vocab_size + words
        at = np.searchsorted(self._keys, key)
        explicit = at < self._keys.size
        explicit[explicit] = self._keys[at[explicit]] == key[explicit]
        p = np.empty(key.shape)
        p[explicit] = self.p[at[explicit]]
        v, w = contexts[~explicit], words[~explicit]
        fill = self.is_fill[w]
        mass = np.where(fill, self.beta[v], self.alpha[v])
        p[~explicit] = mass * self.p_uni[w] / np.where(fill, self.fill_tail[v], self.tail[v])
        return p

    def prob(self, v: int, w: int) -> float:
        return float(self.probs(np.array([v]), np.array([w]))[0])

    def save(self, path: str | Path) -> None:
        listed = np.flatnonzero(self.listed)
        masses = [("\\contexts:", self.alpha)]
        if self.fill_words:
            masses.append(("\\fill-contexts:", self.beta))
        write(path, BACKOFF_MAGIC,
              {"kind": self.kind, "vocab_size": self.vocab_size, "b": self.b,
               "cutoff": self.cutoff, "vocab_md5": self.vocab_md5},
              [("\\bigrams:", (self.context, self.word, self.lp)),
               *((name, (listed, mass[listed])) for name, mass in masses),
               ("\\unigrams:", (np.arange(self.uni_lp.size), self.uni_lp)),
               *((name, (np.array(sorted(ids)),)) for name, ids in
                 (("\\fill-words:", self.fill_words), ("\\unseen:", self.unseen)) if ids)])

    @classmethod
    def load(cls, path: str | Path) -> "BackoffModel":
        with Artifact(path, BACKOFF_MAGIC, "backoff model") as art:
            n = art.field("vocab_size", size)
            s = art.sections(
                {"\\bigrams:": (n, n, float), "\\contexts:": (n, float),
                 "\\fill-contexts:": (n, float), "\\unigrams:": (n, float),
                 "\\fill-words:": (n,), "\\unseen:": (n,)},
                optional=("\\fill-contexts:", "\\fill-words:", "\\unseen:"),
            )
            # it lists every id, so its rows bound n before any array of n exists
            if s["\\unigrams:"][0].size != n:
                raise ValueError(f"expected {n} lines in \\unigrams:")
            alpha, beta, uni_lp = (
                dense(n, *s[name], what=f"id in {name}")
                for name in ("\\contexts:", "\\fill-contexts:", "\\unigrams:")
            )
            id_sets = [s[name][0] for name in ("\\unseen:", "\\fill-words:")]
            unseen, fill_words = (frozenset(a.tolist()) for a in id_sets)
            if len(unseen) + len(fill_words) != sum(a.size for a in id_sets):
                raise ValueError("duplicate word id in \\unseen: or \\fill-words:")
            listed = alpha > -np.inf
            if not np.array_equal(beta > -np.inf, listed & bool(fill_words)):
                raise ValueError("\\fill-contexts: must match \\contexts: and \\fill-words:")
            beta[beta == -np.inf] = 0.0
            mass = np.concatenate((alpha[listed], beta[listed]))
            if ((mass < 0.0) | (mass > 1.0)).any():
                raise ValueError("backoff mass outside [0, 1]")
            model = cls(
                n, art.field("b", finite), art.field("cutoff", size), uni_lp,
                s["\\bigrams:"], listed, alpha, beta,
                kind=art.field("kind", default="backoff"),
                vocab_md5=art.field("vocab_md5", default=""),
                unseen=unseen, fill_words=fill_words,
            )
            if (np.diff(model._keys) == 0).any():
                raise ValueError("duplicate bigram in \\bigrams:")
            if not listed[model.context].all():
                raise ValueError("bigrams after a context \\contexts: does not list")
            total = np.bincount(model.context, model.p, n) + alpha + beta
            off = np.flatnonzero(listed & ~(np.abs(total - 1.0) <= 1e-9))
            if off.size:
                raise ValueError(f"context {off[0]} sums to {float(total[off[0]])!r}, not 1")
        return model


def _unigram_lp(counts: CountTable, discount: Discount) -> np.ndarray:
    uniform = np.full(counts.vocab_size, 1.0 / counts.vocab_size)
    return np.log10(discounted_distribution(counts.unigram, discount, uniform))


def _retained(counts: CountTable, cutoff: int, b: float):
    """The bigrams with count c > cutoff as (context, word, (c - b) / N(v)) arrays, with
    N(v) the count of all bigrams after v; and per context N(v), the number kept, their count."""
    n = counts.vocab_size
    context, word, count = counts.cells()
    total = np.bincount(context, count, n)
    keep = count > cutoff
    context, word, count = context[keep], word[keep], count[keep]
    kept, kept_count = np.bincount(context, minlength=n), np.bincount(context, count, n)
    return (context, word, (count - b) / total[context]), total, kept, kept_count


def train_backoff(
    counts: CountTable, discount: Discount, cutoff: int = 1, vocab_md5: str = ""
) -> BackoffModel:
    """Train a discounted backoff bigram model.

    Bigrams with count <= cutoff are dropped before discounting; their mass
    joins the per-context backoff reserve so every context still sums to one.
    The model records the words the counts never saw, for ``fillup``.
    """
    if counts.total_tokens == 0:
        raise ConfigError("cannot train a backoff model from empty counts")
    if cutoff < 0:
        raise ConfigError(f"cutoff must be nonnegative, got {cutoff}")
    n, b = counts.vocab_size, discount.b
    (context, word, p), total, kept, kept_count = _retained(counts, cutoff, b)
    listed = total > 0
    reserve = np.divide(b * kept + (total - kept_count), total, out=np.zeros(n), where=listed)
    # No tail word left: scale the reserve back into the explicits.
    at_full = (kept == n)[context]
    p[at_full] /= 1.0 - reserve[context[at_full]]
    reserve[kept == n] = 0.0
    return BackoffModel(
        n, b, cutoff, _unigram_lp(counts, discount), (context, word, _each(math.log10, p)),
        listed, reserve, np.zeros(n), vocab_md5=vocab_md5,
        unseen=frozenset(np.flatnonzero(counts.unigram == 0).tolist()),
    )


def fillup(
    adapt_counts: CountTable, background: BackoffModel, discount: Discount
) -> BackoffModel:
    """Adapt a background model by filling around adaptation estimates
    (Besling & Meier 1995).

    Adaptation bigrams with count <= the background's cutoff are dropped
    like in ``train_backoff``.  A context v with retained adaptation bigrams
    keeps their discounted adaptation estimates, and the reserved mass R(v)
    is split between two groups of words in the proportion q(v) that the
    adaptation model's own backoff gives them:

    * the adaptation-only words (seen by the adaptation data, never by the
      background) get R(v) * q(v), shaped by the adaptation unigram, since
      the background's conditional distribution says nothing about them;
    * the other words get R(v) * (1 - q(v)), shaped by the background
      model's conditional distribution renormalized over them.

    Every other context has R(v) = 1 and q(v) = Q, the adaptation unigram's
    mass on the adaptation-only words: it keeps the background distribution
    on the other words, scaled by 1 - Q, and gives each adaptation-only word
    its adaptation unigram probability.  With no adaptation-only words such
    contexts copy the background distribution unchanged.  If the background
    leaves no mass for a group, the reserve goes to the other group, or back
    into the explicit estimates when both are exhausted.
    """
    if adapt_counts.vocab_size != background.vocab_size:
        raise ConfigError("fill-up requires a shared vocabulary")
    if background.fill_words:
        raise ConfigError("fill-up needs a background model without fill words")
    n, b = background.vocab_size, discount.b
    fill = frozenset(w for w in background.unseen if adapt_counts.unigram[w] > 0)
    fill_ids = sorted(fill)
    # Q, and the background unigram's mass on the adaptation-only words:
    # with none, both are 0.0 and the unigram is the background's.
    adapt_uni_lp = _unigram_lp(adapt_counts, discount)
    adapt_uni = np.power(10.0, adapt_uni_lp)
    q_all = float(adapt_uni[fill_ids].sum())
    bg_fill = float(background.p_uni[fill_ids].sum())
    # The unigram of the filled model: the fill of a context that
    # neither corpus saw.
    rest_scale = (1.0 - q_all) / (1.0 - bg_fill)
    uni_lp = background.uni_lp + math.log10(rest_scale)
    uni_lp[fill_ids] = adapt_uni_lp[fill_ids]
    # Background probability per unit unigram mass on each context's tail words.
    bg_alpha = background.alpha
    bg_tail = np.divide(bg_alpha, background.tail, out=np.zeros(n), where=bg_alpha > 0.0)

    (context, word, p), total, kept, kept_count = _retained(adapt_counts, background.cutoff, b)
    filled = kept > 0
    reserve = np.divide(b * kept + total - kept_count, total, out=np.zeros(n), where=filled)
    # Mass each group has left after v: background mass on the other words,
    # adaptation unigram mass on the adaptation-only words.  bincount adds
    # each context's terms one by one in word order.
    at_fill = np.isin(word, fill_ids)
    bg_left = 1.0 - np.bincount(context, background.probs(context, word), n)
    ctx_fill, word_fill = context[at_fill], word[at_fill]
    bg_left -= bg_tail * (bg_fill - np.bincount(ctx_fill, background.p_uni[word_fill], n))
    fill_left = q_all - np.bincount(ctx_fill, adapt_uni[word_fill], n)
    has_fill, has_bg = fill_left > 0.0, bg_left > 0.0
    # q(v): the adaptation backoff's share for the adaptation-only words, or
    # all to the one group with mass left.
    q = np.where(has_fill, 1.0, 0.0)
    both = has_fill & has_bg
    adapt_z = 1.0 - np.bincount(context, adapt_uni[word], n)
    q[both] = np.minimum(fill_left[both] / adapt_z[both], 1.0)
    # Nothing left to shape the fill: renormalize instead.
    renorm = filled & ~has_fill & ~has_bg
    at_renorm = renorm[context]
    p[at_renorm] *= 1.0 / (1.0 - reserve[context[at_renorm]])
    beta = np.where(renorm, 0.0, reserve * q)
    # The scale of the background bigrams a context keeps, 0 where it keeps none.
    spread = filled & ~renorm & (q < 1.0)
    scale, alpha = np.zeros(n), np.zeros(n)
    scale[spread] = reserve[spread] * (1.0 - q[spread]) / bg_left[spread]

    # Every other context the background lists gives Q to the adaptation-only words.
    copied = background.listed & ~filled
    scale[copied] = (1.0 - q_all) / (1.0 - bg_tail[copied] * bg_fill)
    alpha[copied] = scale[copied] * np.maximum(bg_alpha[copied] - bg_tail[copied] * bg_fill, 0.0)
    beta[copied] = q_all
    # The background bigrams kept: all but those the adaptation retained,
    # scaled, or as they are after a context copied with no fill words (a
    # scale of 1); the adaptation's bigrams go in between, in cell order.
    key = context * n + word
    keep = (scale[background.context] > 0.0) & ~np.isin(background._keys, key, assume_unique=True)
    bg_context, lp = background.context[keep], background.lp[keep]
    scaled = ~(copied & (not fill))[bg_context]
    lp[scaled] = _each(math.log10, scale[bg_context[scaled]] * background.p[keep][scaled])
    at = np.searchsorted(background._keys[keep], key)
    cells = (np.insert(bg_context, at, context), np.insert(background.word[keep], at, word),
             np.insert(lp, at, _each(math.log10, p)))
    model = BackoffModel(
        n, b, background.cutoff, uni_lp, cells, filled | background.listed, alpha, beta,
        kind="fillup", vocab_md5=background.vocab_md5,
        unseen=background.unseen - fill, fill_words=fill,
    )
    model.alpha[filled] = scale[filled] * bg_tail[filled] * model.tail[filled] / rest_scale
    return model
