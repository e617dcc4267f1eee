"""Backoff bigram model with absolute discounting, plus fill-up adaptation.

A trained model keeps log10 probabilities as its canonical values (the same
numbers its file format stores); linear probabilities are derived via 10**lp
so that a model and its saved file always agree bit for bit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .artifact import Artifact, finite, put, size, word_id
from .corpus import CountTable
from .discounting import Discount, discounted_distribution
from .errors import ConfigError

BACKOFF_MAGIC = "clusterlm-backoff"
# Section name -> fields per line.
BACKOFF_SECTIONS = {
    "\\bigrams:": 3, "\\contexts:": 2, "\\fill-contexts:": 2,
    "\\unigrams:": 2, "\\fill-words:": 1, "\\unseen:": 1,
}


class BackoffModel:
    """Explicit discounted bigrams, per-context backoff masses, unigram tail.

    A query returns the explicit probability when one is stored.  Otherwise
    the word lies in the tail of context v, which has two parts:

    * a word outside ``fill_words`` gets alpha(v) * p_uni(w) / Z(v), where
      Z(v) renormalizes the unigram over the tail words outside
      ``fill_words``;
    * a word in ``fill_words`` gets beta(v) * p_uni(w) / F(v), where F(v)
      renormalizes the unigram over the tail words in ``fill_words``.

    A trained backoff model has no fill words, so its whole tail is the
    first part.  A fill-up model puts the words that only its adaptation
    data saw in the second part (see ``fillup``).  A context without stored
    masses gives the unigram itself.  ``unseen`` records the words the
    training counts never saw, so that fill-up can tell them apart.
    """

    def __init__(
        self,
        vocab_size: int,
        b: float,
        cutoff: int,
        uni_lp: np.ndarray,
        kind: str = "backoff",
        vocab_md5: str = "",
        unseen: frozenset[int] = frozenset(),
        fill_words: frozenset[int] = frozenset(),
    ):
        self.vocab_size = vocab_size
        self.b = b
        self.cutoff = cutoff
        self.kind = kind
        self.vocab_md5 = vocab_md5
        self.explicit_lp: dict[int, dict[int, float]] = {}
        self.alpha: dict[int, float] = {}
        self.beta: dict[int, float] = {}
        self.unseen = frozenset(unseen)
        self.fill_words = frozenset(fill_words)
        self.uni_lp = uni_lp
        self.p_uni = np.power(10.0, uni_lp)
        # Plain floats for ``prob``: indexing an array costs more per query.
        self._uni = self.p_uni.tolist()
        self.fill_mass = float(self.p_uni[sorted(self.fill_words)].sum())
        self.rest_mass = 1.0 - self.fill_mass
        self._tail_z: dict[int, float] = {}
        self._fill_z: dict[int, float] = {}

    def tail_z(self, v: int) -> float:
        """Unigram mass of the tail words after v outside ``fill_words``."""
        return self._tail_mass(v, False, self._tail_z, self.rest_mass)

    def fill_z(self, v: int) -> float:
        """Unigram mass of the tail words after v in ``fill_words``."""
        return self._tail_mass(v, True, self._fill_z, self.fill_mass)

    def _tail_mass(self, v: int, in_fill: bool, cache: dict, total: float) -> float:
        """Lazy, cached: ``total`` minus the group's explicit words after v."""
        z = cache.get(v)
        if z is None:
            fill = self.fill_words
            row = self.explicit_lp.get(v, ())
            z = max(total - sum(self.p_uni[w] for w in row if (w in fill) == in_fill), 0.0)
            cache[v] = z
        return z

    def prob(self, v: int, w: int) -> float:
        row = self.explicit_lp.get(v)
        if row is not None:
            lp = row.get(w)
            if lp is not None:
                return 10.0 ** lp
        if w in self.fill_words:
            return self.beta.get(v, self.fill_mass) * self._uni[w] / self.fill_z(v)
        return self.alpha.get(v, self.rest_mass) * self._uni[w] / self.tail_z(v)

    def set_explicit(self, v: int, w: int, p: float) -> None:
        self.explicit_lp.setdefault(v, {})[w] = math.log10(p)
        self._tail_z.pop(v, None)
        self._fill_z.pop(v, None)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{BACKOFF_MAGIC} kind={self.kind} vocab_size={self.vocab_size} "
                f"b={self.b!r} cutoff={self.cutoff} vocab_md5={self.vocab_md5}\n"
            )
            fh.write("\\bigrams:\n")
            for v in sorted(self.explicit_lp):
                row = self.explicit_lp[v]
                for w in sorted(row):
                    fh.write(f"{v} {w} {row[w]!r}\n")
            fh.write("\\contexts:\n")
            for v in sorted(self.alpha):
                fh.write(f"{v} {float(self.alpha[v])!r}\n")
            if self.fill_words:
                fh.write("\\fill-contexts:\n")
                for v in sorted(self.beta):
                    fh.write(f"{v} {float(self.beta[v])!r}\n")
            fh.write("\\unigrams:\n")
            for w in range(self.vocab_size):
                fh.write(f"{w} {float(self.uni_lp[w])!r}\n")
            for name, ids in (("fill-words", self.fill_words), ("unseen", self.unseen)):
                if ids:
                    fh.write(f"\\{name}:\n")
                    fh.writelines(f"{w}\n" for w in sorted(ids))

    @classmethod
    def load(cls, path: str | Path) -> "BackoffModel":
        with Artifact(
            path, BACKOFF_MAGIC, "backoff model", sections=BACKOFF_SECTIONS,
            optional=("\\fill-contexts:", "\\fill-words:", "\\unseen:"),
        ) as art:
            n = art.field("vocab_size", size)
            explicit_lp: dict[int, dict[int, float]] = {}
            masses = {"\\contexts:": {}, "\\fill-contexts:": {}}
            uni: dict[int, float] = {}
            id_sets = {"\\unseen:": {}, "\\fill-words:": {}}
            for section, parts in art:
                if section == "\\bigrams:":
                    row = explicit_lp.setdefault(word_id(parts[0], n), {})
                    put(row, word_id(parts[1], n), finite(parts[2]))
                elif section == "\\unigrams:":
                    put(uni, word_id(parts[0], n), finite(parts[1]))
                elif section in id_sets:
                    put(id_sets[section], word_id(parts[0], n), None)
                else:
                    mass = finite(parts[1])
                    if section == "\\fill-contexts:" and not 0.0 <= mass <= 1.0:
                        raise ValueError("fill mass outside [0, 1]")
                    put(masses[section], word_id(parts[0], n), mass)
            if len(uni) != n:
                raise ValueError(f"expected {n} unigram lines, got {len(uni)}")
            model = cls(
                n, art.field("b", finite), art.field("cutoff", size),
                np.array([uni[w] for w in range(n)]),
                kind=art.field("kind", default="backoff"),
                vocab_md5=art.field("vocab_md5", default=""),
                unseen=frozenset(id_sets["\\unseen:"]),
                fill_words=frozenset(id_sets["\\fill-words:"]),
            )
        model.explicit_lp = explicit_lp
        model.alpha = masses["\\contexts:"]
        model.beta = masses["\\fill-contexts:"]
        return model


def _unigram_lp(counts: CountTable, discount: Discount) -> np.ndarray:
    uniform = np.full(counts.vocab_size, 1.0 / counts.vocab_size)
    p = discounted_distribution(counts.unigram, discount, uniform)
    return np.log10(p)


def _unseen_words(counts: CountTable) -> frozenset[int]:
    return frozenset(int(w) for w in np.flatnonzero(counts.unigram == 0))


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
    b = discount.b
    model = BackoffModel(
        counts.vocab_size, b, cutoff, _unigram_lp(counts, discount),
        vocab_md5=vocab_md5, unseen=_unseen_words(counts),
    )
    for v, row in counts.rows.items():
        total = sum(row.values())
        retained = {w: c for w, c in row.items() if c > cutoff}
        if not retained:
            model.alpha[v] = 1.0
            continue
        dropped = total - sum(retained.values())
        reserve = (b * len(retained) + dropped) / total
        if len(retained) == model.vocab_size:
            # No tail word left; scale the reserve back into the explicits.
            for w, c in retained.items():
                model.set_explicit(v, w, (c - b) / total / (1.0 - reserve))
            model.alpha[v] = 0.0
            continue
        for w, c in retained.items():
            model.set_explicit(v, w, (c - b) / total)
        model.alpha[v] = reserve
    return model


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
    b = discount.b
    seen = adapt_counts.unigram > 0
    fill = frozenset(w for w in background.unseen if seen[w])
    bg_uni = background.p_uni
    fill_ids = sorted(fill)
    # Q, and the background unigram's mass on the adaptation-only words.
    if fill:
        adapt_uni_lp = _unigram_lp(adapt_counts, discount)
        adapt_uni = np.power(10.0, adapt_uni_lp)
        q_all = float(adapt_uni[fill_ids].sum())
        bg_fill = float(bg_uni[fill_ids].sum())
        # The unigram of the filled model: the fill of a context that
        # neither corpus saw.
        rest_scale = (1.0 - q_all) / (1.0 - bg_fill)
        uni_lp = background.uni_lp + math.log10(rest_scale)
        uni_lp[fill_ids] = adapt_uni_lp[fill_ids]
    else:
        adapt_uni = None
        q_all = bg_fill = 0.0
        rest_scale = 1.0
        uni_lp = background.uni_lp.copy()
    model = BackoffModel(
        background.vocab_size,
        b,
        background.cutoff,
        uni_lp,
        kind="fillup",
        vocab_md5=background.vocab_md5,
        unseen=background.unseen - fill,
        fill_words=fill,
    )

    def bg_tail(v: int) -> float:
        """Background probability per unit unigram mass on v's tail words."""
        a = background.alpha.get(v, 1.0)
        return a / background.tail_z(v) if a > 0.0 else 0.0

    filled = set()
    for v, row in adapt_counts.rows.items():
        retained = {w: c for w, c in row.items() if c > background.cutoff}
        if not retained:
            continue
        filled.add(v)
        total = sum(row.values())
        reserve = (b * len(retained) + total - sum(retained.values())) / total
        for w, c in retained.items():
            model.set_explicit(v, w, (c - b) / total)

        # Mass each group has left after v: background mass on the other
        # words, adaptation unigram mass on the adaptation-only words.
        ret_fill = [w for w in retained if w in fill]
        bg_remaining = 1.0 - sum(background.prob(v, w) for w in retained)
        bg_remaining -= bg_tail(v) * (bg_fill - sum(bg_uni[w] for w in ret_fill))
        fill_remaining = q_all - sum(adapt_uni[w] for w in ret_fill)
        if fill_remaining > 0.0 and bg_remaining > 0.0:
            adapt_z = 1.0 - sum(adapt_uni[w] for w in retained)
            q = min(fill_remaining / adapt_z, 1.0)
        elif fill_remaining > 0.0:
            q = 1.0
        elif bg_remaining > 0.0:
            q = 0.0
        else:
            # Nothing left to shape the fill; renormalize instead.
            scale = 1.0 / (1.0 - reserve)
            for w, c in retained.items():
                model.set_explicit(v, w, (c - b) / total * scale)
            model.alpha[v] = 0.0
            if fill:
                model.beta[v] = 0.0
            continue
        if fill:
            model.beta[v] = reserve * q
        if q == 1.0:
            model.alpha[v] = 0.0
            continue
        scale = reserve * (1.0 - q) / bg_remaining
        for w, lp in background.explicit_lp.get(v, {}).items():
            if w not in retained:
                model.set_explicit(v, w, scale * 10.0 ** lp)
        model.alpha[v] = scale * bg_tail(v) * model.tail_z(v) / rest_scale

    for v, a in background.alpha.items():
        if v in filled:
            continue
        bg_row = background.explicit_lp.get(v)
        if not fill:
            if bg_row is not None:
                model.explicit_lp[v] = dict(bg_row)
            model.alpha[v] = a
            continue
        tail = bg_tail(v)
        scale = (1.0 - q_all) / (1.0 - tail * bg_fill)
        for w, lp in (bg_row or {}).items():
            model.set_explicit(v, w, scale * 10.0 ** lp)
        model.alpha[v] = scale * (a - tail * bg_fill)
        model.beta[v] = q_all
    return model
