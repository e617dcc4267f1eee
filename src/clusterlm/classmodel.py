"""Two-factor class bigram model: cluster maps, estimation, and querying.

The model factors p(w | context) into p(class-of-w | state-of-context) times
p(w | class-of-w).  Both mapping functions are plain arrays over word ids.
The context side is specialized to the single preceding word, so states and
categories both partition the vocabulary.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifact import Artifact, dense, finite, id_list, size, write
from .corpus import CountTable, Vocabulary
from .discounting import Discount, count_of_counts, discounted_distribution, estimate_discount
from .errors import ConfigError, FormatError

CLUSTERS_MAGIC = "clusterlm-clusters"
CLASSMODEL_MAGIC = "clusterlm-classmodel"


class ClusterMap:
    """State and category assignments for every word id.

    ``n_states``/``n_cats`` are the full cluster ranges of the count tables;
    ``k_states``/``k_cats`` bound the ids regular words may move between.
    Clusters in the gap are dedicated to frozen tokens: the begin marker owns
    the extra state, the end and unknown markers own the extra categories.
    """

    def __init__(
        self,
        state_of: Iterable[int],
        category_of: Iterable[int],
        n_states: int,
        n_cats: int,
        k_states: int | None = None,
        k_cats: int | None = None,
        frozen_states: Iterable[int] = (),
        frozen_cats: Iterable[int] = (),
    ):
        self.state_of = np.array(state_of, dtype=np.int64)
        self.category_of = np.array(category_of, dtype=np.int64)
        if self.state_of.shape != self.category_of.shape:
            raise ConfigError("state and category maps must cover the same words")
        self.n_states = n_states
        self.n_cats = n_cats
        self.k_states = n_states if k_states is None else k_states
        self.k_cats = n_cats if k_cats is None else k_cats
        self.frozen_states = frozenset(frozen_states)
        self.frozen_cats = frozenset(frozen_cats)
        if self.state_of.size and (
            self.state_of.max() >= n_states or self.category_of.max() >= n_cats
        ):
            raise ConfigError("cluster id out of range")
        if not (1 <= self.k_states <= n_states and 1 <= self.k_cats <= n_cats):
            raise ConfigError(
                f"movable clusters k_states={self.k_states}, k_cats={self.k_cats} "
                f"outside 1..{n_states}, 1..{n_cats}"
            )
        if any(not 0 <= w < self.vocab_size for w in self.frozen_states | self.frozen_cats):
            raise ConfigError("frozen word id outside the vocabulary")

    @property
    def vocab_size(self) -> int:
        return len(self.state_of)

    def copy(self) -> "ClusterMap":
        return ClusterMap(
            self.state_of.copy(),
            self.category_of.copy(),
            self.n_states,
            self.n_cats,
            self.k_states,
            self.k_cats,
            self.frozen_states,
            self.frozen_cats,
        )

    def same_assignments(self, other: "ClusterMap") -> bool:
        return (
            self.n_states == other.n_states
            and self.n_cats == other.n_cats
            and bool(np.array_equal(self.state_of, other.state_of))
            and bool(np.array_equal(self.category_of, other.category_of))
        )


def class_bigrams(counts: CountTable, cm: ClusterMap) -> np.ndarray:
    """The word bigram counts projected onto (state, category) cells."""
    if counts.vocab_size != cm.vocab_size:
        raise ConfigError("counts and cluster map disagree on vocabulary size")
    context, word, count = counts.cells()
    pairs = np.zeros((cm.n_states, cm.n_cats), dtype=np.int64)
    np.add.at(pairs, (cm.state_of[context], cm.category_of[word]), count)
    return pairs


def init_clustering(
    counts: CountTable, k_states: int, k_cats: int, vocab: Vocabulary
) -> ClusterMap:
    """Deterministic frequency-based initialization.

    Regular words are sorted by descending unigram count (ties break on the
    word string); the top k-1 become singleton clusters 0..k-2 and everything
    else starts in the shared cluster k-1, independently on each side.
    Reserved tokens take the dedicated clusters appended after the regular
    range: the begin marker gets state k_states, the end and unknown markers
    get categories k_cats and k_cats+1.
    """
    if k_states < 2 or k_cats < 2:
        raise ConfigError("need at least 2 clusters per side")
    vocab_size = len(vocab)
    if counts.vocab_size != vocab_size:
        raise ConfigError("counts and vocabulary disagree on size")
    eligible = [w for w in range(vocab_size) if w >= 3]
    if k_states > len(eligible) or k_cats > len(eligible):
        raise ConfigError(
            f"cluster count exceeds the {len(eligible)} clusterable words"
        )
    order = sorted(eligible, key=lambda w: (-int(counts.unigram[w]), vocab.word(w)))

    state_of = np.empty(vocab_size, dtype=np.int64)
    category_of = np.empty(vocab_size, dtype=np.int64)
    for rank, w in enumerate(order):
        state_of[w] = rank if rank < k_states - 1 else k_states - 1
        category_of[w] = rank if rank < k_cats - 1 else k_cats - 1
    state_of[vocab.bos_id] = k_states
    state_of[vocab.eos_id] = k_states - 1
    state_of[vocab.unk_id] = k_states - 1
    category_of[vocab.bos_id] = k_cats - 1
    category_of[vocab.eos_id] = k_cats
    category_of[vocab.unk_id] = k_cats + 1

    return ClusterMap(
        state_of,
        category_of,
        n_states=k_states + 1,
        n_cats=k_cats + 2,
        k_states=k_states,
        k_cats=k_cats,
        frozen_states={vocab.bos_id},
        frozen_cats={vocab.eos_id, vocab.unk_id},
    )


def save_clusters(
    path: str | Path,
    vocab: Vocabulary,
    cm: ClusterMap,
    metadata: dict[str, object] | None = None,
) -> None:
    """Write `word state_id category_id` lines under a provenance header."""
    fields = {**_map_fields(cm), "vocab_md5": vocab.checksum()}
    fields.update(sorted((metadata or {}).items()))
    words = np.array(vocab.entries[:cm.vocab_size], dtype=object)
    write(path, CLUSTERS_MAGIC, fields, [(None, (words, cm.state_of, cm.category_of))])


def _map_fields(cm: ClusterMap) -> dict:
    """The header fields of a cluster map, as ``_read_map`` reads them."""
    return {"vocab_size": cm.vocab_size, "n_states": cm.n_states, "n_cats": cm.n_cats,
            "k_states": cm.k_states, "k_cats": cm.k_cats,
            "frozen_states": cm.frozen_states, "frozen_cats": cm.frozen_cats}


def _read_map(art: Artifact, n: int, n_states: int, n_cats: int, words: np.ndarray,
              states: np.ndarray, categories: np.ndarray) -> ClusterMap:
    """The map of ``n`` words on ``n_states``/``n_cats`` clusters, the rest of
    its header in ``art``, from the (word id, state, category) columns, in
    range, which must cover every word exactly once.  No side has more
    clusters than words: ``init_clustering`` never makes such a map."""
    if max(n_states, n_cats) > n:
        raise ValueError(f"{n_states} states and {n_cats} categories for {n} words")
    listed = np.bincount(words, minlength=n)
    if (listed > 1).any():
        raise ValueError(f"word {int(np.argmax(listed > 1))} listed twice")
    if (listed == 0).any():
        raise ValueError("clusters do not cover the vocabulary")
    state_of = np.empty(n, dtype=np.int64)
    category_of = np.empty(n, dtype=np.int64)
    state_of[words], category_of[words] = states, categories
    try:
        return ClusterMap(
            state_of, category_of, n_states, n_cats,
            art.field("k_states", size), art.field("k_cats", size),
            art.field("frozen_states", id_list), art.field("frozen_cats", id_list),
        )
    except ConfigError as exc:  # a bad header: reported as a malformed file
        raise ValueError(str(exc)) from exc


def load_clusters(
    path: str | Path, vocab: Vocabulary
) -> tuple[ClusterMap, dict[str, str]]:
    """Read a cluster file; returns the map and the header fields."""
    with Artifact(path, CLUSTERS_MAGIC, "cluster") as art:
        vocab_size, n_states, n_cats = (
            art.field(k, size) for k in ("vocab_size", "n_states", "n_cats")
        )
        if vocab_size != len(vocab):
            raise FormatError(
                f"{path}: cluster file is for a {vocab_size}-word vocabulary, "
                f"got {len(vocab)} words"
            )
        words, states, categories = art.body((str, n_states, n_cats))
        ids = np.array([vocab.ids.get(w, -1) for w in words.tolist()], dtype=np.int64)
        if (ids < 0).any():
            raise ValueError(f"unknown word {words[np.argmax(ids < 0)]!r}")
        cm = _read_map(art, vocab_size, n_states, n_cats, ids, states, categories)
    return cm, art.fields


class ClassModel:
    """Estimated class bigram model over a fixed clustering.

    It stores the file's numbers: log10 state-bigram cells ``pair_lp`` (-inf
    if unseen), state weights ``state_alpha`` on the log10 category fallback
    ``cat_lp`` (-inf on empty categories), and log10 p(w|g) ``word_lp``.  It
    derives p(g|s) = 10**pair_lp + state_alpha * 10**cat_lp once, with
    Python's pow per value, which ``np.power`` does not match in every bit.
    ``probs(contexts, words)`` gives p(w|v) for each pair of two id arrays;
    ``prob`` is the same lookup, named for one pair of ids.
    """

    def __init__(
        self,
        cm: ClusterMap,
        pair_lp: np.ndarray,
        state_alpha: np.ndarray,
        cat_lp: np.ndarray,
        word_lp: np.ndarray,
        b_pairs: float,
        b_cats: float,
        b_words: float,
        vocab_md5: str = "",
        label: str = "class",
    ):
        self.cm = cm
        self.pair_lp = pair_lp
        self.state_alpha = state_alpha
        self.cat_lp = cat_lp
        self.word_lp = word_lp
        self.b_pairs = b_pairs
        self.b_cats = b_cats
        self.b_words = b_words
        self.vocab_md5 = vocab_md5
        self.label = label
        seen, nonempty = pair_lp > -np.inf, cat_lp > -np.inf
        q = np.zeros(cat_lp.shape)
        q[nonempty] = [10.0 ** x for x in cat_lp[nonempty].tolist()]
        self.class_p = np.multiply.outer(state_alpha, q)
        self.class_p[seen] += [10.0 ** x for x in pair_lp[seen].tolist()]
        self.word_p = np.power(10.0, word_lp)

    @property
    def vocab_size(self) -> int:
        return self.cm.vocab_size

    def probs(self, contexts: np.ndarray, words: np.ndarray) -> np.ndarray:
        states, cats = self.cm.state_of[contexts], self.cm.category_of[words]
        return self.class_p[states, cats] * self.word_p[words]

    prob = probs

    def save(self, path: str | Path) -> None:
        cm = self.cm
        s_ids, g_ids = np.nonzero(self.pair_lp > -np.inf)
        cats = np.flatnonzero(self.cat_lp > -np.inf)
        write(path, CLASSMODEL_MAGIC,
              {"label": self.label, **_map_fields(cm), "b_pairs": self.b_pairs,
               "b_cats": self.b_cats, "b_words": self.b_words, "vocab_md5": self.vocab_md5},
              [("\\clusters:", (np.arange(cm.vocab_size), cm.state_of, cm.category_of)),
               ("\\state-bigrams:", (s_ids, g_ids, self.pair_lp[s_ids, g_ids])),
               ("\\state-alphas:", (np.arange(self.state_alpha.size), self.state_alpha)),
               ("\\category-unigrams:", (cats, self.cat_lp[cats])),
               ("\\word-unigrams:", (np.arange(self.word_lp.size), self.word_lp))])

    @classmethod
    def load(cls, path: str | Path) -> "ClassModel":
        with Artifact(path, CLASSMODEL_MAGIC, "class model") as art:
            n, n_states, n_cats = (
                art.field(k, size) for k in ("vocab_size", "n_states", "n_cats")
            )
            s = art.sections({
                "\\clusters:": (n, n_states, n_cats),
                "\\state-bigrams:": (n_states, n_cats, float),
                "\\state-alphas:": (n_states, float),
                "\\category-unigrams:": (n_cats, float),
                "\\word-unigrams:": (n, float),
            })
            # these list every id, so their rows bound the header sizes
            # before any array of such a size exists
            for name, bound in (("\\state-alphas:", n_states), ("\\word-unigrams:", n)):
                if s[name][0].size != bound:
                    raise ValueError(f"expected {bound} lines in {name}")
            cm = _read_map(art, n, n_states, n_cats, *s["\\clusters:"])
            s_ids, g_ids, values = s["\\state-bigrams:"]
            pair_lp = dense((n_states, n_cats), (s_ids, g_ids), values,
                            what="cell in \\state-bigrams:")
            alphas, cat_lp, word_lp = (
                dense(bound, *s[name], what=f"id in {name}") for name, bound in (
                    ("\\state-alphas:", n_states), ("\\category-unigrams:", n_cats),
                    ("\\word-unigrams:", n))
            )
            nonempty = np.bincount(cm.category_of, minlength=n_cats) > 0
            if not np.array_equal(cat_lp > -np.inf, nonempty):
                raise ValueError("\\category-unigrams: do not match the nonempty categories")
            return cls(
                cm, pair_lp, alphas, cat_lp, word_lp,
                art.field("b_pairs", finite), art.field("b_cats", finite),
                art.field("b_words", finite),
                vocab_md5=art.field("vocab_md5", default=""),
                label=art.field("label", default="class"),
            )


def estimate_class_model(
    counts: CountTable,
    cm: ClusterMap,
    discount: Discount | None = None,
    vocab_md5: str = "",
    label: str = "class",
) -> ClassModel:
    """Estimate the two factors from bigram counts under a fixed clustering.

    Every quantity is derived from the bigram cells, so the same code serves
    plain and interpolated count tables; the word counts are the unigram,
    which every table keeps equal to the cells' column sums.  With
    ``discount`` unset, separate discounts are estimated for the class
    transition cells, the category totals, and the word counts.
    """
    n_states, n_cats = cm.n_states, cm.n_cats
    pairs = class_bigrams(counts, cm)
    word_weight = counts.unigram
    cat_tot = pairs.sum(axis=0)
    cat_size = np.bincount(cm.category_of, minlength=n_cats)
    nonempty = np.flatnonzero(cat_size)
    if not nonempty.size:
        raise ConfigError("cannot estimate a model over an empty vocabulary")

    b_pairs = discount or estimate_discount(count_of_counts(pairs))
    b_cats = discount or estimate_discount(count_of_counts(cat_tot))
    b_words = discount or estimate_discount(count_of_counts(word_weight))

    # Category fallback: discounted category unigram over nonempty categories.
    uniform_cats = np.zeros(n_cats)
    uniform_cats[nonempty] = 1.0 / len(nonempty)
    q = discounted_distribution(cat_tot, b_cats, uniform_cats)
    # math.log10 per value, which np.log10 does not match in the last bit
    cat_lp = dense(n_cats, nonempty, [math.log10(x) for x in q[nonempty].tolist()])

    # State cells, and the mass they leave to the fallback: all for no counts.
    total = pairs.sum(axis=1)
    s_ids, g_ids = np.nonzero(pairs)
    cells = (pairs[s_ids, g_ids] - b_pairs.b) / total[s_ids]
    pair_lp = dense(pairs.shape, (s_ids, g_ids), [math.log10(x) for x in cells.tolist()])
    state_alpha = np.ones(n_states)
    np.divide(b_pairs.b * np.count_nonzero(pairs, axis=1), total,
              out=state_alpha, where=total > 0)

    word_lp = np.zeros(cm.vocab_size)
    for ids in np.split(np.argsort(cm.category_of, kind="stable"), np.cumsum(cat_size)[:-1]):
        if ids.size:
            uniform = np.full(ids.size, 1.0 / ids.size)
            word_lp[ids] = np.log10(discounted_distribution(word_weight[ids], b_words, uniform))

    return ClassModel(
        cm, pair_lp, state_alpha, cat_lp, word_lp,
        b_pairs.b, b_cats.b, b_words.b, vocab_md5=vocab_md5, label=label,
    )
