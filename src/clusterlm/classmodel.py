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

from .artifact import Artifact, finite, id_list, size, word_id
from .corpus import CountTable, Vocabulary
from .discounting import Discount, count_of_counts, discounted_distribution, estimate_discount
from .errors import ConfigError, FormatError

CLUSTERS_MAGIC = "clusterlm-clusters"
CLASSMODEL_MAGIC = "clusterlm-classmodel"
# Section name -> fields per line.
CLASSMODEL_SECTIONS = {
    "\\clusters:": 3, "\\state-bigrams:": 3, "\\state-alphas:": 2,
    "\\category-unigrams:": 2, "\\word-unigrams:": 2,
}


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
    with open(path, "w", encoding="utf-8") as fh:
        head = f"{CLUSTERS_MAGIC} {_map_header(cm)} vocab_md5={vocab.checksum()}"
        if metadata:
            for key in sorted(metadata):
                value = metadata[key]
                head += (
                    f" {key}={float(value)!r}"
                    if isinstance(value, float)
                    else f" {key}={value}"
                )
        fh.write(head + "\n")
        for w in range(cm.vocab_size):
            fh.write(
                f"{vocab.word(w)} {int(cm.state_of[w])} {int(cm.category_of[w])}\n"
            )


def _id_list(ids: Iterable[int]) -> str:
    ids = sorted(ids)
    return ",".join(str(i) for i in ids) if ids else "-"


def _map_header(cm: ClusterMap) -> str:
    """The header fields of a cluster map, as ``_read_map`` reads them."""
    return (
        f"vocab_size={cm.vocab_size} n_states={cm.n_states} n_cats={cm.n_cats} "
        f"k_states={cm.k_states} k_cats={cm.k_cats} "
        f"frozen_states={_id_list(cm.frozen_states)} "
        f"frozen_cats={_id_list(cm.frozen_cats)}"
    )


def _read_map(art: Artifact, lines) -> ClusterMap:
    """The map from the header of ``art`` and ``(word id, state, category)``
    lines, which must cover every word exactly once."""
    n, n_states, n_cats = (art.field(k, size) for k in ("vocab_size", "n_states", "n_cats"))
    state_of = np.full(n, -1, dtype=np.int64)
    category_of = np.full(n, -1, dtype=np.int64)
    for w, s, g in lines:
        if state_of[w] >= 0:
            raise ValueError(f"word {w} listed twice")
        state_of[w] = word_id(s, n_states)
        category_of[w] = word_id(g, n_cats)
    if (state_of < 0).any():
        raise ValueError("clusters do not cover the vocabulary")
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

    def wid(word: str) -> int:
        if word not in vocab:
            raise ValueError(f"unknown word {word!r}")
        return vocab.ids[word]

    with Artifact(path, CLUSTERS_MAGIC, "cluster", columns=3) as art:
        vocab_size = art.field("vocab_size", size)
        if vocab_size != len(vocab):
            raise FormatError(
                f"{path}: cluster file is for a {vocab_size}-word vocabulary, "
                f"got {len(vocab)} words"
            )
        cm = _read_map(art, ((wid(w), s, g) for _, (w, s, g) in art))
    return cm, art.fields


class ClassModel:
    """Estimated class bigram model over a fixed clustering.

    It stores the file's numbers: log10 state-bigram cells ``pair_lp`` (-inf
    if unseen), state weights ``state_alpha`` on the log10 category fallback
    ``cat_lp`` (-inf on empty categories), and log10 p(w|g) ``word_lp``.  It
    derives p(g|s) = 10**pair_lp + state_alpha * 10**cat_lp once, with
    Python's pow per value, which ``np.power`` does not match in every bit.
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

    def class_given_state(self, s: int, g: int) -> float:
        return self.class_p[s, g]

    def prob(self, context: int, w: int) -> float:
        return self.class_p[self.cm.state_of[context], self.cm.category_of[w]] * self.word_p[w]

    def save(self, path: str | Path) -> None:
        cm = self.cm
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{CLASSMODEL_MAGIC} label={self.label} {_map_header(cm)} "
                f"b_pairs={self.b_pairs!r} b_cats={self.b_cats!r} "
                f"b_words={self.b_words!r} vocab_md5={self.vocab_md5}\n"
            )
            fh.write("\\clusters:\n")
            for w in range(cm.vocab_size):
                fh.write(f"{w} {int(cm.state_of[w])} {int(cm.category_of[w])}\n")
            fh.write("\\state-bigrams:\n")
            s_ids, g_ids = np.nonzero(self.pair_lp > -np.inf)
            lps = self.pair_lp[s_ids, g_ids].tolist()
            for s, g, lp in zip(s_ids.tolist(), g_ids.tolist(), lps):
                fh.write(f"{s} {g} {lp!r}\n")
            fh.write("\\state-alphas:\n")
            for s, alpha in enumerate(self.state_alpha.tolist()):
                fh.write(f"{s} {alpha!r}\n")
            fh.write("\\category-unigrams:\n")
            for g in np.flatnonzero(self.cat_lp > -np.inf).tolist():
                fh.write(f"{g} {float(self.cat_lp[g])!r}\n")
            fh.write("\\word-unigrams:\n")
            for w, lp in enumerate(self.word_lp.tolist()):
                fh.write(f"{w} {lp!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "ClassModel":
        with Artifact(
            path, CLASSMODEL_MAGIC, "class model", sections=CLASSMODEL_SECTIONS
        ) as art:
            n, n_states, n_cats = (
                art.field(k, size) for k in ("vocab_size", "n_states", "n_cats")
            )
            clusters = []
            s_ids, g_ids, pair_lps = [], [], []
            keyed = {
                "\\state-alphas:": ([], [], n_states),
                "\\category-unigrams:": ([], [], n_cats),
                "\\word-unigrams:": ([], [], n),
            }
            for section, parts in art:
                if section == "\\clusters:":
                    clusters.append((word_id(parts[0], n), parts[1], parts[2]))
                elif section == "\\state-bigrams:":
                    s_ids.append(word_id(parts[0], n_states))
                    g_ids.append(word_id(parts[1], n_cats))
                    pair_lps.append(finite(parts[2]))
                else:
                    ids, values, bound = keyed[section]
                    ids.append(word_id(parts[0], bound))
                    values.append(finite(parts[1]))
            pair_lp = _dense((n_states, n_cats), (s_ids, g_ids), pair_lps)
            alphas, cat_lp, word_lp = (
                _dense(bound, ids, values) for ids, values, bound in keyed.values()
            )
            if not ((alphas > -np.inf).all() and (word_lp > -np.inf).all()):
                raise ValueError("state alphas or word unigrams incomplete")
            cm = _read_map(art, clusters)
            nonempty = np.bincount(cm.category_of, minlength=n_cats) > 0
            if not np.array_equal(cat_lp > -np.inf, nonempty):
                raise ValueError("category unigrams do not match the nonempty categories")
            return cls(
                cm, pair_lp, alphas, cat_lp, word_lp,
                art.field("b_pairs", finite), art.field("b_cats", finite),
                art.field("b_words", finite),
                vocab_md5=art.field("vocab_md5", default=""),
                label=art.field("label", default="class"),
            )


def _dense(shape, ids, values: list[float]) -> np.ndarray:
    """The -inf array of ``shape`` holding finite ``values`` at distinct ``ids``."""
    a = np.full(shape, -np.inf)
    a[ids] = values
    if np.count_nonzero(a > -np.inf) != len(values):
        raise ValueError("duplicate entry")
    return a


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
    cat_lp = _dense(n_cats, nonempty, [math.log10(x) for x in q[nonempty].tolist()])

    # State cells, and the mass they leave to the fallback: all for no counts.
    total = pairs.sum(axis=1)
    s_ids, g_ids = np.nonzero(pairs)
    cells = (pairs[s_ids, g_ids] - b_pairs.b) / total[s_ids]
    pair_lp = _dense(pairs.shape, (s_ids, g_ids), [math.log10(x) for x in cells.tolist()])
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
