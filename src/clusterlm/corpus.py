"""Corpus ingestion: vocabulary construction and sparse bigram/unigram counting.

Corpora are UTF-8 plain text, one sentence per line, tokens separated by
whitespace.  Sentences are framed with begin/end markers at counting time;
out-of-vocabulary tokens map to a reserved unknown token.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifact import Artifact, size
from .errors import ConfigError, FormatError

UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
RESERVED_TOKENS = (UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

COUNTS_MAGIC = "clusterlm-counts"


def tokenize_line(text: str) -> list[str]:
    """Split one line into tokens on whitespace; no other normalization."""
    return text.split()


def read_sentences(path: str | Path) -> Iterator[list[str]]:
    """Yield the token sequence of each nonblank line of a corpus file.

    Counting frames every sentence with the begin and end markers itself, so
    a line that holds one is rejected: it would be counted twice."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = tokenize_line(line)
            # the substring test is cheap; only a line that passes it needs the token test
            if BOS_TOKEN in line or EOS_TOKEN in line:
                for tok in toks:
                    if tok in (BOS_TOKEN, EOS_TOKEN):
                        raise FormatError(
                            f"{path}:{lineno}: corpus token {tok!r} is a sentence "
                            "marker, which counting adds itself"
                        )
            if toks:
                yield toks


class Vocabulary:
    """Bidirectional word/id map with reserved unknown and boundary tokens.

    Ids are dense, reserved tokens come first (unk=0, bos=1, eos=2) and the
    remaining ids follow insertion order.
    """

    def __init__(self, words: Iterable[str] = ()):
        self.entries: list[str] = list(RESERVED_TOKENS)
        self.ids: dict[str, int] = {w: i for i, w in enumerate(self.entries)}
        for w in words:
            self.add(w)

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.ids

    def add(self, word: str) -> int:
        """Add a word if absent; return its id."""
        wid = self.ids.get(word)
        if wid is None:
            wid = len(self.entries)
            self.ids[word] = wid
            self.entries.append(word)
        return wid

    def lookup(self, word: str) -> int:
        """Return the id of ``word``, or the unknown id if out of vocabulary."""
        return self.ids.get(word, 0)

    def word(self, wid: int) -> str:
        return self.entries[wid]

    def checksum(self) -> str:
        """MD5 over the ordered word list; embedded in artifact headers."""
        digest = hashlib.md5("\n".join(self.entries).encode("utf-8"))
        return digest.hexdigest()

    def save(self, path: str | Path) -> None:
        """One word per line, line number = id (reserved tokens first)."""
        with open(path, "w", encoding="utf-8") as fh:
            for w in self.entries:
                fh.write(w + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            entries = [line.rstrip("\n") for line in fh]
        if entries[:3] != list(RESERVED_TOKENS):
            raise FormatError(
                f"{path}: vocabulary file must start with the reserved tokens "
                f"{RESERVED_TOKENS}"
            )
        vocab = cls()
        for lineno, w in enumerate(entries[3:], start=4):
            # Tokens come from str.split(), so such an entry could never match.
            if w.split() != [w]:
                raise FormatError(
                    f"{path}:{lineno}: vocabulary entry {w!r} is empty or holds whitespace"
                )
            if w in vocab.ids:
                raise FormatError(f"{path}:{lineno}: duplicate vocabulary entry {w!r}")
            vocab.add(w)
        return vocab


def build_vocabulary(
    adapt_corpus: Iterable[Sequence[str]],
    back_corpus: Iterable[Sequence[str]],
    max_size: int,
) -> Vocabulary:
    """Build the mixed vocabulary: adaptation words first, background fill-up.

    All distinct adaptation words are included (most frequent first when they
    alone exceed ``max_size``), then the most frequent background words not yet
    present until ``max_size`` entries are reached.  Frequency ties break
    lexicographically.  The three reserved tokens count toward ``max_size``.
    """
    if max_size < 4:
        raise ConfigError(f"vocabulary max_size must be at least 4, got {max_size}")

    adapt_freq: Counter[str] = Counter()
    for sent in adapt_corpus:
        adapt_freq.update(sent)
    back_freq: Counter[str] = Counter()
    for sent in back_corpus:
        back_freq.update(sent)
    for tok in RESERVED_TOKENS:
        adapt_freq.pop(tok, None)
        back_freq.pop(tok, None)

    vocab = Vocabulary()
    adapt_order = sorted(adapt_freq, key=lambda w: (-adapt_freq[w], w))
    for w in adapt_order[: max_size - len(vocab)]:
        vocab.add(w)
    if len(vocab) < max_size:
        back_order = sorted(back_freq, key=lambda w: (-back_freq[w], w))
        for w in back_order:
            if len(vocab) >= max_size:
                break
            if w not in vocab:
                vocab.add(w)
    return vocab


def row_tuples(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length arrays as tuples of Python values, converted a
    few thousand at a time: a long table never becomes one list of objects."""
    for lo in range(0, len(columns[0]), 4096):
        yield from zip(*(c[lo:lo + 4096].tolist() for c in columns))


def cell_rows(context: np.ndarray, word: np.ndarray, values: np.ndarray) -> dict:
    """``{context: {word: value}}`` of cells sorted by (context, word)."""
    rows: dict = {}
    for v, w, x in row_tuples(context, word, values):
        rows.setdefault(v, {})[w] = x
    return rows


class CountTable:
    """Sparse unigram/bigram event counts over a fixed vocabulary.

    A table stores its cells: three read-only int64 arrays (context, word,
    count), sorted by (context, word), with positive counts only, which
    ``cells()`` hands out.  Derived from them once: ``unigram[w]``, the
    column sums, which count predicted positions (every token including the
    end marker, never the begin marker), and ``total_tokens``.
    ``rows`` is a ``{context: {word: count}}`` view of the cells, built on
    each access.
    """

    def __init__(self, vocab_size: int, rows: dict[int, dict[int, int]] | None = None):
        """Pack the rows dict that counting gathers.  It is emptied
        row by row, so it is never held whole beside a copy of the cells."""
        cells = tuple(array("q") for _ in range(3))
        context, word, count = cells
        for v in sorted(rows or ()):
            row = rows.pop(v)
            ws = sorted(row)
            context.fromlist([v] * len(ws))
            word.fromlist(ws)
            count.fromlist([row[w] for w in ws])
        self._store(vocab_size, *(np.frombuffer(a, dtype=np.int64) for a in cells))

    def _store(self, vocab_size: int, *cells: np.ndarray) -> None:
        for a in cells:
            a.flags.writeable = False
        self.vocab_size, self._cells = vocab_size, cells
        self.unigram = np.zeros(vocab_size, dtype=np.int64)
        np.add.at(self.unigram, cells[1], cells[2])
        self.total_tokens = int(self.unigram.sum())

    def bigram(self, v: int, w: int) -> int:
        context, word, count = self._cells
        lo, hi = np.searchsorted(context, [v, v + 1]).tolist()
        at = lo + int(np.searchsorted(word[lo:hi], w))
        return int(count[at]) if at < hi and word[at] == w else 0

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored (context, word, count) arrays, not copies."""
        return self._cells

    @classmethod
    def from_cells(cls, vocab_size: int, context, word, count) -> "CountTable":
        """The table of the given bigrams, the inverse of ``cells``: each
        (context, word) pair appears at most once (else ``ValueError``), in
        any order.  Arrays already in order are stored as they are, read-only."""
        context, word, count = (np.asarray(a, dtype=np.int64) for a in (context, word, count))
        key = context * vocab_size + word
        if not (np.diff(key) > 0).all():
            order = np.argsort(key, kind="stable")
            if not np.diff(key[order]).all():
                raise ValueError("duplicate bigram")
            context, word, count = context[order], word[order], count[order]
        table = cls.__new__(cls)
        table._store(vocab_size, context, word, count)
        return table

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        return cell_rows(*self._cells)

    def save(self, path: str | Path, vocab_md5: str) -> None:
        """Header line, then ``v w count`` lines sorted by (v, w)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{COUNTS_MAGIC} vocab_size={self.vocab_size} "
                f"total_tokens={self.total_tokens} vocab_md5={vocab_md5}\n"
            )
            fh.writelines(f"{v} {w} {c}\n" for v, w, c in row_tuples(*self._cells))

    @classmethod
    def load(cls, path: str | Path) -> tuple["CountTable", str]:
        """Read a count file; returns the table and the embedded vocab checksum."""
        with Artifact(path, COUNTS_MAGIC, "count") as art:
            n = art.field("vocab_size", size)
            declared_total = art.field("total_tokens", size)
            vocab_md5 = art.field("vocab_md5")
            context, word, count = art.body((n, n, int))
            if (count <= 0).any():
                raise ValueError("nonpositive count")
            table = cls.from_cells(n, context, word, count)
            if table.total_tokens != declared_total:
                raise ValueError(
                    f"header total_tokens={declared_total} but counts sum "
                    f"to {table.total_tokens}"
                )
        return table, vocab_md5


def sentence_ids(sent: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map one sentence to ids framed as bos, tokens, eos."""
    ids = [vocab.bos_id]
    ids.extend(vocab.lookup(tok) for tok in sent)
    ids.append(vocab.eos_id)
    return ids


def count_events(
    corpus: Iterable[Sequence[str]], vocab: Vocabulary
) -> CountTable:
    """Count framed bigram and unigram events for every sentence of a corpus."""
    rows: dict[int, dict[int, int]] = {}
    sentences = 0
    for sentences, sent in enumerate(corpus, start=1):
        ids = sentence_ids(sent, vocab)
        for v, w in zip(ids, ids[1:]):
            row = rows.setdefault(v, {})
            row[w] = row.get(w, 0) + 1
    table = CountTable(len(vocab), rows)
    # Framing predicts one end marker per sentence and never the begin marker.
    if table.unigram[vocab.bos_id] or table.unigram[vocab.eos_id] != sentences:
        raise ConfigError("a sentence holds a marker, which counting adds itself")
    return table
