"""Corpus ingestion: vocabulary construction and sparse bigram/unigram counting.

Corpora are UTF-8 plain text, one sentence per line, tokens separated by
whitespace.  Sentences are framed with begin/end markers at counting time;
out-of-vocabulary tokens map to a reserved unknown token.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifact import Artifact, put, size, word_id
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
    """Yield the token sequence of each nonblank line of a corpus file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = tokenize_line(line)
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
        for w in entries[3:]:
            if w in vocab.ids:
                raise FormatError(f"{path}: duplicate vocabulary entry {w!r}")
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


class CountTable:
    """Sparse unigram/bigram event counts over a fixed vocabulary.

    ``rows[v][w]`` is the number of times word ``w`` followed context ``v``.
    ``unigram[w]`` counts predicted positions (every token including the end
    marker, never the begin marker).  Every way of building a table keeps
    ``unigram`` equal to the column sums of the bigram cells, and estimation
    relies on it: it reads word counts from ``unigram``.

    ``cells()`` is the one array form of the table.  Every class-level and
    numeric consumer reads it; only ingestion, the file format and per-context
    model building walk ``rows``.
    """

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self.rows: dict[int, dict[int, int]] = {}
        self.unigram = np.zeros(vocab_size, dtype=np.int64)
        self.total_tokens = 0

    def add_bigram(self, v: int, w: int, count: int = 1) -> None:
        row = self.rows.setdefault(v, {})
        row[w] = row.get(w, 0) + count
        self.unigram[w] += count
        self.total_tokens += count

    def bigram(self, v: int, w: int) -> int:
        return self.rows.get(v, {}).get(w, 0)

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(context, word, count) int64 arrays of the bigrams, row by row.

        Counting, loading and combining store positive counts only."""
        rows = self.rows.values()
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        n = int(lengths.sum())
        context = np.repeat(np.fromiter(self.rows, dtype=np.int64, count=len(rows)), lengths)
        word = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=n)
        count = np.fromiter(
            chain.from_iterable(row.values() for row in rows), dtype=np.int64, count=n
        )
        return context, word, count

    @classmethod
    def from_cells(cls, vocab_size: int, context, word, count) -> "CountTable":
        """The table of the given bigrams, the inverse of ``cells``: each
        (context, word) pair appears at most once."""
        table = cls(vocab_size)
        rows = table.rows
        for v, w, c in zip(context.tolist(), word.tolist(), count.tolist()):
            rows.setdefault(v, {})[w] = c
        np.add.at(table.unigram, word, count)
        table.total_tokens = int(count.sum())
        return table

    def nonzero_bigrams(self) -> Iterator[tuple[int, int, int]]:
        for v in sorted(self.rows):
            row = self.rows[v]
            for w in sorted(row):
                yield v, w, row[w]

    def save(self, path: str | Path, vocab_md5: str) -> None:
        """Header line, then ``v w count`` lines sorted by (v, w)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"{COUNTS_MAGIC} vocab_size={self.vocab_size} "
                f"total_tokens={self.total_tokens} vocab_md5={vocab_md5}\n"
            )
            for v, w, c in self.nonzero_bigrams():
                fh.write(f"{v} {w} {c}\n")

    @classmethod
    def load(cls, path: str | Path) -> tuple["CountTable", str]:
        """Read a count file; returns the table and the embedded vocab checksum."""
        with Artifact(path, COUNTS_MAGIC, "count", columns=3) as art:
            n = art.field("vocab_size", size)
            declared_total = art.field("total_tokens", size)
            vocab_md5 = art.field("vocab_md5")
            table = cls(n)
            rows = table.rows
            unigram: dict[int, int] = {}
            for _, (v, w, c) in art:
                w, c = word_id(w, n), int(c)
                if c <= 0:
                    raise ValueError("nonpositive count")
                put(rows.setdefault(word_id(v, n), {}), w, c)
                unigram[w] = unigram.get(w, 0) + c
            table.unigram[list(unigram)] = list(unigram.values())
            table.total_tokens = sum(unigram.values())
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
    table = CountTable(len(vocab))
    rows = table.rows
    unigram = table.unigram
    total = 0
    for sent in corpus:
        ids = sentence_ids(sent, vocab)
        for v, w in zip(ids, ids[1:]):
            row = rows.setdefault(v, {})
            row[w] = row.get(w, 0) + 1
            unigram[w] += 1
            total += 1
    table.total_tokens = total
    return table
