"""Corpus ingestion: vocabulary construction and sparse bigram/unigram counting.

Corpora are UTF-8 plain text, one sentence per line, tokens separated by
whitespace.  Sentences are framed with begin/end markers at counting time;
out-of-vocabulary tokens map to a reserved unknown token.
A corpus reaches the readers (``word_frequencies``, ``build_vocabulary``,
``id_blocks``, ``count_events`` and ``evaluate.perplexity``) as sentences or
as the path of a corpus file.  A file is read in blocks of whole lines
(``artifact.line_blocks``), each split into tokens in one ``str.split`` call;
sentences are taken in chunks.  Either way a block's tokens become ids in one
pass and its sentences are framed with numpy, so no Python step runs per
line or per token.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .artifact import Artifact, line_blocks, row_tuples, size, write
from .errors import ConfigError, FormatError, VocabMismatchError

UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
RESERVED_TOKENS = (UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

COUNTS_MAGIC = "clusterlm-counts"
ID_BLOCK = 1 << 16  # framed ids per block of ``id_blocks``: its pair arrays stay near a megabyte

# Sentences, or the path of a corpus file.
Corpus = Union[Iterable[Sequence[str]], str, os.PathLike]


def tokenize_line(text: str) -> list[str]:
    """Split one line into tokens on whitespace; no other normalization."""
    return text.split()


def _text_blocks(path: str | os.PathLike) -> Iterator[str]:
    """The text of a corpus file in blocks of whole lines.

    Counting frames every sentence with the begin and end markers itself, so
    a line that holds one is rejected: it would be counted twice.  The block
    that holds such a line ends before it, and the next step raises a
    ``FormatError`` that names the line."""
    lineno = 1
    for lines in line_blocks(path):
        text = "".join(lines)
        # the substring test is cheap; only a block that passes it needs the token test
        if BOS_TOKEN in text or EOS_TOKEN in text:
            for at, line in enumerate(lines):
                for tok in tokenize_line(line):
                    if tok in (BOS_TOKEN, EOS_TOKEN):
                        yield "".join(lines[:at])
                        raise FormatError(
                            f"{path}:{lineno + at}: corpus token {tok!r} is a sentence "
                            "marker, which counting adds itself"
                        )
        yield text
        lineno += len(lines)


def read_sentences(path: str | Path) -> Iterator[list[str]]:
    """Yield the token sequence of each nonblank line of a corpus file, a
    block of lines read at a time.  A line that holds a sentence marker
    raises ``FormatError`` once the lines before it are yielded."""
    for text in _text_blocks(path):
        yield from filter(None, map(tokenize_line, text.split("\n")))


def _is_file(corpus: Corpus) -> bool:
    return isinstance(corpus, (str, os.PathLike))


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


def word_frequencies(corpus: Corpus) -> Counter[str]:
    """How often each word occurs in a corpus, the reserved tokens left out."""
    blocks = map(str.split, _text_blocks(corpus)) if _is_file(corpus) else corpus
    freq = Counter(chain.from_iterable(blocks))
    for tok in RESERVED_TOKENS:
        freq.pop(tok, None)
    return freq


def build_vocabulary(
    adapt_corpus: Corpus,
    back_corpus: Corpus | Counter[str],
    max_size: int,
) -> Vocabulary:
    """Build the mixed vocabulary: adaptation words first, background fill-up.

    All distinct adaptation words are included (most frequent first when they
    alone exceed ``max_size``), then the most frequent background words not yet
    present until ``max_size`` entries are reached.  Frequency ties break
    lexicographically.  The three reserved tokens count toward ``max_size``.
    ``back_corpus`` may also be its ``word_frequencies``, so that several
    vocabularies on one background count it once.
    """
    if max_size < 4:
        raise ConfigError(f"vocabulary max_size must be at least 4, got {max_size}")

    adapt_freq = word_frequencies(adapt_corpus)
    back_freq = (back_corpus if isinstance(back_corpus, Counter)
                 else word_frequencies(back_corpus))

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


def _in_order(vocab_size: int, *cells) -> tuple[np.ndarray, ...]:
    """(context, word, count) as int64 arrays sorted by (context, word); a
    repeated pair is a ``ValueError``."""
    context, word, count = (np.asarray(a, dtype=np.int64) for a in cells)
    key = context * vocab_size + word
    if not (np.diff(key) > 0).all():
        order = np.argsort(key, kind="stable")
        if not np.diff(key[order]).all():
            raise ValueError("duplicate bigram")
        context, word, count = context[order], word[order], count[order]
    return context, word, count


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
        """The table of a ``{context: {word: count}}`` dict, in any order."""
        cells = [(v, w, c) for v, row in (rows or {}).items() for w, c in row.items()]
        columns = np.array(cells, dtype=np.int64).reshape(-1, 3).T.copy()
        self._store(vocab_size, *_in_order(vocab_size, *columns))

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
        table = cls.__new__(cls)
        table._store(vocab_size, *_in_order(vocab_size, context, word, count))
        return table

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        return cell_rows(*self._cells)

    def save(self, path: str | Path, vocab_md5: str) -> None:
        """Header line, then ``v w count`` lines sorted by (v, w)."""
        write(path, COUNTS_MAGIC,
              {"vocab_size": self.vocab_size, "total_tokens": self.total_tokens,
               "vocab_md5": vocab_md5},
              [(None, self._cells)])

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary) -> "CountTable":
        """Read a count file, checked against ``vocab`` before its body is read."""
        with Artifact(path, COUNTS_MAGIC, "count") as art:
            n = art.field("vocab_size", size)
            declared_total = art.field("total_tokens", size)
            vocab_md5 = art.field("vocab_md5")
            if vocab_md5 and vocab_md5 != vocab.checksum():
                raise VocabMismatchError(f"{path}: counts were built for a different vocabulary")
            if n != len(vocab):
                raise FormatError(
                    f"{path}: count file is for a {n}-word vocabulary, got {len(vocab)} words")
            context, word, count = art.body((n, n, int))
            if (count <= 0).any():
                raise ValueError("nonpositive count")
            table = cls.from_cells(n, context, word, count)
            if table.total_tokens != declared_total:
                raise ValueError(
                    f"header total_tokens={declared_total} but counts sum "
                    f"to {table.total_tokens}"
                )
        return table


def id_blocks(corpus: Corpus, vocab: Vocabulary) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The framed bigram events of a corpus as (contexts, words) id arrays,
    one pair of arrays per block, in corpus order.

    A sentence frames as the begin marker, its token ids (the unknown id for
    a word outside ``vocab``) and the end marker.  A block is cut at the
    first sentence end, or for a corpus file the first end of a block of
    lines, after ``ID_BLOCK`` framed ids, so its events never cross a
    sentence, and a sentence longer than that makes one longer block."""
    pieces = _line_ids(corpus, vocab) if _is_file(corpus) else _sentence_ids(corpus, vocab)
    parts, framed = [], 0
    for ids, lengths in pieces:
        parts.append((ids, lengths))
        framed += ids.size + 2 * lengths.size
        if framed >= ID_BLOCK:
            yield _frame(parts, vocab)
            framed = 0
    if parts:
        yield _frame(parts, vocab)


def _line_ids(path: str | os.PathLike, vocab: Vocabulary):
    """(token ids, lengths) of the nonblank lines of a corpus file, per
    block of lines."""
    get, unknown = vocab.ids.get, repeat(vocab.unk_id)
    for text in _text_blocks(path):
        # Each line end becomes an end marker, which no line of the file
        # holds as a token, so the markers split the ids into lines.
        tokens = text.replace("\n", f" {EOS_TOKEN} ").split()
        tokens.append(EOS_TOKEN)  # the last line may have no line end
        ids = np.fromiter(map(get, tokens, unknown), np.int64, len(tokens))
        del text, tokens  # not kept while the block is used
        ends = np.flatnonzero(ids == vocab.eos_id)
        lengths = np.diff(ends, prepend=-1) - 1
        yield np.delete(ids, ends), lengths[lengths > 0]


def _sentence_ids(corpus: Iterable[Sequence[str]], vocab: Vocabulary):
    """(token ids, lengths) of the sentences of a corpus, in chunks cut at
    the first sentence end after ``ID_BLOCK`` framed ids."""
    get, unknown, sentences = vocab.ids.get, repeat(vocab.unk_id), iter(corpus)
    while True:
        chunk, framed = [], 0
        for sent in sentences:
            chunk.append(sent)
            framed += len(sent) + 2
            if framed >= ID_BLOCK:
                break
        if not chunk:
            return
        lengths = np.fromiter(map(len, chunk), np.int64, len(chunk))
        tokens = chain.from_iterable(chunk)
        yield np.fromiter(map(get, tokens, unknown), np.int64, lengths.sum()), lengths


def _frame(parts: list, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """The (contexts, words) of the sentences in ``parts``, which it
    empties: each part holds the token ids of its sentences end to end and
    their lengths.  A sentence's contexts are the begin marker and its
    tokens, and its words are its tokens and the end marker."""
    ids, lengths = (np.concatenate(a) for a in zip(*parts))
    parts.clear()
    ends = np.cumsum(lengths)
    return np.insert(ids, ends - lengths, vocab.bos_id), np.insert(ids, ends, vocab.eos_id)


def _merge_runs(keys, counts, used, new_keys, new_counts):
    """Add the sorted distinct ``new_keys`` and their counts to the sorted
    table ``keys[:used]``, ``counts[:used]``, in place; the two buffers
    double when the table outgrows them.  Returns them and the new size."""
    at = np.searchsorted(keys[:used], new_keys)
    hit = at < used
    hit[hit] = keys[at[hit]] == new_keys[hit]
    counts[at[hit]] += new_counts[hit]
    new_keys, new_counts, at = new_keys[~hit], new_counts[~hit], at[~hit]
    if not len(at):
        return keys, counts, used
    # each new key goes before the old key it was searched against, so the
    # old keys from the first such place on move up past the new ones
    grown, lo = used + len(at), at[0]
    slot = at + np.arange(len(at))
    old = np.ones(grown - lo, dtype=bool)
    old[slot - lo] = False
    sources = keys, counts
    if grown > len(keys):
        capacity = max(2 * len(keys), grown)
        keys, counts = (np.concatenate([a[:lo], np.empty(capacity - lo, np.int64)])
                        for a in sources)
    for buffer, source, added in zip((keys, counts), sources, (new_keys, new_counts)):
        tail = source[lo:used]
        # in place the tail moves up over itself, so it is read before it is written
        buffer[lo:grown][old] = tail.copy() if buffer is source else tail
        buffer[slot] = added
    return keys, counts, grown


def count_events(corpus: Corpus, vocab: Vocabulary) -> CountTable:
    """Count framed bigram and unigram events for every sentence of a corpus.

    The corpus is read in the blocks of ``id_blocks``.  A block's events
    become keys v·n+w, sorted and counted by runs, and the runs are added to
    one sorted (key, count) table.  Each event is counted once, in whichever
    block holds it, so the cells do not depend on where the blocks are cut."""
    n = len(vocab)
    keys = counts = np.empty(0, dtype=np.int64)
    used = 0
    for contexts, words in id_blocks(corpus, vocab):
        block = contexts * n
        block += words
        del contexts, words  # freed before the merge, where counting peaks
        block.sort()
        first = np.flatnonzero(np.diff(block, prepend=-1))
        keys, counts, used = _merge_runs(
            keys, counts, used, block[first], np.diff(first, append=len(block)))
    (context, word), count = np.divmod(keys[:used], n), counts[:used].copy()
    del keys, counts  # the buffers, before the table is built
    table = CountTable.from_cells(n, context, word, count)
    # Framing gives each sentence one event from the begin marker and one
    # into the end marker, and none into the begin marker.
    sentences = int(count[context == vocab.bos_id].sum())
    if table.unigram[vocab.bos_id] or table.unigram[vocab.eos_id] != sentences:
        raise ConfigError("a sentence holds a marker, which counting adds itself")
    return table


def map_counts(counts: CountTable, source: Vocabulary, target: Vocabulary) -> CountTable:
    """``counts``, made over ``source``, in the ids of ``target``, words outside
    it counted as the unknown word: ``count_events`` of the same corpus over
    ``target``, without reading the corpus again."""
    to = np.array([target.lookup(w) for w in source.entries], dtype=np.int64)
    n = len(target)
    context, word, count = counts.cells()
    keys, at = np.unique(to[context] * n + to[word], return_inverse=True)
    merged = np.bincount(at, weights=count).astype(np.int64)
    return CountTable.from_cells(n, keys // n, keys % n, merged)
