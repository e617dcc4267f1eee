"""The one module that writes and reads every artifact.

An artifact is a UTF-8 text file.  Its first line is ``<magic> key=value ...``;
the rest is plain lines, or sections that each open with a line ``\\name:``.
``write`` takes the header fields in order and the columns of the body or of
each section: a float is written with ``repr``, a set of ids as its sorted
comma list (``-`` for none), anything else with ``str``, so that the reader
gets every value back bit for bit.
A loader declares the columns of its body or of each section.  The reader
takes the file a block of whole lines at a time (``line_blocks``, which the
corpus reader shares), finds the next section marker in a block's text
rather than testing each line, passes the blocks of the body or of each
section to one ``np.loadtxt`` call and hands back one array per column (views
of one record array).  Each column is declared by its kind: an int ``n`` for
ids in ``0..n-1``, ``int`` for any integer, ``float`` for finite values,
``str`` for words.  A blank line, a line with the wrong number of fields, a
field of the wrong kind (``2.5`` or ``1e3`` for an integer, ``1_0`` for any number), an id
out of range or a value that is not finite is rejected.
Inside ``with Artifact(...) as art:`` a ``ValueError``, ``IndexError``,
``OverflowError`` or ``MemoryError`` (a header size too large to allocate)
becomes a ``FormatError`` that names the file and the part being read: the
header, the body or the section, and the line number of a line that does not
parse.  The loaders' own whole-array checks (duplicates, coverage, row sums)
name their sections in their messages.
"""

from __future__ import annotations

import math
import warnings
from contextlib import suppress
from itertools import chain, compress
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError

_CONVERTED = (ValueError, IndexError, OverflowError, MemoryError)
# Column kind -> dtype; an int kind is an id bound.  Never a fixed-width
# ``U`` string dtype, which cuts longer words short without an error.
_DTYPES = {int: "i8", float: "f8", str: "O"}
LINE_BLOCK = 1 << 13  # characters of lines read at a time: their strings stay near 100 kB


def row_tuples(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length arrays as tuples of Python values, converted a
    few thousand at a time: a long table never becomes one list of objects.
    Columns of unequal length raise ``ValueError``; none is cut short."""
    for lo in range(0, len(columns[0]), 4096):
        yield from zip(*(c[lo:lo + 4096].tolist() for c in columns), strict=True)


def line_blocks(path: str | Path) -> Iterator[list[str]]:
    """The lines of a UTF-8 text file, a list of about ``LINE_BLOCK``
    characters at a time.  A decoding error comes up after the lines that
    reading one line at a time decodes before it, as it would there."""
    with open(path, encoding="utf-8") as fh:
        read = 0
        while True:
            try:
                lines = fh.readlines(LINE_BLOCK)
            except UnicodeDecodeError:
                decoded: list[str] = []
                with open(path, encoding="utf-8") as again, suppress(UnicodeDecodeError):
                    decoded.extend(again)
                if decoded[read:]:
                    yield decoded[read:]
                raise
            if not lines:
                return
            read += len(lines)
            yield lines


def _text(value) -> str:
    """A header value as ``finite``, ``id_list`` and ``size`` read it back."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, frozenset):
        return ",".join(map(str, sorted(value))) or "-"
    return str(value)


def write(path: str | Path, magic: str, fields: dict, parts) -> None:
    """Write an artifact: the header ``magic`` and ``fields`` in their order,
    then each ``(marker, columns)`` of ``parts``: a section opened by its
    marker line ``\\name:``, or the plain body when the marker is ``None``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join([magic, *(f"{k}={_text(v)}" for k, v in fields.items())]) + "\n")
        for marker, columns in parts:
            if marker:
                fh.write(marker + "\n")
            fmt = " ".join("%r" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
            for row in row_tuples(*columns):
                fh.write(fmt % row)


def read_magic(path: str | Path) -> str:
    """First token of an artifact's header line, without parsing the rest."""
    with open(path, encoding="utf-8") as fh:
        return fh.readline().split(" ", 1)[0]


def size(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"negative size {n}")
    return n


def finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"value {text!r} is not finite")
    return x


def dense(shape, ids, values, what: str = "entry") -> np.ndarray:
    """The -inf array of ``shape`` holding finite ``values`` at distinct ``ids``."""
    a = np.full(shape, -np.inf)
    a[ids] = values
    if np.count_nonzero(a > -np.inf) != len(values):
        raise ValueError(f"duplicate {what}")
    return a


def id_list(text: str) -> frozenset[int]:
    """Comma-separated ids, ``-`` for none."""
    return frozenset() if text == "-" else frozenset(int(p) for p in text.split(","))


class Artifact:
    """An open artifact: its header fields, then its body or its sections
    as columns (see the module docstring)."""

    def __init__(self, path, magic: str, what: str):
        self.path, self.where, self.lineno = path, "header: ", 1
        self._reader = line_blocks(path)
        self._ahead: list[str] = []  # lines read and not yet handed out
        self.fields: dict[str, str] = {}
        try:
            header = self._line().split()
            if not header or header[0] != magic:
                raise FormatError(f"{path}: not a {what} file")
            for token in header[1:]:
                key, eq, value = token.partition("=")
                if not eq or key in self.fields:
                    raise ValueError(f"bad header token {token!r}")
                self.fields[key] = value
        except Exception as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def __enter__(self) -> "Artifact":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._reader.close()
        if exc_type is not None and issubclass(exc_type, _CONVERTED):
            raise FormatError(f"{self.path}: {self.where}{exc}") from exc

    def field(self, key: str, cast=str, default=None):
        """Header value of ``key`` through ``cast``; required unless defaulted."""
        if key in self.fields:
            return cast(self.fields[key])
        if default is None:
            raise ValueError(f"header lacks {key}=")
        return default

    def body(self, kinds: tuple) -> tuple[np.ndarray, ...]:
        """The columns of a plain body, one per kind in ``kinds``."""
        return self._columns("body:", self._blocks(sections=False), kinds)

    def sections(self, layout: dict[str, tuple], optional=()) -> dict[str, tuple]:
        """The columns of each section in ``layout`` (name -> kinds).  Every
        section must appear once, in any order, except that those named in
        ``optional`` may be absent and then come back empty."""
        found = {}
        # the header is line 1
        self.where, self.lineno, marker = "", 2, self._line()
        while marker:
            name = marker.rstrip("\n")
            if name not in layout or name in found:
                raise ValueError(f"line {self.lineno}: unexpected {name!r}")
            found[name] = self._columns(name, self._blocks(sections=True), layout[name])
            marker = self._marker
        missing = set(layout) - set(found) - set(optional)
        if missing:
            raise ValueError(f"missing sections {sorted(missing)}")
        return {name: found[name] if name in found else self._columns(name, iter(()), kinds)
                for name, kinds in layout.items()}

    def _line(self) -> str:
        """The next line, or ``""`` at the end."""
        self._ahead = self._ahead or next(self._reader, [])
        return self._ahead.pop(0) if self._ahead else ""

    def _blocks(self, sections: bool) -> Iterator[list[str]]:
        """Lists of the lines up to the next section marker (kept in
        ``_marker``) or to the end.  ``_block`` is the list handed out last,
        and ``lineno`` counts the lines before it until it is used up.
        ``np.loadtxt`` would skip a blank line, so one raises here."""
        self._marker, self._block = "", []
        while lines := self._ahead or next(self._reader, []):
            self._ahead, end = [], len(lines)
            if sections:
                # a marker line is the first line, or follows a line end
                text = "\n" + "".join(lines)
                at = text.find("\n\\")
                if at >= 0:
                    end = text.count("\n", 0, at)
                    self._marker, self._ahead = lines[end], lines[end + 1:]
            stop = next(compress(range(end), map(str.isspace, lines)), end)
            self._block = lines[:stop]
            yield self._block
            self.lineno += stop
            if stop < end:
                self.lineno += 1
                raise ValueError("blank line")
            if self._marker:
                self.lineno += 1
                return

    def _bad_line(self, dtype: np.dtype) -> int:
        """The first line of ``_block`` that does not parse on its own, where
        ``np.loadtxt`` stopped, since it reads no further than a bad line; or
        when each one parses, ``lineno``: the error came from reading on."""
        for lineno, line in enumerate(self._block, self.lineno + 1):
            try:
                np.loadtxt([line], dtype, comments=None)
            except ValueError:
                return lineno
        return self.lineno

    def _columns(self, where: str, blocks, kinds: tuple) -> tuple[np.ndarray, ...]:
        """The columns of the lines in ``blocks``, checked; errors until then
        name ``where``."""
        self.where = f"{where} "
        dtype = np.dtype([(f"f{i}", _DTYPES.get(k, "i8")) for i, k in enumerate(kinds)])
        with warnings.catch_warnings():
            # a numpy that only warns on it reads an int field 2.5 as 2
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            lines = chain.from_iterable(blocks)
            try:
                first = next(lines, None)
                # np.loadtxt warns on no lines
                rows = np.empty(0, dtype) if first is None else np.loadtxt(
                    chain((first,), lines), dtype, comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(
                    f"line {self._bad_line(dtype)}: {str(exc).split(';')[0]}") from exc
        columns = tuple(rows[name] for name in dtype.names)
        for kind, a in zip(kinds, columns):
            if kind is float and not np.isfinite(a).all():
                raise ValueError("a value is not finite")
            if kind not in _DTYPES and a.size and (a.min() < 0 or a.max() >= kind):
                raise ValueError(f"id out of range 0..{kind - 1}")
        self.where = ""
        return columns
