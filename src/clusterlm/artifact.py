"""The one reader behind every artifact loader.

An artifact is a UTF-8 text file.  Its first line is ``<magic> key=value ...``;
the rest is plain lines, or sections that each open with a line ``\\name:``.
A loader declares the columns of its body or of each section, and the reader
streams the file, parses the lines of the body or of each section in one
``np.loadtxt`` call and hands back one array per column (views of one record
array).  Each column is declared by its kind: an int ``n`` for ids in
``0..n-1``, ``int`` for any integer, ``float`` for finite values, ``str`` for
words.  A blank line, a line with the wrong number of fields, a field of the
wrong kind (``2.5`` or ``1e3`` for an integer, ``1_0`` for any number), an id
out of range or a value that is not finite is rejected.
Inside ``with Artifact(...) as art:`` a ``ValueError``, ``IndexError`` or
``OverflowError`` becomes a ``FormatError`` that names the file and the part
being read: the header, the body or the section, and the line number of a
line that does not parse.  The loaders' own whole-array checks (duplicates,
coverage, row sums) name their sections in their messages.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import FormatError

_CONVERTED = (ValueError, IndexError, OverflowError)
# Column kind -> dtype; an int kind is an id bound.  Never a fixed-width
# ``U`` string dtype, which cuts longer words short without an error.
_DTYPES = {int: "i8", float: "f8", str: "O"}


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
        self._fh = open(path, encoding="utf-8")
        self.fields: dict[str, str] = {}
        try:
            header = self._fh.readline().split()
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
        self._fh.close()
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
        return self._columns("body:", self._lines(sections=False), kinds)

    def sections(self, layout: dict[str, tuple], optional=()) -> dict[str, tuple]:
        """The columns of each section in ``layout`` (name -> kinds).  Every
        section must appear once, in any order, except that those named in
        ``optional`` may be absent and then come back empty."""
        found = {}
        # the header is line 1
        self.where, self.lineno, marker = "", 2, next(self._fh, "")
        while marker:
            name = marker.rstrip("\n")
            if name not in layout or name in found:
                raise ValueError(f"line {self.lineno}: unexpected {name!r}")
            found[name] = self._columns(name, self._lines(sections=True), layout[name])
            marker = self._marker
        missing = set(layout) - set(found) - set(optional)
        if missing:
            raise ValueError(f"missing sections {sorted(missing)}")
        return {name: found[name] if name in found else self._columns(name, iter(()), kinds)
                for name, kinds in layout.items()}

    def _lines(self, sections: bool):
        """The lines up to the next section marker (kept in ``_marker``), or to
        the end, counted in ``lineno``; ``np.loadtxt`` would skip a blank line,
        so it stops here."""
        self._marker = ""
        for self.lineno, line in enumerate(self._fh, self.lineno + 1):
            if sections and line.startswith("\\"):
                self._marker = line
                return
            if line.isspace():
                raise ValueError("blank line")
            yield line

    def _columns(self, where: str, lines, kinds: tuple) -> tuple[np.ndarray, ...]:
        """The columns of ``lines``, checked; errors until then name ``where``."""
        self.where = f"{where} "
        dtype = np.dtype([(f"f{i}", _DTYPES.get(k, "i8")) for i, k in enumerate(kinds)])
        try:
            first = next(lines, None)
            with warnings.catch_warnings():
                # a numpy that only warns on it reads an int field 2.5 as 2
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                # np.loadtxt warns on no lines
                rows = np.empty(0, dtype) if first is None else np.loadtxt(
                    chain((first,), lines), dtype, comments=None, ndmin=1)
        except ValueError as exc:  # np.loadtxt reads no further than the bad line
            raise ValueError(f"line {self.lineno}: {str(exc).split(';')[0]}") from exc
        columns = tuple(rows[name] for name in dtype.names)
        for kind, a in zip(kinds, columns):
            if kind is float and not np.isfinite(a).all():
                raise ValueError("a value is not finite")
            if kind not in _DTYPES and a.size and (a.min() < 0 or a.max() >= kind):
                raise ValueError(f"id out of range 0..{kind - 1}")
        self.where = ""
        return columns
