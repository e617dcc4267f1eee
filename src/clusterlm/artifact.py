"""The one reader behind every artifact loader.

An artifact is a UTF-8 text file.  Its first line is ``<magic> key=value ...``;
the rest is plain lines, or sections that each open with a line ``\\name:``.
Inside ``with Artifact(...) as art:`` a ``ValueError``, ``IndexError`` or
``OverflowError`` becomes a ``FormatError`` naming the file and the line being
read, so loaders parse with plain ``int``/``float`` and the checks below.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import FormatError

_CONVERTED = (ValueError, IndexError, OverflowError)


def read_magic(path: str | Path) -> str:
    """First token of an artifact's header line, without parsing the rest."""
    with open(path, encoding="utf-8") as fh:
        return fh.readline().split(" ", 1)[0]


def word_id(text: str, n: int) -> int:
    """An id in ``0..n-1``."""
    i = int(text)
    if not 0 <= i < n:
        raise ValueError(f"id {i} out of range")
    return i


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


def put(table: dict, key, value) -> None:
    """``table[key] = value`` for a key not yet present."""
    if key in table:
        raise ValueError(f"duplicate entry {key}")
    table[key] = value


def dense(shape, ids, values: list[float]) -> np.ndarray:
    """The -inf array of ``shape`` holding finite ``values`` at distinct ``ids``."""
    a = np.full(shape, -np.inf)
    a[ids] = values
    if np.count_nonzero(a > -np.inf) != len(values):
        raise ValueError("duplicate entry")
    return a


def id_list(text: str) -> frozenset[int]:
    """Comma-separated ids, ``-`` for none."""
    return frozenset() if text == "-" else frozenset(int(p) for p in text.split(","))


class Artifact:
    """An open artifact: its header fields, then its body line by line.

    ``sections`` maps each section name (``\\name:``) to its number of
    fields per line; without it the body is plain lines of ``columns``
    fields each.  Sections named in ``optional`` may be absent; every other
    section must appear, and none may appear twice.
    """

    def __init__(self, path, magic: str, what: str, columns: int = 0,
                 sections: dict[str, int] | None = None, optional=()):
        self.path, self.lineno = path, 1
        self.columns, self.sections, self.optional = columns, sections, optional
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
            raise FormatError(f"{self.path}:{self.lineno}: {exc}") from exc

    def field(self, key: str, cast=str, default=None):
        """Header value of ``key`` through ``cast``; required unless defaulted."""
        if key in self.fields:
            return cast(self.fields[key])
        if default is None:
            raise ValueError(f"header lacks {key}=")
        return default

    def __iter__(self):
        """``(section, fields)`` per body line; the section is None in a
        plain body."""
        sections = self.sections
        # With sections, no line may come before the first one.
        section, want, seen = None, None if sections else self.columns, set()
        for self.lineno, line in enumerate(self._fh, start=2):
            if sections and line.startswith("\\"):
                section = line.rstrip("\n")
                if section not in sections or section in seen:
                    raise ValueError(f"unexpected section {section!r}")
                seen.add(section)
                want = sections[section]
                continue
            parts = line.split()
            if len(parts) != want:
                raise ValueError(f"expected {want} fields in {section or 'the body'}")
            yield section, parts
        self.lineno = "end"
        missing = set(sections or ()) - seen - set(self.optional)
        if missing:
            raise ValueError(f"missing sections {sorted(missing)}")
