"""The array form of a count table and the consumers that read it.

Random tables, empty ones and ones with empty rows included, are checked
against plain dict walks over ``CountTable.rows`` and against the per-cell
references in ``oracles``.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from clusterlm.classmodel import ClusterMap, class_bigrams
from clusterlm.corpus import CountTable
from clusterlm.criterion import _word_profiles, aggregate_class_counts, combine_word_counts

# at 0.5 every odd sum of the two counts rounds a tie
LAMBDAS = (0.0, 0.3, 0.5, 0.95, 1.0)
CASES = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def tables(draw, n):
    """A table over n words from random bigram events, plus empty rows."""
    rows = {}
    ids = st.integers(0, n - 1)
    for v, w, c in draw(st.lists(st.tuples(ids, ids, st.integers(1, 9)), max_size=40)):
        row = rows.setdefault(v, {})
        row[w] = row.get(w, 0) + c
    for v in draw(st.lists(ids, max_size=3)):
        rows.setdefault(v, {})
    return oracles.dict_table(n, rows)


@st.composite
def setups(draw):
    """Two tables over one vocabulary and a cluster map of it."""
    n = draw(st.integers(1, 12))
    n_states, n_cats = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    state_of = draw(st.lists(st.integers(0, n_states - 1), min_size=n, max_size=n))
    category_of = draw(st.lists(st.integers(0, n_cats - 1), min_size=n, max_size=n))
    cm = ClusterMap(state_of, category_of, n_states, n_cats)
    return draw(tables(n)), draw(tables(n)), cm


def walk(table):
    """(context, word, count) of every stored cell, row by row, from ``rows``."""
    return [(v, w, c) for v, row in table.rows.items() for w, c in row.items()]


def column_sums(table):
    sums = np.zeros(table.vocab_size, dtype=np.int64)
    for _, w, c in walk(table):
        sums[w] += c
    return sums


def matrix(cells, cm):
    out = np.zeros((cm.n_states, cm.n_cats), dtype=np.int64)
    for (s, g), c in cells.items():
        out[s, g] = c
    return out


@CASES
@given(setups())
def test_cells_match_rows_and_unigram_is_the_column_sums(setup):
    for table in setup[:2]:
        context, word, count = table.cells()
        assert all(a.dtype == np.int64 for a in (context, word, count))
        assert list(zip(context.tolist(), word.tolist(), count.tolist())) == walk(table)
        assert np.array_equal(table.unigram, column_sums(table))


@CASES
@given(setups())
def test_cells_are_the_stored_read_only_arrays(setup):
    for table in setup[:2]:
        first, again = table.cells(), table.cells()
        assert all(a is b for a, b in zip(first, again))
        for a in first:
            with pytest.raises(ValueError):
                a[:1] = 7


@CASES
@given(setups())
def test_rows_are_the_cells_in_order(setup):
    for table in setup[:2]:
        rows = table.rows
        assert list(rows) == sorted(rows)
        assert all(list(row) == sorted(row) and row for row in rows.values())


class Words:
    """Stands in for a vocabulary of n words: its size and its checksum are
    all that ``CountTable.load`` reads of one.  A ``Vocabulary`` holds at
    least its three reserved tokens; these tables may cover fewer words."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def checksum(self):
        return "cafe"


def stored(table):
    """The nonempty rows with their cells, in order at both levels; empty
    rows hold no cell, so neither ``cells()`` nor the file carries them."""
    return [(v, list(row.items())) for v, row in table.rows.items() if row]


@CASES
@given(setups())
def test_one_table_per_set_of_cells(setup):
    for table in setup[:2]:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.counts"
            table.save(path, "cafe")
            loaded = CountTable.load(path, Words(table.vocab_size))
        cells = table.cells()
        rebuilt = CountTable(table.vocab_size, *cells)
        # arrays already in order are stored as they are, read-only
        assert all(a is b for a, b in zip(rebuilt.cells(), cells))
        # cells out of order, given as lists, are sorted
        reversed_ = CountTable(table.vocab_size, *(a[::-1].tolist() for a in cells))
        assert all(np.array_equal(a, b) for a, b in zip(reversed_.cells(), cells))
        assert not any(a.flags.writeable for a in reversed_.cells())
        if cells[0].size:
            with pytest.raises(ValueError, match="duplicate bigram"):
                CountTable(table.vocab_size, *(np.concatenate([a, a[:1]]) for a in cells))
        empty = CountTable(table.vocab_size, [], [], [])
        assert [a.size for a in empty.cells()] == [0, 0, 0] and empty.total_tokens == 0
        assert np.array_equal(empty.unigram, np.zeros(table.vocab_size))
        want = stored(table)
        assert [v for v, _ in want] == sorted(v for v, _ in want)
        assert all([w for w, _ in row] == sorted(w for w, _ in row) for _, row in want)
        for other in (rebuilt, reversed_, loaded):
            assert stored(other) == want
            assert np.array_equal(other.unigram, table.unigram)
            assert other.total_tokens == table.total_tokens


@CASES
@given(setups())
def test_class_projections_match_the_oracle(setup):
    table, _, cm = setup
    want = matrix(oracles.cells_from_table(table.rows, cm.state_of, cm.category_of), cm)
    assert np.array_equal(class_bigrams(table, cm), want)
    assert np.array_equal(aggregate_class_counts(table, cm).pairs, want)


@pytest.mark.parametrize("cells", [
    pytest.param(([0, -1], [1, -1], [0, 5]), id="zero-count-and-negative-ids"),
    pytest.param(([0], [1], [-4]), id="negative-count"),
    pytest.param(([0], [3], [1]), id="word-past-the-vocabulary"),
    pytest.param(([3], [0], [1]), id="context-past-the-vocabulary"),
    pytest.param(([0, 2], [1, 2], [2, 0]), id="zero-count"),
])
def test_a_table_holds_ids_in_its_vocabulary_and_positive_counts(cells):
    with pytest.raises(ValueError, match="outside the vocabulary|nonpositive count"):
        CountTable(3, *cells)
    assert CountTable(3, [], [], []).total_tokens == 0
    assert CountTable(3, [0, 2], [2, 0], [1, 4]).total_tokens == 5


@CASES
@given(setups())
def test_the_successor_index_is_the_tables_own_cells(setup):
    # the cells are sorted by context, so the successor index needs no copy
    table = setup[0]
    _, word, count = table.cells()
    for weighted in (True, False):
        preds, succs = _word_profiles(table, weighted)
        assert np.shares_memory(succs[1], word) or not word.size
        assert not np.shares_memory(preds[1], table.cells()[0])
        if weighted:
            assert np.shares_memory(succs[2], count) or not count.size


@CASES
@given(setups())
def test_word_profile_slices_match_a_dict_walk(setup):
    table = setup[0]
    preds, succs = _word_profiles(table)
    for x in range(table.vocab_size):
        for index, want in (
            (preds, {v: row[x] for v, row in table.rows.items() if x in row}),
            (succs, table.rows.get(x, {})),
        ):
            starts, ids, counts, totals = index
            at = slice(starts[x], starts[x + 1])
            assert dict(zip(ids[at].tolist(), counts[at].tolist())) == want
            assert len(ids[at]) == len(want)
            assert totals[x] == sum(want.values())
    # an unweighted index counts each word's neighbours as its total
    for index, weighted in zip(_word_profiles(table, False), (preds, succs)):
        assert index[2] is None and np.array_equal(index[3], np.diff(weighted[0]))


@CASES
@given(setups())
def test_combined_counts_match_the_per_cell_reference(setup):
    adapt, back, _ = setup
    for lam in LAMBDAS:
        out = combine_word_counts(adapt, back, lam)
        assert out.rows == oracles.combined_rows(adapt.rows, back.rows, lam)
        assert np.array_equal(out.unigram, column_sums(out))
        assert out.total_tokens == int(out.unigram.sum())

