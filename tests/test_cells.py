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
    return CountTable(n, rows)


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
            loaded, _ = CountTable.load(path)
        rebuilt = CountTable.from_cells(table.vocab_size, *table.cells())
        want = stored(table)
        assert [v for v, _ in want] == sorted(v for v, _ in want)
        assert all([w for w, _ in row] == sorted(w for w, _ in row) for _, row in want)
        for other in (rebuilt, loaded):
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
            starts, ids, counts = index
            at = slice(starts[x], starts[x + 1])
            assert dict(zip(ids[at].tolist(), counts[at].tolist())) == want
            assert len(ids[at]) == len(want)


@CASES
@given(setups())
def test_combined_counts_match_the_per_cell_reference(setup):
    adapt, back, _ = setup
    for lam in LAMBDAS:
        out = combine_word_counts(adapt, back, lam)
        assert out.rows == oracles.combined_rows(adapt.rows, back.rows, lam)
        assert np.array_equal(out.unigram, column_sums(out))
        assert out.total_tokens == int(out.unigram.sum())

