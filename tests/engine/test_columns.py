"""The columnar data plane's building blocks: dictionary round-trips,
integer columns, and encoded batches."""

from __future__ import annotations

import threading
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.columns import Batch, column_index, deduped_batch
from repro.errors import ExecutionError
from repro.storage.encoding import (COLUMN_TYPECODE, ValueDictionary,
                                    extend_column, int_column,
                                    readonly_view)

ADVERSARIAL = [
    "plain", "", "naïve", "☃ snow", "0", "None", 0, -1, 7, 10 ** 12,
    None, ("a", 1), 3.5,
]

#: Adversarial single values: unicode, None-likes, ints colliding with
#: their string spellings, high-cardinality ints, floats.
adversarial_values = st.one_of(
    st.sampled_from(ADVERSARIAL),
    st.text(alphabet="αβγ☃né '\"\\", max_size=4),
    st.integers(-5, 5),
    st.integers(0, 10 ** 9),
)


class TestValueDictionary:
    def test_encode_is_stable_and_decode_inverts(self):
        dictionary = ValueDictionary()
        codes = [dictionary.encode(value) for value in ADVERSARIAL]
        assert codes == [dictionary.encode(value)
                         for value in ADVERSARIAL]
        assert [dictionary.decode(code) for code in codes] == ADVERSARIAL
        assert len(dictionary) == len(ADVERSARIAL)
        assert "naïve" in dictionary and "missing" not in dictionary

    def test_distinct_values_get_distinct_codes(self):
        # '0' vs 0 vs 0.0-free ints, '' vs None — the classic traps.
        dictionary = ValueDictionary()
        codes = {dictionary.encode(value)
                 for value in ["0", 0, "", None, "None"]}
        assert len(codes) == 5

    def test_encode_row_matches_per_value_encode(self):
        dictionary = ValueDictionary()
        row = ("a", None, 3, "a")
        assert dictionary.encode_row(row) == tuple(
            dictionary.encode(value) for value in row)

    def test_decode_rows_round_trips_columns(self):
        dictionary = ValueDictionary()
        rows = [("x", 1), ("y", None), ("x", 1), ("☃", "1")]
        coded = [dictionary.encode_row(row) for row in rows]
        cols = [int_column(column) for column in zip(*coded)]
        assert dictionary.decode_rows(cols, len(rows)) == set(rows)

    def test_decode_rows_zero_width(self):
        dictionary = ValueDictionary()
        assert dictionary.decode_rows([], 1) == {()}
        assert dictionary.decode_rows([], 0) == set()

    def test_code_of_probes_without_interning(self):
        dictionary = ValueDictionary()
        code = dictionary.encode("0")
        assert dictionary.code_of("0") == code
        # 0 and "0" are different values: the probe must not conflate
        # them, and must not intern what it did not find.
        assert dictionary.code_of(0) is None
        assert dictionary.code_of(None) is None
        assert len(dictionary) == 1

    def test_decode_columns_keeps_row_order_and_duplicates(self):
        dictionary = ValueDictionary()
        rows = [("x", 1), ("y", None), ("x", 1)]
        coded = [dictionary.encode_row(row) for row in rows]
        cols = [int_column(column) for column in zip(*coded)]
        assert dictionary.decode_columns(cols, len(rows)) == rows
        views = [memoryview(column).toreadonly() for column in cols]
        assert dictionary.decode_columns(views, len(rows)) == rows
        assert dictionary.decode_columns([], 2) == [(), ()]

    @given(values=st.lists(adversarial_values, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        dictionary = ValueDictionary()
        codes = [dictionary.encode(value) for value in values]
        decoded = [dictionary.decode(code) for code in codes]
        assert decoded == values
        # Code equality must mean value equality, database-wide.
        for value, code in zip(values, codes):
            assert dictionary.encode(value) == code

    def test_concurrent_interning_agrees(self):
        dictionary = ValueDictionary()
        values = [f"v{i % 50}" for i in range(500)]
        results: list[list[int]] = []

        def intern():
            results.append([dictionary.encode(value)
                            for value in values])

        threads = [threading.Thread(target=intern) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(dictionary) == 50
        assert all(result == results[0] for result in results)


class TestColumns:
    def test_int_column_builds_signed_64bit_arrays(self):
        column = int_column([1, 2, 3])
        assert isinstance(column, array)
        assert column.typecode == COLUMN_TYPECODE
        assert list(column) == [1, 2, 3]

    def test_extend_column_accepts_arrays_memoryviews_and_lists(self):
        out = int_column([1])
        extend_column(out, int_column([2, 3]))
        extend_column(out, readonly_view(int_column([4])))
        extend_column(out, [5, 6])
        assert list(out) == [1, 2, 3, 4, 5, 6]

    def test_readonly_view_rejects_writes(self):
        view = readonly_view(int_column([1, 2]))
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 9


class TestBatch:
    def test_rows_and_len(self):
        batch = Batch(("a", "b"), [[1, 2], [3, 4]], 2, True)
        assert batch.rows() == {(1, 3), (2, 4)}
        assert len(batch) == 2

    def test_zero_width_rows(self):
        assert Batch((), [], 1, True).rows() == {()}
        assert Batch((), [], 0, True).rows() == set()

    def test_deduped_batch_single_column_keeps_first_seen_order(self):
        batch = deduped_batch(("a",), [[3, 1, 3, 2, 1]], 5)
        assert batch.cols == [[3, 1, 2]]
        assert batch.length == 3 and batch.distinct

    def test_deduped_batch_multi_column(self):
        batch = deduped_batch(("a", "b"),
                              [[1, 1, 2, 1], [9, 9, 9, 8]], 4)
        assert batch.rows() == {(1, 9), (2, 9), (1, 8)}
        assert batch.length == 3

    def test_deduped_batch_empty_and_zero_width(self):
        empty = deduped_batch(("a",), [[]], 0)
        assert empty.length == 0 and empty.cols == [[]]
        unit = deduped_batch((), [], 5)
        assert unit.length == 1 and unit.rows() == {()}

    def test_column_index_resolves_and_raises(self):
        assert column_index(("a", "b"), "b") == 1
        with pytest.raises(ExecutionError):
            column_index(("a", "b"), "c")
