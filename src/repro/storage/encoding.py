"""Dictionary encoding: the value <-> integer-code bijection columns ride on.

The columnar data plane never moves Python values through operators —
it moves small integer *codes*.  :class:`ValueDictionary` is the
interning table that makes that sound: an append-only bijection from
hashable values to dense ints, so

* ``code(a) == code(b)  <=>  a == b`` (one dictionary per backend —
  join keys cross relations, so codes must be comparable across every
  relation and shard of one database), and
* decoding is a plain list index, lock-free under the GIL.

Encoding happens **once, at insert/attach time**, inside the storage
backend (see :class:`~repro.storage.indexes.AccessIndex`); executors
only ever *decode* the final result batch.  Python equality quirks
(``1 == True == 1.0`` share one code; two distinct ``NaN`` objects get
two codes) mirror exactly how ``dict``/``set`` keys behave, so decoded
answers are ``==``-identical to the tuple-at-a-time reference.

This module also hosts the integer-column primitives shared by storage
and engine (``array('q')`` construction, memoryview freezing, typed
concatenation) — it sits below both layers, so neither import
direction cycles.
"""

from __future__ import annotations

import sys
import threading
from array import array
from typing import Hashable, Iterable, Sequence

#: The machine layout of every encoded column: signed 64-bit ints.
COLUMN_TYPECODE = "q"


def int_column(values: Iterable[int] = ()) -> array:
    """A fresh signed-64 integer column."""
    return array(COLUMN_TYPECODE, values)


def readonly_view(column: array) -> memoryview:
    """Freeze a column: a zero-copy readonly ``memoryview`` over it.

    Cache layers hand these out instead of the backing arrays so no
    consumer can mutate a shared entry in place (writes raise).
    """
    return memoryview(column).toreadonly()


def extend_column(out: array, column) -> None:
    """Append ``column`` onto the array ``out``.

    Arrays take the C ``memcpy``-style fast path; readonly memoryviews
    (cache entries) are blitted via ``frombytes`` on the raw buffer;
    anything else (plain lists of codes) falls back to iteration.
    """
    if type(column) is memoryview:
        out.frombytes(column.cast("B"))
    else:
        out.extend(column)


class ValueDictionary:
    """Append-only interning table from hashable values to dense codes.

    >>> d = ValueDictionary()
    >>> d.encode("x"), d.encode("y"), d.encode("x")
    (0, 1, 0)
    >>> d.decode(1)
    'y'
    >>> len(d)
    2

    Thread-safety: lookups of already-interned values and all decodes
    are lock-free (the GIL orders list appends before the dict publish
    below); only the first encode of a *new* value takes the lock.
    Codes are never reassigned or removed — deletion of rows does not
    shrink the dictionary (values are interned, not refcounted), which
    keeps every outstanding cache entry and specialized plan valid for
    the lifetime of the backend.
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}
        self._values: list[Hashable] = []
        self._lock = threading.Lock()

    def encode(self, value: Hashable) -> int:
        """The code for ``value``, interning it on first sight."""
        code = self._codes.get(value)
        if code is not None:
            return code
        with self._lock:
            code = self._codes.get(value)
            if code is None:
                code = len(self._values)
                # Publish the value *before* the code becomes visible,
                # so a lock-free decode of a just-returned code always
                # finds it.
                self._values.append(value)
                self._codes[value] = code
        return code

    def encode_row(self, row: Sequence[Hashable]) -> tuple[int, ...]:
        """Encode one stored row positionally."""
        codes = self._codes
        try:
            return tuple(codes[value] for value in row)
        except KeyError:
            return tuple(self.encode(value) for value in row)

    def code_of(self, value: Hashable) -> int | None:
        """The code for ``value`` if it is interned, else None — a
        read-only probe: a value no row holds has no code, and asking
        about it must not grow the table.

        >>> d = ValueDictionary()
        >>> d.encode("x"), d.code_of("x"), d.code_of("y"), len(d)
        (0, 0, None, 1)
        """
        return self._codes.get(value)

    def decode(self, code: int) -> Hashable:
        return self._values[code]

    def decode_columns(self, cols: Sequence, length: int) -> list[tuple]:
        """Decode row-aligned code columns into a list of value tuples,
        in row order — the decoded form of one fetch result."""
        if not cols:
            return [()] * length
        values = self._values
        return list(zip(*([values[code] for code in col] for col in cols)))

    def decode_rows(self, cols: Sequence, length: int) -> set[tuple]:
        """Decode row-aligned code columns into a set of value tuples —
        the one place the columnar executor rematerializes Python
        values (the final answer)."""
        return set(self.decode_columns(cols, length))

    def values_from(self, start: int) -> list:
        """The interned values with codes ``start..len-1`` — the *delta*
        a coordinator ships to workers/replicas that already know the
        first ``start`` codes.  Codes are assigned densely in insertion
        order, so the slice alone reconstructs the mapping remotely."""
        return self._values[start:]

    def footprint_bytes(self) -> int:
        """An estimate of the resident size of the interning table:
        container overhead plus the values themselves (interned once,
        shared by ``_codes`` keys and ``_values`` slots).  Surfaced as
        the ``repro_storage_dictionary_bytes`` gauge."""
        values = self._values
        total = sys.getsizeof(self._codes) + sys.getsizeof(values)
        total += sum(sys.getsizeof(value) for value in values)
        # each dict entry also interns an int code object
        total += 28 * len(values)
        return total

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes
