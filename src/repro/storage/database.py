"""The database facade over a pluggable storage backend.

:class:`Database` presents one instance ``D`` of a relational schema to
the rest of the system — loading, deletion, the active domain,
access-schema validation and the batched, encoded ``fetch`` primitive —
while the actual rows and per-constraint indexes live behind the
:class:`~repro.storage.backend.StorageBackend` protocol.  Pick the
engine at construction time::

    Database(schema)                                   # MemoryBackend
    Database(schema, backend=ProcessShardedBackend(schema, workers=4))

Everything above storage goes through this facade, and the facade goes
through the backend protocol — there is no other road to the rows, so
swapping engines can never change answers, only speed and topology.

Scans (``relation_tuples``) are deliberately separate from fetches so
benchmarks can distinguish index-only bounded plans from scanning
baselines.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..errors import ConstraintViolation, SchemaError
from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from .backend import MemoryBackend, StorageBackend
from .indexes import AccessIndex

Row = tuple


class Database:
    """One instance ``D`` of a relational schema.

    >>> schema = Schema.from_dict({"R": ("A", "B")})
    >>> db = Database(schema)
    >>> db.insert("R", (1, "x"))
    >>> db.size()
    1
    """

    def __init__(self, schema: Schema,
                 access_schema: AccessSchema | None = None,
                 backend: StorageBackend | None = None):
        self.schema = schema
        if backend is None:
            backend = MemoryBackend(schema)
        elif backend.schema is not schema:
            raise SchemaError(
                "the backend was built for a different schema object; "
                "construct it with the same Schema the Database uses")
        self._backend = backend
        # adom(D) memo: one (epoch, domain) pair assigned atomically so
        # racing readers can never pin a pre-write domain under a
        # post-write epoch (see active_domain).
        self._adom_cache: tuple[int, frozenset] | None = None
        self.access_schema: AccessSchema | None = None
        if access_schema is not None:
            self.attach_access_schema(access_schema)

    @property
    def backend(self) -> StorageBackend:
        """The storage engine behind this instance."""
        return self._backend

    @property
    def dictionary(self):
        """The backend's :class:`~repro.storage.encoding.ValueDictionary`
        — the value/code bijection the columnar executor plans against."""
        return self._backend.dictionary

    def with_backend(self, backend: StorageBackend) -> "Database":
        """A new :class:`Database` holding the same rows (and access
        schema) on a different engine — how the CLI's ``--backend``
        flag re-homes a loaded instance."""
        clone = Database(self.schema, backend=backend)
        for name in self.schema.relation_names():
            backend.insert_rows(name, self._backend.scan(name))
        if self.access_schema is not None:
            clone.attach_access_schema(self.access_schema)
        return clone

    # -- loading ---------------------------------------------------------------

    def _validated(self, relation_name: str,
                   row: Sequence[Hashable]) -> Row:
        relation = self.schema.relation(relation_name)
        row = tuple(row)
        if len(row) != relation.arity:
            raise SchemaError(
                f"row {row!r} has arity {len(row)} but {relation} expects "
                f"{relation.arity}"
            )
        return row

    def insert(self, relation_name: str, row: Sequence[Hashable]) -> None:
        self._backend.insert_rows(relation_name,
                                  (self._validated(relation_name, row),))

    def insert_many(self, relation_name: str,
                    rows: Iterable[Sequence[Hashable]]) -> None:
        """Bulk insert — one backend call (and one generation bump) for
        the whole batch."""
        self._backend.insert_rows(
            relation_name,
            [self._validated(relation_name, row) for row in rows])

    def delete(self, relation_name: str, row: Sequence[Hashable]) -> bool:
        """Remove one row; True when it was present."""
        return self._backend.delete_rows(
            relation_name, (self._validated(relation_name, row),)) > 0

    def delete_many(self, relation_name: str,
                    rows: Iterable[Sequence[Hashable]]) -> int:
        """Bulk delete; returns how many rows were actually removed."""
        return self._backend.delete_rows(
            relation_name,
            [self._validated(relation_name, row) for row in rows])

    def clear(self) -> None:
        self._backend.clear()

    # -- access schema -----------------------------------------------------------

    def attach_access_schema(self, access_schema: AccessSchema) -> None:
        """Attach constraints and (re)build one index per constraint."""
        self.access_schema = access_schema
        self._backend.attach_access_schema(access_schema)

    def _indexes_for(self, relation_name: str) -> list[AccessIndex]:
        return self._backend.indexes_for(relation_name)

    def satisfies(self, access_schema: AccessSchema | None = None) -> bool:
        """``D |= A``: every constraint's cardinality bound holds."""
        try:
            self.check(access_schema)
        except ConstraintViolation:
            return False
        return True

    def check(self, access_schema: AccessSchema | None = None) -> None:
        """Like :meth:`satisfies` but raises the first violation found."""
        target = access_schema or self.access_schema
        if target is None:
            return
        db_size = self.size()
        for constraint in target:
            limit = constraint.bound(db_size)
            for x_value, group_size in self._groups_or_adhoc(constraint):
                if group_size > limit:
                    raise ConstraintViolation(constraint, x_value,
                                              group_size)

    def _groups_or_adhoc(self, constraint: AccessConstraint):
        """Per-X distinct-Y counts for exactly this constraint.

        The attached index is only usable when its ``(X, Y)`` *sets*
        match the requested constraint's: a structurally wider index
        (the fetch path projects those) counts distinct values of the
        wider Y and would flag spurious violations.  Anything else is
        computed ad hoc from a scan.
        """
        attached = self.access_schema
        if attached is not None:
            for candidate in attached:
                if candidate is constraint or (
                        candidate.relation_name == constraint.relation_name
                        and candidate.x_set == constraint.x_set
                        and candidate.y_set == constraint.y_set):
                    return self._backend.constraint_groups(candidate)
        relation = constraint.validate_against(self.schema)
        index = AccessIndex(constraint, relation)
        for row in self._backend.scan(constraint.relation_name):
            index.add(row)
        return ((x, index.group_size(x)) for x in index.x_values())

    # -- reading -------------------------------------------------------------------

    def generation(self, relation_name: str) -> int:
        """The relation's write epoch: increases on every effective write.

        Equal generations guarantee identical relation contents, which
        is what lets fetch caches reuse results soundly.
        """
        return self._backend.generation(relation_name)

    def write_epoch(self) -> int:
        """A database-wide epoch (sum of relation generations)."""
        return self._backend.write_epoch()

    def relation_tuples(self, relation_name: str) -> list[Row]:
        """Full scan of one relation (the costly path bounded plans avoid)."""
        return self._backend.scan(relation_name)

    def relation_size(self, relation_name: str) -> int:
        return self._backend.relation_size(relation_name)

    def size(self) -> int:
        """``|D|``: total number of tuples."""
        return sum(self._backend.relation_size(name)
                   for name in self.schema.relation_names())

    def active_domain(self, extra: Iterable[Hashable] = ()) -> set:
        """``adom(D)`` (optionally extended with a query's constants).

        Memoized per :meth:`write_epoch` — analysis paths hit this on
        every cold request, and re-scanning every relation each time
        was pure waste.  A fresh mutable set is returned each call.
        """
        epoch = self._backend.write_epoch()
        cached = self._adom_cache
        if cached is None or cached[0] != epoch:
            domain: set = set()
            for name in self.schema.relation_names():
                for row in self._backend.scan(name):
                    domain.update(row)
            # The epoch was read *before* the scans and the pair is
            # stored in one assignment: a racing write at worst makes
            # the next call recompute (stale epoch in the pair), never
            # pins a pre-write domain under a post-write epoch.
            cached = (epoch, frozenset(domain))
            self._adom_cache = cached
        result = set(cached[1])
        result.update(extra)
        return result

    def fetch_many_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> list:
        """Batched *encoded* index lookups — the data-access primitive
        bounded plans use: code keys in, per-key ``(code columns,
        length)`` entries out.  Keys are produced by the columnar
        executor from this database's own dictionary — no
        normalization, by construction."""
        return self._backend.fetch_many_encoded(constraint, keys)

    def fetch_flat_encoded(self, constraint: AccessConstraint,
                           keys: Sequence) -> tuple[list, int]:
        """Alignment-free :meth:`fetch_many_encoded`: the concatenated
        ``(code columns, total length)`` for a key batch."""
        return self._backend.fetch_flat_encoded(constraint, keys)

    # -- the decoded view (oracles, tests, diagnostics) ----------------------

    def fetch(self, constraint: AccessConstraint, x_value: Row) -> list[Row]:
        """Index lookup for one X-value: distinct ``X∪Y`` projections."""
        return self.fetch_many(constraint, (x_value,))[0]

    def fetch_many(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[list[Row]]:
        """:meth:`fetch_many_encoded` in the value domain: X-value
        tuples in, decoded row lists out, aligned with ``x_values``."""
        keys, positions = self._code_keys(constraint, x_values)
        entries = self._backend.fetch_many_encoded(constraint, keys)
        decode = self.dictionary.decode_columns
        results: list[list[Row]] = [[] for _ in x_values]
        for position, (cols, length) in zip(positions, entries):
            results[position] = decode(cols, length)
        return results

    def fetch_flat(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> list[Row]:
        """:meth:`fetch_flat_encoded` in the value domain: every row for
        a batch of X-values in one unordered list."""
        keys, _ = self._code_keys(constraint, x_values)
        cols, length = self._backend.fetch_flat_encoded(constraint, keys)
        return self.dictionary.decode_columns(cols, length)

    def _code_keys(self, constraint: AccessConstraint,
                   x_values: Sequence[Row]) -> tuple[list, list[int]]:
        """X-values as encoded-boundary keys, plus the position each key
        came from.  A value the dictionary has never seen is held by no
        row, so its lookup is answered empty without interning it (the
        backend is still called, so an unindexed constraint raises)."""
        code_of = self.dictionary.code_of
        scalar = len(constraint.x) == 1
        keys: list = []
        positions: list[int] = []
        for position, x_value in enumerate(x_values):
            codes = [code_of(value) for value in x_value]
            if None in codes:
                continue
            keys.append(codes[0] if scalar else tuple(codes))
            positions.append(position)
        return keys, positions

    def __contains__(self, pair) -> bool:
        relation_name, row = pair
        return self._backend.contains(relation_name, tuple(row))

    def summary(self) -> dict[str, int]:
        return {name: self._backend.relation_size(name)
                for name in self.schema.relation_names()}

    def __str__(self) -> str:
        parts = ", ".join(f"{name}: {size}" for name, size in self.summary().items())
        return f"Database({parts})"
