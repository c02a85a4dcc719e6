"""Columnar physical-plan execution with access accounting.

The executor runs :class:`~repro.engine.optimizer.physical.PhysicalPlan`
steps batch-at-a-time over *encoded* columns: every intermediate is a
:class:`~repro.engine.columns.Batch` of dictionary codes (see
:class:`~repro.storage.encoding.ValueDictionary`), fetched rows arrive
from storage as pre-encoded ``array('q')`` columns, joins hash int
codes instead of value tuples, and the only Python-value work in a
request is decoding the final batch.  Before its first run a plan is
*specialized* (:mod:`~repro.engine.optimizer.specialize`): one closure
per op with positions, key widths and constant codes baked in, so the
warm path interprets nothing per batch.  Handed a *logical*
:class:`~repro.engine.plan.Plan`, it first runs the one-time optimizer
(memoized on the plan object).

Crucially, the accounting semantics are unchanged from the
tuple-at-a-time executors this replaces: every tuple that crosses the
storage boundary is counted, so the numbers reported here — fetch
calls, index lookups, tuples fetched — are still the paper's
``|D_Q|``-style quantities (Section 2) and what EXP-1/EXP-4 plot.
Code-distinctness equals value-distinctness (the dictionary is a
bijection), so per-distinct-X lookup counts are identical too.

:class:`LegacyTupleExecutor` keeps the previous value-tuple batch
implementation, reading through the database's decoded ``fetch_flat``
view — property tests compare the columnar path against it, and
benchmarks use it as a wall-clock baseline.
:func:`interpret_logical` keeps the direct tuple-at-a-time
interpretation of the logical IR (no optimizer, no fusion) as the
reference semantics — property tests and the EXP-9 benchmark compare
the optimized pipeline against it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..deadline import current_deadline
from ..errors import ExecutionError
from ..obs.trace import span
from ..storage.database import Database
from ..storage.statistics import TableStatistics
from .columns import Batch, column_index, deduped_batch
from .optimizer.physical import (BatchFetchOp, ConstCheck, ConstScanOp,
                                 CrossJoinOp, DifferenceOp,
                                 DistinctUnionOp, EmptyScanOp, FilterOp,
                                 FusedFetchOp, GatherOp, HashJoinOp,
                                 PhysicalOp, PhysicalPlan, UnitScanOp,
                                 op_label)
from .optimizer.pipeline import ensure_physical
from .optimizer.specialize import specialized_plan
from .plan import (ColEq, ConstEq, ConstOp, DiffOp, EmptyOp, FetchOp, Op,
                   Plan, ProductOp, ProjectOp, RenameOp, SelectOp, UnionOp,
                   UnitOp)

__all__ = [
    "AccessStats", "Batch", "ExecutionResult", "Executor",
    "LegacyTupleExecutor", "Table", "execute_plan", "interpret_logical",
]


@dataclass
class Table:
    """A named-column table with set semantics (the result format)."""

    columns: tuple[str, ...]
    rows: set[tuple]

    def column_index(self, name: str) -> int:
        return column_index(self.columns, name)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class AccessStats:
    """What the plan touched: the empirical ``|D_Q|`` ingredients."""

    fetch_calls: int = 0
    #: Distinct index lookups (one per distinct X-value per fetch op).
    index_lookups: int = 0
    #: Tuples returned by *cold* index lookups — the data genuinely
    #: accessed in storage; this is the honest ``|D_Q|`` number even
    #: when a fetch cache is in front of the index.
    tuples_fetched: int = 0
    #: Lookups answered by a fetch cache without touching storage
    #: (always 0 under the plain executor).
    fetch_cache_hits: int = 0
    #: Lookups that went through a fetch cache but missed.
    fetch_cache_misses: int = 0
    #: Tuples served from the fetch cache instead of storage.
    tuples_from_cache: int = 0
    #: Largest intermediate batch (plan-side work, not data access).
    max_intermediate: int = 0
    ops_executed: int = 0
    #: Batches executed per physical-op kind (``hash_join``,
    #: ``batch_fetch``, ...) — the shape of the work, not its size.
    op_counts: dict = field(default_factory=dict)

    def observe_table(self, table) -> None:
        self.max_intermediate = max(self.max_intermediate, len(table))

    def merge(self, other: "AccessStats") -> None:
        """Fold another request's accounting into this one (batch totals)."""
        self.fetch_calls += other.fetch_calls
        self.index_lookups += other.index_lookups
        self.tuples_fetched += other.tuples_fetched
        self.fetch_cache_hits += other.fetch_cache_hits
        self.fetch_cache_misses += other.fetch_cache_misses
        self.tuples_from_cache += other.tuples_from_cache
        self.max_intermediate = max(self.max_intermediate,
                                    other.max_intermediate)
        self.ops_executed += other.ops_executed
        for key, count in other.op_counts.items():
            self.op_counts[key] = self.op_counts.get(key, 0) + count


@dataclass
class ExecutionResult:
    """The final table plus accounting."""

    table: Table
    stats: AccessStats

    @property
    def answers(self) -> set[tuple]:
        return self.table.rows

    @property
    def boolean(self) -> bool:
        """For Boolean (zero-column) results: is the answer 'true'?"""
        return bool(self.table.rows)


def _passes(row: tuple, checks) -> bool:
    for check in checks:
        if isinstance(check, ConstCheck):
            if row[check.position] != check.value:
                return False
        else:
            if row[check.left] != row[check.right]:
                return False
    return True


class Executor:
    """Executes plans against one database instance — the columnar path.

    Accepts a logical :class:`Plan` (optimized once, memoized on the
    plan) or a ready :class:`PhysicalPlan` (e.g. from a service's plan
    cache — no optimizer work at all).  The plan is specialized against
    the database's value dictionary on first contact; warm executions
    run pre-built closures over encoded batches and decode only the
    final result.
    """

    def __init__(self, db: Database):
        self.db = db

    def _resolve(self, plan) -> PhysicalPlan:
        if isinstance(plan, Plan):
            if not plan.steps:
                raise ExecutionError("cannot execute an empty plan")
            return ensure_physical(
                plan, lambda: TableStatistics.from_database(self.db))
        if isinstance(plan, PhysicalPlan):
            return plan
        raise ExecutionError(
            f"cannot execute a {type(plan).__name__}; expected a "
            "logical Plan or a PhysicalPlan")

    def execute(self, plan) -> ExecutionResult:
        physical = self._resolve(plan)
        dictionary = self.db.dictionary
        spec = specialized_plan(physical, dictionary)
        stats = AccessStats()
        op_counts = stats.op_counts
        batches: list[Batch] = []
        append = batches.append
        largest = 0
        deadline = current_deadline()
        with span("execute"):
            for step, label in zip(spec.steps, spec.labels):
                if deadline is not None:
                    # Between-steps is the executor's cancellation
                    # point: a batch in flight always completes (the
                    # storage layer has its own finer-grained checks),
                    # partial pipelines never leak out.
                    deadline.check(f"executor:{label}")
                batch = step(batches, self, stats)
                op_counts[label] = op_counts.get(label, 0) + 1
                if batch.length > largest:
                    largest = batch.length
                append(batch)
        stats.ops_executed += len(spec.steps)
        stats.max_intermediate = max(stats.max_intermediate, largest)
        final = batches[-1]
        with span("decode"):
            rows = dictionary.decode_rows(final.cols, final.length)
        return ExecutionResult(Table(final.columns, rows), stats)

    # -- the storage boundary -------------------------------------------------

    def _fetch_flat_encoded(self, constraint, keys: Sequence,
                            stats: AccessStats):
        """One batched trip to storage: code keys in, concatenated
        ``(code columns, length)`` out.  One index lookup per distinct
        key, every returned tuple counted — the dictionary is a
        bijection, so the batch of distinct codes is exactly the batch
        of distinct X-values.  Subclasses may interpose a per-key cache
        here (see ``repro.service.fetchcache.CachingExecutor``).

        This call is also the process-sharding RPC surface: under a
        :class:`~repro.storage.procshard.ProcessShardedBackend` the key
        batch fans out to shard worker processes and the columns come
        back over pipes — with the same answers and the same
        ``AccessStats``, because accounting happens here and in the
        specialized fetch step, never inside an engine.  (``fetch_calls``
        and the ``fetch`` span are counted at the call sites: the
        specialized step closures and ``_run_fetch``.)"""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fetch_flat_encoded")
        cols, length = self.db.fetch_flat_encoded(constraint, keys)
        stats.index_lookups += len(keys)
        stats.tuples_fetched += length
        return cols, length


class LegacyTupleExecutor(Executor):
    """The pre-columnar batch executor: value tuples end to end.

    Kept as the reference the columnar path is compared against: the
    property tests require identical answers and identical
    :class:`AccessStats`, and EXP-9/EXP-10 use it as a wall-clock
    baseline.  It reads through the decoded
    :meth:`~repro.storage.database.Database.fetch_flat` view.
    """

    def execute(self, plan) -> ExecutionResult:
        physical = self._resolve(plan)
        stats = AccessStats()
        batches: list[Batch] = []
        op_counts = stats.op_counts
        with span("execute"):
            for op in physical.steps:
                batch = self._run_op(op, batches, stats)
                stats.ops_executed += 1
                kind = op_label(type(op))
                op_counts[kind] = op_counts.get(kind, 0) + 1
                stats.max_intermediate = max(stats.max_intermediate,
                                             batch.length)
                batches.append(batch)
        final = batches[-1]
        return ExecutionResult(Table(final.columns, final.rows()), stats)

    def _fetch_flat(self, constraint, x_values: Sequence[tuple],
                    stats: AccessStats) -> list[tuple]:
        """One batched trip to storage in the *value* domain: every row
        for the batch of distinct X-values, in one unordered list, with
        the same accounting as :meth:`Executor._fetch_flat_encoded`."""
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fetch_flat")
        rows = self.db.fetch_flat(constraint, x_values)
        stats.index_lookups += len(x_values)
        stats.tuples_fetched += len(rows)
        return rows

    # -- op dispatch ----------------------------------------------------------

    def _run_op(self, op: PhysicalOp, batches: list[Batch],
                stats: AccessStats) -> Batch:
        if isinstance(op, UnitScanOp):
            return Batch((), [], 1, True)
        if isinstance(op, EmptyScanOp):
            return Batch(op.out_columns,
                         [[] for _ in op.out_columns], 0, True)
        if isinstance(op, ConstScanOp):
            return Batch(op.out_columns, [[op.value]], 1, True)
        if isinstance(op, GatherOp):
            return self._run_gather(op, batches[op.source])
        if isinstance(op, FilterOp):
            return self._run_filter(op, batches[op.source])
        if isinstance(op, (BatchFetchOp, FusedFetchOp)):
            return self._run_fetch(op, batches[op.source], stats)
        if isinstance(op, HashJoinOp):
            return self._run_hash_join(op, batches[op.left],
                                       batches[op.right])
        if isinstance(op, CrossJoinOp):
            return self._run_cross(op, batches[op.left], batches[op.right])
        if isinstance(op, DistinctUnionOp):
            return self._run_union(op, batches)
        if isinstance(op, DifferenceOp):
            left, right = batches[op.left], batches[op.right]
            rows = list(left.rows() - right.rows())
            if rows and op.out_columns:
                cols = [list(column) for column in zip(*rows)]
            else:
                cols = [[] for _ in op.out_columns]
            return Batch(op.out_columns, cols,
                         len(rows) if op.out_columns else
                         (1 if rows else 0), True)
        raise ExecutionError(f"unknown physical op {op!r}")

    @staticmethod
    def _run_gather(op: GatherOp, source: Batch) -> Batch:
        if not op.positions:
            return Batch(op.out_columns, [], 1 if source.length else 0, True)
        cols = [source.cols[p] for p in op.positions]
        permutation = (len(op.positions) == len(source.columns)
                       and sorted(op.positions) ==
                       list(range(len(source.columns))))
        if source.distinct and permutation:
            # Reorder/rename of distinct rows: column lists are shared,
            # nothing is copied, distinctness is preserved.
            return Batch(op.out_columns, cols, source.length, True)
        return deduped_batch(op.out_columns, cols, source.length)

    @staticmethod
    def _run_filter(op: FilterOp, source: Batch) -> Batch:
        selected = range(source.length)
        for check in op.checks:
            if isinstance(check, ConstCheck):
                column, value = source.cols[check.position], check.value
                selected = [i for i in selected if column[i] == value]
            else:
                left, right = source.cols[check.left], source.cols[check.right]
                selected = [i for i in selected if left[i] == right[i]]
        selected = list(selected)
        cols = [[column[i] for i in selected] for column in source.cols]
        return Batch(op.out_columns, cols, len(selected), source.distinct)

    def _run_fetch(self, op, source: Batch,
                   stats: AccessStats) -> Batch:
        if op.x_positions:
            key_cols = [source.cols[p] for p in op.x_positions]
            x_values = list(dict.fromkeys(zip(*key_cols)))
        else:
            x_values = [()] if source.length else []
        stats.fetch_calls += 1
        # The whole batch of distinct X-values crosses the storage
        # boundary in ONE vectorized call — the executor never loops
        # single lookups against the backend.
        with span("fetch"):
            fetched = self._fetch_flat(op.constraint, x_values, stats)
        checks = op.checks if isinstance(op, FusedFetchOp) else ()
        if checks:
            out_rows = [row for row in fetched if _passes(row, checks)]
        else:
            out_rows = fetched
        if out_rows:
            cols = [list(column) for column in zip(*out_rows)]
        else:
            cols = [[] for _ in op.out_columns]
        # Per-X results are distinct and carry their X-prefix, so the
        # concatenation over distinct X-values is duplicate-free.
        return Batch(op.out_columns, cols, len(out_rows), True)

    @staticmethod
    def _run_hash_join(op: HashJoinOp, left: Batch, right: Batch) -> Batch:
        if op.build == "left":
            build, probe = left, right
            build_key, probe_key = op.left_key, op.right_key
        else:
            build, probe = right, left
            build_key, probe_key = op.right_key, op.left_key
        build_cols = [build.cols[p] for p in build_key]
        buckets: dict[tuple, list[int]] = {}
        for i in range(build.length):
            buckets.setdefault(tuple(col[i] for col in build_cols),
                               []).append(i)
        probe_cols = [probe.cols[p] for p in probe_key]
        left_index: list[int] = []
        right_index: list[int] = []
        probe_is_left = probe is left
        for j in range(probe.length):
            matches = buckets.get(tuple(col[j] for col in probe_cols))
            if not matches:
                continue
            for i in matches:
                if probe_is_left:
                    left_index.append(j)
                    right_index.append(i)
                else:
                    left_index.append(i)
                    right_index.append(j)
        cols = ([[column[i] for i in left_index] for column in left.cols]
                + [[column[j] for j in right_index]
                   for column in right.cols])
        return Batch(op.out_columns, cols, len(left_index),
                     left.distinct and right.distinct)

    @staticmethod
    def _run_cross(op: CrossJoinOp, left: Batch, right: Batch) -> Batch:
        l_count, r_count = left.length, right.length
        cols = ([[column[i] for i in range(l_count)
                  for _ in range(r_count)] for column in left.cols]
                + [column * l_count for column in right.cols])
        return Batch(op.out_columns, cols, l_count * r_count,
                     left.distinct and right.distinct)

    @staticmethod
    def _run_union(op: DistinctUnionOp, batches: list[Batch]) -> Batch:
        sources = [batches[s] for s in op.sources]
        if len(sources) == 1 and sources[0].distinct:
            only = sources[0]
            return Batch(op.out_columns, only.cols, only.length, True)
        width = len(op.out_columns)
        cols = [[] for _ in range(width)]
        total = 0
        for source in sources:
            for position in range(width):
                cols[position].extend(source.cols[position])
            total += source.length
        return deduped_batch(op.out_columns, cols, total)


# -- the logical reference interpreter ---------------------------------------


def interpret_logical(plan: Plan, db: Database,
                      stats: AccessStats | None = None) -> ExecutionResult:
    """Direct tuple-at-a-time interpretation of the *logical* IR.

    No optimizer, no join fusion, no batches: every step materializes a
    row set exactly as the paper's plan semantics reads.  This is the
    reference the optimized pipeline is property-tested against, and
    the "unoptimized" baseline of the EXP-9 benchmark.
    """
    stats = stats if stats is not None else AccessStats()
    tables: list[Table] = []

    def run(op: Op) -> Table:
        if isinstance(op, UnitOp):
            return Table((), {()})
        if isinstance(op, EmptyOp):
            return Table(op.columns, set())
        if isinstance(op, ConstOp):
            return Table((op.column,), {(op.value,)})
        if isinstance(op, FetchOp):
            source = tables[op.source]
            positions = [source.column_index(c) for c in op.x_columns]
            x_values = {tuple(row[p] for p in positions)
                        for row in source.rows}
            stats.fetch_calls += 1
            rows: set[tuple] = set()
            for x_value in x_values:
                fetched = db.fetch(op.constraint, x_value)
                stats.index_lookups += 1
                stats.tuples_fetched += len(fetched)
                rows.update(fetched)
            return Table(op.out_columns, rows)
        if isinstance(op, ProjectOp):
            source = tables[op.source]
            positions = [source.column_index(c) for c in op.src_columns]
            rows = {tuple(row[p] for p in positions) for row in source.rows}
            columns = (op.out_columns if op.out_columns is not None
                       else op.src_columns)
            return Table(tuple(columns), rows)
        if isinstance(op, SelectOp):
            source = tables[op.source]
            checks = []
            for condition in op.conditions:
                if isinstance(condition, ColEq):
                    checks.append((source.column_index(condition.left),
                                   source.column_index(condition.right),
                                   None))
                elif isinstance(condition, ConstEq):
                    checks.append((source.column_index(condition.column),
                                   condition.value))
                else:
                    raise ExecutionError(
                        f"unknown condition {condition!r}")
            rows = {row for row in source.rows
                    if all(row[c[0]] == row[c[1]] if len(c) == 3
                           else row[c[0]] == c[1] for c in checks)}
            return Table(source.columns, rows)
        if isinstance(op, RenameOp):
            mapping = dict(op.mapping)
            source = tables[op.source]
            return Table(tuple(mapping.get(c, c) for c in source.columns),
                         set(source.rows))
        if isinstance(op, ProductOp):
            left, right = tables[op.left], tables[op.right]
            rows = {l + r for l in left.rows for r in right.rows}
            return Table(left.columns + right.columns, rows)
        if isinstance(op, UnionOp):
            rows = set()
            for source in op.sources:
                rows |= tables[source].rows
            return Table(tables[op.sources[0]].columns, rows)
        if isinstance(op, DiffOp):
            left, right = tables[op.left], tables[op.right]
            return Table(left.columns, left.rows - right.rows)
        raise ExecutionError(f"unknown op {op!r}")

    if not plan.steps:
        raise ExecutionError("cannot execute an empty plan")
    for op in plan.steps:
        table = run(op)
        stats.ops_executed += 1
        stats.observe_table(table)
        tables.append(table)
    return ExecutionResult(tables[-1], stats)


def execute_plan(plan, db: Database) -> ExecutionResult:
    """Convenience wrapper: optimize (if needed) and run against ``db``."""
    return Executor(db).execute(plan)
