"""EXP-10 — the storage boundary: one batched fetch vs one call per key.

Not a paper experiment: this measures the vectorized storage boundary.
The paper's whole point is that a covered query touches a bounded
fragment ``D_Q`` through access-constraint indexes; the executor
crosses into storage once per fetch *batch*, handing the engine every
distinct X-key of the batch in one ``fetch_flat_encoded`` call and
getting pre-encoded code columns back.  Claims checked:

* replaying the *exact fetch batches* real accidents/social query
  traffic issues, **one batched encoded call per batch is >= 3x faster
  than one encoded call per key** over the same traffic (hard
  ``min_value`` trajectory gate), with bit-identical rows;
* end-to-end query answers are **bit-identical** between the columnar
  executor and the per-value tuple executor (one decoded ``db.fetch``
  per X-value), and the access accounting is *identical*: same index
  lookups (one per distinct X-value), same tuples fetched —
  vectorization changes the shape of the traffic, never ``|D_Q|``;
* the end-to-end win over the per-value executor is reported alongside
  (joins and gathers bound it below the boundary-level speedup);
  dictionary sizes and decode times ride along as recorded metrics.

Run with ``python -m pytest benchmarks/bench_exp10_storage.py -x -q``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import is_boundedly_evaluable
from repro.engine import optimize
from repro.engine.executor import (AccessStats, Executor,
                                   LegacyTupleExecutor)
from repro.obs import MetricsRegistry
from repro.query import parse_query
from repro.storage.encoding import int_column
from repro.storage.statistics import TableStatistics
from repro.workload.accidents import AccidentScale, simple_accidents
from repro.workload.social import CITIES, SocialScale, relational_social

from _harness import ExperimentLog, timed, timed_median

REPEAT = 5
BOUNDARY_REPEAT = 15
#: One batched encoded call per fetch batch vs one encoded call per
#: key, on the same replayed traffic.
MIN_BATCHED_SPEEDUP = 3.0
#: End to end, joins and gathers dilute the boundary win.
MIN_END_TO_END_SPEEDUP = 1.1


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-10", "storage boundary: batched vs per-key encoded fetch")
    yield experiment
    experiment.flush()


class PerValueExecutor(LegacyTupleExecutor):
    """The per-value stack, preserved as the end-to-end baseline: tuple
    batches end to end, with one decoded ``db.fetch`` round-trip (and
    its accounting) per distinct X-value."""

    def _fetch_flat(self, constraint, x_values, stats):
        out_rows = []
        for x_value in x_values:
            fetched = self.db.fetch(constraint, x_value)
            stats.index_lookups += 1
            stats.tuples_fetched += len(fetched)
            out_rows.extend(fetched)
        return out_rows


class RecordingExecutor(Executor):
    """Harvests the (constraint, code-key batch) pairs a plan issues at
    the encoded boundary, so the boundary benchmark replays *real*
    traffic, not synthetic keys."""

    def __init__(self, db):
        super().__init__(db)
        self.batches: list[tuple[object, list]] = []

    def _fetch_flat_encoded(self, constraint, keys, stats):
        self.batches.append((constraint, list(keys)))
        return super()._fetch_flat_encoded(constraint, keys, stats)


# -- workloads ----------------------------------------------------------------


def accident_workload():
    # Busy days, as in the paper's real dataset (up to 610 accidents per
    # day): each day-query fans out to hundreds of casualty/vehicle
    # lookups, which is exactly the fetch-heavy regime the vectorized
    # boundary is for.
    db = simple_accidents(AccidentScale(days=60, max_accidents_per_day=200))
    rng = random.Random(10)
    dates = sorted({row[2] for row in db.relation_tuples("Accident")})
    queries = [
        (f"drivers-on[{date}]",
         f"Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
         f"Vehicle(vid, dri, xa), t = '{date}'")
        for date in rng.sample(dates, 8)
    ]
    return db, queries


def social_workload():
    db = relational_social(SocialScale(persons=2500))
    rng = random.Random(31)
    people = sorted({row[0] for row in db.relation_tuples("Friend")})
    queries = []
    for me in rng.sample(people, 8):
        city = rng.choice(CITIES)
        queries.append((
            f"fof[{me}]",
            f"Q(g) :- Friend(me, f), Friend(f, g), LivesIn(g, c), "
            f"me = '{me}', c = '{city}'"))
    return db, queries


# -- plan + execution helpers -------------------------------------------------


def compile_plans(db, queries):
    statistics = TableStatistics.from_database(db)
    plans = []
    for label, text in queries:
        decision = is_boundedly_evaluable(parse_query(text),
                                          db.access_schema)
        assert decision.is_yes, f"{label} must be bounded: {decision.reason}"
        plans.append((label, optimize(decision.witness["plan"], statistics)))
    return plans


def run_all(executor, plans):
    stats = AccessStats()
    answers = []
    for _, plan in plans:
        result = executor.execute(plan)
        stats.merge(result.stats)
        answers.append(result.answers)
    return answers, stats


# -- the boundary benchmark (the asserted claim) ------------------------------


def replay_batched(executor, batches):
    """Re-issue the harvested batches through the executor's *actual*
    storage-boundary hook, accounting included: one call per batch."""
    stats = AccessStats()
    out = [executor._fetch_flat_encoded(constraint, keys, stats)
           for constraint, keys in batches]
    return out, stats


def replay_per_key(executor, batches):
    """The same traffic with one boundary call per key, concatenated
    into the same flat columns — what a per-value loop costs on the
    encoded plane."""
    stats = AccessStats()
    out = []
    for constraint, keys in batches:
        width = len(constraint.x) + len(constraint.y)
        cols = [int_column() for _ in range(width)]
        for key in keys:
            part, _ = executor._fetch_flat_encoded(constraint, [key], stats)
            for column, codes in zip(cols, part):
                column.extend(codes)
        out.append((cols, len(cols[0]) if cols else 0))
    return out, stats


def run_boundary(name, db, plans, log, failures):
    recorder = RecordingExecutor(db)
    for _, plan in plans:
        recorder.execute(plan)
    batches = recorder.batches
    x_total = sum(len(keys) for _, keys in batches)
    executor = Executor(db)
    per_key_s, (per_key_out, per_key_stats) = timed(
        lambda: replay_per_key(executor, batches), repeat=BOUNDARY_REPEAT)
    batched_s, (batched_out, batched_stats) = timed(
        lambda: replay_batched(executor, batches), repeat=BOUNDARY_REPEAT)

    # Same rows and same |D_Q| accounting, batch for batch (row order
    # within a batch is storage-layout dependent and carries no
    # meaning under set semantics).  Violations are collected here and
    # asserted in the bench_correctness test.
    dictionary = db.dictionary
    decode_s = 0.0
    for (per_key_cols, n_rows), (cols, length) in zip(per_key_out,
                                                      batched_out):
        start = time.perf_counter()
        decoded = dictionary.decode_rows(cols, length)
        decode_s += time.perf_counter() - start
        if (length != n_rows
                or decoded != dictionary.decode_rows(per_key_cols,
                                                     n_rows)):
            failures.append(f"{name}/boundary: fetched rows differ")
            break
    if (batched_stats.index_lookups != per_key_stats.index_lookups
            or batched_stats.tuples_fetched
            != per_key_stats.tuples_fetched):
        failures.append(
            f"{name}/boundary: accounting differs "
            f"({batched_stats.index_lookups}/"
            f"{batched_stats.tuples_fetched} vs "
            f"{per_key_stats.index_lookups}/"
            f"{per_key_stats.tuples_fetched})")

    speedup = per_key_s / max(batched_s, 1e-9)
    tuples = batched_stats.tuples_fetched
    log.row("")
    log.row(f"-- {name} boundary: {len(batches)} fetch batches, "
            f"{x_total} X-keys, {tuples} tuples "
            f"(best of {BOUNDARY_REPEAT}) --")
    log.table(["boundary", "time", "per X-key"],
              [["memory/per-key", f"{per_key_s * 1e3:.2f}ms",
                f"{per_key_s / x_total * 1e6:.2f}us"],
               ["memory/batched", f"{batched_s * 1e3:.2f}ms",
                f"{batched_s / x_total * 1e6:.2f}us"]])
    log.row(f"batched vs per-key: {speedup:.1f}x (decode of all "
            f"fetched rows: {decode_s * 1e3:.2f}ms, dictionary: "
            f"{len(dictionary)} entries)")
    log.metric(f"{name}_batched_vs_per_key_speedup", round(speedup, 2))
    log.metric(f"{name}_per_key_boundary_ms", round(per_key_s * 1e3, 3))
    log.metric(f"{name}_batched_boundary_ms", round(batched_s * 1e3, 3))
    log.metric(f"{name}_decode_time_ms", round(decode_s * 1e3, 3))
    log.metric(f"{name}_dictionary_size", len(dictionary))
    log.metric(f"{name}_boundary_x_values", x_total)
    log.metric(f"{name}_boundary_tuples", tuples)
    log.gate(f"{name}_batched_vs_per_key_speedup",
             min_value=MIN_BATCHED_SPEEDUP)
    return speedup


# -- the end-to-end comparison (identity + reported win) ----------------------


def run_end_to_end(name, db, plans, log, failures):
    configs = [
        ("memory/per-value", PerValueExecutor(db)),
        ("memory/vectorized", Executor(db)),
    ]
    rows = []
    timings = {}
    baseline_answers = baseline_stats = None
    for config_name, executor in configs:
        seconds, (answers, stats) = timed_median(
            lambda executor=executor: run_all(executor, plans),
            repeat=REPEAT)
        timings[config_name] = seconds
        if baseline_answers is None:
            baseline_answers, baseline_stats = answers, stats
        else:
            # Bit-identical answers and identical |D_Q| accounting on
            # both boundary shapes.
            if answers != baseline_answers:
                failures.append(f"{name}/{config_name}: answers differ")
            if (stats.index_lookups != baseline_stats.index_lookups
                    or stats.tuples_fetched
                    != baseline_stats.tuples_fetched):
                failures.append(
                    f"{name}/{config_name}: end-to-end accounting differs")
        rows.append([config_name, f"{seconds * 1e3:.2f}ms",
                     stats.index_lookups, stats.tuples_fetched])

    speedup = timings["memory/per-value"] / max(
        timings["memory/vectorized"], 1e-9)
    log.row("")
    log.row(f"-- {name} end-to-end (|D| = {db.size()}, {len(plans)} "
            f"queries, median of {REPEAT}) --")
    log.table(["config", "time", "index lookups", "tuples fetched"], rows)
    log.row(f"end-to-end (includes joins/gathers): {speedup:.2f}x")
    log.metric(f"{name}_end_to_end_speedup", round(speedup, 2))
    log.metric(f"{name}_end_to_end_median_ms", {
        config: round(seconds * 1e3, 3)
        for config, seconds in timings.items()})
    log.metric(f"{name}_tuples_fetched", baseline_stats.tuples_fetched)
    log.metric(f"{name}_index_lookups", baseline_stats.index_lookups)
    return speedup, baseline_stats


def run_workload(name, db, queries, log, failures):
    plans = compile_plans(db, queries)
    boundary = run_boundary(name, db, plans, log, failures)
    end_to_end, stats = run_end_to_end(name, db, plans, log, failures)
    return boundary, end_to_end, stats


def registry_dump(stats: AccessStats) -> dict:
    """The workloads' access accounting mirrored through a
    :class:`~repro.obs.metrics.MetricsRegistry`, so BENCH_exp-10.json
    carries the same metric names (per-op batch counts included) a
    scraped service exposes."""
    registry = MetricsRegistry()
    registry.counter("repro_fetch_calls_total").set_total(stats.fetch_calls)
    registry.counter(
        "repro_index_lookups_total").set_total(stats.index_lookups)
    registry.counter(
        "repro_tuples_fetched_total").set_total(stats.tuples_fetched)
    ops = registry.counter("repro_executor_ops_total",
                           label_names=("op",))
    for op, count in sorted(stats.op_counts.items()):
        ops.labels(op=op).set_total(count)
    return registry.as_flat_dict()


@pytest.fixture(scope="module")
def measured(log):
    """Both workloads, measured once; identity violations are collected
    for the bench_correctness test, wall-clock ratios for the (noisy,
    continue-on-error-smoked) speedup test."""
    failures: list[str] = []
    accidents_db, accidents_queries = accident_workload()
    acc_boundary, acc_e2e, acc_stats = run_workload(
        "accidents", accidents_db, accidents_queries, log, failures)

    social, social_queries_ = social_workload()
    soc_boundary, soc_e2e, soc_stats = run_workload(
        "social", social, social_queries_, log, failures)

    totals = AccessStats()
    totals.merge(acc_stats)
    totals.merge(soc_stats)
    log.metric("observability", registry_dump(totals))

    log.row("")
    log.row(f"claim: one batched encoded fetch per batch is >= "
            f"{MIN_BATCHED_SPEEDUP:.0f}x faster than one encoded call "
            "per key, replaying the batches real traffic issues.")
    log.row(f"measured: accidents {acc_boundary:.1f}x (end-to-end "
            f"{acc_e2e:.2f}x), social {soc_boundary:.1f}x (end-to-end "
            f"{soc_e2e:.2f}x)")
    return {"failures": failures,
            "boundary": [("accidents", acc_boundary),
                         ("social", soc_boundary)],
            "end_to_end": [("accidents", acc_e2e), ("social", soc_e2e)]}


@pytest.mark.bench_correctness
def test_identical_rows_and_accounting_on_every_path(measured):
    assert not measured["failures"], measured["failures"][:5]


def test_batched_boundary_speedup(measured):
    """One batched encoded call per fetch batch must beat one call per
    key by >= 3x on replayed real traffic — also enforced as a
    min_value trajectory gate."""
    for label, speedup in measured["boundary"]:
        assert speedup >= MIN_BATCHED_SPEEDUP, \
            f"{label} boundary: only {speedup:.1f}x"
    # Vectorization must also be a clear end-to-end win, not just a
    # microbench one (joins/gathers put the boundary factor out of
    # reach here).
    for label, speedup in measured["end_to_end"]:
        assert speedup >= MIN_END_TO_END_SPEEDUP, \
            f"{label} end-to-end: only {speedup:.2f}x"
