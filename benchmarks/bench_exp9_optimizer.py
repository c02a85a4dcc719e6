"""EXP-9 — optimizer pipeline: optimized physical vs. logical execution.

Not a paper experiment: this measures the rule-based optimizer and the
batch executor the engine refactor added.  The paper certifies the
*logical* bounded plan (what is fetched is bounded by Q and A alone);
this experiment checks that the physical plan the optimizer derives is
a pure win on top of that guarantee.  Claims checked:

* on join-heavy workloads (accidents Q0-style 3-way joins and
  Graph-Search-style social queries encoded relationally), the
  optimized physical executor is **>= 2x faster** than direct logical
  interpretation (which materializes every ``×`` before selecting);
* answers are **bit-identical** between the two, for every query;
* optimization never *adds* data access: tuples fetched by the
  physical plan never exceed the logical interpretation's;
* the rule trace is reported per rule as plan-size deltas.

The columnar section then measures the columnar executor against the
pre-columnar :class:`~repro.engine.executor.LegacyTupleExecutor` on
the same warm physical plans (identical answers *and* identical
``AccessStats`` enforced), replays the encoded storage boundary with
one batched call vs one call per key (**>= 3x**, hard floor gate), and
reports per-operator throughput plus the steady-state cost of bulk
dictionary encoding.

Run with ``python -m pytest benchmarks/bench_exp9_optimizer.py -x -q``.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

import pytest

from repro import (AccessConstraint, AccessSchema, Database, Schema,
                   is_boundedly_evaluable)
from repro.engine import (Executor, LegacyTupleExecutor, execute_plan,
                          interpret_logical, optimize)
from repro.engine.executor import AccessStats
from repro.engine.optimizer.specialize import specialized_plan
from repro.query import parse_query
from repro.storage.encoding import ValueDictionary, int_column
from repro.storage.statistics import TableStatistics
from repro.workload.accidents import AccidentScale, simple_accidents
from repro.workload.social import (CITIES, INTERESTS, SocialScale,
                                   relational_social)

from _harness import ExperimentLog, timed

REPEAT = 3
MIN_SPEEDUP = 2.0
#: One batched encoded fetch must beat one encoded call per key by
#: this factor (measured 4-5.5x on the replay below, 2-core host).
MIN_BOUNDARY_SPEEDUP = 3.0
BOUNDARY_KEYS = 500
BOUNDARY_FANOUT = 60


@pytest.fixture(scope="module")
def log():
    experiment = ExperimentLog(
        "EXP-9", "optimizer: physical vs logical execution")
    yield experiment
    experiment.flush()


# -- workloads ----------------------------------------------------------------


def accident_queries():
    db = simple_accidents(AccidentScale(days=90, max_accidents_per_day=30))
    rng = random.Random(9)
    accidents = rng.sample(db.relation_tuples("Accident"), 6)
    queries = [
        (f"drivers[{district}@{date}]",
         f"Q(xa) :- Accident(aid, '{district}', '{date}'), "
         "Casualty(cid, aid, cl, vid), Vehicle(vid, dri, xa)")
        for _, district, date in accidents
    ]
    queries.append((
        "day-pair",
        "Q(d1, d2) :- Accident(a1, d1, t), Accident(a2, d2, t), "
        f"t = '{accidents[0][2]}'"))
    return db, queries


def social_db(scale: SocialScale | None = None) -> Database:
    """The social graph of EXP-3, encoded relationally (see
    ``repro.workload.social.relational_social``)."""
    return relational_social(scale or SocialScale(persons=1500))


def social_queries(db: Database):
    rng = random.Random(23)
    people = sorted({row[0] for row in db.relation_tuples("Friend")})
    queries = []
    for me in rng.sample(people, 4):
        city = rng.choice(CITIES)
        interest = rng.choice(INTERESTS)
        queries.append((
            f"graph-search[{me}]",
            f"Q(f) :- Friend(me, f), LivesIn(f, c), Likes(f, i), "
            f"me = '{me}', c = '{city}', i = '{interest}'"))
        queries.append((
            f"friends-of-friends[{me}]",
            f"Q(g) :- Friend(me, f), Friend(f, g), LivesIn(g, c), "
            f"me = '{me}', c = '{city}'"))
    return queries


# -- the experiment -----------------------------------------------------------


def run_workload(name, db, queries, log, failures):
    statistics = TableStatistics.from_database(db)
    rows = []
    deltas = defaultdict(lambda: [0, 0])  # rule -> [fired, steps removed]
    total_logical = total_physical = 0.0
    for label, text in queries:
        query = parse_query(text)
        decision = is_boundedly_evaluable(query, db.access_schema)
        assert decision.is_yes, f"{label} must be bounded: {decision.reason}"
        plan = decision.witness["plan"]
        physical = optimize(plan, statistics)
        for firing in physical.trace.firings:
            deltas[firing.rule][0] += firing.fired
            deltas[firing.rule][1] += (firing.steps_before
                                       - firing.steps_after)

        logical_s, reference = timed(
            lambda: interpret_logical(plan, db), repeat=REPEAT)
        physical_s, optimized = timed(
            lambda: execute_plan(physical, db), repeat=REPEAT)

        if optimized.answers != reference.answers:
            failures.append(f"{name}/{label}: answers differ")
        if (optimized.stats.tuples_fetched
                > reference.stats.tuples_fetched):
            failures.append(
                f"{name}/{label}: optimization added data access "
                f"({optimized.stats.tuples_fetched} > "
                f"{reference.stats.tuples_fetched} tuples)")

        total_logical += logical_s
        total_physical += physical_s
        rows.append([label, len(plan), len(physical),
                     f"{logical_s * 1e3:.2f}ms",
                     f"{physical_s * 1e3:.3f}ms",
                     f"{logical_s / max(physical_s, 1e-9):.1f}x",
                     len(optimized.answers)])

    speedup = total_logical / max(total_physical, 1e-9)
    log.row("")
    log.row(f"-- {name} (|D| = {db.size()}) --")
    log.table(["query", "logical ops", "physical ops", "logical",
               "physical", "speedup", "answers"], rows)
    log.row(f"workload speedup: {speedup:.1f}x "
            f"({total_logical * 1e3:.1f}ms -> {total_physical * 1e3:.1f}ms)")
    return speedup, deltas


# -- the columnar section -----------------------------------------------------


def compiled_plans(db, queries):
    statistics = TableStatistics.from_database(db)
    plans = []
    for label, text in queries:
        decision = is_boundedly_evaluable(parse_query(text),
                                          db.access_schema)
        assert decision.is_yes, f"{label} must be bounded"
        plans.append((label, optimize(decision.witness["plan"],
                                      statistics)))
    return plans


def columnar_workload(name, db, queries, log, failures):
    """Columnar executor vs the pre-columnar tuple executor on warm
    physical plans.  Decoded answers and the full ``AccessStats`` must
    be identical — the columnar path may only change *how* batches are
    represented, never what is fetched."""
    legacy = LegacyTupleExecutor(db)
    columnar = Executor(db)
    total_legacy = total_columnar = 0.0
    rows = []
    for label, physical in compiled_plans(db, queries):
        reference = legacy.execute(physical)
        encoded = columnar.execute(physical)  # also warms the spec memo
        if encoded.answers != reference.answers:
            failures.append(f"{name}/{label}: columnar answers differ")
        if encoded.stats != reference.stats:
            failures.append(
                f"{name}/{label}: columnar AccessStats drifted "
                f"({encoded.stats} != {reference.stats})")
        legacy_s, _ = timed(lambda: legacy.execute(physical),
                            repeat=REPEAT)
        columnar_s, _ = timed(lambda: columnar.execute(physical),
                              repeat=REPEAT)
        total_legacy += legacy_s
        total_columnar += columnar_s
        rows.append([label, f"{legacy_s * 1e3:.3f}ms",
                     f"{columnar_s * 1e3:.3f}ms",
                     f"{legacy_s / max(columnar_s, 1e-9):.1f}x"])
    speedup = total_legacy / max(total_columnar, 1e-9)
    log.row("")
    log.row(f"-- {name}: columnar vs legacy tuple executor --")
    log.table(["query", "legacy", "columnar", "speedup"], rows)
    log.row(f"columnar speedup: {speedup:.2f}x "
            f"({total_legacy * 1e3:.2f}ms -> {total_columnar * 1e3:.2f}ms)")
    return speedup, total_legacy, total_columnar


def per_operator_rates(db, queries, repeat=REPEAT):
    """Rows produced per second by each specialized operator closure,
    measured by stepping the warm program one closure at a time."""
    executor = Executor(db)
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for _, physical in compiled_plans(db, queries):
        spec = specialized_plan(physical, db.dictionary)
        for _ in range(repeat):
            stats = AccessStats()
            batches = []
            for step, op_name in zip(spec.steps, spec.labels):
                start = time.perf_counter()
                batch = step(batches, executor, stats)
                elapsed = time.perf_counter() - start
                totals[op_name][0] += elapsed
                totals[op_name][1] += batch.length
                batches.append(batch)
    return {op: int(produced / max(seconds, 1e-9))
            for op, (seconds, produced) in sorted(totals.items())}


def boundary_db() -> Database:
    """A deterministic high-fanout instance sized so one vectorized
    fetch moves ``BOUNDARY_KEYS * BOUNDARY_FANOUT`` rows."""
    schema = Schema.from_dict({"R": ("A", "B", "C")})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B", "C"), BOUNDARY_FANOUT)])
    db = Database(schema, access)
    for key in range(BOUNDARY_KEYS):
        for i in range(BOUNDARY_FANOUT):
            db.insert("R", (f"key-{key}", f"val-{key}-{i}", i))
    return db


def boundary_replay(log, failures):
    """Replay the storage boundary both ways, in code space.

    The baseline crosses it once per key — one ``fetch_flat_encoded``
    call per distinct X-key, concatenated into the same flat columns —
    which is what a per-value executor loop costs on the encoded
    plane.  The batched path answers the whole key batch in one call,
    so resolution, locking and column allocation are paid once, not
    per key."""
    db = boundary_db()
    constraint = list(db.access_schema)[0]
    dictionary = db.dictionary
    codes = [dictionary.encode(f"key-{key}")
             for key in range(BOUNDARY_KEYS)]
    width = len(constraint.x) + len(constraint.y)

    def per_key_fetch():
        out = [int_column() for _ in range(width)]
        for code in codes:
            cols, _ = db.fetch_flat_encoded(constraint, [code])
            for column, part in zip(out, cols):
                column.extend(part)
        return out, len(out[0])

    def batched_fetch():
        return db.fetch_flat_encoded(constraint, codes)

    per_key_s, (per_key_cols, n_rows) = timed(per_key_fetch,
                                              repeat=REPEAT)
    batched_s, (cols, length) = timed(batched_fetch, repeat=REPEAT)
    if length != n_rows or (dictionary.decode_rows(cols, length)
                            != dictionary.decode_rows(per_key_cols,
                                                      n_rows)):
        failures.append("boundary replay: batched fetch decoded to a "
                        "different row set")
    speedup = per_key_s / max(batched_s, 1e-9)
    log.row("")
    log.row(f"-- storage boundary replay ({BOUNDARY_KEYS} keys x "
            f"{BOUNDARY_FANOUT} rows = {length} rows/fetch) --")
    log.table(["path", "ms/fetch", "rows/sec"],
              [["per-key encoded calls", f"{per_key_s * 1e3:.3f}",
                f"{int(length / max(per_key_s, 1e-9)):,}"],
               ["one batched encoded call", f"{batched_s * 1e3:.3f}",
                f"{int(length / max(batched_s, 1e-9)):,}"]])
    log.row(f"boundary speedup: {speedup:.1f}x")
    return speedup, int(length / max(batched_s, 1e-9))


def encode_overhead(db):
    """Steady-state cost of bulk-encoding the whole instance into a
    fresh dictionary — the price insert-time encoding amortizes away
    from the read path."""
    all_rows = [row for name in sorted(db.summary())
                for row in db.relation_tuples(name)]

    def bulk_encode():
        fresh = ValueDictionary()
        encode_row = fresh.encode_row
        for row in all_rows:
            encode_row(row)
        return len(fresh)

    seconds, dict_size = timed(bulk_encode, repeat=REPEAT)
    return seconds, len(all_rows), dict_size


@pytest.fixture(scope="module")
def measured(log):
    """Run both workloads once; identity violations are *collected*
    here and asserted in the bench_correctness test, wall-clock
    thresholds in the (noise-tolerant) speedup test."""
    failures: list[str] = []
    accident_db, acc_queries = accident_queries()
    acc_speedup, acc_deltas = run_workload(
        "accidents", accident_db, acc_queries, log, failures)

    social = social_db()
    soc_speedup, soc_deltas = run_workload(
        "social", social, social_queries(social), log, failures)

    merged = defaultdict(lambda: [0, 0])
    for deltas in (acc_deltas, soc_deltas):
        for rule, (fired, removed) in deltas.items():
            merged[rule][0] += fired
            merged[rule][1] += removed
    log.row("")
    log.row("-- per-rule plan-size deltas (both workloads) --")
    log.table(["rule", "rewrites", "steps removed"],
              [[rule, fired, removed]
               for rule, (fired, removed) in merged.items()])
    log.metric("accidents_speedup", round(acc_speedup, 2))
    log.metric("social_speedup", round(soc_speedup, 2))
    log.metric("rule_firings",
               {rule: fired for rule, (fired, _) in merged.items()})

    # -- columnar executor vs the pre-columnar tuple path --
    acc_col, acc_leg_s, acc_col_s = columnar_workload(
        "accidents", accident_db, acc_queries, log, failures)
    soc_col, soc_leg_s, soc_col_s = columnar_workload(
        "social", social, social_queries(social), log, failures)
    columnar_speedup = ((acc_leg_s + soc_leg_s)
                        / max(acc_col_s + soc_col_s, 1e-9))
    boundary_speedup, boundary_rate = boundary_replay(log, failures)
    op_rates = per_operator_rates(social, social_queries(social))
    encode_s, encoded_rows, dict_size = encode_overhead(accident_db)
    log.row("")
    log.row("-- per-operator throughput (social, warm closures) --")
    log.table(["operator", "rows out/sec"],
              [[op, f"{rate:,}"] for op, rate in op_rates.items()])
    log.row(f"bulk encode overhead: {encoded_rows} rows -> "
            f"{dict_size} dictionary entries in {encode_s * 1e3:.2f}ms")

    log.metric("columnar_vs_legacy_speedup", round(columnar_speedup, 2))
    log.metric("batched_vs_per_key_boundary_speedup",
               round(boundary_speedup, 1))
    log.metric("columnar_boundary_rows_per_sec", boundary_rate)
    log.metric("operator_rows_per_sec", op_rates)
    log.metric("encode_overhead_ms", round(encode_s * 1e3, 3))
    log.metric("encode_rows_per_sec",
               int(encoded_rows / max(encode_s, 1e-9)))
    # Hard floors: the batched boundary is deterministic enough to
    # gate at the full 3x; end-to-end times on bounded queries are
    # dominated by fixed per-query costs, so the floor there only
    # demands "never slower than the tuple path".
    log.gate("batched_vs_per_key_boundary_speedup",
             min_value=MIN_BOUNDARY_SPEEDUP)
    log.gate("columnar_vs_legacy_speedup", min_value=1.1)
    return {"failures": failures, "acc_speedup": acc_speedup,
            "soc_speedup": soc_speedup, "merged": merged,
            "columnar_speedup": columnar_speedup,
            "boundary_speedup": boundary_speedup}


@pytest.mark.bench_correctness
def test_identical_answers_and_no_added_access(measured):
    assert not measured["failures"], measured["failures"][:5]
    # The tentpole rules actually fired (deterministic counters).
    merged = measured["merged"]
    assert merged["product-to-hash-join"][0] > 0
    assert merged["select-into-fetch"][0] > 0


def test_optimizer_speedup(measured):
    acc_speedup = measured["acc_speedup"]
    soc_speedup = measured["soc_speedup"]
    # The join-heavy workloads must show the headline win.
    assert acc_speedup >= MIN_SPEEDUP, f"accidents: only {acc_speedup:.1f}x"
    assert soc_speedup >= MIN_SPEEDUP, f"social: only {soc_speedup:.1f}x"


def test_columnar_boundary_speedup(measured):
    """The boundary smoke gate CI runs standalone: one batched encoded
    fetch must beat one encoded call per key by >= 3x at the storage
    boundary (measured 4-5.5x on a 2-core host)."""
    boundary = measured["boundary_speedup"]
    assert boundary >= MIN_BOUNDARY_SPEEDUP, \
        f"boundary replay: only {boundary:.1f}x"
    # End to end the columnar executor must never lose to the tuple
    # path it replaced (bounded queries move few rows, so the margin
    # here is structurally smaller than at the boundary).
    assert measured["columnar_speedup"] >= 1.1, \
        f"end-to-end: only {measured['columnar_speedup']:.2f}x"
