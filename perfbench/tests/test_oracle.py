"""The oracle against the program's naive evaluator, on a small instance."""

import random

import pytest

import workloads
from oracle import Oracle
from repro.engine.naive import evaluate
from repro.query.parser import parse_query
from repro.schema.relation import Schema
from repro.storage.database import Database


@pytest.fixture(scope="module")
def rows():
    return workloads.generate_rows(days=12, seed=7)


def database(rows):
    db = Database(Schema.from_dict(workloads.SCHEMA))
    for name, relation in rows.items():
        db.insert_many(name, relation)
    return db


def naive_q0(db, binding):
    text = workloads.ADHOC_SHAPES[0][1].format(**binding)
    return evaluate(parse_query(text), db)


def test_every_adhoc_shape_matches_the_naive_evaluator(rows):
    db, oracle = database(rows), Oracle(rows)
    requests = workloads.adhoc_requests(rows, 120, random.Random(3))
    assert {shape for shape, _params, _text in requests} == \
        {shape for shape, _text in workloads.ADHOC_SHAPES}
    for shape, params, text in requests:
        expected = evaluate(parse_query(text), db)
        assert expected, (shape, params)
        assert oracle.answers(shape, params) == expected, (shape, params)


def test_template_pool_matches_the_naive_evaluator(rows):
    db, oracle = database(rows), Oracle(rows)
    pool = workloads.binding_pool(rows, "fit", random.Random(5))
    assert pool
    for binding in pool:
        assert oracle.q0(**binding) == naive_q0(db, binding)


def test_mirror_tracks_writes_and_touched_bindings(rows):
    db, oracle = database(rows), Oracle(rows)
    rng = random.Random(9)
    pool = workloads.binding_pool(rows, 40, rng)
    writes = workloads.write_schedule(rows, 60, rng, pool)
    before = {(b["district"], b["date"]): oracle.q0(**b) for b in pool}
    touched = oracle.touched_bindings(writes)
    # Stop mid-schedule, as the writer may: the mirror follows a prefix.
    applied = writes[:45]
    for op, relation, row in applied:
        (db.insert if op == "insert" else db.delete)(relation, row)
    oracle.apply(applied)
    for binding in pool:
        answer = naive_q0(db, binding)
        assert oracle.q0(**binding) == answer
        key = (binding["district"], binding["date"])
        if key not in touched:
            assert answer == before[key]
    assert any(key in touched for key in before)


def test_same_seed_same_inputs():
    workload = workloads.WORKLOADS["hot"]
    first = workloads.make_inputs(workload, 4, reads=50, writes=20)
    again = workloads.make_inputs(workload, 4, reads=50, writes=20)
    other = workloads.make_inputs(workload, 5, reads=50, writes=20)
    assert first == again
    assert first["requests"] != other["requests"]
