"""Tests for CSV import/export and the CLI."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Database, LogCardinality, \
    PowerCardinality, Schema, SchemaError, StorageError
from repro.cli import main as cli_main
from repro.storage.io import (load_database, load_relation_csv,
                              save_database, save_relation_csv)


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ("A", "B"), "S": ("C",)})
    access = AccessSchema(schema, [
        AccessConstraint("R", ("A",), ("B",), 3),
        AccessConstraint("S", (), ("C",), LogCardinality(2.0)),
    ])
    database = Database(schema, access)
    database.insert_many("R", [(1, "x"), (2, "y"), (1, "z")])
    database.insert_many("S", [("c1",), ("c2",)])
    return database


class TestCSVRoundTrip:
    def test_relation_roundtrip(self, db, tmp_path):
        path = tmp_path / "r.csv"
        assert save_relation_csv(db, "R", path) == 3
        fresh = Database(db.schema)
        assert load_relation_csv(fresh, "R", path) == 3
        assert sorted(fresh.relation_tuples("R")) == \
            sorted(db.relation_tuples("R"))

    def test_header_mismatch_rejected(self, db, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("X,Y\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            load_relation_csv(Database(db.schema), "R", path)

    def test_unknown_relation_rejected(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(SchemaError, match="unknown relation 'T'"):
            load_relation_csv(Database(db.schema), "T", path)

    def test_missing_csv_file_rejected(self, db, tmp_path):
        with pytest.raises(StorageError, match="missing CSV file"):
            load_relation_csv(Database(db.schema), "R",
                              tmp_path / "nope.csv")

    def test_empty_csv_file_rejected(self, db, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError, match="empty"):
            load_relation_csv(Database(db.schema), "R", path)

    def test_malformed_row_reports_line(self, db, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1,x\n1,2,3\n")
        with pytest.raises(StorageError, match="line 3"):
            load_relation_csv(Database(db.schema), "R", path)

    def test_blank_lines_are_skipped(self, db, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("A,B\n1,x\n\n2,y\n")
        fresh = Database(db.schema)
        assert load_relation_csv(fresh, "R", path) == 2

    def test_database_roundtrip(self, db, tmp_path):
        save_database(db, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        assert restored.size() == db.size()
        assert restored.satisfies()
        # Constraints survived, including the non-constant one.
        kinds = {type(c.cardinality).__name__
                 for c in restored.access_schema}
        assert kinds == {"ConstantCardinality", "LogCardinality"}

    def test_load_onto_chosen_backend(self, db, tmp_path):
        from repro.storage.disk import disk_backend_factory
        save_database(db, tmp_path / "dump")
        restored = load_database(
            tmp_path / "dump",
            backend_factory=disk_backend_factory(tmp_path / "durable"))
        assert restored.backend.describe().startswith("disk(")
        assert sorted(restored.relation_tuples("R")) == \
            sorted(db.relation_tuples("R"))
        constraint = restored.access_schema.constraints[0]
        assert sorted(restored.fetch(constraint, (1,))) == \
            [(1, "x"), (1, "z")]
        restored.backend.close()

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="no such database directory"):
            load_database(tmp_path / "absent")

    def test_missing_schema_json_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(SchemaError, match="no schema.json"):
            load_database(tmp_path / "d")

    def test_invalid_schema_json_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "schema.json").write_text("{oops")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_database(tmp_path / "d")

    def test_missing_relations_key_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "schema.json").write_text('{"constraints": []}')
        with pytest.raises(SchemaError, match="relations"):
            load_database(tmp_path / "d")

    def test_malformed_constraint_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "schema.json").write_text(
            '{"relations": {"R": ["A", "B"]}, "constraints": [{"x": []}]}')
        with pytest.raises(SchemaError, match="constraint #0"):
            load_database(tmp_path / "d")

    def test_missing_relation_csv_rejected(self, db, tmp_path):
        save_database(db, tmp_path / "d")
        (tmp_path / "d" / "S.csv").unlink()
        with pytest.raises(StorageError, match="missing CSV file.*'S'"):
            load_database(tmp_path / "d")

    def test_power_cardinality_roundtrip(self, tmp_path):
        schema = Schema.from_dict({"R": ("A", "B")})
        access = AccessSchema(schema, [
            AccessConstraint("R", ("A",), ("B",),
                             PowerCardinality(0.5, 2.0))])
        database = Database(schema, access)
        database.insert("R", (1, 2))
        save_database(database, tmp_path / "d")
        restored = load_database(tmp_path / "d")
        constraint = restored.access_schema.constraints[0]
        assert constraint.cardinality.exponent == 0.5

    def test_numeric_narrowing(self, db, tmp_path):
        save_database(db, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        values = {row[0] for row in restored.relation_tuples("R")}
        assert values == {1, 2}  # ints, not "1"/"2".


class TestCLI:
    @pytest.fixture
    def dump(self, db, tmp_path):
        save_database(db, tmp_path / "dump")
        return str(tmp_path / "dump")

    def test_analyze_covered(self, dump, capsys):
        code = cli_main(["analyze", "--db", dump,
                         "Q(y) :- R(x, y), x = 1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "BEP: yes" in out
        assert "fetch bound" in out

    def test_analyze_uncovered_gives_advice(self, dump, capsys):
        code = cli_main(["analyze", "--db", dump, "Q(x, y) :- R(x, y)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "BEP: no" in out
        assert "specialization" in out

    def test_run_bounded(self, dump, capsys):
        code = cli_main(["run", "--db", dump, "Q(y) :- R(x, y), x = 1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bounded plan" in out
        assert "2 answer(s)" in out

    def test_run_fallback(self, dump, capsys):
        code = cli_main(["run", "--db", dump, "Q(x, y) :- R(x, y)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full scan" in out
        assert "3 answer(s)" in out

    def test_discover(self, dump, capsys):
        code = cli_main(["discover", "--db", dump, "--max-bound", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "R(A -> B," in out
