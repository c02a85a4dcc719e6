"""The answer oracle: every read shape evaluated in plain Python.

The engine never grades its own homework.  Answers are computed from
the generated rows with dictionaries built here, and compared with
what the server returned.  :class:`Oracle` also serves as the
write-tracking mirror: :meth:`Oracle.apply` replays write calls on its
own copy of the rows.
"""

from __future__ import annotations

from collections import defaultdict


class Oracle:
    """Answers of the benchmark's read shapes over a mutable instance."""

    def __init__(self, rows: dict[str, list[tuple]]):
        self.rows = {name: set(relation) for name, relation in rows.items()}
        self._index()

    def _index(self) -> None:
        self.by_date = defaultdict(set)
        self.by_aid = {}
        for row in self.rows["Accident"]:
            self.by_date[row[2]].add(row)
            self.by_aid.setdefault(row[0], set()).add(row)
        self.vids_of = defaultdict(set)
        self.aids_of_vid = defaultdict(set)
        for row in self.rows["Casualty"]:
            self.vids_of[row[1]].add(row[3])
            self.aids_of_vid[row[3]].add(row[1])
        self.vehicle = defaultdict(set)
        for row in self.rows["Vehicle"]:
            self.vehicle[row[0]].add(row)

    def apply(self, writes) -> None:
        """Replay ``(op, relation, row)`` write calls, in order."""
        for op, relation, row in writes:
            target = self.rows[relation]
            if op == "insert":
                target.add(tuple(row))
            else:
                target.discard(tuple(row))
        self._index()

    # -- the shapes --------------------------------------------------------

    def answers(self, shape: str, params: dict) -> set[tuple]:
        return getattr(self, shape)(**params)

    def q0(self, district: str, date: str) -> set[tuple]:
        return {(age,)
                for aid, d, _t in self.by_date.get(date, ()) if d == district
                for vid in self.vids_of.get(aid, ())
                for _v, _driver, age in self.vehicle.get(vid, ())}

    def accidents_of_date(self, date: str) -> set[tuple]:
        return {(aid, d) for aid, d, _t in self.by_date.get(date, ())}

    def vehicles_of_accident(self, aid: str) -> set[tuple]:
        return {(vid, driver)
                for vid in self.vids_of.get(aid, ())
                for _v, driver, _age in self.vehicle.get(vid, ())}

    def driver_by_vid(self, vid: str) -> set[tuple]:
        return {(driver, age) for _v, driver, age in self.vehicle.get(vid, ())}

    # -- which template bindings a write can touch --------------------------

    def touched_bindings(self, writes) -> set[tuple[str, str]]:
        """``(district, date)`` bindings of the read template whose answer
        any of ``writes`` can change at some point while it runs."""
        aids: set[str] = set()
        vid_aids = {vid: set(aids_) for vid, aids_ in self.aids_of_vid.items()}
        for _op, relation, row in writes:
            if relation == "Accident":
                aids.add(row[0])
            elif relation == "Casualty":
                aids.add(row[1])
                vid_aids.setdefault(row[3], set()).add(row[1])
        for _op, relation, row in writes:
            if relation == "Vehicle":
                aids |= vid_aids.get(row[0], set())
        return {(row[1], row[2])
                for aid in aids for row in self.by_aid.get(aid, ())}
