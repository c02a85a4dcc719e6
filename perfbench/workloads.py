"""Workload definitions and seeded input generation.

Everything the benchmark feeds the program is made here from the
workload seed: the rows of a road-accident instance satisfying the
access constraints ψ1–ψ4, the binding pool of the read template, the
ad-hoc query texts, and the write schedule.  The same seed gives the
same inputs, in the load generator and in the server host alike.

The instance uses the three-relation schema of the paper's Example 1.1::

    Accident(aid, district, date)   ψ1: date -> aid (<= 610)
    Casualty(cid, aid, class, vid)  ψ2: aid -> vid (<= 192)
    Vehicle(vid, driver, age)       ψ3: aid -> (district, date) (1)
                                    ψ4: vid -> (driver, age) (1)
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

SCHEMA = {
    "Accident": ("aid", "district", "date"),
    "Casualty": ("cid", "aid", "class", "vid"),
    "Vehicle": ("vid", "driver", "age"),
}
#: (relation, X, Y, bound) — ψ1..ψ4.
CONSTRAINTS = [
    ("Accident", ("date",), ("aid",), 610),
    ("Casualty", ("aid",), ("vid",), 192),
    ("Accident", ("aid",), ("district", "date"), 1),
    ("Vehicle", ("vid",), ("driver", "age"), 1),
]
DISTRICTS = [
    "Queens Park", "Soho", "Camden", "Islington", "Hackney", "Brixton",
    "Greenwich", "Croydon", "Ealing", "Harrow", "Ilford", "Sutton",
    "Leith", "Morningside", "Partick", "Didsbury", "Jericho", "Heaton",
]
CLASSES = ["driver", "passenger", "pedestrian"]

#: The read template: drivers' ages by district and date (the paper's Q0).
TEMPLATE_NAME = "q0"
TEMPLATE_TEXT = ("Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
                 "Vehicle(vid, dri, xa), d = $district, t = $date")
#: The fetch cache's capacity in entries (the service default).
FETCH_CACHE_SLOTS = 4096


@dataclass(frozen=True)
class Workload:
    """One traffic mix: engine, instance size, read mode and rates."""

    name: str
    why: str
    engine: str            # memory | disk | procshard
    days: int              # instance size: about 100 rows per day
    reads: str             # template | adhoc
    #: Template binding pool: "fit" keeps its key footprint inside the
    #: fetch cache, otherwise at most this many distinct bindings.
    pool: int | str
    open_rate: float       # open-loop offered reads per second
    #: Writes per second beside the reads, or 0 for none.
    write_rate: float = 0.0


WORKLOADS = {w.name: w for w in [
    Workload("hot", "one template over a binding pool that fits the fetch "
             "cache: serve, bind, cache-hit fetch, executor and JSON",
             engine="memory", days=120, reads="template", pool="fit",
             open_rate=200),
    Workload("adhoc", "fresh query text on a large instance: parse, "
             "bounded-evaluability check, plan build, optimize and "
             "storage fetch misses", engine="memory", days=400,
             reads="adhoc", pool=0, open_rate=90),
    Workload("mixed", "hot's template over a wider pool on the disk engine "
             "(WAL on, no fsync) with 20 writes/s beside 200 reads/s",
             engine="disk", days=120, reads="template", pool=384,
             open_rate=200, write_rate=20),
    Workload("sharded", "hot's template on the process-sharded engine (2 "
             "workers) over every binding, more keys than the fetch cache "
             "holds, so its misses cross the RPC boundary",
             engine="procshard",
             days=120, reads="template", pool=100_000, open_rate=90),
]}

#: The workloads BENCHMARK.json lists, and ``--workload all`` runs.
GATED = ("hot", "adhoc", "mixed", "sharded")
#: Most requests in the set-up's warm-up pass.
WARMUP_CAP = 512


def _dates(days: int) -> list[str]:
    out, day, month, year = [], 1, 1, 1979
    for _ in range(days):
        out.append(f"{day}/{month}/{year}")
        day += 1
        if day > 28:
            day, month = 1, month + 1
            if month > 12:
                month, year = 1, year + 1
    return out


def generate_rows(days: int, seed: int) -> dict[str, list[tuple]]:
    """A ψ1–ψ4-satisfying instance of roughly ``100 * days`` rows."""
    rng = random.Random(seed)
    rows: dict[str, list[tuple]] = {name: [] for name in SCHEMA}
    aid = cid = vid = 0
    for date in _dates(days):
        for _ in range(rng.randint(1, 40)):
            aid += 1
            rows["Accident"].append((f"a{aid}", rng.choice(DISTRICTS), date))
            for _ in range(min(12, max(1, round(rng.expovariate(0.5))))):
                cid += 1
                vid += 1
                rows["Vehicle"].append((f"v{vid}",
                                        f"driver{rng.randrange(10 ** 6)}",
                                        rng.randint(17, 90)))
                rows["Casualty"].append((f"c{cid}", f"a{aid}",
                                         rng.choice(CLASSES), f"v{vid}"))
    return rows


# -- read inputs -----------------------------------------------------------


def binding_pool(rows: dict, pool, rng: random.Random) -> list[dict]:
    """Distinct ``{district, date}`` bindings that have answers.

    ``pool == "fit"`` draws bindings until their fetch-cache key
    footprint (one key per date, per accident of the date, per
    matching accident's casualties and per vehicle) would pass three
    quarters of the cache, so every lookup hits once warm.
    """
    by_date: dict[str, list[tuple]] = {}
    for row in rows["Accident"]:
        by_date.setdefault(row[2], []).append(row)
    vids_of: dict[str, int] = {}
    for row in rows["Casualty"]:
        vids_of[row[1]] = vids_of.get(row[1], 0) + 1
    pairs = sorted({(row[1], row[2]) for row in rows["Accident"]})
    rng.shuffle(pairs)
    if pool != "fit":
        return [{"district": d, "date": t} for d, t in pairs[:pool]]
    budget, keys, seen_dates, chosen = 3 * FETCH_CACHE_SLOTS // 4, 0, set(), []
    for district, date in pairs:
        cost = 0 if date in seen_dates else 1 + len(by_date[date])
        for row in by_date[date]:
            if row[1] == district:
                cost += 1 + vids_of.get(row[0], 0)
        if keys + cost > budget:
            break
        keys += cost
        seen_dates.add(date)
        chosen.append({"district": district, "date": date})
    return chosen


#: Ad-hoc shapes, every one covered by ψ1–ψ4: (name, text with {}).
ADHOC_SHAPES = [
    ("q0", "Q(xa) :- Accident(aid, d, t), Casualty(cid, aid, cl, vid), "
           "Vehicle(vid, dri, xa), d = '{district}', t = '{date}'"),
    ("accidents_of_date", "Q(aid, d) :- Accident(aid, d, t), t = '{date}'"),
    ("vehicles_of_accident",
     "Q(vid, dri) :- Casualty(cid, aid, cl, vid), Vehicle(vid, dri, xa), "
     "aid = '{aid}'"),
    ("driver_by_vid", "Q(dri, xa) :- Vehicle(vid, dri, xa), vid = '{vid}'"),
]


def adhoc_requests(rows: dict, count: int, rng: random.Random) -> list:
    """``count`` ad-hoc requests ``(shape, params, text)`` with constants
    drawn afresh from the instance, so the plan cache rarely repeats."""
    accidents, vehicles = rows["Accident"], rows["Vehicle"]
    out = []
    for _ in range(count):
        shape, text = ADHOC_SHAPES[rng.randrange(len(ADHOC_SHAPES))]
        accident = rng.choice(accidents)
        params = {"q0": {"district": accident[1], "date": accident[2]},
                  "accidents_of_date": {"date": accident[2]},
                  "vehicles_of_accident": {"aid": accident[0]},
                  "driver_by_vid": {"vid": rng.choice(vehicles)[0]}}[shape]
        out.append((shape, params, text.format(**params)))
    return out


def payload(item: tuple) -> dict:
    """The ``POST /query`` body of a ``(shape, params, text)`` request:
    template requests carry no text."""
    shape, params, text = item
    if text is None:
        return {"template": shape, "params": params}
    return {"query": text}


def template_requests(bindings) -> list:
    """Read-template requests ``(shape, params, None)``, one per binding."""
    return [(TEMPLATE_NAME, binding, None) for binding in bindings]


# -- writes ----------------------------------------------------------------


def write_schedule(rows: dict, count: int, rng: random.Random,
                   focus: list[dict] = ()) -> list[tuple]:
    """``count`` write calls ``(op, relation, row)`` in the style of
    EXP-14: new casualties, and delete + reinsert of accident and
    vehicle rows.  Half the targets come from accidents of ``focus``
    bindings, so cached entries see in-place maintenance."""
    accidents, vehicles = rows["Accident"], rows["Vehicle"]
    focus_keys = {(b["district"], b["date"]) for b in focus}
    focused = [row for row in accidents if (row[1], row[2]) in focus_keys]
    vid_of: dict[str, list[str]] = {}
    for row in rows["Casualty"]:
        vid_of.setdefault(row[1], []).append(row[3])
    vehicle_by_vid = {row[0]: row for row in vehicles}
    ops: list[tuple] = []
    new_cid = 0
    # Kinds cycle, and every other cycle targets the focus: the mix is
    # the same for every seed, which picks only the rows.
    for step in itertools.count():
        if len(ops) >= count:
            break
        kind, cycle = step % 3, step // 3
        accident = rng.choice(focused if focused and cycle % 2 == 0
                              else accidents)
        if kind == 0:
            new_cid += 1
            ops.append(("insert", "Casualty",
                        (f"cn{new_cid}", accident[0], rng.choice(CLASSES),
                         rng.choice(vehicles)[0])))
        elif kind == 1:
            ops += [("delete", "Accident", accident),
                    ("insert", "Accident", accident)]
        else:
            vehicle = vehicle_by_vid[rng.choice(vid_of[accident[0]])]
            ops += [("delete", "Vehicle", vehicle),
                    ("insert", "Vehicle", vehicle)]
    return ops


# -- the whole input set -----------------------------------------------------


def make_inputs(workload: Workload, seed: int, reads: int,
                writes: int) -> dict:
    """Every generated input of one run, as plain marshal-able data."""
    rng = random.Random(seed)
    rows = generate_rows(workload.days, rng.randrange(2 ** 32))
    pool: list[dict] = []
    if workload.reads == "template":
        pool = binding_pool(rows, workload.pool, rng)
        requests = template_requests(rng.choice(pool) for _ in range(reads))
        warmup = template_requests(pool[:WARMUP_CAP])
    else:
        requests = adhoc_requests(rows, reads, rng)
        warmup = adhoc_requests(rows, WARMUP_CAP // 4, rng)
    return {"rows": rows, "pool": pool, "requests": requests,
            "warmup": warmup,
            "writes": write_schedule(rows, writes, rng, pool)}
