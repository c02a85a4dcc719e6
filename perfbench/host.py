"""The server host: one child process that loads, serves and tears down.

Started by ``run.py``, never by hand::

    python3 perfbench/host.py --inputs FILE --workload NAME --port N
                              --data-dir DIR [--setup-only]

It reads the generated inputs, does the program's set-up through its
public API (``Database.insert_many``, ``attach_access_schema``,
``ReproServer``, template registration, one warm-up pass) under a
clock, then serves with ``run_forever`` until told to stop.  With
``--setup-only`` it tears down right after the set-up; ``run.py``
repeats set-up in fresh processes so the median is reported and the
served process's memory is not inflated by earlier copies.

Control is line-oriented JSON: one command per stdin line, one reply
per stdout line.  Commands: ``trace`` (install the layer tracer),
``sample`` (service, cache, storage and trace counters),
``writer_start``/``writer_stop`` (the write schedule, from one thread
in this process) and ``shutdown``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import marshal
import os
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.schema.access import AccessConstraint, AccessSchema  # noqa: E402
from repro.schema.relation import Schema  # noqa: E402
from repro.serve import (ReproServer, Request, ServerConfig,  # noqa: E402
                         run_forever)
from repro.storage.database import Database  # noqa: E402

import procfs  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTracer  # noqa: E402

#: Enough waiting slots that neither phase ever sheds: the load
#: generator keeps at most two requests in flight.
QUEUE_DEPTH = 64
#: A budget every workload query fits, so every 200 response carries
#: its ``certified_fetch_bound``.
BUDGET = 10 ** 12


def make_backend(engine: str, schema: Schema, data_dir: Path):
    if engine == "memory":
        return None
    if engine == "disk":
        from repro.storage.disk import DiskBackend
        return DiskBackend(schema, data_dir / "disk", fsync=False)
    from repro.storage.procshard.backend import ProcessShardedBackend
    # Threshold 0: every batch, however small, goes to the workers.
    return ProcessShardedBackend(schema, workers=2, fanout_threshold=0)


def request(method: str, path: str, payload: dict) -> Request:
    return Request(method, path, body=json.dumps(payload).encode())


def setup(workload, inputs: dict, port: int, data_dir: Path):
    """The timed set-up; returns (server, seconds per step)."""
    timings = {"rss_before_load": procfs.rss_bytes([os.getpid()])}
    clock = time.perf_counter()
    schema = Schema.from_dict(workloads.SCHEMA)
    db = Database(schema, backend=make_backend(workload.engine, schema,
                                               data_dir))
    for name, rows in inputs["rows"].items():
        db.insert_many(name, rows)
    timings["load_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    db.attach_access_schema(AccessSchema(schema, [
        AccessConstraint(relation, tuple(x), tuple(y), bound)
        for relation, x, y, bound in workloads.CONSTRAINTS]))
    timings["attach_s"] = time.perf_counter() - clock
    timings["rss_after_attach"] = procfs.rss_bytes([os.getpid()])
    clock = time.perf_counter()
    server = ReproServer(db, ServerConfig(port=port, workers=2,
                                          queue_depth=QUEUE_DEPTH,
                                          default_budget=BUDGET))
    reply = server.handle(request("POST", "/templates", {
        "name": workloads.TEMPLATE_NAME, "text": workloads.TEMPLATE_TEXT}))
    if reply[9:12] != b"200":
        raise RuntimeError(f"template registration failed: {reply[:200]!r}")
    timings["server_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    for item in inputs["warmup"]:
        reply = server.handle(request("POST", "/query",
                                      workloads.payload(item)))
        if reply[9:12] != b"200":
            raise RuntimeError(f"warm-up request failed: {reply[:200]!r}")
    timings["warmup_s"] = time.perf_counter() - clock
    return server, timings


def teardown(server, data_dir: Path) -> None:
    server.close()
    server.db.backend.close()
    shutil.rmtree(data_dir, ignore_errors=True)


class Writer:
    """The write schedule, applied once from one thread at a fixed rate.
    Each call is timed from its due time, and inside the call."""

    def __init__(self, db: Database, schedule: list):
        self.db = db
        self.schedule = schedule
        self.applied = 0
        self.latencies: list[float] = []
        self.service: list[float] = []
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self, rate: float, limit: int) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._apply,
                                        args=(rate, limit),
                                        name="perfbench-writer")
        self._thread.start()

    def _apply(self, rate: float, limit: int) -> None:
        begin = time.perf_counter()
        for index in range(min(limit, len(self.schedule))):
            due = begin + index / rate
            pause = due - time.perf_counter()
            if pause > 0 and self._stop.wait(pause):
                return
            if self._stop.is_set():
                return
            op, relation, row = self.schedule[index]
            started = time.perf_counter()
            try:
                if op == "insert":
                    self.db.insert(relation, row)
                else:
                    self.db.delete(relation, row)
            except Exception as error:  # noqa: BLE001 - reported, counted
                self.errors.append(f"{op} {relation} {row}: {error!r}")
            done = time.perf_counter()
            self.service.append(done - started)
            self.latencies.append(done - due)
            self.applied = index + 1

    def stop(self, wait: bool) -> None:
        if not wait:
            self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None


class Host:
    def __init__(self, server, writer: Writer):
        self.server = server
        self.writer = writer
        self.tracer = None

    def sample(self) -> dict:
        service = self.server.tenants["default"].service
        stats = service.stats()
        cache = service.fetch_cache
        out = {
            "plan_hits": stats.plan_cache.hits,
            "plan_misses": stats.plan_cache.misses,
            "fetch_hits": stats.fetch_cache.hits,
            "fetch_misses": stats.fetch_cache.misses,
            "fetch_evictions": stats.fetch_cache.evictions,
            "maintained_deltas": cache.maintained_deltas,
            "maintenance_fallbacks": cache.maintenance_fallbacks,
            "shed": self.server.admission.shed_total,
            "storage": {key: value for key, value in stats.storage.items()
                        if isinstance(value, (int, float))},
            "writes_applied": self.writer.applied,
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.snapshot()
        return out

    def command(self, message: dict) -> dict:
        name = message["cmd"]
        if name == "trace":
            self.tracer = LayerTracer()
            self.tracer.install(self.server)
            return {"ok": True}
        if name == "sample":
            return self.sample()
        if name == "writer_start":
            self.writer.start(message["rate"], message["limit"])
            return {"ok": True}
        if name == "writer_stop":
            self.writer.stop(wait=message.get("wait", False))
            return {"applied": self.writer.applied,
                    "latencies": self.writer.latencies,
                    "service": self.writer.service,
                    "errors": self.writer.errors}
        raise ValueError(f"unknown command {name!r}")


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def control_loop(host: Host) -> None:
    """Answer commands until ``shutdown`` or EOF, then stop the server
    the way an operator would: SIGTERM, which ``run_forever`` drains."""
    for line in sys.stdin:
        message = json.loads(line)
        if message["cmd"] == "shutdown":
            break
        try:
            reply(host.command(message))
        except Exception as error:  # noqa: BLE001 - reported to run.py
            reply({"error": f"{type(error).__name__}: {error}"})
    host.writer.stop(wait=False)
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    data_dir = Path(args.data_dir)
    with open(args.inputs, "rb") as handle:
        inputs = marshal.load(handle)

    start = time.perf_counter()
    server, timings = setup(workload, inputs, args.port, data_dir)
    timings["setup_s"] = time.perf_counter() - start
    if args.setup_only:
        teardown(server, data_dir)
        reply(timings)
        return 0

    host = Host(server, Writer(server.db, inputs["writes"]))
    del inputs
    # Collect set-up's garbage before serving, so every run starts from
    # the same collector state; not part of the timed set-up.
    gc.collect()

    async def serve() -> None:
        ready = asyncio.Event()
        listen = time.perf_counter()
        task = asyncio.ensure_future(run_forever(server, ready=ready))
        await ready.wait()
        timings["setup_s"] += time.perf_counter() - listen
        timings["pid"] = os.getpid()
        reply(timings)
        threading.Thread(target=control_loop, args=(host,), daemon=True,
                         name="perfbench-control").start()
        await task

    try:
        asyncio.run(serve())
    finally:
        teardown(server, data_dir)
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
