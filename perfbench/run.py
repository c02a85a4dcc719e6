"""The repository's benchmark: the HTTP request path, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload

For each workload it generates the inputs from ``--seed``, starts the
server host (``host.py``) in a child process, drives it over two
keep-alive HTTP connections — rounds of an open-loop phase at the
workload's fixed rate, then a closed-loop phase — checks every answer
against a pure-Python oracle, tears the host down and prints its
metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A
wrong answer makes the exit code 1.

The layer metrics, and which end-to-end metric each should move on
which workload, are listed in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import queue
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import loadgen  # noqa: E402
import procfs  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS  # noqa: E402
from oracle import Oracle  # noqa: E402

#: Seconds a host may take to answer one control command or finish
#: set-up before the run is abandoned.
HOST_TIMEOUT_S = 100.0
#: Requests each connection sends before measuring starts.
CONNECTION_WARMUP = 20
#: Template bindings checked after the writes stop, beyond the pool
#: (mixed) or instead of it (the other workloads).
TOUCHED_CHECKS = 64
#: Set-ups per run, each in a fresh host; the median is reported.  At
#: least SETUP_REPS, and more, up to SETUP_MAX, while they add up to
#: less than SETUP_SECONDS: a short set-up is timed more often.
SETUP_REPS = 3
SETUP_MAX = 9
SETUP_SECONDS = 3.0
#: Seconds per measured round: 20 rounds in a 20-second run.  p50_ms,
#: max_rps and cpu_ms_per_req are medians over the quiet rounds.
ROUND_S = 1.0
#: Seconds of closed loop after the connection warm-up, graded but not
#: timed, so the caches fill before the first round.
WARMUP_S = 2.0
#: Share of a round spent in the open loop (the rest is closed loop).
OPEN_SHARE = 0.5


@dataclass
class Round:
    """One measured round: its open and closed loop, the CPU time of
    the host and its workers, and the share of the machine's CPU time
    that the hypervisor gave to other guests (steal)."""

    opened: loadgen.Outcome
    closed: loadgen.Outcome
    cpu_s: float
    steal: float

    @property
    def reads(self) -> int:
        return len(self.opened.status) + len(self.closed.status)


def quiet_rounds(rounds: list[Round]) -> list[bool]:
    """Which rounds lost no more CPU time to steal than the median
    round, ties included: every round of a run without steal.  A round
    the hypervisor slowed down says more about the neighbours than
    about the program."""
    cut = statistics.median_low(r.steal for r in rounds)
    return [r.steal <= cut for r in rounds]


def untraced_rounds(rounds: int) -> int:
    """Rounds at the start of a traced run that stay untraced: the
    baseline of ``trace.overhead_ratio``."""
    return max(1, rounds // 4)


class HostProcess:
    """One server host child and its line-oriented control pipe."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        self.pid = self.proc.pid
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self) -> dict:
        try:
            line = self._lines.get(timeout=HOST_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server host stopped answering") from None
        if line is None:
            raise RuntimeError(
                f"server host exited with code {self.proc.wait()}")
        message = json.loads(line)
        if "error" in message:
            raise RuntimeError(f"server host: {message['error']}")
        return message

    def call(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self.expect()

    def stop(self) -> int:
        """Ask for a graceful stop; kill after the timeout."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "shutdown"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        return code


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def parse_exposition(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                continue
    return values


def scrape(conn: loadgen.Connection) -> dict[str, float]:
    status, body = conn.send(loadgen.render_get("/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_exposition(body.decode())


class Checker:
    """Grades responses against the oracle and keeps the tallies."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        #: Template bindings whose answers are not compared (a write
        #: running beside the read could have changed them).
        self.skip: set = frozenset()
        self.attempted = self.failed = self.wrong = 0
        self.checked = 0
        self.problems: list[str] = []
        self._expected: dict = {}

    def expected(self, shape: str, params: dict) -> set:
        key = (shape, tuple(sorted(params.items())))
        if key not in self._expected:
            self._expected[key] = self.oracle.answers(shape, params)
        return self._expected[key]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def grade(self, items, outcome: loadgen.Outcome) -> None:
        for index, status, body in zip(outcome.index, outcome.status,
                                       outcome.body):
            shape, params, _text = items[index]
            self.attempted += 1
            if status != 200:
                self._fail(f"{shape} {params}: status {status}")
                continue
            reply = json.loads(body)
            if not reply.get("bounded") or \
                    "certified_fetch_bound" not in reply:
                self._fail(f"{shape} {params}: unbounded or uncertified")
                continue
            if shape == "q0" and (params["district"],
                                  params["date"]) in self.skip:
                continue
            self.checked += 1
            got = {tuple(answer) for answer in reply["answers"]}
            if got != self.expected(shape, params) or \
                    reply["count"] != len(got):
                self.wrong += 1
                self._fail(f"{shape} {params}: wrong answer")

    def expect_after(self, writes) -> None:
        """Grade from now on against the instance after ``writes``."""
        self.oracle.apply(writes)
        self._expected.clear()

    def count_writes(self, applied: int, errors: list[str]) -> None:
        self.attempted += applied
        for error in errors:
            self._fail(f"write failed: {error}")


def spawn_host(workload, inputs_path: Path, port: int, data_dir: Path,
               setup_only: bool) -> HostProcess:
    argv = [sys.executable, str(HERE / "host.py"), "--inputs",
            str(inputs_path), "--workload", workload.name, "--port",
            str(port), "--data-dir", str(data_dir)]
    if setup_only:
        argv.append("--setup-only")
    return HostProcess(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    n_rounds = max(2, round(seconds / ROUND_S))
    round_s = seconds / n_rounds
    n_open = int(workload.open_rate * round_s * OPEN_SHARE)
    closed_s = round_s * (1 - OPEN_SHARE)
    most_rps = 600 if workload.reads == "adhoc" else 4000
    closed_cap = int(closed_s * most_rps)
    writes = int(workload.write_rate * (seconds + 10))
    inputs = workloads.make_inputs(
        workload, seed,
        reads=2 * CONNECTION_WARMUP + int(WARMUP_S * most_rps)
        + n_rounds * (n_open + closed_cap),
        writes=writes)
    items = inputs["requests"]
    raws = [loadgen.render(workloads.payload(item))
            for item in inputs["requests"]]
    rows_total = sum(len(rows) for rows in inputs["rows"].values())

    workdir = ROOT / ".perfbench-run" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs_path = workdir / "inputs.marshal"
    with open(inputs_path, "wb") as handle:
        marshal.dump({"rows": inputs["rows"], "warmup": inputs["warmup"],
                      "writes": inputs["writes"]}, handle)
    data_dir = workdir / "data"
    oracle = Oracle(inputs["rows"])
    host = None
    pids: list[int] = []
    result: dict = {}
    try:
        setups = []
        while len(setups) < SETUP_REPS - 1 or (
                len(setups) < SETUP_MAX - 1
                and sum(s["setup_s"] for s in setups) < SETUP_SECONDS):
            once = spawn_host(workload, inputs_path, free_port(), data_dir,
                              setup_only=True)
            try:
                setups.append(once.expect())
            finally:
                once.stop()
        port = free_port()
        host = spawn_host(workload, inputs_path, port, data_dir,
                          setup_only=False)
        ready = host.expect()
        setups.append(ready)
        pids = [ready["pid"], *procfs.descendants(ready["pid"])]
        rss = procfs.rss_bytes(pids)

        conns = [loadgen.Connection(port) for _ in range(2)]
        checker = Checker(oracle)
        cursor = 0
        for conn in conns:  # connection warm-up, graded, not timed
            warm = loadgen.Outcome()
            for index in range(cursor, cursor + CONNECTION_WARMUP):
                warm.record(index, *conn.send(raws[index]), 0.0)
            cursor += CONNECTION_WARMUP
            checker.grade(items, warm)
        warm = loadgen.closed_loop(conns, raws, WARMUP_S, first=cursor)
        cursor = max(warm.index, default=cursor - 1) + 1
        checker.grade(items, warm)

        # The measured window: n_rounds x (open loop, closed loop).  With
        # --trace 1 the tracer goes in after untraced_rounds(n_rounds)
        # rounds, which stay the untraced baseline of the tracing
        # overhead.
        window = Window(host, conns[0], pids)
        # The generator's own collector stays off while it measures: a
        # pause in this process would make requests late.
        gc.disable()
        layer_window = None if trace else window
        if workload.write_rate:
            host.call("writer_start", rate=workload.write_rate,
                      limit=len(inputs["writes"]))
        rounds: list[Round] = []
        run_ticks = procfs.machine_ticks()
        for number in range(n_rounds):
            if trace and number == untraced_rounds(n_rounds):
                host.call("trace")
                layer_window = Window(host, conns[0], pids)
            cpu_start = procfs.cpu_seconds(pids)
            ticks = procfs.machine_ticks()
            opened = loadgen.open_loop(conns, raws[cursor:cursor + n_open],
                                       workload.open_rate)
            opened.index = [cursor + i for i in opened.index]
            cursor += n_open
            closed = loadgen.closed_loop(conns, raws, closed_s, first=cursor)
            cursor = max(closed.index, default=cursor - 1) + 1
            rounds.append(Round(
                opened, closed, procfs.cpu_seconds(pids) - cpu_start,
                procfs.steal_share(ticks, procfs.machine_ticks())))
        steal = procfs.steal_share(run_ticks, procfs.machine_ticks())
        written = (host.call("writer_stop") if workload.write_rate else
                   {"applied": 0, "latencies": [], "service": [],
                    "errors": []})
        window.close()
        gc.enable()
        if layer_window is not window:
            layer_window.close()

        # Reads that ran beside writes are graded only where no write
        # could have touched their answer; the rest are re-read below.
        applied = inputs["writes"][:written["applied"]]
        if workload.write_rate:
            checker.skip = oracle.touched_bindings(applied)
        for measured in rounds:
            checker.grade(items, measured.opened)
            checker.grade(items, measured.closed)
        checker.skip = frozenset()
        in_phase = (checker.attempted, checker.checked)
        checker.count_writes(written["applied"], written["errors"])

        # After the writer stops: a full pass over what it touched (and,
        # for mixed, the whole pool) against the write-tracking mirror.
        touched = sorted(oracle.touched_bindings(applied))
        random.Random(seed).shuffle(touched)
        final_bindings = [{"district": d, "date": t}
                          for d, t in touched[:TOUCHED_CHECKS]]
        if workload.write_rate:
            final_bindings += inputs["pool"]
        checker.expect_after(applied)
        final_items = workloads.template_requests(final_bindings)
        final = loadgen.Outcome()
        for index, item in enumerate(final_items):
            raw = loadgen.render(workloads.payload(item))
            final.record(index, *conns[0].send(raw), 0.0)
        checker.grade(final_items, final)
        for conn in conns:
            conn.close()

        result = summarize(workload, setups, rss, rows_total, rounds,
                           written, checker, in_phase, window, layer_window,
                           trace)
        result["steal"] = steal
    finally:
        gc.enable()
        if host is not None:
            code = host.stop()
            gone = [pid for pid in pids if procfs.alive(pid)]
            result["teardown"] = {"host_exit": code, "left_alive": gone}
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's work dir is still there
            pass
        result.setdefault("teardown", {})["workdir_removed"] = \
            not workdir.exists()
    return result


class Window:
    """Counters at the start and end of a measured stretch: the
    server's ``/metrics``, the host's own sample, and CPU time of the
    host and its workers."""

    def __init__(self, host: HostProcess, conn: loadgen.Connection, pids):
        self.host, self.conn, self.pids = host, conn, pids
        self.before = self._take()

    def _take(self) -> dict:
        return {"metrics": scrape(self.conn),
                "sample": self.host.call("sample"),
                "cpu_s": procfs.cpu_seconds(self.pids)}

    def close(self) -> None:
        self.after = self._take()

    def metric(self, name: str) -> float:
        return (self.after["metrics"].get(name, 0.0)
                - self.before["metrics"].get(name, 0.0))


def summarize(workload, setups, rss, rows_total, rounds, written, checker,
              in_phase, window, layer_window, trace) -> dict:
    """End-to-end metrics over the rounds, layer metrics over the traced
    window, and what the report prints beside them."""
    ok_open = [[lat for lat, status in zip(r.opened.latency, r.opened.status)
                if status == 200] for r in rounds]
    reads = [lat for lats in ok_open for lat in lats]
    # On mixed a write is timed inside the call, and from its due time,
    # which adds the writer's wait for the interpreter lock.
    writes = written["service"]
    # Every reported percentile must be one its sample supports.
    invalid = [f"round {number}: {len(lats)} open-loop reads cannot "
               "support p50" for number, lats in enumerate(ok_open)
               if loadgen.tail_percentile(len(lats)) is None]
    closed_rps = [sum(1 for status in r.closed.status if status == 200)
                  / r.closed.elapsed for r in rounds]
    round_cpu = [r.cpu_s / r.reads * 1e3 for r in rounds]
    bounded = window.metric("repro_bounded_requests_total")
    accessed = (window.metric("repro_tuples_fetched_total")
                + window.metric("repro_tuples_from_cache_total"))
    round_p50 = [loadgen.percentile(lats, 50) * 1e3 for lats in ok_open]
    quiet = quiet_rounds(rounds)

    def median_quiet(values) -> float:
        return statistics.median(v for v, q in zip(values, quiet) if q)

    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "rss_mb": rss / 2 ** 20,
        "p50_ms": median_quiet(round_p50),
        "max_rps": median_quiet(closed_rps),
        "ok_ratio": 1.0 - checker.failed / checker.attempted,
        "tuples_per_req": accessed / max(bounded, 1),
        "cpu_ms_per_req": median_quiet(round_cpu),
    }

    def per_round(counts) -> str:
        counts = [c for c, q in zip(counts, quiet) if q]
        low, high = min(counts), max(counts)
        return (f"median over {len(counts)} quiet rounds of "
                + (f"{low}" if low == high else f"{low}-{high}") + " reads")

    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "rss_mb": "1 reading",
        "p50_ms": per_round([len(lats) for lats in ok_open]),
        "max_rps": per_round([len(r.closed.status) for r in rounds]),
        "ok_ratio": f"{checker.attempted} operations",
        "tuples_per_req": f"{int(bounded)} bounded reads",
        "cpu_ms_per_req": per_round([r.reads for r in rounds]),
    }
    tails = {"p": tail_figures(reads), "reads": len(reads),
             "write_p": {}, "writes": len(writes)}
    if writes:
        tails["write_p"] = {50.0: loadgen.percentile(writes, 50) * 1e3,
                            **tail_figures(writes)}
        tails["write_due_p50_ms"] = \
            loadgen.percentile(written["latencies"], 50) * 1e3
    untraced = untraced_rounds(len(rounds))
    traced = rounds[untraced:] if trace else rounds
    requests = sum(r.reads for r in traced)
    late = [value for r in rounds for value in r.opened.late]
    overhead = (statistics.median(round_p50[untraced:])
                / statistics.median(round_p50[:untraced])
                if trace else 0.0)
    layers = layer_metrics(
        workload, setups, rows_total, late, written, layer_window,
        requests, overhead)
    attempted, checked = in_phase
    return {
        "workload": workload.name, "e2e": e2e, "samples": samples,
        "tails": tails, "layers": layers,
        "self_times": self_time_table(layer_window),
        "invalid": invalid, "correct": checker.wrong == 0,
        "rounds": len(rounds), "quiet": sum(quiet),
        "quiet_steal": max(r.steal for r, q in zip(rounds, quiet) if q),
        "attempted": checker.attempted, "failed": checker.failed,
        "wrong": checker.wrong, "problems": checker.problems,
        "checked_share": checked / max(attempted, 1),
        "checked": checker.checked,
        "setups": [s["setup_s"] for s in setups],
        "setup_steps": {step: statistics.median(s[step] for s in setups)
                        for step in ("load_s", "attach_s", "server_s",
                                     "warmup_s")},
    }


def tail_figures(samples) -> dict[float, float]:
    """Milliseconds at 95, at 99 and at the highest percentile the
    samples support, skipping any they do not support."""
    top = loadgen.tail_percentile(len(samples)) or 0.0
    return {level: loadgen.percentile(samples, level) * 1e3
            for level in sorted({95.0, 99.0, top}) if 50.0 < level <= top}


def self_time_table(window: Window) -> list[tuple]:
    """``(layer, calls per request, self us per request, share)`` rows
    of the traced window, largest self time first."""
    trace = window.after["sample"].get("trace")
    if not trace:
        return []
    n = max(trace["counts"].get("serve.requests", 0), 1)
    total = sum(trace["self_s"].values()) or 1.0
    return sorted(((layer, trace["calls"][layer] / n, spent / n * 1e6,
                    spent / total)
                   for layer, spent in trace["self_s"].items()),
                  key=lambda row: -row[2])


def layer_metrics(workload, setups, rows_total, late, written, window,
                  requests, overhead_ratio) -> dict:
    """The per-layer figures; zero where a layer does not take part."""
    before, after = window.before["sample"], window.after["sample"]

    def grew(key: str) -> float:
        return after[key] - before[key]

    def storage(key: str) -> float:
        return after["storage"].get(key, 0) - before["storage"].get(key, 0)

    last = setups[-1]
    load_s = statistics.median(s["load_s"] for s in setups)
    attach_s = statistics.median(s["attach_s"] for s in setups)
    trace = after.get("trace") or {
        "self_s": {}, "outer_s": {}, "calls": {}, "counts": {},
        "gc_pauses": [], "request_samples": []}
    n = max(trace["counts"].get("serve.requests", 0), 1)

    def self_us(layer: str) -> float:
        return trace["self_s"].get(layer, 0.0) / n * 1e6

    def outer_us(layer: str) -> float:
        return trace["outer_s"].get(layer, 0.0) / n * 1e6

    lookups = grew("fetch_hits") + grew("fetch_misses")
    plan = grew("plan_hits") + grew("plan_misses")
    utilization = [accessed / bound for accessed, bound
                   in trace["request_samples"] if bound]
    results = max(trace["counts"].get("engine.results", 0), 1)
    return {
        "loadgen.late_ms_p99": loadgen.percentile(late, 99) * 1e3,
        "serve.parse_us": self_us("serve.parse"),
        "serve.render_us": self_us("serve.render"),
        "serve.admission_us": self_us("serve.admission"),
        "serve.self_us": self_us("serve"),
        "serve.queue_wait_us":
            trace["counts"].get("serve.queue_wait_s", 0.0) / n * 1e6,
        "serve.shed": grew("shed"),
        "service.execute_us": self_us("service"),
        "plancache.hit_rate": grew("plan_hits") / plan if plan else 0.0,
        "plancache.compile_us": outer_us("plancache"),
        "query.parse_us": self_us("query.parse"),
        "core.bep_us": self_us("core.bep"),
        "engine.build_us": self_us("engine.build"),
        "engine.optimize_us": self_us("engine.optimize"),
        "engine.specialize_us": self_us("engine.specialize"),
        "engine.execute_us": self_us("engine.execute"),
        "engine.ops_per_req": trace["counts"].get("engine.ops", 0) / results,
        "engine.max_intermediate":
            trace["counts"].get("engine.max_intermediate_sum", 0) / results,
        "engine.cert_utilization_p50":
            statistics.median(utilization) if utilization else 0.0,
        "engine.cert_utilization_max": max(utilization, default=0.0),
        "engine.cert_violations": sum(1 for accessed, bound
                                      in trace["request_samples"]
                                      if bound is not None
                                      and accessed > bound),
        "fetchcache.lookup_us": self_us("fetchcache"),
        "fetchcache.hit_rate": grew("fetch_hits") / lookups if lookups
        else 0.0,
        "fetchcache.evictions": grew("fetch_evictions"),
        "fetchcache.maintained_deltas": grew("maintained_deltas"),
        "fetchcache.fallbacks": grew("maintenance_fallbacks"),
        "storage.fetch_us": outer_us("storage"),
        "storage.lookups_per_req":
            trace["counts"].get("storage.keys", 0) / n,
        "storage.tuples_fetched_per_req":
            trace["counts"].get("storage.tuples", 0) / n,
        "storage.load_us_per_row": load_s / rows_total * 1e6,
        "storage.bytes_per_row":
            (last["rss_after_attach"] - last["rss_before_load"]) / rows_total,
        "storage.write_us": statistics.fmean(written["service"] or [0.0])
        * 1e6,
        "disk.wal_appends": storage("wal_records_total"),
        "disk.wal_bytes_per_write": storage("wal_bytes_total")
        / max(storage("wal_records_total"), 1),
        "procshard.fetch_us": outer_us("procshard"),
        "procshard.rpcs_per_req":
            storage("rpc_requests_total") / max(requests, 1),
        "procshard.retries": storage("rpc_retries_total"),
        "procshard.load_us_per_row": ((load_s + attach_s) / rows_total * 1e6
                                      if workload.engine == "procshard"
                                      else 0.0),
        "host.cpu_ms_per_req": (window.after["cpu_s"] - window.before["cpu_s"])
        / max(requests, 1) * 1e3,
        "host.gc_pause_ms": sum(trace["gc_pauses"]) * 1e3,
        "host.gc_pause_max_ms": max(trace["gc_pauses"], default=0.0) * 1e3,
        "trace.overhead_ratio": overhead_ratio,
    }


# -- output -----------------------------------------------------------------


ENGINES = {"memory": "memory engine",
           "disk": "disk engine, WAL on, fsync off (flush left to the OS)",
           "procshard": "procshard engine, 2 shard workers, no replicas"}


def report(result: dict, seed: int, seconds: float, trace: bool) -> None:
    """The human-readable lines; the JSON line comes after them."""
    workload = workloads.WORKLOADS[result["workload"]]
    host = procfs.fingerprint(ROOT)
    print(f"== perfbench {workload.name}: seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}")
    print(f"host: {host['cores']} cores, {host['ram_gb']} GB RAM, Python "
          f"{host['python']}, {host['platform']}; commit {host['commit']}")
    print(f"engine: {ENGINES[workload.engine]}; open loop "
          f"{workload.open_rate:g} req/s, closed loop 2 connections; "
          + (f"writes {workload.write_rate:g}/s beside the reads"
             if workload.write_rate else "no writes"))
    for name, unit, _better, _bound in END_TO_END:
        print(f"  {name:<16} {result['e2e'][name]:>12.4f} {unit:<7} "
              f"n={result['samples'][name]}")
    print(f"  error_rate       {result['failed'] / result['attempted']:>12.4f}"
          f" ratio   n={result['attempted']} operations "
          f"(failed {result['failed']}, wrong {result['wrong']})")
    tails = result["tails"]
    for prefix, count, kind in (("p", tails["reads"], "open-loop reads"),
                                ("write_p", tails["writes"], "writes")):
        for level, value in tails[prefix].items():
            name = f"{prefix}{level:g}_ms".replace(".", "")
            print(f"  {name:<16} {value:>12.4f} ms      n={count} {kind} "
                  "(printed, not gated)")
    if workload.write_rate:
        print(f"  write_due_p50_ms {tails['write_due_p50_ms']:>12.4f} ms      "
              f"n={tails['writes']} writes, from the due time (printed, not "
              "gated)")
    print("Reads are timed from their due times, writes inside the call.  "
          "p50_ms, max_rps and cpu_ms_per_req are medians over the quiet "
          "rounds.  The printed figures pool every read or write of the "
          "run; they follow the machine's CPU steal more than the program, "
          "so no bound holds them.")
    print(f"machine: {result['steal']:.1%} of the CPU time during the "
          "rounds went to other guests (steal, /proc/stat); "
          f"{result['quiet']} of {result['rounds']} rounds had at most "
          f"{result['quiet_steal']:.1%} and count as quiet")
    print(f"checked: {result['checked_share']:.1%} of phase responses "
          f"compared with the oracle ({result['checked']} of "
          f"{result['attempted']} operations in all; the rest are writes "
          "or reads a concurrent write could change)")
    steps = result["setup_steps"].items()
    print("set-ups (s): "
          + ", ".join(f"{value:.3f}" for value in result["setups"])
          + "; median steps: "
          + ", ".join(f"{step} {value:.3f}" for step, value in steps))
    if trace:
        print("self time by layer (traced rounds, per request; a span "
              "minus its child spans on the same thread):")
        print(f"  {'layer':<20} {'calls':>7} {'self us':>10} {'share':>7}")
        for layer, calls, spent, share in result["self_times"]:
            print(f"  {layer:<20} {calls:>7.2f} {spent:>10.1f} {share:>7.1%}")
        print("per-layer metrics, and the end-to-end metric each should "
              "move:")
        for name, unit, _better, moves in PER_LAYER:
            print(f"  {name:<32} {result['layers'][name]:>12.4f} "
                  f"{unit:<6} -> {moves}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for problem in result["invalid"]:
        print(f"invalid: {problem}")
    teardown = result["teardown"]
    print(f"teardown: host exit {teardown.get('host_exit')}, "
          f"{len(teardown.get('left_alive', []))} processes left, "
          f"work dir removed: {teardown['workdir_removed']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the HTTP request path end to end and by "
                    "layer.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 2 is reserved for "
                             "confirming claims)")
    parser.add_argument("--seconds", type=float,
                        default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    names = (list(workloads.GATED) if args.workload == "all"
             else [args.workload])
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        left = result["teardown"].get("left_alive")
        if left:
            raise RuntimeError(f"processes outlived teardown: {left}")
        report(result, args.seed, args.seconds, bool(args.trace))
        results.append(result)
    key = "layers" if args.trace else "e2e"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, value in result[key].items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    if any(result["invalid"] for result in results):
        print("error: the run's samples cannot support the reported "
              "percentiles", file=sys.stderr)
        return 2
    correct = all(result["correct"] for result in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
