"""The benchmark's metrics: names, units, direction and, for every
per-layer metric, the end-to-end metric it should move and where.

``BENCHMARK.json`` at the checkout root is generated from this module
(``python3 perfbench/metrics.py > BENCHMARK.json``); the test
``tests/test_metrics.py`` keeps the two in step.
"""

from __future__ import annotations

import json
import re

import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: (name, unit, better, bound) — what a user of the server sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.1),
    ("p50_ms", "ms", "lower", 0.25),
    ("max_rps", "req/s", "higher", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("tuples_per_req", "tuples", "lower", 0.2),
    ("cpu_ms_per_req", "ms", "lower", 0.25),
]

#: (name, unit, better, what it should move: "metric on workloads").
PER_LAYER = [
    ("loadgen.late_ms_p99", "ms", "lower",
     "validity of p50_ms/p99_ms on every workload"),
    ("serve.parse_us", "us", "lower", "p50_ms/max_rps on hot"),
    ("serve.render_us", "us", "lower", "p50_ms/max_rps on hot"),
    ("serve.admission_us", "us", "lower", "p50_ms/max_rps on hot"),
    ("serve.self_us", "us", "lower", "p50_ms/max_rps on hot"),
    ("serve.queue_wait_us", "us", "lower", "p99_ms on every workload"),
    ("serve.shed", "count", "lower", "ok_ratio on every workload"),
    ("service.execute_us", "us", "lower", "p50_ms on hot"),
    ("plancache.hit_rate", "ratio", "higher",
     "p50_ms/max_rps on adhoc, no change on hot"),
    ("plancache.compile_us", "us", "lower",
     "p50_ms/max_rps on adhoc, no change on hot"),
    ("query.parse_us", "us", "lower", "p50_ms/max_rps on adhoc"),
    ("core.bep_us", "us", "lower", "p50_ms/max_rps on adhoc"),
    ("engine.build_us", "us", "lower", "p50_ms/max_rps on adhoc"),
    ("engine.optimize_us", "us", "lower", "p50_ms/max_rps on adhoc"),
    ("engine.specialize_us", "us", "lower", "p50_ms/max_rps on adhoc"),
    ("engine.execute_us", "us", "lower", "p50_ms on hot and sharded"),
    ("engine.ops_per_req", "count", "lower", "tuples_per_req"),
    ("engine.max_intermediate", "rows", "lower", "tuples_per_req"),
    ("engine.cert_utilization_p50", "ratio", "lower", "tuples_per_req"),
    ("engine.cert_utilization_max", "ratio", "lower", "tuples_per_req"),
    ("engine.cert_violations", "count", "lower", "must stay 0"),
    ("fetchcache.lookup_us", "us", "lower", "p50_ms on hot"),
    ("fetchcache.hit_rate", "ratio", "higher", "p50_ms on hot and mixed"),
    ("fetchcache.evictions", "count", "lower", "p50_ms on adhoc"),
    ("fetchcache.maintained_deltas", "count", "higher",
     "p50_ms and the printed write_p50_ms on mixed"),
    ("fetchcache.fallbacks", "count", "lower",
     "p50_ms and the printed write_p50_ms on mixed"),
    ("storage.fetch_us", "us", "lower", "p50_ms on adhoc"),
    ("storage.lookups_per_req", "count", "lower", "p50_ms on adhoc"),
    ("storage.tuples_fetched_per_req", "tuples", "lower", "p50_ms on adhoc"),
    ("storage.load_us_per_row", "us", "lower", "setup_s"),
    ("storage.bytes_per_row", "B", "lower", "rss_mb"),
    ("storage.write_us", "us", "lower", "the printed write_p50_ms on mixed"),
    ("disk.wal_appends", "count", "lower",
     "the printed write_p50_ms and write_p95_ms on mixed"),
    ("disk.wal_bytes_per_write", "B", "lower",
     "the printed write_p50_ms and write_p95_ms on mixed"),
    ("procshard.fetch_us", "us", "lower", "p50_ms/max_rps on sharded"),
    ("procshard.rpcs_per_req", "count", "lower", "p50_ms/max_rps on sharded"),
    ("procshard.retries", "count", "lower", "p50_ms/max_rps on sharded"),
    ("procshard.load_us_per_row", "us", "lower", "setup_s on sharded"),
    ("host.cpu_ms_per_req", "ms", "lower",
     "cpu_ms_per_req and max_rps on every workload"),
    ("host.gc_pause_ms", "ms", "lower", "p99_ms on every workload"),
    ("host.gc_pause_max_ms", "ms", "lower", "p99_ms on every workload"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced p50_ms over untraced p50_ms at the same rate"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


#: Seconds one run measures: twenty rounds of open and closed loop.
RUN_SECONDS = 20


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WORKLOADS[name].why}
                      for name in workloads.GATED],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
