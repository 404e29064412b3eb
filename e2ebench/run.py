"""The repository's end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/repro``).  Serving
workloads boot a real ``repro serve`` daemon and drive it over HTTP
from this one process; ``fuzz-fleet`` runs ``repro fuzz``.  Every
answer is checked against the oracle in ``expect.py``.  Report lines
go to stdout; the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer ones, from a separate traced run.  The
workloads, metrics and predictions are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers as inproc  # noqa: E402
import measure  # noqa: E402
import pools  # noqa: E402
from expect import Oracle, Tally, check  # noqa: E402
from serving import (  # noqa: E402
    Children,
    Client,
    Daemon,
    closed_loop,
    connect_probe_ms,
    decode,
    read_trace_log,
    span_seconds,
)

#: Daemon flags, connections and connection reuse per serving workload,
#: whether every timed request misses the daemon's cache, and whether
#: its request times are scaled to the reference host speed
#: (``measure``).  The benchmark and its daemons share one core, and
#: set-up is scaled on every workload.  Request times are scaled on the
#: two CPU-bound ones, where the client probes the core before each
#: request; not on ``small-keepalive``, whose pace the TCP delayed-ACK
#: timer sets, and a timer does not run faster on a faster core.
SERVING = {
    "small-keepalive": {
        "flags": [],
        "connections": 2,
        "keepalive": True,
        "misses": False,
        "scaled": False,
    },
    "heavy-cached": {
        "flags": ["--backend", "super"],
        "connections": 1,
        "keepalive": False,
        "misses": False,
        "scaled": True,
    },
    "novel-typed": {
        "flags": [
            "--backend",
            "super",
            "--cache-capacity",
            str(pools.NOVEL_CACHE_CAPACITY),
        ],
        "connections": 1,
        "keepalive": False,
        "misses": True,
        "scaled": True,
    },
}
WORKLOADS = tuple(SERVING) + ("fuzz-fleet",)

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: The request that ends a set-up: a fixed small program, the same on
#: every workload, so set-up always times spawn to the same answer.
BOOT_PROGRAM = "1 + 2 * 3"
#: Traced runs alternate between an untraced and a traced daemon in
#: slices of this length.
TRACE_SLICE_S = 1.0
#: Scratch directory (under the checkout) for the traced daemon's log.
WORK_DIR = ".e2ebench-work"


class BenchTimeout(Exception):
    """The run's own watchdog fired."""


class BenchFailure(Exception):
    """The program answered wrongly where the run cannot go on."""


def _on_alarm(signum, frame):
    raise BenchTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def metric_specs(root: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def lane_metric(lane: str) -> str:
    """``machine:warm-fork[super]`` -> ``fuzz.lane_s.machine.warm-fork.super``."""
    return "fuzz.lane_s." + re.sub(r"[^A-Za-z0-9_-]+", ".", lane).strip(".")


def backend_of(workload: str) -> str:
    flags = SERVING[workload]["flags"]
    return flags[flags.index("--backend") + 1] if "--backend" in flags else "ast"


def layers_on_path(workload: str, pool) -> Set[str]:
    """The in-process layer metrics (``layers.py``) whose layer runs in
    ``workload``'s timed phase.  The others read 0 and are listed
    under ``not_on_this_path``."""
    keys = {
        "machine.steps_per_request",
        "machine.steps_per_s",
        "machine.raises_per_request",
        "obs.events_per_request",
        "obs.sink_overhead_ms",
    }
    if workload == "fuzz-fleet":
        # Generated cases are syntax trees: no front end, no typecheck.
        # Every backend's snapshot is built once; the warm-fork lanes
        # fork and cold-start per case, and the super lanes lower it.
        return keys | {
            "superop.lower_ms", "snapshot.fork_ms", "machine.run_ms",
            *(f"snapshot.build_s.{b}" for b in inproc.BACKENDS),
            *(f"machine.cold_start_ms.{b}" for b in inproc.BACKENDS),
        }
    # A daemon builds its own backend's snapshot and forks it per
    # request; it never cold-starts.  Front end and lowering run only on
    # a cache miss, lowering only on super, typecheck only on request.
    backend = backend_of(workload)
    keys.add(f"snapshot.build_s.{backend}")
    if SERVING[workload]["misses"]:
        keys.add("lang.front_end_ms")
        if backend == "super":
            keys.add("superop.lower_ms")
    if any(r.typecheck for r in pool):
        keys.add("types.typecheck_ms")
    return keys


def on_path(values: Dict[str, float], workload: str, pool) -> Dict[str, float]:
    keep = layers_on_path(workload, pool)
    return {k: v for k, v in values.items() if k in keep}


# -- serving workloads ------------------------------------------------------


def boot_measured(
    children: Children, root: str, flags, oracle: Oracle
) -> Tuple[Daemon, List[float], List[float]]:
    """Boot the daemon ``SETUP_SAMPLES`` times, timing spawn to the
    correct answer to :data:`BOOT_PROGRAM`; the last daemon stays up
    for the load.  Returns the set-up times, scaled to the reference
    host speed by probes taken just before each spawn, and the
    wall-clock ones."""
    body = pools.Request(BOOT_PROGRAM).body()
    expected = oracle.expect(BOOT_PROGRAM)
    setups: List[float] = []
    raw_setups: List[float] = []
    daemon: Optional[Daemon] = None
    for _ in range(SETUP_SAMPLES):
        if daemon is not None:
            daemon.stop()
        factor = measure.REF_PROBE_S / measure.boot_probe_seconds()
        daemon = Daemon(children, root, flags)
        daemon.start()
        record = Client(daemon.port, keepalive=False).send(0, body)
        failure = check(expected, record.status, decode(record))
        if failure is not None:
            raise BenchFailure(f"first answer after boot: {failure}")
        raw_setups.append(record.end - daemon.spawned_at)
        setups.append(raw_setups[-1] * factor)
    assert daemon is not None
    return daemon, setups, raw_setups


def scaled_times(records, last: float) -> Tuple[List[float], float, List[float]]:
    """For a one-connection loop that probed before each request: the
    latencies (ms) and the timed phase's length (s) at the reference
    host speed, and the factors.  A request's share of the phase runs
    from its start to the next request's probe."""
    factors = measure.host_factors([r.probe for r in records])
    ends = [r.start - r.probe for r in records[1:]] + [last]
    latency = [(r.end - r.start) * 1000.0 * f for r, f in zip(records, factors)]
    phase = sum((e - r.start) * f for r, e, f in zip(records, ends, factors))
    return latency, phase, factors


def _side_seconds(start: float, end: float, side: int) -> float:
    """Time inside ``[start, end]`` spent in slices of one side (0:
    untraced daemon, 1: traced daemon)."""
    total, t, k = 0.0, start, 0
    while t < end:
        nxt = min(start + (k + 1) * TRACE_SLICE_S, end)
        if k % 2 == side:
            total += nxt - t
        t, k = nxt, k + 1
    return total


def _cache_counts(scrape) -> Tuple[float, float, float]:
    hits = scrape.metrics.get(("repro_cache_hits_total", ()), 0.0)
    misses = scrape.metrics.get(("repro_cache_misses_total", ()), 0.0)
    return hits, misses, scrape.health["cache"]["evictions"]


def serve_workload(
    name: str, seed: int, seconds: float, trace: bool, root: str,
    children: Children,
) -> Tuple[Dict, Dict[str, float], Tally]:
    spec = SERVING[name]
    pool = pools.pool_for(name, seed)
    oracle = Oracle()
    expected = [oracle.expect(r.expr, r.typecheck) for r in pool]
    bodies = [r.body() for r in pool]
    conns, keepalive = spec["connections"], spec["keepalive"]

    scaled = spec["scaled"]
    assert conns == 1 or not scaled, "scaled times need one closed loop"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    daemon, setups, raw_setups = boot_measured(
        children, root, spec["flags"], oracle
    )
    daemons = [daemon]
    log_path = None
    if trace:
        # The traced twin: the same daemon with its existing per-request
        # span log switched on.  The load alternates between the two.
        os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
        log_path = os.path.join(root, WORK_DIR, f"trace-{os.getpid()}.jsonl")
        traced_daemon = Daemon(
            children, root, spec["flags"] + ["--trace-log", log_path]
        )
        traced_daemon.start()
        daemons.append(traced_daemon)
    ports = [d.port for d in daemons]
    warm = 20 if name == "novel-typed" else 2 * len(pool)
    warm_records: List = []
    for port in ports:
        warm_records += closed_loop(
            [port], bodies, conns, keepalive, per_connection=warm // conns,
            probe=scaled,
        )[0]
    before = [d.scrape() for d in daemons]
    cpu_before = [measure.proc_cpu_seconds(d.pid) for d in daemons]
    records, started, last = closed_loop(
        ports, bodies, conns, keepalive, seconds=seconds,
        slice_s=TRACE_SLICE_S,
        offset=warm if name == "novel-typed" else 0,
        probe=scaled,
    )
    cpu_after = [measure.proc_cpu_seconds(d.pid) for d in daemons]
    after = [d.scrape() for d in daemons]
    peak_rss = measure.proc_peak_rss_mb(daemon.pid)
    if trace and keepalive:
        connect_ms = connect_probe_ms(daemon.port)
    else:
        connect_ms = [r.connect * 1000.0 for r in records if r.connect is not None]
    for d in daemons:
        d.stop()

    tally, warm_tally = Tally(), Tally()
    for rec in warm_records:
        warm_tally.add(expected[rec.index], rec.status, decode(rec))
    decoded = [decode(rec) for rec in records]
    for rec, body in zip(records, decoded):
        tally.add(expected[rec.index], rec.status, body)
    tally.failures.update(
        {f"warm-up {k}": v for k, v in warm_tally.failures.items()}
    )

    lat = measure.summarize([(r.end - r.start) * 1000.0 for r in records])
    probes_s = sum(r.probe for r in records if r.probe is not None)
    throughput = measure.rate(len(records), last - started - probes_s)
    wall_clock = {
        "setup_s": statistics.median(raw_setups),
        "throughput_per_s": throughput,
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
    }
    if scaled and not trace:
        scaled_ms, phase, factors = scaled_times(records, last)
        lat = measure.summarize(scaled_ms)
        throughput = measure.rate(len(records), phase)
    counts = [
        [a - b for a, b in zip(_cache_counts(af), _cache_counts(bf))]
        for af, bf in zip(after, before)
    ]
    hits, misses, evictions = (sum(c[i] for c in counts) for i in range(3))
    steps = sorted(b["stats"]["steps"] for b in decoded if b and "stats" in b)
    response_bytes = [len(r.raw) for r in records if r.raw is not None]
    traffic = {
        "requests": len(records),
        "connections": conns,
        "keepalive": keepalive,
        "daemon_flags": spec["flags"],
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "steps_per_request": {
            "p50": statistics.median(steps) if steps else 0,
            "p90": measure.percentile(steps, 90) if steps else 0,
            "max": steps[-1] if steps else 0,
        },
        "outcome_share": {
            k: v / tally.attempted for k, v in sorted(tally.outcomes.items())
        },
        "request_bytes_mean": measure.mean([len(bodies[r.index]) for r in records]),
        "response_bytes_mean": measure.mean(response_bytes),
        "daemon_tracebacks": sum(d.tracebacks for d in daemons),
        "oracle_paths": dict(collections.Counter(e.via for e in expected)),
        "setup_samples_s": setups,
        "latency_tail": {
            "percentile": lat["tail_pct"], "beyond": lat["beyond"],
            "samples": lat["n"],
        },
    }
    if not trace:
        traffic["wall_clock"] = wall_clock
    if scaled and not trace:
        traffic["host_factor"] = {
            "median": measure.median(factors),
            "min": min(factors),
            "max": max(factors),
        }
    if not trace:
        end_to_end = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": throughput,
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "peak_rss_mb": peak_rss,
        }
        return traffic, end_to_end, tally

    spans = read_trace_log(log_path)
    os.remove(log_path)
    try:
        os.rmdir(os.path.dirname(log_path))
    except OSError:  # another run's log is still there
        pass
    traced = [
        (rec, body) for rec, body in zip(records, decoded)
        if rec.traced and body and body.get("trace_id") in spans
    ]
    client_ms = [(rec.end - rec.start) * 1000.0 for rec, _ in traced]

    def span_p50_ms(span_name: str) -> float:
        found = [
            s for _, body in traced
            for s in span_seconds(spans[body["trace_id"]], span_name)
        ]
        return measure.median(found) * 1000.0

    request_ms = span_p50_ms("request")
    rates = [
        measure.rate(sum(1 for r in records if r.traced == bool(side)),
                     _side_seconds(started, last, side))
        for side in (0, 1)
    ]
    cpu = sum(a - b for a, b in zip(cpu_after, cpu_before))
    per_layer = {
        "http.unattributed_ms": measure.median(client_ms) - request_ms,
        "http.json_decode_ms": _json_ms(json.loads, bodies),
        "http.json_encode_ms": _json_ms(
            lambda b: json.dumps(b).encode("utf-8"),
            [b for b in decoded if b][: 4 * len(pool)],
        ),
        "http.response_bytes": statistics.median(response_bytes),
        "http.connect_ms": statistics.median(connect_ms),
        "http.connections_dropped": tally.outcomes.get("dropped", 0),
        "service.request_ms": request_ms,
        "service.admission_ms": span_p50_ms("admission"),
        "service.breaker_ms": span_p50_ms("breaker"),
        "service.render_ms": span_p50_ms("render"),
        "cache.hit_ratio": traffic["cache_hit_ratio"],
        "cache.misses": misses,
        "cache.evictions": evictions,
        "cache.lookup_ms": span_p50_ms("cache-lookup"),
        "snapshot.fork_ms": span_p50_ms("fork"),
        "machine.run_ms": span_p50_ms("machine-run"),
        "daemon.cpu_ms_per_request": cpu * 1000.0 / len(records),
        "trace.overhead_pct": (1.0 - rates[1] / rates[0]) * 100.0,
    }
    backend = backend_of(name)
    runs = [e.kind in ("value", "exceptional") for e in expected]
    sample = list(zip([r.expr for r in pool], runs))[:40]
    in_process = inproc.snapshot_costs(children, root, [backend])
    in_process.update(inproc.module_layers(
        sample, backend, typecheck=any(r.typecheck for r in pool)
    ))
    for key in ("snapshot.fork_ms", "machine.run_ms"):
        in_process.pop(key)  # measured inside the daemon above
    per_layer.update(on_path(in_process, name, pool))
    traffic["trace_throughput"] = {"untraced": rates[0], "traced": rates[1]}
    return traffic, per_layer, tally


def _json_ms(fn, items, repeats: int = 20) -> float:
    """Median per-call time of ``fn`` over ``items``, in ms."""
    per_item = []
    for item in items:
        started = time.perf_counter()
        for _ in range(repeats):
            fn(item)
        per_item.append((time.perf_counter() - started) / repeats)
    return statistics.median(per_item) * 1000.0 if per_item else 0.0


# -- fuzz-fleet ------------------------------------------------------------


def fuzz_workload(
    seed: int, seconds: float, trace: bool, root: str, children: Children
) -> Tuple[Dict, Dict[str, float], Tally]:
    from fuzzing import run_fuzz_child

    base = pools.fuzz_base_seed(seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        boot = run_fuzz_child(children, root, base, iterations=1)
        setups.append(boot.setup_s)
        raw_setups.append(boot.raw_setup_s)
        if boot.divergences:
            raise BenchFailure("divergence on the first fuzz case")
    main = run_fuzz_child(children, root, base, seconds=seconds)
    tally = Tally()
    tally.attempted = main.timed_cases
    tally.outcomes = dict(main.report["verdicts"])
    if main.divergences:
        tally.failures["divergence"] = main.divergences
    if main.report["probe_violations"]:
        tally.failures["probe-violation"] = len(main.report["probe_violations"])
    lat = measure.summarize(main.case_ms)
    raw = measure.summarize([t * 1000.0 for t in main.raw_case_s])
    factors = main.host_factors
    cases = sum(main.report["verdicts"].values())
    traffic = {
        "cases": cases,
        "base_seed": base,
        "verdict_share": {k: v / cases for k, v in sorted(main.report["verdicts"].items())},
        "steps_per_case": main.report["case_steps"]["quantiles"],
        "setup_samples_s": setups,
        "latency_tail": {"percentile": lat["tail_pct"], "beyond": lat["beyond"],
                         "samples": lat["n"]},
        "host_factor": {
            "median": measure.median(factors),
            "min": min(factors, default=0.0),
            "max": max(factors, default=0.0),
        },
        "wall_clock": {
            "setup_s": statistics.median(raw_setups),
            "throughput_per_s": main.raw_throughput,
            "latency_p50_ms": raw["p50"],
            "latency_tail_ms": raw["tail"],
        },
    }
    if not trace:
        end_to_end = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": main.throughput,
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "peak_rss_mb": main.peak_rss_mb,
        }
        return traffic, end_to_end, tally

    per_layer = {
        lane_metric(lane): spent / cases
        for lane, spent in main.report["timing"]["lane_seconds"].items()
    }
    from repro.fuzz.gen import GenConfig, generate_case

    gen_s, sample = [], []
    for i in range(30):
        started = time.perf_counter()
        case = generate_case(base + i, GenConfig())
        gen_s.append(time.perf_counter() - started)
        sample.append((case.source, True))
    per_layer["fuzz.gen_ms_per_case"] = measure.median(gen_s) * 1000.0
    per_layer["fuzz.divergences"] = main.divergences
    per_layer["daemon.cpu_ms_per_request"] = main.cpu_s * 1000.0 / cases
    in_process = inproc.snapshot_costs(children, root, inproc.BACKENDS)
    in_process.update(inproc.module_layers(sample, "super", typecheck=False))
    per_layer.update(on_path(in_process, "fuzz-fleet", []))
    return traffic, per_layer, tally


# -- entry point -----------------------------------------------------------


def run(args, root: str, children: Children) -> Tuple[Dict, Dict]:
    end_to_end_units, per_layer_units = metric_specs(root)
    env = measure.environment_stamp(root)
    trace = bool(args.trace)
    if args.workload == "fuzz-fleet":
        traffic, values, tally = fuzz_workload(
            args.seed, args.seconds, trace, root, children
        )
    else:
        traffic, values, tally = serve_workload(
            args.workload, args.seed, args.seconds, trace, root, children
        )
    env["host_probe_ms_end"] = round(measure.host_probe_ms(), 4)
    units = per_layer_units if trace else end_to_end_units
    off_path = sorted(set(units) - set(values))
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "environment": env,
        "traffic": traffic,
        "failure_classes": dict(sorted(tally.failures.items())),
        "not_on_this_path": off_path,
        "unlisted": sorted(set(values) - set(units)),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-wall", type=int, default=170,
        help="abort (and stop every child) after this many seconds",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: no src/repro here; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(args.max_wall)
    children = Children()
    try:
        report, result = run(args, root, children)
    except BenchTimeout:
        print(f"error: run exceeded {args.max_wall}s", file=sys.stderr)
        return 3
    except BenchFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)
        children.stop_all()
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
