"""Per-layer timings taken in-process, on the workload's own inputs.

The benchmark adds no span inside the program: every number here comes
from timing a call into a module's public function from the outside,
in the order the daemon makes those calls for one request —

    api.compile_expr            (lang: parse + flatten)
    api.prelude_type_env + types.infer.infer_expr   (typecheck)
    superop.compile_super       (lowering, super backend)
    PreludeSnapshot.fork        (machine.snapshot)
    Machine.eval [+ IOExecutor] under a ResourceGovernor, with and
    without the CountingSink the service attaches (machine.eval,
    obs.sinks)

plus the one-off costs behind set-up: ``PreludeSnapshot.build`` and
``cold_start`` per backend, each in a fresh process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

from measure import mean, median
from serving import Children, repro_env

BACKENDS = ("ast", "compiled", "super")
#: Fuel the daemon gives a request by default (ServiceConfig).
_FUEL = 8_000_000


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


#: Run in a fresh interpreter per backend: import the snapshot module,
#: then time the first ``PreludeSnapshot.build`` (prelude parse,
#: flatten and warm-up, as a daemon pays at boot) and five cold starts.
_SNAPSHOT_SCRIPT = """
import json, statistics, sys, time
from repro.machine.snapshot import PreludeSnapshot
started = time.perf_counter()
snap = PreludeSnapshot.build(sys.argv[1])
build = time.perf_counter() - started
colds = []
for _ in range(5):
    started = time.perf_counter()
    snap.cold_start()
    colds.append(time.perf_counter() - started)
print(json.dumps({"build_s": build, "cold_s": statistics.median(colds)}))
"""


def snapshot_costs(
    children: Children, root: str, backends: Sequence[str]
) -> Dict[str, float]:
    """First snapshot build and median cold start per backend, each in
    a fresh process, so no prelude cache of this process is warm."""
    out: Dict[str, float] = {}
    for backend in backends:
        proc = children.spawn(
            [sys.executable, "-c", _SNAPSHOT_SCRIPT, backend],
            cwd=root, env=repro_env(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        out_text, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"snapshot build ({backend}) failed:\n{err[-2000:]}")
        costs = json.loads(out_text.strip().splitlines()[-1])
        out[f"snapshot.build_s.{backend}"] = costs["build_s"]
        out[f"machine.cold_start_ms.{backend}"] = costs["cold_s"] * 1000.0
    return out


def _evaluate(snapshot, program, env, counting: bool):
    """One request's machine run as the service performs it: a fork,
    a governor with the default limits, optionally the per-request
    CountingSink, then evaluation (IO actions performed)."""
    from repro.io.run import IOExecutor
    from repro.machine.heap import AsyncInterrupt, Cell, MachineDiverged, ObjRaise
    from repro.machine.values import VIO
    from repro.obs.sinks import CountingSink
    from repro.serve.governor import GovernorLimits, ResourceGovernor

    machine, fork_env = snapshot.fork(fuel=_FUEL)
    if env is None:
        env = fork_env
    sink = CountingSink() if counting else None
    if sink is not None:
        machine.attach_sink(sink)
    governor = ResourceGovernor(
        GovernorLimits(
            max_steps=2_000_000, max_allocations=1_000_000, deadline_seconds=5.0
        )
    )
    machine.attach_governor(governor)
    started = time.perf_counter()
    governor.start()
    try:
        value = machine.eval(program, env)
        if isinstance(value, VIO):
            IOExecutor(machine=machine).run_cell(Cell.ready(value))
    except (ObjRaise, AsyncInterrupt, MachineDiverged):
        pass
    elapsed = time.perf_counter() - started
    events = sum(sink.counts.values()) if sink is not None else 0
    return elapsed, machine.stats, events


def module_layers(
    programs: Sequence[Tuple[str, bool]],
    backend: str,
    typecheck: bool = True,
    repeats: int = 3,
) -> Dict[str, float]:
    """Front end, typecheck (unless ``typecheck`` is false), lowering,
    fork and machine-run costs of ``programs`` (``(source,
    runs_on_machine)`` pairs) on ``backend``."""
    from repro.api import compile_expr, prelude_type_env
    from repro.machine.snapshot import PreludeSnapshot
    from repro.machine.superop import compile_super
    from repro.types.infer import TypeError_, infer_expr

    front, typing_, lower = [], [], []
    parsed: List[Tuple[object, bool]] = []
    for source, runs in programs:
        started = time.perf_counter()
        try:
            expr = compile_expr(source)
        except Exception:  # parse errors are timed too: the daemon pays them
            front.append(time.perf_counter() - started)
            continue
        front.append(time.perf_counter() - started)
        parsed.append((expr, runs))
    for expr, _ in parsed if typecheck else ():
        started = time.perf_counter()
        try:
            env, adts = prelude_type_env()
            infer_expr(expr, env, adts)
        except TypeError_:
            pass
        typing_.append(time.perf_counter() - started)

    snapshot = PreludeSnapshot.build(backend=backend)
    super_snap = (
        snapshot if backend == "super" else PreludeSnapshot.build(backend="super")
    )
    strategy = super_snap.fork()[0].strategy
    runnable = [expr for expr, runs in parsed if runs]
    lowered = []
    for expr in runnable:
        seconds, code = _timed(compile_super, expr, super_snap.env, strategy)
        lower.append(seconds)
        lowered.append(code)

    forks = [_timed(snapshot.fork, _FUEL)[0] for _ in range(200)]

    counted, overhead = [], []
    steps, raises, events = [], [], []
    for expr, code in zip(runnable, lowered):
        # On super the service runs the cached lowered program, which
        # bakes the snapshot's cells in and takes no environment.
        program, env = (code, ()) if backend == "super" else (expr, None)
        with_sink, without = [], []
        for _ in range(repeats):
            seconds, stats, n_events = _evaluate(snapshot, program, env, True)
            with_sink.append(seconds)
            without.append(_evaluate(snapshot, program, env, False)[0])
        counted.append(median(with_sink))
        overhead.append(median(with_sink) - median(without))
        steps.append(stats.steps)
        raises.append(stats.raises)
        events.append(n_events)

    total_run = sum(counted)
    out = {
        "lang.front_end_ms": median(front) * 1000.0,
        "superop.lower_ms": median(lower) * 1000.0,
        "snapshot.fork_ms": median(forks) * 1000.0,
        "machine.run_ms": median(counted) * 1000.0,
        "machine.steps_per_request": mean(steps),
        "machine.steps_per_s": sum(steps) / total_run if total_run else 0.0,
        "machine.raises_per_request": mean(raises),
        "obs.events_per_request": mean(events),
        "obs.sink_overhead_ms": mean(overhead) * 1000.0,
    }
    if typecheck:
        out["types.typecheck_ms"] = median(typing_) * 1000.0
    return out
