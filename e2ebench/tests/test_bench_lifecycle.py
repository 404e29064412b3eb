"""No ``repro serve`` child outlives a run, its watchdog or a SIGTERM,
and the benchmark refuses to run outside a checkout."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

from conftest import BENCH, ROOT
from run import SETUP_SAMPLES

RUN = os.path.join(BENCH, "run.py")


def _serve_children(pid: int):
    """PIDs of ``repro serve`` processes whose parent is ``pid``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        if ppid == pid and b"repro" in argv and b"serve" in argv:
            found.add(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _start(*extra):
    argv = [sys.executable, RUN, "--workload", "small-keepalive", "--seed", "1"]
    return subprocess.Popen(
        argv + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def _watch(proc, until=None, timeout=120.0):
    """Collect the run's serve children until it exits (or ``until``
    returns True); returns the PIDs seen."""
    seen = set()
    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        seen |= _serve_children(proc.pid)
        if until is not None and until(seen):
            break
        time.sleep(0.05)
    return seen


def _assert_gone(pids):
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [p for p in pids if _alive(p)]


def test_a_run_stops_its_daemons():
    proc = _start("--seconds", "1")
    seen = _watch(proc)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert seen, "no daemon was observed"
    _assert_gone(seen)


def test_the_watchdog_stops_its_daemons():
    proc = _start("--seconds", "60", "--max-wall", "4")
    seen = _watch(proc)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert '"correct"' not in out
    assert seen
    _assert_gone(seen)


def test_sigterm_stops_its_daemons():
    proc = _start("--seconds", "60")
    # The last set-up boot is the daemon that serves the load.
    seen = _watch(proc, until=lambda pids: len(pids) >= SETUP_SAMPLES)
    time.sleep(2.0)  # into the timed phase
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert len(seen) >= SETUP_SAMPLES
    _assert_gone(seen)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "heavy-cached",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
