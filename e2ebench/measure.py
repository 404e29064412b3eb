"""Statistics and run stamps shared by every workload.

Timings are reported as a median plus the *highest supported
percentile*: the highest rung of :data:`TAIL_LADDER` that still has at
least :data:`TAIL_MIN_BEYOND` samples strictly beyond it, so a tail
figure is never read off one or two stragglers.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentile rungs tried for the tail, highest first.  Coarse on
#: purpose: a run-to-run wobble in the sample count must not flip the
#: rung, or the tail metric would change meaning between runs.
TAIL_LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond the chosen tail percentile.
TAIL_MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Nearest rank ``ceil(p/100 * n)``, in integers (``p`` in tenths)
    so that e.g. p99.9 of 10000 is rank 9990, not 9991."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie past the nearest-rank ``p``-th."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> Optional[float]:
    """The highest rung with at least ``TAIL_MIN_BEYOND`` samples
    beyond it, or None when the sample is too small for any rung."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the supported tail and its sample count."""
    ordered = sorted(values)
    n = len(ordered)
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(ordered) if ordered else float("nan"),
        "tail_pct": p if p is not None else float("nan"),
        "tail": percentile(ordered, p) if p is not None else float("nan"),
        "beyond": samples_beyond(n, p) if p is not None else 0,
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- host-speed scaling -------------------------------------------------
#
# The host's CPU speed drifts between states up to 1.6x apart, per core,
# over seconds to minutes.  A CPU-bound workload that runs on one core
# feels all of it, so such a workload times a fixed loop (the probe)
# before each request or case, on the core that then runs it, and
# scales the request's wall time to a reference host speed.

#: Iterations of the probe (about 1 ms).
PROBE_LOOP = 10_000
#: Probe time, in seconds, that defines the reference host speed.
REF_PROBE_S = 0.00065
#: Probes on each side pooled (median) into one request's factor.
PROBE_WINDOW = 4


def probe_seconds() -> float:
    """Time the fixed probe loop once."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - started


def boot_probe_seconds() -> float:
    """The median of five probes, for a one-off span such as set-up."""
    return statistics.median(probe_seconds() for _ in range(5))


def host_factors(probes: Sequence[float]) -> List[float]:
    """``REF_PROBE_S / probe`` per item, the probe being the median of
    the item's own and its ``PROBE_WINDOW`` neighbours' on each side.
    An item's wall time times its factor is its time at the reference
    host speed."""
    out = []
    for i in range(len(probes)):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(REF_PROBE_S / statistics.median(near))
    return out


# -- host stamp ---------------------------------------------------------


def host_probe_ms(reps: int = 5) -> float:
    """The probe loop, fastest of ``reps`` timings, in ms.

    Taken at the start and at the end of a run: the host's CPU speed
    drifts between states, and the two stamps tell a run made in the
    slow state from one made in the fast state."""
    return min(probe_seconds() for _ in range(reps)) * 1000.0


def git_short_hash(root: str) -> str:
    """The checkout's HEAD commit, read from ``.git`` without running
    git (which would search parent directories); ``unknown`` outside a
    repository."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:7]
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()[:7]
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:7]
    except OSError:
        pass
    return "unknown"


def environment_stamp(root: str) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_short_hash(root),
        "host_probe_ms_start": round(host_probe_ms(), 4),
    }


# -- processes ----------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        raw = fh.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line.
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
