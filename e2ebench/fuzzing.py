"""The fuzz-fleet workload: ``repro fuzz --jobs 1`` as a child process.

The child is ``fuzz_child.py``, which runs the real ``repro fuzz`` CLI
and stamps the start of every case (see there).  Both processes read
the same system-wide monotonic clock, so the parent's spawn time and
the child's first stamp bracket the start-up before the first case.

One ``--jobs 1`` process feels all of the host's speed drift, so every
fuzz-fleet time is scaled to the reference host speed by the child's
probes (see ``measure``).  Wall-clock figures are kept in the report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

from fuzz_child import MARK
from measure import REF_PROBE_S, host_factors
from serving import Children, repro_env

HERE = os.path.dirname(os.path.abspath(__file__))
#: Cases excluded from the timed phase as warm-up (the first case also
#: builds the prelude snapshots the warm-fork lanes share).
WARMUP_CASES = 2


@dataclass
class FuzzRun:
    spawned: float
    report: dict
    starts: List[float]
    probes: List[float]
    boot_probe: float
    boot_probe_s: float
    end: float
    max_rss_kb: int
    cpu_s: float

    @property
    def raw_setup_s(self) -> float:
        """Spawn to the start of the first case, probes excluded."""
        return self.starts[0] - self.probes[0] - self.boot_probe_s - self.spawned

    @property
    def setup_s(self) -> float:
        """Set-up at the reference host speed (the start-up probe's)."""
        return self.raw_setup_s * REF_PROBE_S / self.boot_probe

    @property
    def divergences(self) -> int:
        return self.report["verdicts"].get("divergence", 0)

    @property
    def timed_cases(self) -> int:
        return max(0, len(self.starts) - WARMUP_CASES)

    @property
    def raw_case_s(self) -> List[float]:
        """Per-case wall time, warm-up cases and probes excluded."""
        ends = [s - p for s, p in zip(self.starts[1:], self.probes[1:])]
        ends.append(self.end)
        return [
            ends[i] - self.starts[i]
            for i in range(WARMUP_CASES, len(self.starts))
        ]

    @property
    def host_factors(self) -> List[float]:
        """Host-speed factor per timed case (``measure.host_factors``)."""
        return host_factors(self.probes)[WARMUP_CASES:]

    @property
    def case_ms(self) -> List[float]:
        """Per-case time at the reference host speed, in ms."""
        return [
            t * f * 1000.0 for t, f in zip(self.raw_case_s, self.host_factors)
        ]

    @property
    def throughput(self) -> float:
        """Timed cases per second at the reference host speed."""
        spent = sum(self.case_ms) / 1000.0
        return self.timed_cases / spent if spent > 0 else 0.0

    @property
    def raw_throughput(self) -> float:
        """Timed cases per second of wall time, probes excluded."""
        spent = sum(self.raw_case_s)
        return self.timed_cases / spent if spent > 0 else 0.0

    @property
    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


def run_fuzz_child(
    children: Children,
    root: str,
    base_seed: int,
    seconds: Optional[float] = None,
    iterations: int = 1_000_000,
) -> FuzzRun:
    argv = [sys.executable, os.path.join(HERE, "fuzz_child.py")]
    argv += [
        "fuzz", "--jobs", "1", "--iterations", str(iterations),
        "--seed", str(base_seed), "--format", "json",
    ]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    spawned = time.monotonic()
    proc = children.spawn(
        argv,
        cwd=root,
        env=repro_env(root),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    out, err = proc.communicate(timeout=(seconds or 0) + 120)
    stamp_lines = [ln for ln in err.splitlines() if ln.startswith(MARK)]
    if not stamp_lines or not out.strip():
        raise RuntimeError(
            f"repro fuzz exited {proc.returncode} without a report:\n{err[-2000:]}"
        )
    stamps = json.loads(stamp_lines[-1][len(MARK):])
    return FuzzRun(
        spawned=spawned,
        report=json.loads(out),
        starts=stamps["starts"],
        probes=stamps["probes"],
        boot_probe=stamps["boot_probe"],
        boot_probe_s=stamps["boot_probe_s"],
        end=stamps["end"],
        max_rss_kb=stamps["max_rss_kb"],
        cpu_s=stamps["cpu_s"],
    )
