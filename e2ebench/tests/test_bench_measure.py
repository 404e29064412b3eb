"""The highest-supported-percentile rule, the stats helpers and the
scaling of times to the reference host speed."""

import measure
import pytest
from fuzzing import WARMUP_CASES, FuzzRun
from measure import REF_PROBE_S
from run import scaled_times
from serving import Record


@pytest.mark.parametrize(
    "n, rung",
    [
        (9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
        (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
        (1000, 99.0), (2000, 99.0), (9999, 99.0), (10_000, 99.9),
    ],
)
def test_tail_rung(n, rung):
    assert measure.tail_percentile(n) == rung


def test_tail_rung_is_the_highest_with_ten_beyond():
    for n in range(1, 5000):
        rung = measure.tail_percentile(n)
        higher = [p for p in measure.TAIL_LADDER if rung is None or p > rung]
        if rung is not None:
            assert measure.samples_beyond(n, rung) >= measure.TAIL_MIN_BEYOND
        for p in higher:
            assert measure.samples_beyond(n, p) < measure.TAIL_MIN_BEYOND


def test_summarize_counts_samples_beyond_the_tail():
    values = list(range(1, 201))  # 200 samples -> p95
    summary = measure.summarize(values)
    assert summary["tail_pct"] == 95.0
    assert summary["tail"] == 190
    assert summary["beyond"] == 10
    assert sum(v > summary["tail"] for v in values) == summary["beyond"]
    assert summary["p50"] == 100.5


def test_nearest_rank_percentile():
    assert measure.percentile([1, 3, 5], 50) == 3
    assert measure.percentile([1, 2, 3, 4], 100) == 4
    assert measure.percentile([1, 2, 3, 4], 1) == 1


def test_host_factors_take_the_median_of_neighbouring_probes():
    probes = [REF_PROBE_S] * 10 + [2 * REF_PROBE_S] + [REF_PROBE_S] * 10
    factors = measure.host_factors(probes)
    # One stray probe does not move any factor.
    assert factors == pytest.approx([1.0] * len(probes))
    slow = measure.host_factors([2 * REF_PROBE_S] * 5)
    assert slow == pytest.approx([0.5] * 5)


def test_serving_times_are_scaled_per_request():
    # One connection: probe, request, probe, request...  The host is at
    # the reference speed for 10 requests, then at half of it.
    records, t = [], 0.0
    for i in range(20):
        slow = i >= 10
        probe = REF_PROBE_S * (2 if slow else 1)
        t += probe
        spent = 0.02 if slow else 0.01
        records.append(Record(i, t, t + spent, 200, b"", probe=probe))
        t += spent + (0.002 if slow else 0.001)  # client work, scaled too
    latency, phase, factors = scaled_times(records, t)
    exact = [ms for i, ms in enumerate(latency) if abs(i - 10) > 4]
    assert exact == pytest.approx([10.0] * len(exact))
    assert phase == pytest.approx(20 * 0.011, rel=0.05)
    assert len(factors) == 20


def _run(case_s, probes):
    """A FuzzRun whose cases take ``case_s`` seconds after probes of
    ``probes`` seconds, back to back from t = 10."""
    starts, t = [], 10.0
    for spent, probe in zip(case_s, probes):
        t += probe
        starts.append(t)
        t += spent
    return FuzzRun(
        spawned=9.0, report={}, starts=starts, probes=list(probes),
        boot_probe=2 * REF_PROBE_S, boot_probe_s=0.5, end=t,
        max_rss_kb=1024, cpu_s=1.0,
    )


def test_fuzz_cases_are_scaled_to_the_reference_host_speed():
    # The host halves its speed after 20 cases: both the probe and the
    # case take twice as long.  At the reference speed every case takes
    # the same time.
    n = 40
    probes = [REF_PROBE_S] * 20 + [2 * REF_PROBE_S] * 20
    case_s = [0.04] * 20 + [0.08] * 20
    run = _run(case_s, probes)
    assert run.timed_cases == n - WARMUP_CASES
    assert run.raw_case_s == pytest.approx(case_s[WARMUP_CASES:])
    # Cases next to the switch see a mixed window; the rest are exact.
    exact = [ms for i, ms in enumerate(run.case_ms, WARMUP_CASES)
             if abs(i - 20) > 4]
    assert exact == pytest.approx([40.0] * len(exact))
    assert run.raw_throughput < 0.8 / 0.04
    assert run.throughput == pytest.approx(1 / 0.04, rel=0.05)
    # Spawn at 9, first case at 10 + probe: 0.5 s of start-up probes
    # leave 0.5 s of set-up, at half the reference speed.
    assert run.raw_setup_s == pytest.approx(0.5)
    assert run.setup_s == pytest.approx(0.25)
