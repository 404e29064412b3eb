"""Which in-process per-layer metrics each workload reports."""

import pools
import pytest
from run import layers_on_path

IN_PROCESS_ONLY_ON_MISSES = {"lang.front_end_ms", "superop.lower_ms"}


@pytest.mark.parametrize("workload", ["small-keepalive", "heavy-cached"])
def test_cache_hit_daemons_skip_the_miss_path(workload):
    keys = layers_on_path(workload, pools.pool_for(workload, 1))
    assert not keys & IN_PROCESS_ONLY_ON_MISSES
    assert "types.typecheck_ms" not in keys
    assert not any(k.startswith("machine.cold_start_ms.") for k in keys)
    builds = {k for k in keys if k.startswith("snapshot.build_s.")}
    backend = "ast" if workload == "small-keepalive" else "super"
    assert builds == {f"snapshot.build_s.{backend}"}
    assert "machine.steps_per_request" in keys


def test_novel_typed_runs_the_miss_path():
    keys = layers_on_path("novel-typed", pools.pool_for("novel-typed", 1))
    assert IN_PROCESS_ONLY_ON_MISSES <= keys
    assert "types.typecheck_ms" in keys
    assert "machine.cold_start_ms.super" not in keys


def test_typecheck_needs_typecheck_requests():
    untyped = [r for r in pools.pool_for("novel-typed", 1) if not r.typecheck]
    assert "types.typecheck_ms" not in layers_on_path("novel-typed", untyped)


def test_fuzz_fleet_lowers_and_cold_starts_but_has_no_front_end():
    keys = layers_on_path("fuzz-fleet", [])
    assert "superop.lower_ms" in keys
    assert "lang.front_end_ms" not in keys
    assert "types.typecheck_ms" not in keys
    for backend in ("ast", "compiled", "super"):
        assert f"snapshot.build_s.{backend}" in keys
        assert f"machine.cold_start_ms.{backend}" in keys
