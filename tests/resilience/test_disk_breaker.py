"""The disk tier degrading through its circuit breaker, fault-driven."""

import sqlite3

from repro.mapping.cache import CacheTiers, DiskCache
from repro.resilience import FaultPlan, FaultRule


def _store(tmp_path, now, **kwargs):
    defaults = dict(failure_threshold=2, cooldown=10.0,
                    clock=lambda: now[0])
    defaults.update(kwargs)
    return DiskCache(tmp_path / "store.sqlite", **defaults)


def _read_fault(times, seed):
    return FaultPlan([FaultRule("disk_cache.read",
                                error=lambda: sqlite3.OperationalError(
                                    "injected: disk I/O error"),
                                times=times)], seed=seed)


class TestBreakerOpensAndHeals:
    def test_consecutive_read_failures_open_then_cooldown_heals(
            self, tmp_path, chaos_seed):
        now = [0.0]
        cache = _store(tmp_path, now)
        cache.put("k", {"v": 1})
        plan = _read_fault(times=2, seed=chaos_seed)
        with plan.activate():
            assert cache.get("k") is None       # failure 1: miss, not raise
            assert cache.get("k") is None       # failure 2: opens
            assert cache.breaker.state == "open"
            # Open circuit: lookups miss *without touching sqlite* — the
            # fault site records no further hits.
            assert cache.get("k") is None
            assert plan.counts()["hits"]["disk_cache.read"] == 2
            # Cooldown elapsed: the next access probes and heals (the
            # fault is exhausted, so the probe succeeds).
            now[0] = 11.0
            assert cache.get("k") == {"v": 1}
        assert cache.breaker.state == "closed"

    def test_failed_probe_reopens(self, tmp_path, chaos_seed):
        now = [0.0]
        cache = _store(tmp_path, now)
        cache.put("k", 1)
        plan = _read_fault(times=3, seed=chaos_seed)
        with plan.activate():
            cache.get("k"), cache.get("k")      # open (2 failures)
            now[0] = 11.0
            assert cache.get("k") is None       # probe fails (3rd fault)
            assert cache.breaker.state == "open"
            assert cache.breaker.stats()["trips"] == 2
            now[0] = 22.0
            assert cache.get("k") == 1          # second probe heals
        assert cache.breaker.state == "closed"

    def test_success_resets_the_consecutive_run(self, tmp_path, chaos_seed):
        now = [0.0]
        cache = _store(tmp_path, now, failure_threshold=3)
        cache.put("k", 1)
        # Fire, fire, pass, fire, fire: never 3 consecutive failures.
        plan = FaultPlan([
            FaultRule("disk_cache.read",
                      error=sqlite3.OperationalError, times=2),
            FaultRule("disk_cache.read",
                      error=sqlite3.OperationalError, after=3, times=2),
        ], seed=chaos_seed)
        with plan.activate():
            for _ in range(5):
                cache.get("k")
        assert cache.breaker.state == "closed"

    def test_write_failures_count_too(self, tmp_path, chaos_seed):
        now = [0.0]
        cache = _store(tmp_path, now)
        plan = FaultPlan([FaultRule("disk_cache.write",
                                    error=sqlite3.OperationalError,
                                    times=2)], seed=chaos_seed)
        with plan.activate():
            cache.put("a", 1)                   # dropped, failure 1
            cache.put("b", 2)                   # dropped, failure 2: open
        assert cache.breaker.state == "open"
        assert cache.writes == 0
        now[0] = 11.0
        cache.put("c", 3)                       # probe write heals
        assert cache.breaker.state == "closed"
        assert cache.get("c") == 3


class TestCorruptionAndRepair:
    def test_corrupt_file_trips_immediately(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a database")
        cache = DiskCache(path)
        assert cache.get("k") is None           # one access is enough
        assert cache.breaker.state == "open"
        assert cache.breaker.stats()["trips"] == 1

    def test_clear_repairs_and_closes(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"garbage")
        cache = DiskCache(path)
        cache.get("k")
        cache.clear()
        assert cache.breaker.state == "closed"
        cache.put("k", {"healed": True})
        assert cache.get("k") == {"healed": True}


class TestStatsSurface:
    def test_breaker_state_flows_through_tier_stats(self, tmp_path):
        tiers = CacheTiers(cache_dir=tmp_path)
        disk = tiers.stats()["disk"]
        assert disk["broken"] is False
        assert disk["breaker"]["state"] == "closed"
        tiers.disk.breaker.trip()
        disk = tiers.stats()["disk"]
        assert disk["broken"] is True
        assert disk["breaker"]["state"] == "open"
        assert disk["breaker"]["trips"] == 1
