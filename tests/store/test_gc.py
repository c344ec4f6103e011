"""Retention GC: policy pruning that never touches in-progress runs."""

import os

import pytest

from repro.experiments.cache import ResultCache
from repro.obs import ProbeBus, use_probes
from repro.obs.spans import append_spans, span_path
from repro.store.gc import GCPolicy, collect, parse_age
from repro.store.locks import acquire_run_id


def key_for(i: int) -> str:
    return f"{i:02d}" + "a" * 62


def put_entry(cache: ResultCache, i: int, *, age_s: float = 0.0,
              now: float = 1_000_000.0) -> str:
    key = key_for(i)
    cache.put(key, {"result": i, "metrics": {}})
    os.utime(cache.path_for(key), (now - age_s, now - age_s))
    return key


def write_run(root, run_id: str, keys, *, age_s: float = 0.0,
              now: float = 1_000_000.0) -> None:
    append_spans(root, run_id, [
        {"span_id": "p", "name": "plan", "plan_digest": "p",
         "settings_digest": "s", "run_id": run_id},
    ] + [
        {"span_id": f"j{i}", "name": "job", "digest": key, "status": "done"}
        for i, key in enumerate(keys)
    ])
    os.utime(span_path(root, run_id), (now - age_s, now - age_s))


NOW = 1_000_000.0


class TestPolicy:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            GCPolicy(max_bytes=-1)
        with pytest.raises(ValueError):
            GCPolicy(max_age_s=-1)
        with pytest.raises(ValueError):
            GCPolicy(keep_runs=-1)

    def test_empty_policy_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_entry(cache, 0, age_s=10_000, now=NOW)
        stats = collect(tmp_path, GCPolicy(), now=NOW)
        assert stats["removed"]["entries"] == 0
        assert stats["live_entries"] == 1


class TestAgeAndSize:
    def test_max_age_prunes_only_old_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        old = put_entry(cache, 0, age_s=7200, now=NOW)
        young = put_entry(cache, 1, age_s=60, now=NOW)
        stats = collect(tmp_path, GCPolicy(max_age_s=3600), now=NOW)
        assert stats["removed"]["entries"] == 1
        assert not cache.path_for(old).exists()
        assert cache.path_for(young).exists()

    def test_max_bytes_drops_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            put_entry(cache, i, age_s=1000 - i, now=NOW)  # 0 is oldest
        sizes = [cache.path_for(key_for(i)).stat().st_size
                 for i in range(4)]
        budget = sum(sizes) - 1  # force exactly one removal
        stats = collect(tmp_path, GCPolicy(max_bytes=budget), now=NOW)
        assert stats["removed"]["entries"] == 1
        assert not cache.path_for(key_for(0)).exists()
        assert stats["live_bytes"] <= budget

    def test_dry_run_touches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = put_entry(cache, 0, age_s=7200, now=NOW)
        stats = collect(tmp_path, GCPolicy(max_age_s=60), now=NOW,
                        dry_run=True)
        assert stats["removed"]["entries"] == 1
        assert cache.path_for(key).exists()


class TestRuns:
    def test_keep_runs_keeps_newest(self, tmp_path):
        ResultCache(tmp_path)
        for i, age in enumerate((300, 200, 100)):  # run-2 newest
            write_run(tmp_path, f"run-{i}", [key_for(i)], age_s=age, now=NOW)
        stats = collect(tmp_path, GCPolicy(keep_runs=1), now=NOW)
        assert stats["removed"]["spans"] == 2
        assert span_path(tmp_path, "run-2").exists()
        assert not span_path(tmp_path, "run-0").exists()
        assert not span_path(tmp_path, "run-1").exists()

    def test_max_age_prunes_runs_and_orphan_spans(self, tmp_path):
        ResultCache(tmp_path)
        write_run(tmp_path, "old-run", [key_for(0)], age_s=7200, now=NOW)
        append_spans(tmp_path, "orphan", [{"span_id": "s", "name": "n"}])
        os.utime(span_path(tmp_path, "orphan"), (NOW - 7200, NOW - 7200))
        stats = collect(tmp_path, GCPolicy(max_age_s=3600), now=NOW)
        # a store with no plan span is still a run record and ages out
        assert stats["removed"]["spans"] == 2


class TestProtection:
    def test_held_lock_protects_run_state(self, tmp_path):
        cache = ResultCache(tmp_path)
        done_key = put_entry(cache, 0, age_s=7200, now=NOW)
        loose_key = put_entry(cache, 1, age_s=7200, now=NOW)
        write_run(tmp_path, "live-run", [done_key], age_s=7200, now=NOW)
        rid, lock, _ = acquire_run_id(tmp_path, "live-run")
        try:
            assert rid == "live-run"
            stats = collect(tmp_path, GCPolicy(max_age_s=60), now=NOW)
            # the loose entry ages out; the locked run's span store and
            # done entry both survive
            assert not cache.path_for(loose_key).exists()
            assert cache.path_for(done_key).exists()
            assert span_path(tmp_path, "live-run").exists()
            assert stats["protected_runs"] == 1
            assert stats["protected_entries"] == 1
        finally:
            lock.release()

    def test_held_lock_protects_an_unsafe_run_id(self, tmp_path):
        """A run id that is not filename-safe names its store and its
        lock by a hash; the lock's note maps back to the right store."""
        cache = ResultCache(tmp_path)
        done_key = put_entry(cache, 0, age_s=7200, now=NOW)
        write_run(tmp_path, "my run", [done_key], age_s=7200, now=NOW)
        write_run(tmp_path, "other-run", [], age_s=7200, now=NOW)
        _, lock, _ = acquire_run_id(tmp_path, "my run")
        try:
            stats = collect(tmp_path, GCPolicy(keep_runs=0), now=NOW)
            assert span_path(tmp_path, "my run").exists()
            assert not span_path(tmp_path, "other-run").exists()
            assert stats["removed"]["spans"] == 1
            collect(tmp_path, GCPolicy(max_age_s=60), now=NOW)
            assert cache.path_for(done_key).exists()
        finally:
            lock.release()

    def test_held_lock_shields_from_max_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        done_key = put_entry(cache, 0, age_s=1000, now=NOW)  # oldest
        put_entry(cache, 1, age_s=10, now=NOW)
        write_run(tmp_path, "live-run", [done_key], now=NOW)
        _, lock, _ = acquire_run_id(tmp_path, "live-run")
        try:
            collect(tmp_path, GCPolicy(max_bytes=0), now=NOW)
            assert cache.path_for(done_key).exists()
            assert not cache.path_for(key_for(1)).exists()
        finally:
            lock.release()

    def test_stale_locks_are_swept(self, tmp_path):
        _, lock, _ = acquire_run_id(tmp_path, "finished-run")
        lock.release()  # file remains, holder gone
        stats = collect(tmp_path, GCPolicy(), now=NOW)
        assert stats["removed"]["stale_locks"] == 1
        assert list((tmp_path / "locks").glob("*.lock")) == []


class TestObservability:
    def test_gauges_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        put_entry(cache, 0, now=NOW)
        bus = ProbeBus()
        with use_probes(bus):
            collect(tmp_path, GCPolicy(), now=NOW)
        assert bus.counters["store.gc.sweeps"] == 1
        assert bus.gauges["store.gc.live_entries"].last == 1
        assert bus.gauges["store.gc.live_bytes"].last > 0


class TestParseAge:
    @pytest.mark.parametrize("text,expected", [
        ("90", 90.0), ("90s", 90.0), ("15m", 900.0),
        ("6h", 21600.0), ("7d", 604800.0), ("1.5h", 5400.0),
    ])
    def test_units(self, text, expected):
        assert parse_age(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "-5m", "5w"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_age(text)
