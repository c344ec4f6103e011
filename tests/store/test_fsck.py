"""``repro fsck``: detection, quarantine and repair of store damage."""

import json

from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.obs import ProbeBus, use_probes
from repro.obs.spans import append_spans, load_run, read_spans, span_path
from repro.store import envelope as env
from repro.store.fsck import fsck, main
from repro.store.locks import acquire_run_id

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def build_store(root):
    cache = ResultCache(root)
    cache.put(KEY_A, {"result": "alpha", "metrics": {}})
    cache.put(KEY_B, {"result": "beta", "metrics": {}})
    append_spans(root, "run-1", [
        {"span_id": "s1", "name": "plan", "plan_digest": "p",
         "settings_digest": "s"},
        {"span_id": "s2", "name": "job", "digest": KEY_A, "status": "done"},
        {"span_id": "s3", "name": "job", "digest": KEY_B, "status": "done"},
    ])
    return cache


class TestCleanStore:
    def test_reports_ok(self, tmp_path):
        build_store(tmp_path)
        report = fsck(tmp_path)
        assert report["ok"]
        assert report["findings"] == []
        assert report["scanned"]["cache_entries"] == 2
        assert report["scanned"]["span_files"] == 1

    def test_empty_root_is_ok(self, tmp_path):
        assert fsck(tmp_path)["ok"]


class TestCacheEntries:
    def test_truncated_entry_detected_and_quarantined(self, tmp_path):
        cache = build_store(tmp_path)
        path = cache.path_for(KEY_A)
        path.write_bytes(path.read_bytes()[:-10])
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["truncated"] == 1
        assert report["repaired"] == 1
        assert not path.exists()
        quarantined = list((tmp_path / "lost+found").rglob("*.pkl"))
        assert len(quarantined) == 1
        assert quarantined[0].name == path.name

    def test_bit_flip_detected(self, tmp_path):
        cache = build_store(tmp_path)
        path = cache.path_for(KEY_A)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = fsck(tmp_path)
        assert report["corrupt"]["bit_flipped"] == 1
        assert not report["ok"]  # detected but not repaired
        assert path.exists()  # without --repair nothing moves

    def test_foreign_file_is_wrong_schema(self, tmp_path):
        cache = build_store(tmp_path)
        alien = cache.path_for("cc" + "0" * 62)
        alien.parent.mkdir(parents=True, exist_ok=True)
        alien.write_bytes(b"no envelope at all")
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["wrong_schema"] == 1
        assert not alien.exists()

    def test_quarantine_dedups_name_collisions(self, tmp_path):
        cache = build_store(tmp_path)
        path = cache.path_for(KEY_A)
        for _ in range(2):
            path.write_bytes(b"garbage")
            assert fsck(tmp_path, repair=True)["repaired"] == 1
        rel = path.relative_to(tmp_path)
        base = tmp_path / "lost+found" / rel
        assert base.exists()
        assert base.with_name(base.name + ".1").exists()


class TestOrphanTmp:
    def test_stale_tmp_quarantined_young_tmp_kept(self, tmp_path):
        build_store(tmp_path)
        sub = tmp_path / f"v{CACHE_SCHEMA}" / "dd"
        sub.mkdir(parents=True, exist_ok=True)
        stale = sub / ("dd" + "0" * 62 + ".tmp.999")
        stale.write_bytes(b"half-written")
        report = fsck(tmp_path, repair=True, min_tmp_age_s=0.0)
        assert report["corrupt"]["orphan_tmp"] == 1
        assert not stale.exists()

        young = sub / ("ee" + "0" * 62 + ".tmp.999")
        young.write_bytes(b"live writer")
        report = fsck(tmp_path, repair=True, min_tmp_age_s=3600.0)
        assert report["corrupt"]["orphan_tmp"] == 0
        assert young.exists()


class TestJournals:
    """Damage to the resume state a run's span store carries."""

    def test_torn_tail_is_rewritten_to_verified_prefix(self, tmp_path):
        build_store(tmp_path)
        path = span_path(tmp_path, "run-1")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[-1][:12]]) + "\n")
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["truncated"] == 1
        assert report["repaired"] == 1
        # the rewritten store loads cleanly with the surviving record
        state = load_run(tmp_path, "run-1")
        assert state is not None
        assert not state.damaged
        assert state.done == {KEY_A}

    def test_interior_flip_is_dropped_on_rewrite(self, tmp_path):
        build_store(tmp_path)
        path = span_path(tmp_path, "run-1")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(KEY_A, "aa" + "1" * 62)
        path.write_text("\n".join(lines) + "\n")
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["bit_flipped"] == 1
        state = load_run(tmp_path, "run-1")
        assert state.done == {KEY_B}


class TestSpans:
    def test_damaged_span_lines_rewritten(self, tmp_path):
        build_store(tmp_path)
        path = span_path(tmp_path, "run-1")
        with path.open("a") as fh:
            fh.write('{"span_id": "s4", "broken json\n')
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["truncated"] == 1
        spans = read_spans(path)
        assert [s["span_id"] for s in spans] == ["s1", "s2", "s3"]


class TestServeSnapshot:
    def snapshot(self, tmp_path, requests):
        doc = {"requests": requests,
               "sha256": env.snapshot_digest(requests)}
        path = tmp_path / "journal" / "serve-inflight.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
        return path

    def test_intact_snapshot_passes(self, tmp_path):
        self.snapshot(tmp_path, [{"experiment_id": "fig17"}])
        assert fsck(tmp_path)["ok"]

    def test_flipped_snapshot_detected(self, tmp_path):
        path = self.snapshot(tmp_path, [{"experiment_id": "fig17"}])
        path.write_text(path.read_text().replace("fig17", "fig18"))
        report = fsck(tmp_path, repair=True)
        assert report["corrupt"]["bit_flipped"] == 1
        assert not path.exists()

    def test_torn_snapshot_detected(self, tmp_path):
        path = self.snapshot(tmp_path, [{"experiment_id": "fig17"}])
        path.write_text(path.read_text()[:20])
        report = fsck(tmp_path)
        assert report["corrupt"]["truncated"] == 1


class TestLocksAndCounters:
    def test_lock_inventory_reported(self, tmp_path):
        build_store(tmp_path)
        _, lock, _ = acquire_run_id(tmp_path, "run-1")
        try:
            report = fsck(tmp_path)
            assert report["locks"]["held"] == ["run-1"]
        finally:
            lock.release()

    def test_findings_bump_ambient_counters(self, tmp_path):
        cache = build_store(tmp_path)
        cache.path_for(KEY_A).write_bytes(b"junk")
        bus = ProbeBus()
        with use_probes(bus):
            fsck(tmp_path)
        assert bus.counters["store.corrupt.wrong_schema"] == 1


class TestCli:
    def test_exit_one_on_damage_zero_after_repair(self, tmp_path, capsys):
        cache = build_store(tmp_path)
        cache.path_for(KEY_A).write_bytes(b"junk")
        assert main(["--cache-dir", str(tmp_path)]) == 1
        assert main(["--cache-dir", str(tmp_path), "--repair"]) == 0
        assert main(["--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "store is clean" in out

    def test_json_report(self, tmp_path, capsys):
        build_store(tmp_path)
        assert main(["--cache-dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["scanned"]["cache_entries"] == 2
