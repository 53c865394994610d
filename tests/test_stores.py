"""Tests of the result store: a directory of ``<cache-key>.json`` records.

Covers the guarantees the cache rests on: the store round-trips
``RunResult`` records (get / put / delete / keys / batch scan) and
``put`` replaces an entry, an entry's bytes are one C-encoder pass
written atomically, concurrent same-key publishers are safe, corrupt or
malformed entries are counted and re-executed instead of crashing (the
rewrite heals them), and ``merge_caches`` is idempotent.
"""

import dataclasses
import io
import json
import os
import threading

import pytest

from repro.experiments.orchestrator import (
    RunResult,
    SpecError,
    SweepSpec,
    expand_spec,
    merge_caches,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.stores import JsonStore


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny",
        base=ScenarioConfig(
            protocol="flooding",
            n_nodes=12,
            area_size=500.0,
            radio_range=250.0,
            max_speed=2.0,
            group_size=4,
            traffic_start=3.0,
            traffic_interval=2.0,
        ),
        grid={"n_nodes": [10, 14]},
        seeds=(1, 2),
        duration=10.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


def fake_result(i: int = 0, **overrides) -> RunResult:
    fields = dict(
        run_id=f"tiny-{i:04d}",
        params={"n_nodes": 10 + i},
        seed=i,
        duration=10.0,
        metrics={"pdr": 0.5 + 0.01 * i, "mean_delay": 0.2},
        wall_time=0.1 * (i + 1),
        cache_key=f"{i:03d}" + "a" * 61,
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestRoundTrip:
    def test_put_get_keys_scan_delete(self, tmp_path):
        store = JsonStore(str(tmp_path / "cache"))
        results = [fake_result(i) for i in range(5)]
        for result in results:
            store.put(result.cache_key, result)
        assert sorted(store.keys()) == sorted(r.cache_key for r in results)

        got = store.get(results[2].cache_key)
        assert got is not None and got.from_cache is True
        assert got.params == results[2].params
        assert got.metrics == results[2].metrics
        assert store.get("f" * 64) is None

        wanted = [results[4].cache_key, results[0].cache_key]
        scanned = list(store.scan(wanted))
        assert [key for key, _ in scanned] == wanted
        assert [r.seed for _, r in scanned] == [4, 0]
        assert {key for key, _ in store.scan()} == set(store.keys())

        store.delete(results[0].cache_key)
        store.delete(results[0].cache_key)  # idempotent
        assert store.get(results[0].cache_key) is None
        store.close()

    def test_put_overwrites(self, tmp_path):
        store = JsonStore(str(tmp_path / "c"))
        store.put("k" * 64, fake_result(1))
        store.put("k" * 64, fake_result(2))
        assert store.get("k" * 64).seed == 2
        assert store.keys() == ["k" * 64]
        assert os.listdir(tmp_path / "c") == ["k" * 64 + ".json"]


class TestJsonEntryBytes:
    def test_entry_equals_the_streamed_encoding(self, tmp_path):
        """One C-encoder pass writes what ``json.dump`` streamed before."""
        store = JsonStore(str(tmp_path / "c"))
        result = fake_result(
            2,
            run_id="tiny/ünïcode/✓",
            metrics={
                "pdr": float("nan"),
                "max_delay": float("inf"),
                "hist": [1, 2.5, None, True],
                "nested": {"a": [{"b": -0.0}], "é": "x"},
            },
        )
        store.put(result.cache_key, result)
        streamed = io.StringIO()
        json.dump({**dataclasses.asdict(result), "from_cache": False}, streamed)
        entry = tmp_path / "c" / f"{result.cache_key}.json"
        assert entry.read_text(encoding="utf-8") == streamed.getvalue()

    def test_failed_encode_leaves_nothing_behind(self, tmp_path):
        store = JsonStore(str(tmp_path / "c"))
        before = sorted(os.listdir(tmp_path / "c"))
        with pytest.raises(TypeError):
            store.put("k" * 64, fake_result(metrics={"members": {1, 2}}))
        assert sorted(os.listdir(tmp_path / "c")) == before
        store.put("k" * 64, fake_result(3))
        assert store.get("k" * 64).seed == 3
        assert os.listdir(tmp_path / "c") == ["k" * 64 + ".json"]

    def test_failed_rename_removes_its_tmp_file(self, tmp_path, monkeypatch):
        store = JsonStore(str(tmp_path / "c"))

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            store.put("k" * 64, fake_result())
        assert os.listdir(tmp_path / "c") == []


class TestCorruption:
    def test_json_corrupt_entry_counts_and_misses(self, tmp_path):
        store = JsonStore(str(tmp_path / "cache"))
        store.put("a" * 64, fake_result())
        (tmp_path / "cache" / ("a" * 64 + ".json")).write_text("{not json")
        assert store.get("a" * 64) is None
        assert (store.hits, store.misses, store.corrupt_entries) == (0, 1, 1)
        assert store.get("b" * 64) is None  # absent: a miss, not corrupt
        assert (store.hits, store.misses, store.corrupt_entries) == (0, 2, 1)

    @pytest.mark.parametrize("payload", ["{}", "null", "[]", "no metrics"])
    def test_malformed_entry_is_corrupt_and_reexecuted(self, tmp_path, payload):
        """Valid JSON that is no run record is read like a damaged file."""
        spec = tiny_spec(grid={}, seeds=(1,))
        cache_dir = str(tmp_path / "cache")
        (cold,) = run_sweep(spec, cache_dir=cache_dir, executor="serial")
        entry = tmp_path / "cache" / f"{cold.cache_key}.json"
        if payload == "no metrics":
            record = json.loads(entry.read_text())
            del record["metrics"]
            payload = json.dumps(record)
        entry.write_text(payload)

        cache = JsonStore(cache_dir)
        (rerun,) = run_sweep(spec, cache_dir=cache, executor="serial")
        assert (cache.hits, cache.misses, cache.corrupt_entries) == (0, 1, 1)
        assert not rerun.from_cache
        assert rerun.metrics == cold.metrics
        healed = JsonStore(cache_dir).get(cold.cache_key)
        assert healed is not None and healed.metrics == cold.metrics


class TestJsonConcurrency:
    def test_concurrent_same_key_cache_puts_are_safe(self, tmp_path):
        # shards or sweeps sharing one cache directory may publish the
        # same deterministic result at once; the unique tmp names mean
        # neither rename can crash the other, and the entry stays valid
        store = JsonStore(str(tmp_path / "results"))
        errors = []

        def publish(i):
            try:
                for _ in range(20):
                    store.put("k" * 64, fake_result(i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get("k" * 64).seed in range(4)
        leftovers = [
            name for name in os.listdir(str(tmp_path / "results")) if ".tmp" in name
        ]
        assert leftovers == []


class TestSweepIntegration:
    def test_corrupt_entry_reexecuted_and_healed(self, tmp_path, capsys):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        damaged = sorted(os.listdir(cache_dir))[0]
        (tmp_path / "cache" / damaged).write_text("{oops")
        capsys.readouterr()

        results = run_sweep(
            spec, workers=1, cache_dir=cache_dir, executor="serial", progress=True
        )
        assert len(results) == len(expand_spec(spec))
        reexecuted = [r for r in results if not r.from_cache]
        assert [f"{r.cache_key}.json" for r in reexecuted] == [damaged]
        err = capsys.readouterr().err
        assert f"WARNING: 1 corrupt cache entries in {cache_dir} were ignored" in err

        healed = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        assert all(r.from_cache for r in healed)


class TestMigration:
    def test_merge_caches_is_idempotent(self, tmp_path):
        src = JsonStore(str(tmp_path / "shard"))
        results = [fake_result(i) for i in range(4)]
        for result in results:
            src.put(result.cache_key, result)
        dest_dir = str(tmp_path / "dest")
        copied, skipped = merge_caches([src.directory], dest_dir)
        assert (copied, skipped) == (4, 0)
        copied, skipped = merge_caches([src.directory], dest_dir)
        assert (copied, skipped) == (0, 4)
        assert JsonStore(dest_dir).keys() == src.keys()
        for key in src.keys():
            assert (tmp_path / "dest" / f"{key}.json").read_bytes() == (
                tmp_path / "shard" / f"{key}.json"
            ).read_bytes()

    def test_merge_missing_source_fails(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            merge_caches([str(tmp_path / "nope")], str(tmp_path / "dest"))
