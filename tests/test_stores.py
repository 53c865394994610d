"""Tests of the pluggable result-store backends.

Covers the guarantees the persistence layer rests on: store specs parse
(bare path = json, ``sqlite:file.db`` picks a backend, conflicts fail),
unknown store names fail eagerly with alternatives and leave no
directory behind, each backend round-trips ``RunResult`` records (get /
put / delete / keys / batch scan), the store choice is sweep-cosmetic
(byte-identical CSV/JSON artifacts across backends, warm replay with
zero executions from a cache written under another backend), json and
sqlite survive concurrent same-key publishers, corrupt entries are
counted and re-executed instead of crashing, and ``merge_caches``
migrates between backends.
"""

import dataclasses
import io
import json
import os
import sqlite3
import threading

import pytest

from repro.experiments.orchestrator import (
    RunResult,
    SpecError,
    SweepSpec,
    expand_spec,
    load_cached_results,
    merge_caches,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.stores import (
    DEFAULT_STORE,
    STORES,
    JsonStore,
    SqliteStore,
    StoreError,
    available_stores,
    make_store,
    parse_store_spec,
    store_exists,
)
from repro.registry import RegistryError


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


class TestStoreSpecs:
    def test_bare_path_is_default_backend(self):
        assert parse_store_spec("some/dir") == (None, "some/dir")
        assert parse_store_spec(".repro-cache") == (None, ".repro-cache")

    def test_prefix_selects_backend(self):
        assert parse_store_spec("sqlite:runs.db") == ("sqlite", "runs.db")
        assert parse_store_spec("json:some/dir") == ("json", "some/dir")

    def test_windowsish_and_relative_paths_are_not_prefixes(self):
        # drive letters, dotted names and slashes before the colon must
        # not be mistaken for backend names
        assert parse_store_spec("C:/cache")[0] is None
        assert parse_store_spec("./odd:name")[0] is None
        assert parse_store_spec("a/b:c")[0] is None

    def test_registry_lists_builtin_backends(self):
        names = [name for name, _ in available_stores()]
        assert "json" in names and "sqlite" in names
        assert DEFAULT_STORE == "json"

    def test_unknown_store_fails_with_alternatives_and_no_dir(self, tmp_path):
        target = tmp_path / "cache"
        with pytest.raises(RegistryError, match="sqlite"):
            make_store(str(target), store="mongodb")
        assert not target.exists()

    def test_conflicting_prefix_and_store_arg(self, tmp_path):
        with pytest.raises(StoreError, match="also requested"):
            make_store(f"sqlite:{tmp_path}/c.db", store="json")

    def test_explicit_store_equal_to_prefix_is_fine(self, tmp_path):
        store = make_store(f"sqlite:{tmp_path}/c.db", store="sqlite")
        assert isinstance(store, SqliteStore)
        store.close()

    def test_store_exists_per_backend(self, tmp_path):
        assert not store_exists(str(tmp_path / "nope"))
        json_store = make_store(str(tmp_path / "j"))
        json_store.close()
        assert store_exists(str(tmp_path / "j"))
        db = tmp_path / "s.db"
        sqlite_store = make_store(f"sqlite:{db}")
        sqlite_store.close()
        assert store_exists(f"sqlite:{db}")
        assert not store_exists(str(db))  # bare path means json => isdir


class TestRoundTrip:
    @pytest.mark.parametrize("spec_tpl", ["{dir}/cache", "sqlite:{dir}/cache.db"])
    def test_put_get_keys_scan_delete(self, tmp_path, spec_tpl):
        store = make_store(spec_tpl.format(dir=tmp_path))
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
        store = make_store(f"sqlite:{tmp_path}/c.db")
        store.put("k" * 64, fake_result(1))
        store.put("k" * 64, fake_result(2))
        assert store.get("k" * 64).seed == 2
        assert len(store.keys()) == 1
        store.close()

    def test_json_bytes_unchanged_by_sqlite_round_trip(self, tmp_path):
        """The sqlite backend must preserve the exact json serialization."""
        json_store = make_store(str(tmp_path / "j"))
        sqlite_store = make_store(f"sqlite:{tmp_path}/s.db")
        original = fake_result(3, adaptive_round=2)
        json_store.put(original.cache_key, original)
        sqlite_store.put(original.cache_key, sqlite_store.get("nope") or original)
        round_tripped = sqlite_store.get(original.cache_key)
        json_store.put("b" * 64, round_tripped)
        first = (tmp_path / "j" / f"{original.cache_key}.json").read_bytes()
        second = (tmp_path / "j" / ("b" * 64 + ".json")).read_bytes()
        assert first == second


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
        store = make_store(str(tmp_path / "cache"))
        store.put("a" * 64, fake_result())
        (tmp_path / "cache" / ("a" * 64 + ".json")).write_text("{not json")
        assert store.get("a" * 64) is None
        assert store.corrupt_entries == 1
        assert "1 corrupt" in store.describe() or "corrupt" in store.describe()

    def test_sqlite_corrupt_payload_counts_and_misses(self, tmp_path):
        db = tmp_path / "c.db"
        store = make_store(f"sqlite:{db}")
        store.put("a" * 64, fake_result())
        with sqlite3.connect(db) as conn:
            conn.execute("UPDATE results SET metrics = '{broken'")
        assert store.get("a" * 64) is None
        assert store.corrupt_entries == 1
        store.close()

    def test_sqlite_unknown_schema_version_is_corrupt(self, tmp_path):
        db = tmp_path / "c.db"
        store = make_store(f"sqlite:{db}")
        store.put("a" * 64, fake_result())
        with sqlite3.connect(db) as conn:
            conn.execute("UPDATE results SET schema_version = 999")
        assert store.get("a" * 64) is None
        assert store.corrupt_entries == 1
        store.close()


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


class TestSqliteConcurrency:
    def test_concurrent_same_key_puts(self, tmp_path):
        store = make_store(f"sqlite:{tmp_path}/c.db")
        errors = []

        def publish(i):
            try:
                for _ in range(10):
                    store.put("k" * 64, fake_result(i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = store.get("k" * 64)
        assert final is not None and final.seed in range(4)
        assert len(store.keys()) == 1
        store.close()


class TestSweepIntegration:
    def test_cross_backend_byte_identical_artifacts(self, tmp_path):
        """One set of results, exported through each backend, byte-equal."""
        from repro.experiments.orchestrator import export_csv, export_json

        spec = tiny_spec()
        json_cache = str(tmp_path / "json-cache")
        sqlite_cache = f"sqlite:{tmp_path}/cache.db"
        run_sweep(spec, workers=2, cache_dir=json_cache)
        merge_caches([json_cache], sqlite_cache)
        outputs = {}
        for tag, target in (("json", json_cache), ("sqlite", sqlite_cache)):
            results, missing = load_cached_results(spec, target)
            assert not missing
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            export_csv(results, str(csv_path))
            export_json(results, str(json_path), spec=spec)
            outputs[tag] = (csv_path.read_bytes(), json_path.read_bytes())
        assert outputs["json"][0] == outputs["sqlite"][0]
        assert outputs["json"][1] == outputs["sqlite"][1]

    def test_warm_replay_zero_exec_under_sqlite(self, tmp_path):
        spec = tiny_spec()
        target = f"sqlite:{tmp_path}/cache.db"
        run_sweep(spec, workers=2, cache_dir=target)
        warm = run_sweep(spec, workers=1, cache_dir=target, executor="serial")
        assert all(r.from_cache for r in warm)
        loaded, missing = load_cached_results(spec, target)
        assert not missing
        assert len(loaded) == len(warm)

    def test_store_param_applies_to_bare_path(self, tmp_path):
        spec = tiny_spec()
        target = str(tmp_path / "cache.db")
        run_sweep(spec, workers=1, cache_dir=target, store="sqlite", executor="serial")
        assert os.path.isfile(target)
        warm = run_sweep(
            spec, workers=1, cache_dir=target, store="sqlite", executor="serial"
        )
        assert all(r.from_cache for r in warm)

    def test_corrupt_sqlite_entry_reexecuted(self, tmp_path, capsys):
        spec = tiny_spec()
        db = tmp_path / "cache.db"
        run_sweep(spec, workers=1, cache_dir=f"sqlite:{db}", executor="serial")
        with sqlite3.connect(db) as conn:
            conn.execute("UPDATE results SET params = '{oops' WHERE rowid = 1")
        results = run_sweep(
            spec, workers=1, cache_dir=f"sqlite:{db}", executor="serial",
            progress=True,
        )
        assert len(results) == len(expand_spec(spec))
        assert sum(1 for r in results if not r.from_cache) == 1
        captured = capsys.readouterr()
        assert "corrupt" in captured.out + captured.err


class TestMigration:
    def test_merge_caches_across_backends(self, tmp_path):
        src = make_store(str(tmp_path / "json-cache"))
        results = [fake_result(i) for i in range(4)]
        for result in results:
            src.put(result.cache_key, result)
        dest_spec = f"sqlite:{tmp_path}/dest.db"
        copied, skipped = merge_caches([str(tmp_path / "json-cache")], dest_spec)
        assert (copied, skipped) == (4, 0)
        copied, skipped = merge_caches([str(tmp_path / "json-cache")], dest_spec)
        assert (copied, skipped) == (0, 4)  # idempotent
        dest = make_store(dest_spec)
        assert sorted(dest.keys()) == sorted(r.cache_key for r in results)
        dest.close()

    def test_merge_missing_source_fails(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            merge_caches([str(tmp_path / "nope")], str(tmp_path / "dest"))
