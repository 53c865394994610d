"""Pluggable result-store backends for the sweep orchestrator.

Result persistence used to be hardwired to one layout: a directory of
JSON files, one per content-hash cache key.  That layout is perfect for a
handful of runs and hopeless for the million-run sweeps the roadmap
targets -- ``export``, ``merge``, ``perf`` and adaptive replay all pay
one ``open()`` per run.  This module extracts the choice into a registry
of named *store* backends (the same pattern as the protocol and executor
registries): a :class:`ResultStore` maps content-hash keys to
:class:`~repro.experiments.orchestrator.RunResult` records, readers go
through the batch-oriented :meth:`ResultStore.scan` (one column scan, not
N file opens), and every consumer dispatches through :data:`STORES`.

Two backends ship:

* ``json`` -- the original one-file-per-run directory layout and the
  registered **default**: existing cache directories keep working
  unchanged.
* ``sqlite`` -- a single-file columnar table (key plus schema-versioned
  params/metrics columns) in WAL journal mode, so any number of
  concurrent writers -- shard jobs sharing one database included -- can
  publish while readers scan.

Which store holds a cache is a *sweep-cosmetic* choice exactly like the
executor: it never enters cache keys, so the same spec swept under any
backend produces byte-identical exported artifacts, and a cache warmed
under one backend replays with zero executions under the same backend.

Stores are addressed by *store specs* -- ``json:.repro-cache``,
``sqlite:results.db`` -- anywhere a cache path is accepted; a bare path
keeps meaning ``json:`` (the compatibility shim for every pre-existing
call site and cache directory).  Register third-party backends exactly
like built-ins::

    from repro.experiments.stores import ResultStore, register_store

    @register_store("redis")
    class RedisStore(ResultStore):
        ...
"""

from __future__ import annotations

import json
import os
import sqlite3
import uuid
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.registry import Registry

#: result-store factories; ``run_sweep(store=)`` / ``--store`` / store-spec
#: prefixes resolve here.  Bootstraps this module (the built-ins) plus
#: the specs module, mirroring the executor registry.
STORES = Registry(
    "store",
    bootstrap=("repro.experiments.stores", "repro.experiments.specs"),
)

#: the backend used when neither the spec, the caller nor a store-spec
#: prefix names one -- the pre-registry behaviour (a JSON directory)
DEFAULT_STORE = "json"

#: version stamped into every persisted record's schema slot; bump when
#: the column layout of a backend changes shape (a mismatched record is
#: treated as corrupt and re-executed, never misread)
RESULT_SCHEMA_VERSION = 1


class StoreError(ValueError):
    """A store spec (or a store/prefix combination) is invalid."""


def register_store(name: str):
    """Register a :class:`ResultStore` factory (usually the class) under ``name``."""
    return STORES.register(name)


def parse_store_spec(spec: str) -> Tuple[Optional[str], str]:
    """Split ``"sqlite:runs.db"`` into ``("sqlite", "runs.db")``.

    A bare path (no ``name:`` prefix) returns ``(None, path)`` -- the
    caller decides the default backend, which keeps every pre-existing
    ``cache_dir`` call site meaning ``json``.  Only a prefix shaped like
    a backend name (``[A-Za-z][A-Za-z0-9_-]+``, so at least two
    characters -- a single letter is a Windows drive) counts; a path
    whose first segment happens to contain a colon must be written with
    an explicit ``json:`` prefix.
    """
    name, sep, rest = spec.partition(":")
    if sep and len(name) >= 2 and name.replace("_", "").replace("-", "").isalnum() \
            and not name[0].isdigit() and "/" not in name and "\\" not in name \
            and "." not in name:
        return name, rest
    return None, spec


def make_store(target: Any, store: Optional[str] = None, **options: Any) -> "ResultStore":
    """Open the result store addressed by ``target``.

    ``target`` is an existing :class:`ResultStore` (returned as-is), a
    store spec (``"sqlite:runs.db"``), or a bare path (meaning the
    ``store`` argument's backend, default ``json``).  The backend name is
    resolved eagerly through :data:`STORES` -- an unknown name raises
    :class:`~repro.registry.RegistryError` listing the registered
    alternatives before any directory or file is created.  ``options``
    are backend keyword arguments.
    """
    if isinstance(target, ResultStore):
        return target
    prefix, path = parse_store_spec(str(target))
    if store is not None and prefix is not None and store != prefix:
        raise StoreError(
            f"store spec {target!r} names backend {prefix!r} but store="
            f"{store!r} was also requested; drop one of the two"
        )
    name = store or prefix or DEFAULT_STORE
    if not path:
        raise StoreError(f"store spec {target!r} has an empty path")
    return STORES.get(name)(path, **options)


def store_exists(target: Any, store: Optional[str] = None) -> bool:
    """True if the store addressed by ``target`` already exists on disk.

    Opening a store *creates* it (directory or database file), so
    callers that must refuse a cold cache -- ``resume``, ``export``,
    ``merge`` sources -- probe here first.
    """
    if isinstance(target, ResultStore):
        return True
    prefix, path = parse_store_spec(str(target))
    name = store or prefix or DEFAULT_STORE
    return bool(path) and STORES.get(name).exists(path)


def available_stores() -> List[Tuple[str, str]]:
    """Sorted ``(name, one-line description)`` pairs of registered backends."""
    rows = []
    for name in STORES.names():
        entry = STORES.get(name)
        doc = (entry.__doc__ or "").strip()
        rows.append((name, doc.splitlines()[0] if doc else ""))
    return rows


def _result_from_dict(data: Dict[str, Any]) -> Any:
    # lazy import: orchestrator imports this module at top level
    from repro.experiments.orchestrator import RunResult

    result = RunResult.from_dict(data)
    result.from_cache = True
    return result


def _result_to_dict(result: Any) -> Dict[str, Any]:
    # normalise provenance on write: ``from_cache`` describes how the
    # *reading* invocation obtained a record, so the persisted form is
    # always False -- merging a store into another must reproduce the
    # bytes a live run would have written
    data = result.to_dict()
    data["from_cache"] = False
    return data


class ResultStore:
    """One result-persistence strategy: the contract every consumer speaks.

    Keys are the runs' content-hash cache keys
    (:meth:`~repro.experiments.orchestrator.RunSpec.cache_key`); values
    are :class:`~repro.experiments.orchestrator.RunResult` records.
    :meth:`get`/:meth:`put` are the per-run path the executors use;
    :meth:`scan` is the batch read path -- ``export``, ``merge``,
    ``perf`` and warm-cache resolution hand it every wanted key at once
    so a columnar backend answers with one scan instead of N point
    lookups.  :meth:`put` must be atomic and idempotent under concurrent
    writers publishing the same deterministic result.

    Every store counts ``hits``/``misses`` and -- the failure mode the
    old cache swallowed silently -- ``corrupt_entries``: records that
    exist but cannot be decoded are counted, treated as misses (the run
    re-executes and the rewrite heals the store) and surfaced in run
    summaries by the orchestrator.
    """

    #: registered name, for progress lines and error messages
    name = "base"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0

    # -- the storage contract ---------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The record under ``key``, or None (missing or corrupt)."""
        raise NotImplementedError

    def put(self, key: str, result: Any) -> None:
        """Persist ``result`` under ``key`` (atomic; replaces any entry)."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Drop the entry under ``key`` if present (``--force`` re-runs)."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        raise NotImplementedError

    def scan(self, keys: Optional[Iterable[str]] = None) -> Iterator[Tuple[str, Any]]:
        """Batch read: yield ``(key, RunResult)`` for every stored key.

        With ``keys`` given, only those keys are read (missing ones are
        counted as misses and skipped), in the requested order with
        duplicates collapsed; without, the whole store streams in sorted
        key order.  The base implementation loops over :meth:`get`;
        columnar backends override it with a single scan.
        """
        wanted = self.keys() if keys is None else list(dict.fromkeys(keys))
        for key in wanted:
            result = self.get(key)
            if result is not None:
                yield key, result

    def close(self) -> None:
        """Release backend state (connections, buffers); idempotent."""

    def describe(self) -> str:
        """Human-readable ``name:location`` for progress lines."""
        return self.name

    @staticmethod
    def exists(path: str) -> bool:
        """Whether a store already exists at ``path`` (see :func:`store_exists`)."""
        return os.path.exists(path)


@register_store("json")
class JsonStore(ResultStore):
    """One JSON file per run in a directory (the default; the seed layout).

    Simple, merge-friendly (entries are independent files named by
    content hash) and humanly greppable, but every read is one
    ``open()`` -- fine for smoke grids, O(N) for large sweeps.  Existing
    cache directories from earlier releases are valid ``json`` stores
    as-is.
    """

    name = "json"

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[Any]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            # the entry exists but cannot be decoded: a half-written or
            # damaged record.  Counted (the orchestrator surfaces it in
            # the run summary) and treated as a miss so the run
            # re-executes and the rewrite heals the store.
            self.misses += 1
            self.corrupt_entries += 1
            return None
        self.hits += 1
        return _result_from_dict(data)

    def put(self, key: str, result: Any) -> None:
        # unique tmp name: concurrent writers of the same key (shards or
        # sweeps sharing one cache directory, each publishing the same
        # deterministic result) must not share a tmp path, or the
        # loser's os.replace raises after the winner's rename already
        # consumed it
        tmp = f"{self._path(key)}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_result_to_dict(result), fh)
        os.replace(tmp, self._path(key))

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def keys(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(n[: -len(".json")] for n in names if n.endswith(".json"))

    def describe(self) -> str:
        return f"json:{self.directory}"

    @staticmethod
    def exists(path: str) -> bool:
        return os.path.isdir(path)


#: SELECT/INSERT column order of the sqlite backend (params/metrics are
#: JSON-encoded text columns preserving insertion order, so a round trip
#: is byte-identical to the json backend's artifacts)
_SQLITE_COLUMNS = (
    "run_id",
    "seed",
    "duration",
    "wall_time",
    "cache_key",
    "adaptive_round",
    "params",
    "metrics",
)


@register_store("sqlite")
class SqliteStore(ResultStore):
    """Single-file columnar SQLite table in WAL mode (concurrent-writer safe).

    One ``results`` table keyed by content hash with schema-versioned
    params/metrics columns.  WAL journal mode lets readers scan while
    any number of writers publish concurrently; every operation opens its own
    short-lived connection, so one store object is safe to share across
    threads and processes.  :meth:`scan` is a single ``SELECT`` (chunked
    ``IN`` lists), which is what turns export/merge/perf/replay from N
    file opens into one column scan.
    """

    name = "sqlite"

    #: keys per IN-list chunk of a constrained scan (SQLite's default
    #: variable limit is 999; stay comfortably below it)
    SCAN_CHUNK = 400

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        super().__init__()
        self.path = path
        self.timeout = timeout
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with self._connect() as con:
            con.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " schema_version INTEGER NOT NULL,"
                " run_id TEXT NOT NULL,"
                " seed INTEGER NOT NULL,"
                " duration REAL NOT NULL,"
                " wall_time REAL NOT NULL,"
                " cache_key TEXT NOT NULL,"
                " adaptive_round INTEGER NOT NULL,"
                " params TEXT NOT NULL,"
                " metrics TEXT NOT NULL)"
            )
        con.close()

    def _connect(self) -> sqlite3.Connection:
        con = sqlite3.connect(self.path, timeout=self.timeout)
        # WAL persists in the database file, so setting it on every
        # connection is a cheap no-op after the first; NORMAL sync is
        # durable-enough for a cache that can always re-execute
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        return con

    def _decode(self, key: str, row: Tuple) -> Optional[Any]:
        schema = row[0]
        if schema != RESULT_SCHEMA_VERSION:
            self.corrupt_entries += 1
            return None
        values = dict(zip(_SQLITE_COLUMNS, row[1:]))
        try:
            values["params"] = json.loads(values["params"])
            values["metrics"] = json.loads(values["metrics"])
        except (TypeError, ValueError):
            self.corrupt_entries += 1
            return None
        return _result_from_dict(values)

    _SELECT = (
        "SELECT schema_version, " + ", ".join(_SQLITE_COLUMNS) + " FROM results"
    )

    def get(self, key: str) -> Optional[Any]:
        con = self._connect()
        try:
            row = con.execute(self._SELECT + " WHERE key = ?", (key,)).fetchone()
        finally:
            con.close()
        if row is None:
            self.misses += 1
            return None
        result = self._decode(key, row)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        data = _result_to_dict(result)
        con = self._connect()
        try:
            with con:
                con.execute(
                    "INSERT OR REPLACE INTO results (key, schema_version, "
                    + ", ".join(_SQLITE_COLUMNS)
                    + ") VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        RESULT_SCHEMA_VERSION,
                        data["run_id"],
                        data["seed"],
                        data["duration"],
                        data["wall_time"],
                        data["cache_key"],
                        data["adaptive_round"],
                        json.dumps(data["params"]),
                        json.dumps(data["metrics"]),
                    ),
                )
        finally:
            con.close()

    def delete(self, key: str) -> None:
        con = self._connect()
        try:
            with con:
                con.execute("DELETE FROM results WHERE key = ?", (key,))
        finally:
            con.close()

    def keys(self) -> List[str]:
        con = self._connect()
        try:
            rows = con.execute("SELECT key FROM results ORDER BY key").fetchall()
        finally:
            con.close()
        return [row[0] for row in rows]

    def scan(self, keys: Optional[Iterable[str]] = None) -> Iterator[Tuple[str, Any]]:
        con = self._connect()
        try:
            if keys is None:
                rows = con.execute(self._SELECT + " ORDER BY key").fetchall()
                keyed = con.execute("SELECT key FROM results ORDER BY key").fetchall()
                pairs = [(k[0], row) for k, row in zip(keyed, rows)]
            else:
                wanted = list(dict.fromkeys(keys))
                pairs = []
                fetched: Dict[str, Tuple] = {}
                for start in range(0, len(wanted), self.SCAN_CHUNK):
                    chunk = wanted[start : start + self.SCAN_CHUNK]
                    marks = ", ".join("?" for _ in chunk)
                    for row in con.execute(
                        "SELECT key, schema_version, "
                        + ", ".join(_SQLITE_COLUMNS)
                        + f" FROM results WHERE key IN ({marks})",
                        chunk,
                    ):
                        fetched[row[0]] = row[1:]
                pairs = [(k, fetched[k]) for k in wanted if k in fetched]
                self.misses += len(wanted) - len(pairs)
        finally:
            con.close()
        for key, row in pairs:
            result = self._decode(key, row)
            if result is None:
                self.misses += 1
                continue
            self.hits += 1
            yield key, result

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    @staticmethod
    def exists(path: str) -> bool:
        return os.path.isfile(path)
