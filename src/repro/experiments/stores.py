"""The sweep orchestrator's result cache: a directory of run records.

A cache is a directory holding one ``<cache-key>.json`` file per
finished run, named by the run's content-hash cache key
(:meth:`~repro.experiments.orchestrator.RunSpec.cache_key`).  Entries
are independent files, so shard caches merge by copying the entries a
destination lacks (:func:`~repro.experiments.orchestrator.merge_caches`)
and any number of sweeps or shards may publish into one directory.

:class:`ResultStore` holds what every reader relies on -- the hit, miss
and corrupt-entry counters and the batch :meth:`ResultStore.scan` --
and :class:`JsonStore` the directory layout and the atomic
:meth:`JsonStore.put`.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


def _result_from_dict(data: Any) -> Optional[Any]:
    """The run record ``data`` holds, or None when it holds none."""
    # lazy import: orchestrator imports this module at top level
    from repro.experiments.orchestrator import RunResult

    # valid JSON that is no run record (``{}``, ``null``, a record
    # without metrics) is as damaged as a truncated file
    if not isinstance(data, dict) or not isinstance(data.get("metrics"), dict):
        return None
    try:
        result = RunResult.from_dict(data)
    except TypeError:  # a field RunResult requires is missing
        return None
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
    """The read side of a result cache: counters and the batch scan.

    Keys are the runs' content-hash cache keys
    (:meth:`~repro.experiments.orchestrator.RunSpec.cache_key`); values
    are :class:`~repro.experiments.orchestrator.RunResult` records.
    :meth:`get` is the per-run read; :meth:`scan` is the batch read that
    ``export``, ``merge`` and warm-cache resolution hand every wanted
    key at once.

    Every store counts ``hits``/``misses`` and ``corrupt_entries``:
    records that exist but cannot be decoded are counted, treated as
    misses (the run re-executes and the rewrite heals the store) and
    surfaced in run summaries by the orchestrator.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0

    def get(self, key: str) -> Optional[Any]:
        """The record under ``key``, or None (missing or corrupt)."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        raise NotImplementedError

    def scan(self, keys: Optional[Iterable[str]] = None) -> Iterator[Tuple[str, Any]]:
        """Batch read: yield ``(key, RunResult)`` for every stored key.

        With ``keys`` given, only those keys are read (missing ones are
        counted as misses and skipped), in the requested order with
        duplicates collapsed; without, the whole store streams in sorted
        key order.
        """
        wanted = self.keys() if keys is None else list(dict.fromkeys(keys))
        for key in wanted:
            result = self.get(key)
            if result is not None:
                yield key, result

    def close(self) -> None:
        """Nothing to release: a store holds no file or connection open."""


class JsonStore(ResultStore):
    """One JSON file per run in a directory, named by its cache key.

    Entries are independent files, which makes caches merge-friendly
    and humanly greppable; every read is one ``open()``.
    """

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
            data = None
        result = _result_from_dict(data)
        if result is None:
            # the entry exists but holds no run record: a half-written
            # or damaged file.  Counted (the orchestrator surfaces it in
            # the run summary) and treated as a miss so the run
            # re-executes and the rewrite heals the store.
            self.misses += 1
            self.corrupt_entries += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        """Persist ``result`` under ``key`` atomically, replacing any entry."""
        # encoded whole (by the C encoder) before the tmp file exists: a
        # record JSON cannot encode raises here and leaves nothing behind
        text = json.dumps(_result_to_dict(result))
        # unique tmp name: concurrent writers of the same key (shards or
        # sweeps sharing one cache directory, each publishing the same
        # deterministic result) must not share a tmp path, or the
        # loser's os.replace raises after the winner's rename already
        # consumed it
        tmp = f"{self._path(key)}.tmp-{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            # a failed write or rename must not strand its tmp file
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def delete(self, key: str) -> None:
        """Drop the entry under ``key`` if present."""
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
