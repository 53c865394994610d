"""In-memory span tracer for the benchmark's traced runs.

The traced run measures the ``repro`` package from outside: an
:class:`Installation` replaces functions and methods with wrappers made
by :meth:`Tracer.wrap`, each of which records one span per call, and
:meth:`Installation.uninstall` puts the originals back.  Spans live in
four flat arrays (24 bytes per span, so a million spans cost ~24 MB)
and are turned into per-name totals after the run.

A span's self time is its duration minus the durations of its direct
children.  Its layer is the part of its name before the first dot:
``unicast.next_hop`` belongs to the ``unicast`` layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Records nested spans: name, start, end and the enclosing span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")          # -1 for a root span
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []         # indices of the open spans

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a ``with`` block."""
        idx = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        try:
            yield
        finally:
            self.ends[idx] = self.clock()
            self.stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn``, recording a span named ``name`` around every call.

        Same bookkeeping as :meth:`span`, inlined with pre-bound array
        methods: it runs once per simulated frame, timer and hop, so its
        cost is most of the tracing overhead.
        """
        nid = self.name_id(name)
        clock = self.clock
        stack = self.stack
        ends = self.ends
        starts = self.starts
        push_name = self.name_ids.append
        push_parent = self.parents.append
        push_end = ends.append
        push_start = starts.append
        push_open = stack.append
        pop_open = stack.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_end(0.0)
            push_open(idx)
            push_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop_open()

        traced.span_name = name  # type: ignore[attr-defined]
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def write(self, path: str) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        columns = (
            ("name_id", self.name_ids),
            ("parent", self.parents),
            ("start", self.starts),
            ("end", self.ends),
        )
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [[label, column.typecode] for label, column in columns],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _label, column in columns:
                column.tofile(fh)


def is_traced(fn: Any) -> bool:
    """True if ``fn`` (or the function behind a bound method) is a span wrapper."""
    return hasattr(getattr(fn, "__func__", fn), "span_name")


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the durations of its direct children."""
    durations = array("d", (end - start for start, end in zip(tracer.starts, tracer.ends)))
    own = array("d", durations)
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            own[parent] -= durations[idx]
    return own


@dataclass
class NameTotals:
    """All spans of one name: how many, their self time and their duration."""

    count: int = 0
    self_s: float = 0.0
    total_s: float = 0.0   #: summed durations; counts a recursive span twice


def totals_by_name(tracer: Tracer) -> Dict[str, NameTotals]:
    if tracer.stack:
        raise RuntimeError(f"{len(tracer.stack)} span(s) still open")
    own = self_times(tracer)
    totals = [NameTotals() for _ in tracer.names]
    for idx, nid in enumerate(tracer.name_ids):
        entry = totals[nid]
        entry.count += 1
        entry.self_s += own[idx]
        entry.total_s += tracer.ends[idx] - tracer.starts[idx]
    return dict(zip(tracer.names, totals))


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def root_seconds(tracer: Tracer) -> float:
    """Summed duration of the root spans: the traced wall time."""
    return sum(
        tracer.ends[idx] - tracer.starts[idx]
        for idx, parent in enumerate(tracer.parents)
        if parent < 0
    )


class Installation:
    """Attribute replacements that can all be undone.

    A process forked while an installation is live (the sweep's worker
    pool) undoes it in the child, so workers run the untouched code and
    record no spans.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # vars(owner), not getattr: the attribute must be defined on
        # ``owner`` itself, and a renamed target fails here, loudly,
        # instead of leaving its layer silently empty
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
