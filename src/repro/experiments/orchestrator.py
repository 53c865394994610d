"""Parallel sweep orchestration.

The evaluation of the paper rests on grids of scenario runs (node count x
mobility x group churn x QoS settings, several seeds each).  This module
is the engine that executes such grids:

* :class:`SweepSpec` -- a *declarative* description of a sweep: one base
  :class:`~repro.experiments.scenarios.ScenarioConfig`, a parameter grid,
  and a list of replication seeds.  ``benchmarks/`` and ``examples/``
  define their experiments as specs instead of hand-rolled loops.
* :func:`expand_spec` -- turn a spec into concrete :class:`RunSpec`\\ s
  (the cross product of every grid axis and every seed, with
  deterministic per-run RNG seeding).
* :func:`sweep` -- the one sweep loop.  A sweep is a list of
  ``(grid point, seed index)`` runs scheduled in rounds; each round is
  resolved against an on-disk result cache keyed by a content hash of
  (config, duration, seed, code version), so re-running a sweep only
  executes what changed, and its misses execute through an *executor*
  (:mod:`repro.experiments.executors`: in-process ``serial`` or a
  ``process`` pool -- the default).  The cache is a directory of
  ``<cache-key>.json`` files (:mod:`repro.experiments.stores`).  The
  executor never enters the cache key, so either one produces the same
  cache entries and byte-identical artifacts.
* :func:`run_sweep` -- a fixed seed list is a one-round schedule of that
  loop: exactly :func:`expand_spec`'s runs, executed
  (``sweep(..., cache_only=True)`` replays them from the cache alone).
* :class:`RunResult` -- the typed record one run produces: the swept
  parameters, the seed, and a flat metrics dictionary.  JSON/CSV export
  via :func:`export_json` / :func:`export_csv`, mean +/- 95% CI
  aggregation via :func:`summarize`.
* :class:`AdaptiveCI` / :func:`run_sweep_adaptive` -- *adaptive seed
  replication*: the same loop under a policy.  Instead of a fixed seed
  list, each grid point keeps adding replication seeds in deterministic
  batches, one round at a time, until the 95% CI half-width of a chosen
  metric falls below a target (or ``max_seeds`` is reached, recorded as
  ``unconverged``).  Low-variance points stop early, noisy ones get
  more seeds, and a re-run against a warm cache executes nothing.

Example -- a 2-axis sweep with 3 replication seeds, run on 4 workers::

    from repro.experiments import ScenarioConfig, SweepSpec, run_sweep, summarize

    spec = SweepSpec(
        name="density",
        base=ScenarioConfig(protocol="flooding", area_size=900.0),
        grid={"n_nodes": [30, 60], "group_size": [5, 10]},
        seeds=(1, 2, 3),
        duration=60.0,
    )
    results = run_sweep(spec, workers=4, cache_dir=".repro-cache")
    for row in summarize(results):
        print(row["n_nodes"], row["group_size"], row["pdr_mean"], row["pdr_ci95"])

A grid axis usually names a single ``ScenarioConfig`` field -- including
*dotted* axes into the typed per-protocol sections (``"hvdb.dimension"``,
``"dsm.position_period"``) and the pluggable component names
(``"protocol"``, ``"radio"``, ``"mac"``, ``"mobility"``) -- but an axis
value may also be a dict of several field overrides that must move
together (e.g. growing the area with the node count to keep density
constant)::

    grid = {"n_nodes": [{"n_nodes": 60, "area_size": 1162.0},
                        {"n_nodes": 120, "area_size": 1643.0}]}

Hooks that need code, not data -- per-run metric extraction with access to
the live scenario, or a custom mobility model -- are referenced *by name*
through :func:`register_collector` /
:func:`repro.registry.register_mobility` so a :class:`RunSpec` stays
picklable across process boundaries.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.executors import make_executor
from repro.experiments.scenarios import PHY_SECTIONS, ScenarioConfig, config_axis_names
from repro.experiments.stores import JsonStore
from repro.registry import (
    MACS,
    MOBILITY_MODELS,
    PROTOCOL_STACKS,
    RADIOS,
    RegistryError,
    register_mobility,
)

#: Bump to invalidate every cached result after a change to the simulation
#: or metrics code that alters run outcomes.
#: 2: registry-driven scenario assembly -- nested typed per-protocol
#:    config sections, mobility/radio/mac as first-class config fields.
CACHE_VERSION = 2


class SweepError(RuntimeError):
    """One or more runs of a sweep failed.

    Raised *after* every other run has been drained and recorded (and,
    with a cache directory, persisted), so a re-run of the same sweep
    resumes from the completed work instead of repeating it.
    """


class SpecError(ValueError):
    """A sweep spec (or a shard selection over it) is invalid.

    Raised eagerly at expansion time -- an empty grid axis, an empty seed
    list, an axis that names no :class:`ScenarioConfig` field, or a shard
    index outside ``1..count`` -- so a misconfigured sweep fails loudly
    instead of silently executing zero runs.
    """

@dataclass(frozen=True)
class AdaptiveCI:
    """Adaptive replication policy: add seeds until the CI is tight.

    Attached to :attr:`SweepSpec.replication` (or passed to
    :func:`run_sweep_adaptive` directly), this replaces the fixed
    ``seeds`` list with *sequential sampling*: every grid point starts
    with ``min_seeds`` replications, and as long as the 95% CI
    half-width of ``metric`` (as :func:`mean_ci95` computes it) exceeds
    ``target_half_width``, the point receives ``batch`` more seeds --
    independently of every other point -- until it converges or hits
    ``max_seeds`` (recorded as ``unconverged``).

    ``growth`` makes the batching *variance-aware*: while a point's
    observed half-width is still far from the target (more than twice
    it), its next batch is multiplied by ``growth`` (geometrically, so a
    very noisy point reaches its seed budget in a few rounds instead of
    many fixed-size ones); once within 2x of the target the batch resets
    to ``batch`` so the point cannot badly overshoot the budget it
    actually needs.  ``growth=1`` (the default) is plain fixed batching.

    The seed sequence is deterministic (:func:`adaptive_seed_sequence`):
    the spec's own ``seeds`` first, then successive integers.  Combined
    with the content-hash cache this makes adaptive runs resumable and
    replayable -- the stopping decisions (batch growth included: observed
    half-widths are computed from cached results) are a pure function of
    the cached results, so a re-run against a warm cache executes nothing
    and sharded runs merge byte-identically to unsharded ones.
    """

    target_half_width: float          #: stop once ci95 half-width <= this
    metric: str = "pdr"               #: RunResult.metrics key driving the test
    min_seeds: int = 3                #: replications before the first CI test
    max_seeds: int = 12               #: hard per-point budget
    batch: int = 2                    #: seeds added per expansion round
    growth: float = 1.0               #: batch multiplier while half-width > 2x target

    def __post_init__(self) -> None:
        if not self.target_half_width > 0:
            raise SpecError(
                f"adaptive target_half_width must be > 0, got {self.target_half_width!r}"
            )
        if not self.metric:
            raise SpecError("adaptive policy needs a metric name")
        if self.min_seeds < 2:
            raise SpecError(
                f"adaptive min_seeds must be >= 2 (one replication has no "
                f"CI half-width), got {self.min_seeds}"
            )
        if self.max_seeds < self.min_seeds:
            raise SpecError(
                f"adaptive max_seeds ({self.max_seeds}) must be >= min_seeds "
                f"({self.min_seeds})"
            )
        if self.batch < 1:
            raise SpecError(f"adaptive batch must be >= 1, got {self.batch}")
        if not self.growth >= 1:
            raise SpecError(
                f"adaptive growth must be >= 1 (1 = fixed batching), got "
                f"{self.growth!r}"
            )

    def next_batch(self, current_batch: int, half_width: float) -> int:
        """Size of a point's next seed batch, given its observed half-width.

        Deterministic in the cached results: far from the target (more
        than twice the target half-width) the batch grows by ``growth``
        (at least +1 so ``growth`` just above 1 still makes progress);
        close to it the batch resets to the policy's base ``batch``.
        """
        if self.growth > 1 and half_width > 2 * self.target_half_width:
            return max(current_batch + 1, int(math.ceil(current_batch * self.growth)))
        return self.batch


# ---------------------------------------------------------------------------
# Registries: picklable-by-name hooks
# ---------------------------------------------------------------------------
# (component registries -- protocol stacks, radios, MACs, mobility models --
# live in repro.registry; these are the orchestrator-local hook seams)

_COLLECTORS: Dict[str, Callable] = {}
_HOOKS: Dict[str, Callable] = {}


def register_collector(name: str) -> Callable:
    """Register a post-run metric collector under ``name``.

    The collector is called in the worker process as ``fn(result)`` with
    the full :class:`~repro.experiments.runner.ExperimentResult` (scenario
    included) and must return a dict of extra scalar metrics, which is
    merged into :attr:`RunResult.metrics`.  Referencing collectors by name
    keeps :class:`RunSpec` picklable.

    Worker processes are forked where available, so registrations made in
    any imported module (or a ``__main__`` script) are visible to them.
    On spawn-only platforms workers re-import from scratch and only see
    registrations made at import of :mod:`repro.experiments.specs`; hooks
    defined elsewhere then require ``workers=1``.
    """

    def decorator(fn: Callable) -> Callable:
        _COLLECTORS[name] = fn
        return fn

    return decorator


def register_hook(name: str) -> Callable:
    """Register a scenario hook ``fn(scenario) -> None``.

    Hooks are referenced by a spec's ``before_run`` (called after the
    scenario is built, before the simulation starts) or ``during_run``
    (called halfway through the run, e.g. to inject failures) -- the same
    seams :func:`~repro.experiments.runner.run_scenario` exposes as
    callables.
    """

    def decorator(fn: Callable) -> Callable:
        _HOOKS[name] = fn
        return fn

    return decorator


def _resolve_registered(registry: Dict[str, Callable], name: str, kind: str) -> Callable:
    if name not in registry:
        # Spec modules register their hooks at import time; make sure the
        # bundled ones are loaded (lazy import avoids a cycle: specs
        # imports this module for SweepSpec).
        import repro.experiments.specs  # noqa: F401

    if name not in registry:
        raise KeyError(
            f"no {kind} registered under {name!r} (known: {sorted(registry)}). "
            "If it is registered outside repro.experiments.specs, make sure the "
            "registering module is imported before the sweep runs (on spawn-only "
            "platforms, worker processes only re-import repro.experiments.specs)."
        )
    return registry[name]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved run: a concrete config, seed and duration.

    Produced by :func:`expand_spec`; everything here is picklable so the
    run can be shipped to a worker process as-is.
    """

    run_id: str                       #: stable human-readable identifier
    config: ScenarioConfig            #: fully-resolved (overrides + seed applied)
    duration: float
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)  #: the swept values
    collector: Optional[str] = None   #: registered collector name
    before_run: Optional[str] = None  #: registered hook, called before start
    during_run: Optional[str] = None  #: registered hook, called mid-run

    def cache_key(self) -> str:
        """Content hash identifying this run's outcome.

        Covers every input that determines the result: the complete
        scenario config (recursively canonicalised -- nested per-protocol
        sections, enum-valued parameters and dict-valued fields hash
        independently of insertion order), the duration, the named hooks
        and :data:`CACHE_VERSION` (bumped on behaviour-changing code
        edits).  The mobility/radio/mac component names are part of the
        config itself, so they need no separate slot here; the
        physical-layer config sections enter only while their component
        is selected (:func:`canonical_config`), so unit-disk/csma cache
        keys survived the sections' introduction unchanged.  The sweep
        name and cosmetic run id are deliberately excluded, so identical
        runs reached through different sweeps share cache entries.
        """
        payload = {
            "version": CACHE_VERSION,
            "config": canonical_config(self.config),
            "duration": self.duration,
            "collector": self.collector,
            "before_run": self.before_run,
            "during_run": self.during_run,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: the exact JSON-native leaf types: a canonical form keeps them as they
#: are (infinities aside) and a record shares them instead of copying
_SCALARS = frozenset((str, int, float, bool, type(None)))
_INFINITIES = (math.inf, -math.inf)


@functools.lru_cache(maxsize=None)
def _sorted_field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass's field names, sorted (a pure function of the class)."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _canonical(value: Any) -> Any:
    """Make a (possibly nested) config value deterministic and JSON-safe.

    A dataclass instance becomes a dict of its fields in sorted name
    order, each value canonicalised in turn: what the standard library's
    ``asdict`` followed by a key sort gives, without deep-copying every
    leaf first.
    """
    if type(value) in _SCALARS and value not in _INFINITIES:
        return value
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value):
        # a dataclass *class* as a value: type(value) is then its
        # metaclass, which dataclasses.fields rejects with TypeError, as
        # asdict rejects the class
        return {
            name: _canonical(getattr(value, name))
            for name in _sorted_field_names(type(value))
        }
    return repr(value)


def canonical_config(config: ScenarioConfig) -> Dict[str, Any]:
    """Canonical dict of a scenario config, for hashing and artifacts.

    :func:`_canonical` of the config, minus every physical-layer section
    (:data:`~repro.experiments.scenarios.PHY_SECTIONS`) whose component
    is not the one the config selects: an inactive section cannot
    influence the run, and omitting it keeps cache keys *and* exported
    spec blocks byte-stable across releases that add phy sections.
    (Sweeping ``sinr.capture_db`` under ``radio="unit_disk"`` therefore
    deliberately collapses to one cache entry -- the physics genuinely
    cannot differ.)  An inactive section is skipped, not canonicalised.
    """
    inactive = [
        section
        for section, selector in PHY_SECTIONS.items()
        if getattr(config, selector, None) != section
    ]
    return {
        name: _canonical(getattr(config, name))
        for name in _sorted_field_names(type(config))
        if name not in inactive
    }


@dataclass
class SweepSpec:
    """Declarative description of a parameter sweep.

    ``grid`` maps an axis name to the values it takes; the full sweep is
    the cross product of all axes times all ``seeds``.  An axis value is
    either a value for the ``ScenarioConfig`` field named by the axis, or
    a dict of several coupled field overrides.

    ``replication`` optionally attaches an :class:`AdaptiveCI` policy:
    ``seeds`` then only names the *initial* replications (and remains
    the fixed-seed view :func:`expand_spec` exposes to tooling that needs
    a static universe); :func:`run_sweep_adaptive` grows each grid
    point's seed set at runtime until the policy's CI target is met.
    """

    name: str
    base: ScenarioConfig
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (1,)
    duration: float = 90.0
    description: str = ""
    collector: Optional[str] = None
    before_run: Optional[str] = None
    during_run: Optional[str] = None
    replication: Optional[AdaptiveCI] = None

    @property
    def run_count(self) -> int:
        """Runs of the fixed seed list: :func:`expand_spec`'s count, unexpanded.

        A grid point that pins ``seed`` runs once; every other point runs
        once per replication seed.  Raises :class:`SpecError` where
        :func:`expand_points` does (an empty axis or seed list).
        """
        return sum(len(_point_seeds(self, point)) for point in expand_points(self))


def _axis_overrides(axis: str, value: Any) -> Dict[str, Any]:
    if isinstance(value, dict):
        return dict(value)
    return {axis: value}


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


#: RunSpec slots a grid axis may sweep in addition to ScenarioConfig
#: fields: the named-hook seams.  An axis named (or a dict value
#: containing) one of these overrides the spec-level hook for that run.
HOOK_AXES = ("collector", "before_run", "during_run")


def _apply_config_overrides(
    base: ScenarioConfig, overrides: Mapping[str, Any]
) -> ScenarioConfig:
    """Apply plain and dotted (``section.field``) overrides to ``base``.

    Dotted keys replace one field inside a typed per-protocol section via
    a nested ``dataclasses.replace``; a whole-section override
    (``"hvdb": HVDBConfig(...)``) composes with dotted keys into the same
    section (the section override is applied first).
    """
    plain: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    for key, value in overrides.items():
        if "." in key:
            section, _, sub = key.partition(".")
            nested.setdefault(section, {})[sub] = value
        else:
            plain[key] = value
    for section, subs in nested.items():
        current = plain.get(section, getattr(base, section))
        plain[section] = dataclasses.replace(current, **subs)
    return dataclasses.replace(base, **plain)


@dataclass(frozen=True)
class GridPoint:
    """One grid combination of a sweep, before replication seeds apply.

    Produced by :func:`expand_points`; :func:`point_run` turns a point
    plus one seed into a concrete :class:`RunSpec`.  Fixed-seed expansion
    (:func:`expand_spec`) and adaptive replication
    (:func:`run_sweep_adaptive`) share this decomposition -- the adaptive
    loop grows the *seed* dimension per point while the point set stays
    static, which is also why adaptive sharding partitions points, not
    runs (:func:`shard_points`).
    """

    label: str                        #: stable display label ("a=1,b=2" or "base")
    params: Dict[str, Any]            #: the recorded swept values
    overrides: Dict[str, Any]         #: config field overrides (may pin "seed")
    hooks: Dict[str, Optional[str]]   #: resolved collector/before_run/during_run


def expand_points(spec: SweepSpec) -> List[GridPoint]:
    """Cross product of every grid axis (no seeds), in a stable order.

    An axis may name a :class:`ScenarioConfig` field (including dotted
    axes into the typed per-protocol sections, ``"hvdb.dimension"``, and
    the pluggable component names ``protocol``/``radio``/``mac``/
    ``mobility``), one of the :data:`HOOK_AXES` (sweeping a registered
    hook by name), or -- with dict values that include the axis name
    itself -- act as a pure label whose remaining keys are the coupled
    field/hook overrides::

        grid = {"variant": [{"variant": "fast", "hvdb.params": fast_params},
                            {"variant": "slow", "hvdb.params": slow_params}]}

    Label axes keep ``params`` (and therefore run ids, CSV columns and
    :func:`summarize` grouping) scalar even when the coupled override is a
    whole parameter object.  Empty axes, empty seed lists and unknown
    axis/override names raise :class:`SpecError` instead of expanding to a
    silent empty or broken grid.
    """
    if not spec.seeds:
        raise SpecError(
            f"sweep {spec.name!r} has no replication seeds: the grid would "
            "expand to zero runs (set seeds=(1,) for a single replication)"
        )
    axes = list(spec.grid.keys())
    value_lists = []
    for axis in axes:
        values = list(spec.grid[axis])
        if not values:
            raise SpecError(
                f"axis {axis!r} of sweep {spec.name!r} has no values: the "
                "cross product would expand to zero runs (drop the axis or "
                "give it at least one value)"
            )
        value_lists.append(values)

    config_fields = config_axis_names()
    points: List[GridPoint] = []
    for combo in itertools.product(*value_lists) if axes else [()]:
        overrides: Dict[str, Any] = {}
        hooks: Dict[str, Optional[str]] = {
            name: getattr(spec, name) for name in HOOK_AXES
        }
        params: Dict[str, Any] = {}
        for axis, value in zip(axes, combo):
            entry = _axis_overrides(axis, value)
            if (
                isinstance(value, dict)
                and axis in entry
                and axis not in config_fields
                and axis not in HOOK_AXES
            ):
                # label axis: the axis name itself is the recorded swept
                # parameter; the remaining keys are coupled overrides
                params[axis] = entry.pop(axis)
            else:
                params.update(entry)
            for key, override in entry.items():
                if key in HOOK_AXES:
                    hooks[key] = override
                elif key in config_fields:
                    overrides[key] = override
                else:
                    raise SpecError(
                        f"sweep {spec.name!r}: axis/override key {key!r} is "
                        f"neither a ScenarioConfig field (dotted section "
                        f"axes like 'hvdb.dimension' included) nor a hook "
                        f"slot {HOOK_AXES}; for a display-only axis use "
                        "dict values that include the axis name itself"
                    )
        label = ",".join(
            f"{k}={_format_value(v)}" for k, v in sorted(params.items())
        ) or "base"
        points.append(
            GridPoint(label=label, params=params, overrides=overrides, hooks=hooks)
        )
    return points


def point_run(spec: SweepSpec, point: GridPoint, run_seed: int) -> RunSpec:
    """Resolve one (grid point, replication seed) pair into a :class:`RunSpec`.

    Per-run RNG seeding is deterministic: the seed replaces ``base.seed``
    wholesale, and every stochastic component of a scenario derives its
    stream from that one value, so the same (spec, point, seed) triple
    always reproduces the same run -- and the same cache key.
    """
    merged = {k: v for k, v in point.overrides.items() if k != "seed"}
    config = _apply_config_overrides(
        dataclasses.replace(spec.base, seed=run_seed), merged
    )
    return RunSpec(
        run_id=f"{spec.name}/{point.label}/seed={run_seed}",
        config=config,
        duration=spec.duration,
        seed=run_seed,
        params=dict(point.params),
        collector=point.hooks["collector"],
        before_run=point.hooks["before_run"],
        during_run=point.hooks["during_run"],
    )


def expand_spec(spec: SweepSpec) -> List[RunSpec]:
    """Cross product of every grid axis and every seed, in a stable order.

    Point-major: all seeds of the first grid point, then the next point
    (see :func:`expand_points` for the axis semantics).  An explicit
    ``"seed"`` axis replaces the replication-seed loop for its point, so
    sweeping the seed itself (``grid={"seed": [...]}``) works without
    colliding with ``spec.seeds``.
    """
    return [run for _token, run in _seed_list_runs(spec, expand_points(spec))]


def _seed_list_runs(
    spec: SweepSpec, points: Sequence[GridPoint]
) -> List[Tuple[Tuple[int, int], RunSpec]]:
    """Every ``((point index, seed index), run)`` of the fixed seed list.

    :func:`expand_spec`'s runs, in its order, each tagged with its place
    in the grid: the one-round schedule :func:`sweep` runs for a spec
    without a replication policy.
    """
    return [
        ((pi, si), point_run(spec, point, run_seed))
        for pi, point in enumerate(points)
        for si, run_seed in enumerate(_point_seeds(spec, point))
    ]


def _point_seeds(spec: SweepSpec, point: GridPoint) -> Sequence[int]:
    """One point's replication seeds in the fixed seed list.

    The seed the point pins (a ``"seed"`` axis or override), or else
    every seed of ``spec.seeds``.
    """
    return (point.overrides["seed"],) if "seed" in point.overrides else spec.seeds


def adaptive_seed_sequence(spec: SweepSpec, policy: AdaptiveCI) -> List[int]:
    """The deterministic per-point seed schedule of an adaptive sweep.

    The spec's own ``seeds`` come first (so a fixed-seed history stays
    cache-hot when a sweep turns adaptive), extended with successive
    integers after their maximum, duplicates skipped, up to the policy's
    ``max_seeds``.  Every grid point draws its replications from this one
    prefix -- point ``i`` stopping after ``n`` seeds always used exactly
    ``sequence[:n]`` -- which is what makes stopping decisions a pure
    function of the cached results.
    """
    if not spec.seeds:
        raise SpecError(
            f"sweep {spec.name!r} has no replication seeds: the adaptive "
            "sequence needs at least one starting seed"
        )
    # dedupe the spec's own list too: a repeated seed would count one run
    # twice as two "independent" replications, collapsing the CI to zero
    seeds: List[int] = []
    seen = set()
    for seed in spec.seeds:
        seed = int(seed)
        if seed not in seen:
            seeds.append(seed)
            seen.add(seed)
    del seeds[policy.max_seeds :]
    candidate = max(seen) + 1
    while len(seeds) < policy.max_seeds:
        if candidate not in seen:
            seeds.append(candidate)
            seen.add(candidate)
        candidate += 1
    return seeds


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/n`` shard selector into a validated ``(index, count)``.

    ``index`` is 1-based: ``2/3`` is the second of three shards.
    """
    match = re.fullmatch(r"\s*(\d+)\s*/\s*(\d+)\s*", text)
    if not match:
        raise SpecError(f"shard must look like INDEX/COUNT (e.g. 2/3), got {text!r}")
    index, count = int(match.group(1)), int(match.group(2))
    _check_shard(index, count)
    return index, count


def _check_shard(index: int, count: int) -> None:
    if count < 1:
        raise SpecError(f"shard count must be >= 1, got {count}")
    if not 1 <= index <= count:
        raise SpecError(
            f"shard index {index} out of range: must be between 1 and {count} "
            "(shard indices are 1-based)"
        )


def shard_runs(runs: Sequence[RunSpec], index: int, count: int) -> List[RunSpec]:
    """Deterministic 1-based shard ``index`` of ``count`` over ``runs``.

    Partitioning is round-robin over the stable :func:`expand_spec` order
    (run ``j`` lands in shard ``j % count + 1``), so adjacent heavy and
    light grid points spread across shards, every run appears in exactly
    one shard, and the shards' union is the full expansion.  ``count``
    larger than ``len(runs)`` legitimately yields empty shards; an
    ``index`` outside ``1..count`` raises :class:`SpecError`.
    """
    _check_shard(index, count)
    return list(runs[index - 1 :: count])


def shard_points(points: Sequence[GridPoint], index: int, count: int) -> List[GridPoint]:
    """Round-robin shard of *grid points* -- the adaptive sharding unit.

    Adaptive replication decides per grid point how many seeds to run, so
    a run-level partition would split one point's growing seed set across
    jobs and every job would need the others' results to stop correctly.
    Sharding whole points keeps each job's stopping decisions local and
    deterministic; the merged caches then replay to the exact unsharded
    result set (``sweep(..., cache_only=True)``).  Same 1-based round-robin
    semantics as :func:`shard_runs`.
    """
    _check_shard(index, count)
    return list(points[index - 1 :: count])


def validate_runs(runs: Sequence[RunSpec]) -> None:
    """Check every named component and hook of ``runs`` resolves, eagerly.

    A typo'd protocol/radio/mac/mobility name (config fields resolved
    through :mod:`repro.registry`) or hook name would otherwise only
    surface as a per-run failure inside a worker after the rest of the
    grid has burned its budget; this turns it into an eager
    :class:`SpecError` whose message lists the registered alternatives.
    Resolution uses the same registries (and the same lazy specs import)
    as the workers.
    """
    problems = []
    checked = set()
    for run in runs:
        config = run.config
        for registry, name in (
            (PROTOCOL_STACKS, config.protocol),
            (RADIOS, config.radio),
            (MACS, config.mac),
            (MOBILITY_MODELS, config.mobility),
        ):
            if (registry.kind, name) in checked:
                continue
            checked.add((registry.kind, name))
            try:
                registry.get(name)
            except RegistryError as exc:
                problems.append(str(exc))
        for registry, kind, name in (
            (_COLLECTORS, "collector", run.collector),
            (_HOOKS, "hook", run.before_run),
            (_HOOKS, "hook", run.during_run),
        ):
            if name is None or (kind, name) in checked:
                continue
            checked.add((kind, name))
            try:
                _resolve_registered(registry, name, kind)
            except KeyError as exc:
                problems.append(str(exc.args[0] if exc.args else exc))
    if problems:
        raise SpecError("; ".join(problems))


def _restamp(result: RunResult, run: RunSpec, adaptive_round: int) -> None:
    """Relabel a cached result under the consuming sweep's identity.

    The cache is keyed by content only, so the sweep-cosmetic fields --
    run id, recorded params, adaptive-round provenance -- are stamped by
    whoever reads the entry.  That keeps artifacts deterministic: a
    replay from a merged shard cache stamps exactly what a live run would.
    """
    result.run_id = run.run_id
    result.params = dict(run.params)
    result.adaptive_round = adaptive_round


def _open_cache(cache_dir: Optional[Any]) -> Optional[JsonStore]:
    """Open a sweep's cache; ``None`` stays ``None`` (no caching).

    ``cache_dir`` is the cache directory's path (created if missing) or
    an already-open :class:`~repro.experiments.stores.JsonStore`.
    """
    if cache_dir is None or isinstance(cache_dir, JsonStore):
        return cache_dir
    return JsonStore(cache_dir)


def _resolve_cached(
    cache: JsonStore, keyed: Sequence[Tuple[Any, RunSpec, str]]
) -> Dict[Any, RunResult]:
    """Batch-resolve ``(token, run, cache_key)`` triples; one cache scan.

    The hits come back as ``{token: RunResult}``.  Runs past the first
    that share a cache key get a deep copy, so every consumer can be
    :func:`_restamp`-ed under its own identity.
    """
    hits: Dict[Any, RunResult] = {}
    if not keyed:
        return hits
    cached_map = dict(cache.scan([key for _token, _run, key in keyed]))
    consumed: set = set()
    for token, _run, key in keyed:
        result = cached_map.get(key)
        if result is None:
            continue
        if key in consumed:
            result = copy.deepcopy(result)
        consumed.add(key)
        hits[token] = result
    return hits


def _warn_corrupt(cache: Optional[JsonStore], label: str, progress: bool) -> None:
    """Surface the cache's corrupt-entry count in the run summary."""
    if cache is not None and cache.corrupt_entries:
        _log(
            progress,
            f"[{label}] WARNING: {cache.corrupt_entries} corrupt cache "
            f"entries in {cache.directory} were ignored (the affected "
            "runs re-executed; the rewrite heals the cache)",
        )


def merge_caches(sources: Sequence[str], dest: str) -> Tuple[int, int]:
    """Fold shard cache directories into ``dest``; returns (copied, skipped).

    Cache entries are named by content hash, so an entry already present
    in ``dest`` is identical to the incoming one and is skipped -- merging
    is idempotent and order-independent.  Writes go through the atomic
    :meth:`~repro.experiments.stores.JsonStore.put`, so a crashed merge
    never leaves a truncated entry.
    """
    for src in sources:
        if not os.path.isdir(src):
            raise SpecError(f"shard cache directory {src!r} does not exist")
    dest_store = JsonStore(dest)
    existing = set(dest_store.keys())
    copied = skipped = 0
    for src in sources:
        for key, result in JsonStore(src).scan():
            if key in existing:
                skipped += 1
                continue
            dest_store.put(key, result)
            existing.add(key)
            copied += 1
    return copied, skipped


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """The standard library ``asdict``'s conversion of a value, scalars shared.

    Dicts, lists and tuples are rebuilt and a dataclass instance becomes
    a dict of its fields in field order, so changing the result never
    reaches the record.  A str, int, float, bool or None is returned
    as is, which is all ``asdict``'s deep copy of it amounts to; any
    other leaf is deep-copied, as ``asdict`` does.
    """
    if isinstance(value, dict):
        return {k: v if type(v) in _SCALARS else _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        items = [v if type(v) in _SCALARS else _plain(v) for v in value]
        return items if isinstance(value, list) else tuple(items)
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return copy.deepcopy(value)


@dataclass
class RunResult:
    """The typed record one run produces.

    ``metrics`` is the flat scalar dictionary from
    :meth:`~repro.metrics.collectors.MetricsReport.flat_row`, plus
    whatever the spec's collector added.  ``params`` is the swept
    parameter assignment for this run (field name -> value).
    """

    run_id: str
    params: Dict[str, Any]
    seed: int
    duration: float
    metrics: Dict[str, Any]
    wall_time: float = 0.0
    from_cache: bool = False
    cache_key: str = ""
    #: which adaptive round scheduled this replication (0 for the initial
    #: block and for every fixed-seed run); stamped by the consumer like
    #: ``run_id``/``params``, so it is deterministic even for cache hits
    adaptive_round: int = 0

    def row(self) -> Dict[str, Any]:
        """One flat dict: params, then seed, then every metric."""
        row: Dict[str, Any] = dict(self.params)
        row["seed"] = self.seed
        for key, value in self.metrics.items():
            row.setdefault(key, value)
        return row

    def to_dict(self) -> Dict[str, Any]:
        """The record as plain values, as ``asdict`` gives it, built field by field."""
        return {
            "run_id": self.run_id,
            "params": _plain(self.params),
            "seed": self.seed,
            "duration": self.duration,
            "metrics": _plain(self.metrics),
            "wall_time": self.wall_time,
            "from_cache": self.from_cache,
            "cache_key": self.cache_key,
            "adaptive_round": self.adaptive_round,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_run(run: RunSpec) -> RunResult:
    """Execute one run to completion (in the current process).

    This is the function worker processes invoke; it builds the scenario,
    runs it, and flattens the report into picklable scalars -- the heavy
    network object never crosses a process boundary.  The result's
    ``cache_key`` is left empty: :func:`sweep` computed the key to look
    the run up, and stamps it on the result when it records it.
    """
    from repro.experiments.runner import run_scenario  # runner builds on this module

    before_run = (
        _resolve_registered(_HOOKS, run.before_run, "hook") if run.before_run else None
    )
    during_run = (
        _resolve_registered(_HOOKS, run.during_run, "hook") if run.during_run else None
    )
    started = time.perf_counter()
    result = run_scenario(
        run.config,
        duration=run.duration,
        before_run=before_run,
        during_run=during_run,
    )
    metrics = result.report.flat_row()
    if run.collector:
        collector = _resolve_registered(_COLLECTORS, run.collector, "collector")
        metrics.update(collector(result))
    return RunResult(
        run_id=run.run_id,
        params=dict(run.params),
        seed=run.seed,
        duration=run.duration,
        metrics=metrics,
        wall_time=time.perf_counter() - started,
    )


def _log(progress: bool, message: str) -> None:
    if progress:
        print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Adaptive replication
# ---------------------------------------------------------------------------


@dataclass
class PointConvergence:
    """Per-grid-point verdict of an adaptive sweep."""

    point: str                        #: stable grid-point label
    params: Dict[str, Any]            #: the swept parameter assignment
    n_seeds: int                      #: replications actually run
    rounds: int                       #: adaptive rounds the point took part in
    mean: float                       #: metric mean over those replications
    half_width: float                 #: 95% CI half-width over them
    target: float                     #: the policy's target half-width
    status: str                       #: converged | unconverged | incomplete

    def to_dict(self) -> Dict[str, Any]:
        return _plain(self)


@dataclass
class AdaptiveResult:
    """Everything an adaptive sweep produced.

    ``results`` is the flat run list in deterministic order (grid points
    in :func:`expand_points` order, each point's seeds in
    :func:`adaptive_seed_sequence` order), ``points`` the per-point
    convergence verdicts.  ``executed``/``cached`` count this
    invocation's work; ``fixed_equivalent_runs`` is what the same grid
    would have cost with ``max_seeds`` everywhere -- the budget adaptive
    stopping saves.
    """

    sweep: str
    policy: AdaptiveCI
    results: List[RunResult] = field(default_factory=list)
    points: List[PointConvergence] = field(default_factory=list)
    executed: int = 0
    cached: int = 0

    @property
    def converged(self) -> List[PointConvergence]:
        return [p for p in self.points if p.status == "converged"]

    @property
    def fixed_equivalent_runs(self) -> int:
        return len(self.points) * self.policy.max_seeds

    def to_dict(self) -> Dict[str, Any]:
        """The convergence report block embedded in JSON artifacts."""
        return {
            "sweep": self.sweep,
            "policy": _plain(self.policy),
            "executed": self.executed,
            "cached": self.cached,
            "total_runs": len(self.results),
            "fixed_equivalent_runs": self.fixed_equivalent_runs,
            "points": [p.to_dict() for p in self.points],
        }


def _metric_values(
    results: Sequence[RunResult], policy: AdaptiveCI, spec_name: str
) -> List[float]:
    values = []
    for result in results:
        value = result.metrics.get(policy.metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            numeric = sorted(
                name
                for name, v in result.metrics.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            )
            raise SpecError(
                f"adaptive sweep {spec_name!r}: metric {policy.metric!r} is "
                f"not a numeric metric of run {result.run_id!r} (numeric "
                f"metrics: {', '.join(numeric) or 'none'})"
            )
        values.append(float(value))
    return values




# ---------------------------------------------------------------------------
# The sweep loop
# ---------------------------------------------------------------------------


def sweep(
    spec: SweepSpec,
    policy: Optional[AdaptiveCI] = None,
    *,
    workers: int = 1,
    cache_dir: Optional[Any] = None,
    force: bool = False,
    progress: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    executor: Optional[str] = None,
    cache_only: bool = False,
) -> Tuple[List[RunResult], Optional[AdaptiveResult], List[str]]:
    """Run ``spec`` round by round; the one loop behind every sweep.

    :func:`run_sweep`, :func:`run_sweep_adaptive` and the CLI all call
    this.  A sweep is a list of ``(grid point, seed index)``
    runs, scheduled in rounds:

    * without a ``policy`` the seed list is a one-round schedule: exactly
      :func:`expand_spec`'s runs, in its order (``shard`` keeps the
      :func:`shard_runs` slice of them), after which the loop stops;
    * under a policy every grid point starts with ``min_seeds`` seeds of
      :func:`adaptive_seed_sequence` (``shard`` keeps whole points,
      :func:`shard_points`).  After each round every still-active point
      is re-tested, and one whose CI half-width is above the target and
      which is short of ``max_seeds`` is scheduled its next batch.

    The executor name resolves and the first round's runs validate
    before the cache opens, so a typo creates no cache directory.  Each
    round then resolves its runs against the cache in one batch scan and
    executes the misses in one executor ``map_runs`` call.  Completed
    runs are recorded, and cached, before a failure raises
    :class:`SweepError`.  With ``cache_only`` the misses are listed
    instead of executed: a seed list still returns every cached run, but
    a policy ends a point at its first gap as ``incomplete``, since its
    stopping rule cannot be replayed past it.

    Returns ``(results, report, missing)``: the results in point-major
    seed order, the convergence report (None without a policy) and the
    run ids of the cache misses.
    """
    backend = make_executor(executor)
    points = expand_points(spec)
    label = spec.name if policy is None else f"{spec.name} adaptive"
    if policy is None:
        scheduled = _seed_list_runs(spec, points)
        if shard is not None:
            scheduled = shard_runs(scheduled, *shard)
    else:
        for point in points:
            if "seed" in point.overrides:
                raise SpecError(
                    f"adaptive sweep {spec.name!r}: grid point {point.label!r} "
                    "pins an explicit 'seed' override; adaptive replication "
                    "drives the seed dimension itself, so a seed axis cannot "
                    "be combined with it"
                )
        if shard is not None:
            points = shard_points(points, *shard)
        seeds = adaptive_seed_sequence(spec, policy)
        # each point's stopping state: the rounds it took part in, its
        # verdict and its next seed-batch size (which grows under a
        # variance-aware policy)
        rounds = [0] * len(points)
        status = [""] * len(points)
        batch_size = [policy.batch] * len(points)
        active = list(range(len(points)))
        scheduled = [
            ((pi, si), point_run(spec, point, seeds[si]))
            for pi, point in enumerate(points)
            for si in range(policy.min_seeds)
        ]
    if shard is not None:
        label += f" shard {shard[0]}/{shard[1]}"
    validate_runs([run for _token, run in scheduled])
    cache = _open_cache(cache_dir)

    collected: List[List[RunResult]] = [[] for _ in points]
    gaps = set()                  # points with a run a cache-only replay lacks
    missing: List[str] = []
    executed = cached = 0
    round_idx = 0
    while scheduled:
        # 1. resolve the round against the cache (one batch scan).  The
        # stamped provenance is the scheduling round itself, so live
        # runs, cache hits and replays all stamp the same rounds.
        where = label if policy is None else f"{label} round {round_idx}"
        keyed = [(token, run, run.cache_key()) for token, run in scheduled]
        staged = (
            _resolve_cached(cache, keyed)
            if cache is not None and not force
            else {}
        )
        pending: List[tuple] = []        # ((token, cache key), RunSpec)
        for token, run, key in keyed:
            if token in staged:
                _restamp(staged[token], run, round_idx)
            elif not cache_only:
                pending.append(((token, key), run))
        cached += len(staged)
        _log(
            progress,
            f"[{where}] {len(scheduled)} runs: {len(staged)} cache hits, "
            f"{len(pending)} to execute on {backend.describe(workers)}",
        )

        # 2. execute the misses: every run is drained, and each completed
        # one recorded (and cached) even when others fail
        failures: List[Tuple[str, Exception]] = []
        done = 0

        def record(token_key: tuple, result: RunResult) -> None:
            nonlocal done
            token, key = token_key
            result.cache_key = key
            result.adaptive_round = round_idx
            staged[token] = result
            if cache is not None:
                cache.put(key, result)
            done += 1
            pdr = result.metrics.get("pdr")
            pdr_note = f" pdr={pdr:.3f}" if isinstance(pdr, float) else ""
            _log(
                progress,
                f"[{where}] ({done}/{len(pending)}) {result.run_id}"
                f"{pdr_note} ({result.wall_time:.1f}s)",
            )

        def fail(run: RunSpec, exc: Exception) -> None:
            failures.append((run.run_id, exc))
            _log(progress, f"[{where}] FAILED {run.run_id}: {exc!r}")

        if pending:
            backend.map_runs(pending, execute_run, record, fail, workers=workers)
        if failures:
            detail = "; ".join(f"{run_id}: {exc!r}" for run_id, exc in failures[:5])
            if len(failures) > 5:
                detail += f"; ... {len(failures) - 5} more"
            raise SweepError(
                f"{len(failures)} of {len(scheduled)} runs failed in sweep "
                f"{where!r} ({len(scheduled) - len(failures)} completed"
                + (", cached -- a re-run resumes from them" if cache is not None else "")
                + f"): {detail}"
            )
        executed += len(pending)

        # 3. fold the round in, in schedule order: a seed list keeps every
        # cached run, a policy stops a point at its first gap
        for token, run in scheduled:
            result = staged.get(token)
            if result is None:
                missing.append(run.run_id)
                gaps.add(token[0])
            elif policy is None or token[0] not in gaps:
                collected[token[0]].append(result)
        round_idx += 1
        if policy is None:
            break

        # 4. re-test each active point's CI; schedule the next seed block
        # of every point that is neither converged nor out of seeds
        scheduled = []
        still_active = []
        for pi in active:
            rounds[pi] += 1
            if pi in gaps:
                status[pi] = "incomplete"
                continue
            values = _metric_values(collected[pi], policy, spec.name)
            _mean, half_width = mean_ci95(values)
            if half_width <= policy.target_half_width:
                status[pi] = "converged"
                _log(
                    progress,
                    f"[{label}] {points[pi].label}: converged with "
                    f"{len(values)} seed(s) (half-width {half_width:g} <= "
                    f"{policy.target_half_width:g})",
                )
            elif len(values) >= policy.max_seeds:
                status[pi] = "unconverged"
                _log(
                    progress,
                    f"[{label}] {points[pi].label}: UNCONVERGED at max_seeds="
                    f"{policy.max_seeds} (half-width {half_width:g} > "
                    f"{policy.target_half_width:g})",
                )
            else:
                batch_size[pi] = policy.next_batch(batch_size[pi], half_width)
                want = min(len(values) + batch_size[pi], policy.max_seeds)
                scheduled.extend(
                    ((pi, si), point_run(spec, points[pi], seeds[si]))
                    for si in range(len(values), want)
                )
                still_active.append(pi)
        active = still_active

    results = [result for block in collected for result in block]
    report = None
    summary = f"{cached} cached + {executed} executed"
    if policy is not None:
        report = AdaptiveResult(
            sweep=spec.name,
            policy=policy,
            results=results,
            executed=executed,
            cached=cached,
        )
        for pi, point in enumerate(points):
            mean = half_width = 0.0
            if collected[pi] and status[pi] != "incomplete":
                mean, half_width = mean_ci95(
                    _metric_values(collected[pi], policy, spec.name)
                )
            report.points.append(
                PointConvergence(
                    point=point.label,
                    params=dict(point.params),
                    n_seeds=len(collected[pi]),
                    rounds=rounds[pi],
                    mean=round(mean, 6),
                    half_width=round(half_width, 6),
                    target=policy.target_half_width,
                    status=status[pi],
                )
            )
        summary += (
            f"; {len(report.converged)}/{len(points)} point(s) converged "
            f"in {round_idx} round(s)"
        )
    _warn_corrupt(cache, label, progress)
    _log(progress, f"[{label}] done: {summary}")
    return results, report, missing


def _policy_of(spec: SweepSpec, policy: Optional[AdaptiveCI]) -> AdaptiveCI:
    """``policy``, else the spec's own; an adaptive sweep needs one."""
    policy = policy or spec.replication
    if policy is None:
        raise SpecError(
            f"sweep {spec.name!r} has no adaptive replication policy: attach "
            "SweepSpec(replication=AdaptiveCI(...)) or pass policy="
        )
    return policy


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    force: bool = False,
    progress: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    executor: Optional[str] = None,
) -> List[RunResult]:
    """Execute every run of ``spec`` and return results in expansion order.

    The spec's seed list as one round of :func:`sweep`: exactly
    :func:`expand_spec`'s runs (``spec.replication`` is ignored).

    ``executor`` names the execution backend, ``serial`` or ``process``
    (the default), resolved eagerly -- an unknown name raises
    :class:`~repro.registry.RegistryError` listing the alternatives
    before anything executes.  ``workers`` is the backend's parallelism:
    pool size for ``process`` (1 runs in-process), ignored by
    ``serial``.  The backend never enters cache keys or artifacts, so
    results are byte-identical across executors.

    With ``cache_dir`` set, completed runs are persisted and later
    invocations only execute cache misses (``force=True`` re-runs
    everything and refreshes the cache).  Deterministic seeding makes
    this safe: a cached result is bit-identical to re-running the same
    spec and seed.  ``cache_dir`` is the cache directory's path or an
    open :class:`~repro.experiments.stores.JsonStore`.

    ``shard=(index, count)`` executes only that 1-based shard of the
    expansion (see :func:`shard_runs`): ``count`` jobs sharing nothing but
    ``cache_dir`` cover the grid exactly once, after which
    :func:`merge_caches` (or any single job reading the shared cache)
    reassembles the full result set.
    """
    results, _report, _missing = sweep(
        spec,
        workers=workers,
        cache_dir=cache_dir,
        force=force,
        progress=progress,
        shard=shard,
        executor=executor,
    )
    return results


def run_sweep_adaptive(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    force: bool = False,
    progress: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    policy: Optional[AdaptiveCI] = None,
    executor: Optional[str] = None,
) -> AdaptiveResult:
    """Execute ``spec`` under adaptive replication and return the report.

    ``policy`` overrides ``spec.replication`` (one of the two must be
    set).  Each grid point starts at ``policy.min_seeds`` replications
    and grows by ``policy.batch`` per round -- multiplied by
    ``policy.growth`` while the point's half-width is still more than
    twice the target -- until the 95% CI half-width of ``policy.metric``
    is at most ``policy.target_half_width`` or ``max_seeds`` is exhausted
    (``unconverged``).  The content-hash cache is consulted before every
    execution, so resuming, re-running, and replaying merged shard caches
    all cost zero executions once warm.

    ``executor`` and ``cache_dir`` work exactly as in :func:`run_sweep`
    (one backend instance serves every adaptive round).

    ``shard=(index, count)`` restricts the sweep to a round-robin shard
    of the *grid points* (seeds of one point never split across jobs --
    see :func:`shard_points`); shard jobs sharing nothing but merged
    caches reproduce the unsharded result set exactly.
    """
    _results, report, _missing = sweep(
        spec,
        _policy_of(spec, policy),
        workers=workers,
        cache_dir=cache_dir,
        force=force,
        progress=progress,
        shard=shard,
        executor=executor,
    )
    return report


# ---------------------------------------------------------------------------
# Aggregation and export
# ---------------------------------------------------------------------------

#: two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: beyond 30 the normal approximation 1.96 is used.
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def _t95(df: int) -> float:
    if df <= 0:
        return 0.0
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96


def mean_ci95(values: Sequence[float]) -> tuple:
    """Sample mean and half-width of the 95% confidence interval."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = _t95(n - 1) * math.sqrt(variance / n)
    return mean, half_width


def summarize(
    results: Iterable[RunResult],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Aggregate replications: one row per parameter combination.

    Runs sharing identical ``params`` (i.e. differing only in seed) are
    pooled; every numeric metric (or just ``metrics`` if given) is
    reported as ``<name>_mean`` and ``<name>_ci95``, plus an ``n_seeds``
    column.
    """
    groups: Dict[tuple, List[RunResult]] = {}
    for result in results:
        key = tuple(sorted(result.params.items(), key=lambda kv: kv[0]))
        groups.setdefault(key, []).append(result)

    rows: List[Dict[str, Any]] = []
    for key, members in groups.items():
        row: Dict[str, Any] = dict(key)
        row["n_seeds"] = len(members)
        names = metrics
        if names is None:
            names = [
                name
                for name, value in members[0].metrics.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ]
        for name in names:
            values = [
                float(m.metrics[name])
                for m in members
                if isinstance(m.metrics.get(name), (int, float))
            ]
            mean, ci = mean_ci95(values)
            row[f"{name}_mean"] = round(mean, 6)
            row[f"{name}_ci95"] = round(ci, 6)
        rows.append(row)
    return rows


def export_json(
    results: Sequence[RunResult],
    path: str,
    spec: Optional[SweepSpec] = None,
    adaptive: Optional[AdaptiveResult] = None,
) -> None:
    """Write results (and optionally the generating spec) as one JSON document.

    ``adaptive`` embeds an adaptive sweep's convergence report (policy,
    per-point status incl. ``unconverged``, executed-vs-fixed budget) as
    an ``"adaptive"`` block next to the results.
    """
    document: Dict[str, Any] = {"results": [r.to_dict() for r in results]}
    if spec is not None:
        document["spec"] = {
            "name": spec.name,
            "description": spec.description,
            "duration": spec.duration,
            "seeds": list(spec.seeds),
            "grid": {axis: [_canonical(v) for v in values] for axis, values in spec.grid.items()},
            "base": canonical_config(spec.base),
        }
    if adaptive is not None:
        document["adaptive"] = adaptive.to_dict()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)


def load_json(path: str) -> List[RunResult]:
    """Inverse of :func:`export_json` (the spec block, if present, is ignored)."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    return [RunResult.from_dict(d) for d in document["results"]]


def export_csv(results: Sequence[RunResult], path: str) -> None:
    """Write one CSV row per run: params, seed, then every metric column."""
    rows = [r.row() for r in results]
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def load_csv(path: str) -> List[Dict[str, str]]:
    """Read a CSV written by :func:`export_csv` back as a list of dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
