"""Experiment harness (System S10).

* :mod:`repro.experiments.scenarios` -- :class:`ScenarioConfig` (a core
  section, registered component names for protocol/radio/mac/mobility,
  and typed per-protocol sections addressed by dotted grid axes like
  ``hvdb.dimension``) and :func:`build_scenario`, which resolves every
  name through :mod:`repro.registry` and assembles a complete simulated
  network for any registered
  :class:`~repro.simulation.stack.ProtocolStack`.
* :mod:`repro.experiments.runner` -- run one scenario in-process and
  collect a :class:`~repro.metrics.collectors.MetricsReport`; the
  executor the orchestrator's workers invoke.
* :mod:`repro.experiments.orchestrator` -- the parallel sweep engine:
  declarative :class:`SweepSpec` grids expanded into seeded runs, fanned
  out over ``multiprocessing`` workers, cached on disk by content hash,
  aggregated into :class:`RunResult` records with CSV/JSON export and
  mean +/- 95% CI summaries; :class:`AdaptiveCI` replication policies
  grow each grid point's seed set until a target CI half-width is met
  (:func:`run_sweep_adaptive`).
* :mod:`repro.experiments.executors` -- registry-driven run-execution
  backends behind :func:`run_sweep`: in-process ``serial`` and the
  default ``process`` pool; the backend choice never enters cache keys,
  so results are byte-identical across executors.
* :mod:`repro.experiments.net` -- the networked ``tcp`` executor, the
  one way to spread a sweep over several machines: a driver-side
  :class:`Coordinator` leases runs over length-prefixed, versioned
  protocol frames to workers on any reachable machine (``python -m
  repro.experiments worker --connect HOST:PORT``), with heartbeats,
  stale-lease reclaim and streamed results.  The lease state machine
  lives in :mod:`repro.experiments.leases`.
* :mod:`repro.experiments.specs` -- the registry of named sweeps (the
  benchmark grids E2/E3/E5/E6/E7/E8/A1/A2, the example scenarios, a
  smoke sweep) plus their registered hooks and collectors.
* :mod:`repro.experiments.stores` -- registry-driven *result-store
  backends* behind every cache path: the default ``json``
  directory-of-files layout and a single-file columnar ``sqlite`` store
  (WAL, concurrent-writer safe).  Everywhere a cache path is accepted,
  a store spec like ``sqlite:results.db`` picks the backend; like the
  executor, the store never enters cache keys, so artifacts are
  byte-identical across backends and caches migrate freely
  (:func:`merge_caches`).
* :mod:`repro.experiments.perf` -- wall-time perf-regression tracking:
  compare the per-run wall times of two result sets (result stores,
  exported artifacts, or cache generations) point by point, and append
  per-point medians to a JSONL *trend* history judged against the
  trailing median of the last few entries (:func:`check_trend`).
* ``python -m repro.experiments`` -- CLI over the registry:
  ``list`` / ``run`` / ``resume`` / ``export`` / ``merge`` /
  ``migrate`` / ``perf`` /
  ``protocols`` (registered components + spec-coverage check) /
  ``executors`` (registered backends) / ``stores`` (registered result
  stores) / ``worker`` (attach to a tcp coordinator with
  ``--connect``), with ``--shard I/N`` splitting a grid across
  share-nothing CI jobs, ``--executor NAME`` picking the execution
  backend and ``--store NAME`` the persistence backend.

Minimal single run::

    from repro.experiments import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(protocol="hvdb", n_nodes=80), duration=90.0)
    print(result.report.delivery.delivery_ratio)

Parallel, cached sweep::

    from repro.experiments import SweepSpec, run_sweep, summarize

    spec = SweepSpec(
        name="demo",
        base=ScenarioConfig(protocol="flooding", area_size=900.0),
        grid={"n_nodes": [30, 60], "group_size": [5, 10]},
        seeds=(1, 2, 3),
        duration=60.0,
    )
    results = run_sweep(spec, workers=4, cache_dir=".repro-cache")
    rows = summarize(results)          # one row per grid point, mean ± CI
"""

from repro.experiments.scenarios import (
    ScenarioConfig,
    BuiltScenario,
    build_scenario,
    config_axis_names,
    PROTOCOLS,
)
from repro.experiments.runner import run_scenario, sweep, ExperimentResult, results_table
from repro.experiments.executors import (
    DEFAULT_EXECUTOR,
    EXECUTORS,
    Executor,
    WorkerTaskError,
    available_executors,
    make_executor,
    register_executor,
)
from repro.experiments.leases import (
    DEFAULT_STALE_AFTER,
    ExecutorStats,
    LeaseTable,
)
from repro.experiments.net import (
    PROTOCOL_VERSION,
    Coordinator,
    NetWorkerError,
    ProtocolError,
    TcpExecutor,
    run_net_worker,
)
from repro.experiments.orchestrator import (
    SweepSpec,
    SweepError,
    SpecError,
    RunSpec,
    RunResult,
    AdaptiveCI,
    AdaptiveResult,
    PointConvergence,
    GridPoint,
    expand_spec,
    expand_points,
    point_run,
    adaptive_seed_sequence,
    run_sweep,
    run_sweep_adaptive,
    load_adaptive_results,
    execute_run,
    parse_shard,
    shard_runs,
    shard_points,
    merge_caches,
    validate_runs,
    load_cached_results,
    summarize,
    mean_ci95,
    export_csv,
    export_json,
    load_csv,
    load_json,
    register_collector,
    register_hook,
)
from repro.registry import (
    register_mac,
    register_mobility,
    register_protocol,
    register_radio,
)
from repro.simulation.stack import AgentStack, ProtocolStack
from repro.experiments.perf import (
    DEFAULT_TREND_WINDOW,
    PerfReport,
    PointComparison,
    TrendEntry,
    TrendPoint,
    TrendReport,
    append_trend,
    check_trend,
    compare_wall_times,
    load_results,
    load_trend,
    mann_whitney_p,
    trend_entry,
    wall_time_groups,
)
from repro.experiments.stores import (
    DEFAULT_STORE,
    STORES,
    JsonStore,
    ResultStore,
    SqliteStore,
    StoreError,
    available_stores,
    make_store,
    parse_store_spec,
    register_store,
    store_exists,
)
from repro.experiments.specs import (
    SPECS,
    available_specs,
    get_spec,
    register_spec,
)

__all__ = [
    "ScenarioConfig",
    "BuiltScenario",
    "build_scenario",
    "config_axis_names",
    "PROTOCOLS",
    "ProtocolStack",
    "AgentStack",
    "run_scenario",
    "sweep",
    "ExperimentResult",
    "results_table",
    "SweepSpec",
    "SweepError",
    "SpecError",
    "RunSpec",
    "RunResult",
    "AdaptiveCI",
    "AdaptiveResult",
    "PointConvergence",
    "GridPoint",
    "expand_spec",
    "expand_points",
    "point_run",
    "adaptive_seed_sequence",
    "run_sweep",
    "run_sweep_adaptive",
    "load_adaptive_results",
    "execute_run",
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "Executor",
    "WorkerTaskError",
    "available_executors",
    "make_executor",
    "register_executor",
    "DEFAULT_STALE_AFTER",
    "ExecutorStats",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "Coordinator",
    "NetWorkerError",
    "ProtocolError",
    "TcpExecutor",
    "run_net_worker",
    "parse_shard",
    "shard_runs",
    "shard_points",
    "merge_caches",
    "validate_runs",
    "load_cached_results",
    "PerfReport",
    "PointComparison",
    "compare_wall_times",
    "load_results",
    "mann_whitney_p",
    "wall_time_groups",
    "DEFAULT_TREND_WINDOW",
    "TrendEntry",
    "TrendPoint",
    "TrendReport",
    "trend_entry",
    "append_trend",
    "load_trend",
    "check_trend",
    "DEFAULT_STORE",
    "STORES",
    "ResultStore",
    "JsonStore",
    "SqliteStore",
    "StoreError",
    "register_store",
    "make_store",
    "store_exists",
    "parse_store_spec",
    "available_stores",
    "summarize",
    "mean_ci95",
    "export_csv",
    "export_json",
    "load_csv",
    "load_json",
    "register_collector",
    "register_hook",
    "register_protocol",
    "register_radio",
    "register_mac",
    "register_mobility",
    "SPECS",
    "available_specs",
    "get_spec",
    "register_spec",
]
