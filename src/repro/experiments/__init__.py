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
  mean +/- 95% CI summaries.  One loop runs every sweep in rounds: a
  fixed seed list is one round (:func:`run_sweep`), and an
  :class:`AdaptiveCI` replication policy adds rounds that grow each
  grid point's seed set until a target CI half-width is met
  (:func:`run_sweep_adaptive`).
* :mod:`repro.experiments.executors` -- the run-execution backends
  behind that loop, one batch per round: in-process ``serial`` and the
  default ``process`` pool; the backend choice never enters cache keys,
  so results are byte-identical across executors.
* :mod:`repro.experiments.specs` -- the registry of named sweeps (the
  benchmark grids E2/E3/E5/E6/E7/E8/A1/A2, the example scenarios, a
  smoke sweep) plus their registered hooks and collectors.
* :mod:`repro.experiments.stores` -- the result cache: a directory of
  ``<cache-key>.json`` run records, read through one batch scan and
  written atomically; :func:`merge_caches` folds shard caches together.
* ``python -m repro.experiments`` -- CLI over the registry:
  ``list`` / ``run`` / ``resume`` / ``export`` / ``merge`` /
  ``protocols`` (registered components + spec-coverage check), with
  ``--shard I/N`` splitting a grid across share-nothing jobs (the way
  to spread a sweep over several machines) and ``--executor NAME``
  picking the execution backend.

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
from repro.experiments.runner import run_scenario, ExperimentResult
from repro.experiments.executors import (
    DEFAULT_EXECUTOR,
    EXECUTORS,
    Executor,
    make_executor,
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
    execute_run,
    parse_shard,
    shard_runs,
    shard_points,
    merge_caches,
    validate_runs,
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
from repro.experiments.stores import JsonStore, ResultStore
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
    "ExperimentResult",
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
    "execute_run",
    "DEFAULT_EXECUTOR",
    "EXECUTORS",
    "Executor",
    "make_executor",
    "parse_shard",
    "shard_runs",
    "shard_points",
    "merge_caches",
    "validate_runs",
    "ResultStore",
    "JsonStore",
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
