"""In-process scenario execution.

:func:`run_scenario` builds, runs and measures a single scenario with
full access to the live objects (``before_run`` / ``during_run`` hooks,
the scenario itself on the result).  It is the executor the parallel
orchestrator (:mod:`repro.experiments.orchestrator`) invokes inside each
worker; use it directly when an experiment needs imperative control --
for grids of runs, declare a
:class:`~repro.experiments.orchestrator.SweepSpec` and call
:func:`~repro.experiments.orchestrator.run_sweep` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments.scenarios import BuiltScenario, ScenarioConfig, build_scenario
from repro.metrics.collectors import MetricsReport, collect_metrics


@dataclass
class ExperimentResult:
    """One scenario run: the report plus the scenario it came from."""

    config: ScenarioConfig
    report: MetricsReport
    scenario: BuiltScenario


def run_scenario(
    config: ScenarioConfig,
    duration: float = 120.0,
    before_run: Optional[Callable[[BuiltScenario], None]] = None,
    during_run: Optional[Callable[[BuiltScenario], None]] = None,
) -> ExperimentResult:
    """Build, run and measure one scenario.

    ``before_run`` is called after the scenario is built but before the
    simulation starts (e.g. to register QoS requirements); ``during_run``
    is called halfway through the run (e.g. to inject failures) -- the run
    is split into two halves around it.  The mobility model is part of the
    config (``ScenarioConfig.mobility``, a registered name), not a
    side-channel argument, so the orchestrator's cache key captures it.
    """
    scenario = build_scenario(config)
    if before_run is not None:
        before_run(scenario)
    scenario.start()
    if during_run is not None:
        scenario.network.simulator.run(duration / 2.0)
        during_run(scenario)
        scenario.network.simulator.run(duration / 2.0)
    else:
        scenario.network.simulator.run(duration)
    report = collect_metrics(
        scenario.network,
        protocol=config.protocol,
        duration=duration,
        backbone_nodes=scenario.backbone_nodes(),
        protocol_stats=scenario.protocol_stats(),
    )
    return ExperimentResult(config=config, report=report, scenario=scenario)
