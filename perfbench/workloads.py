"""The benchmark's workloads: inputs made from the seed, timed operations, checks.

``hvdb_200`` and ``flood_200`` are the 200-node point of the registered
``e2_scalability`` grid, run in-process with the calls
``runner.run_scenario`` makes.  ``sweep_phy_smoke`` is the registered
``phy_smoke`` grid over a seed list, driven through
``orchestrator.run_sweep`` on the ``process`` executor and a fresh
``json`` store, then replayed warm and exported.

Every call into ``repro`` goes through its module
(``scenarios.build_scenario``, not an imported name), so a traced run
reaches the wrapped versions.  The checks compare against
``reference.json``, written by ``runner.run_scenario`` and
``run_sweep``: simulated statistics must not change, whatever a later
change makes faster.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.flooding import FloodingStack
from repro.core.protocol import HVDBStack
from repro.experiments import orchestrator, runner, scenarios
from repro.experiments.specs import get_spec
from repro.experiments.stores import JsonStore
from repro.metrics import collectors
from repro.unicast.router import GEO_PROTOCOL

SIM_WORKLOADS = {"hvdb_200": "hvdb", "flood_200": "flooding"}
SWEEP_WORKLOAD = "sweep_phy_smoke"
WORKLOADS = (*SIM_WORKLOADS, SWEEP_WORKLOAD)

#: scenario seed of the sim workloads, whatever the benchmark seed: the
#: seed e2_scalability registers.  Other scenario seeds move the 200-node
#: HVDB run between 79k and 115k frames, which would swamp the
#: run-to-run spread the benchmark's bounds are set from.
SIM_SEED = 7
#: slices of simulated time a sim operation is timed in (see ``execute``)
SIM_SLICES = 9
#: the sweep runs phy_smoke over SWEEP_SEEDS consecutive seeds, from one
#: of SWEEP_SEED_LISTS fixed starting points the benchmark seed picks
SWEEP_SEED_LISTS = 8
SWEEP_SEEDS = 10
SWEEP_WORKERS = 2

HVDB_STATS = (
    "local_membership_sent", "mnt_summaries_sent", "ht_summaries_broadcast",
    "route_beacons_sent", "data_originated", "data_forwarded_mesh",
    "data_forwarded_cube", "data_delivered_local", "failovers", "qos_rejections",
)


def row_text(row: Dict[str, Any]) -> str:
    # JSON text rather than dict equality: key order is part of the
    # artifact (it becomes the CSV column order), and NaN must match NaN
    return json.dumps(row)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# hvdb_200 / flood_200
# ---------------------------------------------------------------------------


def e2_point(protocol: str, seed: int) -> orchestrator.RunSpec:
    """The 200-node ``protocol`` run of ``e2_scalability`` at ``seed``."""
    spec = dataclasses.replace(get_spec("e2_scalability"), seeds=(seed,))
    for run in orchestrator.expand_spec(spec):
        if run.params["n_nodes"] == 200 and run.params["protocol"] == protocol:
            return run
    raise LookupError(f"e2_scalability has no 200-node {protocol} run")


def report_of(scenario: scenarios.BuiltScenario, duration: float) -> collectors.MetricsReport:
    """A finished scenario's report, as run_scenario's last step makes it."""
    return collectors.collect_metrics(
        scenario.network,
        protocol=scenario.config.protocol,
        duration=duration,
        backbone_nodes=scenario.backbone_nodes(),
        protocol_stats=scenario.protocol_stats(),
    )


def sim_counters(scenario: Any) -> Dict[str, float]:
    """Exact counters of a finished run; they repeat exactly run to run."""
    network = scenario.network
    stats = network.stats
    geo = [
        node.agent(GEO_PROTOCOL)
        for node in network.nodes.values()
        if node.has_agent(GEO_PROTOCOL)
    ]
    sent = sum(agent.sent for agent in geo)
    # every send and every forward makes one next-hop decision
    hops = sent + sum(agent.forwarded for agent in geo)
    counters: Dict[str, float] = {
        "engine.events": network.simulator.processed_events,
        "network.frames": stats.transmissions,
        "network.receptions": stats.receptions,
        "network.rx_per_frame": ratio(stats.receptions, stats.transmissions),
        "network.drops_loss": stats.drops_loss,
        "network.drops_out_of_range": stats.drops_out_of_range,
        "network.drops_ttl": stats.drops_ttl,
        "network.drops_duty_cycle": stats.drops_duty_cycle,
        "network.airtime": stats.airtime_seconds,
        "unicast.sends": sent,
        "unicast.hops": hops,
        "unicast.hops_per_send": ratio(hops, sent),
        "unicast.delivered_frac": ratio(sum(agent.delivered for agent in geo), sent),
        "unicast.no_route": sum(agent.dropped_no_route for agent in geo),
        "core.ctrl_frames": stats.control_transmissions,
    }
    protocol = scenario.protocol_stats()
    if isinstance(scenario.stack, HVDBStack):
        counters.update({f"core.{name}": protocol[name] for name in HVDB_STATS})
        counters["core.model_rebuilds"] = protocol["model_rebuilds"]
        counters["clustering.head_changes"] = protocol["cluster_head_changes"]
    if isinstance(scenario.stack, FloodingStack):
        # every reception reaches one flooding agent, which re-broadcasts
        # only the first copy of each packet
        counters["flooding.dup_frac"] = 1.0 - ratio(protocol["rebroadcasts"], stats.receptions)
    return counters


class SimWorkload:
    """One scenario run per operation, checked against a reference row."""

    def __init__(
        self, name: str, run: orchestrator.RunSpec, expected: Optional[Dict[str, Any]]
    ) -> None:
        self.name = name
        self.run = run
        self.expected = row_text(expected) if expected is not None else None

    def setup_seconds(self) -> float:
        """One set-up: build the scenario and start its stack."""
        started = time.perf_counter()
        scenarios.build_scenario(self.run.config).start()
        return time.perf_counter() - started

    def execute(self) -> Tuple[runner.ExperimentResult, List[float]]:
        """One run, from build through metrics, and the seconds of each slice.

        The calls ``runner.run_scenario`` makes, with the simulator run
        in :data:`SIM_SLICES` equal steps of simulated time; the slices
        are build and start, each step, and the metrics.  Consecutive
        ``run`` calls process the same events in the same order as one
        (the reference check holds the rows to run_scenario's).
        """
        config, duration = self.run.config, self.run.duration
        marks = [time.perf_counter()]
        scenario = scenarios.build_scenario(config)
        scenario.start()
        marks.append(time.perf_counter())
        for _ in range(SIM_SLICES):
            scenario.network.simulator.run(duration / SIM_SLICES)
            marks.append(time.perf_counter())
        report = report_of(scenario, duration)
        marks.append(time.perf_counter())
        result = runner.ExperimentResult(config=config, report=report, scenario=scenario)
        return result, [end - start for start, end in zip(marks, marks[1:])]

    def check(self, row: Dict[str, Any]) -> Optional[str]:
        if row_text(row) != self.expected:
            return (
                f"{self.name}: simulated statistics differ from the reference "
                f"(scenario seed {self.run.seed})"
            )
        return None


def sim_workload(name: str, reference: Dict) -> SimWorkload:
    """The E2 200-node workload ``name``, checked against ``reference``."""
    run = e2_point(SIM_WORKLOADS[name], SIM_SEED)
    return SimWorkload(name, run, reference[name][str(SIM_SEED)])


# ---------------------------------------------------------------------------
# sweep_phy_smoke
# ---------------------------------------------------------------------------


def sweep_spec(bench_seed: int) -> orchestrator.SweepSpec:
    first = 100 + SWEEP_SEEDS * (bench_seed % SWEEP_SEED_LISTS)
    return dataclasses.replace(
        get_spec("phy_smoke"), seeds=tuple(range(first, first + SWEEP_SEEDS))
    )


@dataclasses.dataclass
class Replay:
    """One warm replay: its results, exported CSV, time and store lookups."""

    results: List[orchestrator.RunResult]
    csv_path: str
    wall_s: float
    hits: int
    misses: int


class SweepWorkload:
    """A cold sweep into a fresh store, then warm replays with export."""

    def __init__(
        self, spec: orchestrator.SweepSpec, expected: Optional[str], workdir: str
    ) -> None:
        self.spec = spec
        self.expected = expected     #: sha256 of the exported CSV
        self.workdir = workdir
        self._stores = 0

    def open_store(self) -> Tuple[JsonStore, List[orchestrator.RunSpec], float]:
        """One set-up: expand and validate the grid, open a fresh store."""
        self._stores += 1
        directory = os.path.join(self.workdir, f"store-{self._stores}")
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        runs = orchestrator.expand_spec(self.spec)
        orchestrator.validate_runs(runs)
        store = JsonStore(directory)
        return store, runs, time.perf_counter() - started

    def close_store(self, store: JsonStore) -> None:
        store.close()
        shutil.rmtree(store.directory, ignore_errors=True)

    def _sweep(self, store: JsonStore) -> List[orchestrator.RunResult]:
        return orchestrator.run_sweep(
            self.spec, workers=SWEEP_WORKERS, cache_dir=store, executor="process"
        )

    def cold(self, store: JsonStore) -> Tuple[List[orchestrator.RunResult], float]:
        """The timed cold sweep: every run executes and is recorded."""
        started = time.perf_counter()
        results = self._sweep(store)
        return results, time.perf_counter() - started

    def replay(self, store: JsonStore) -> Replay:
        """The timed warm replay: the sweep again, then JSON and CSV export."""
        out = os.path.join(self.workdir, "artifacts")
        csv_path = os.path.join(out, f"{self.spec.name}.csv")
        hits, misses = store.hits, store.misses
        started = time.perf_counter()
        results = self._sweep(store)
        orchestrator.export_json(results, os.path.join(out, f"{self.spec.name}.json"), spec=self.spec)
        orchestrator.export_csv(results, csv_path)
        wall = time.perf_counter() - started
        return Replay(results, csv_path, wall, store.hits - hits, store.misses - misses)

    def check_csv(self, csv_path: str) -> Optional[str]:
        if file_digest(csv_path) != self.expected:
            return (
                f"{SWEEP_WORKLOAD}: exported CSV differs from the reference "
                f"(seeds {self.spec.seeds[0]}..{self.spec.seeds[-1]})"
            )
        return None

    def check_cold(self, results: List[orchestrator.RunResult]) -> Optional[str]:
        """Export the cold results outside the timed region and check them."""
        csv_path = os.path.join(self.workdir, "cold", f"{self.spec.name}.csv")
        orchestrator.export_csv(results, csv_path)
        return self.check_csv(csv_path)

    def check_warm(self, replay: Replay) -> Optional[str]:
        executed = sum(1 for result in replay.results if not result.from_cache)
        if executed or replay.misses or replay.hits != len(replay.results):
            return (
                f"{SWEEP_WORKLOAD}: warm replay executed {executed} run(s) "
                f"({replay.misses} store miss(es)); a warm replay must execute none"
            )
        return self.check_csv(replay.csv_path)


def sweep_workload(bench_seed: int, reference: Dict, workdir: str) -> SweepWorkload:
    """The phy_smoke sweep over the seed list ``bench_seed`` picks."""
    index = str(bench_seed % SWEEP_SEED_LISTS)
    return SweepWorkload(
        sweep_spec(bench_seed), reference[SWEEP_WORKLOAD][index]["csv_sha256"], workdir
    )


def pickle_bytes(runs: List[orchestrator.RunSpec], results: List[orchestrator.RunResult]) -> int:
    """Bytes the process pool pickles: each run out, each result back."""
    return sum(len(pickle.dumps(run)) for run in runs) + sum(
        len(pickle.dumps(result)) for result in results
    )
