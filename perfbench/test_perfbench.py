"""Tests of the benchmark's own machinery.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import orchestrator, runner  # noqa: E402
from repro.experiments.scenarios import ScenarioConfig  # noqa: E402
from repro.experiments.specs import get_spec  # noqa: E402
from repro.experiments.stores import ResultStore  # noqa: E402
from repro.simulation.engine import Simulator  # noqa: E402
from tracer import Tracer, is_traced, self_times, totals_by_name  # noqa: E402

#: a seconds-long HVDB scenario that reaches every wrapped sim layer
TINY_HVDB = ScenarioConfig(
    protocol="hvdb", n_nodes=40, area_size=900.0, max_speed=4.0, group_size=6,
    traffic_start=4.0, seed=3,
)
TINY_FLOOD = dataclasses.replace(TINY_HVDB, protocol="flooding")
TINY_SECONDS = 12.0


class ScriptedClock:
    def __init__(self, *times: float) -> None:
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4], which holds b [2, 3]; root also holds c [5, 9]
    tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    with tracer.span("x.root"):
        with tracer.span("y.a"):
            with tracer.span("y.b"):
                pass
        with tracer.span("z.c"):
            pass
    assert list(tracer.parents) == [-1, 0, 1, 0]
    assert list(self_times(tracer)) == [3.0, 2.0, 1.0, 4.0]
    totals = totals_by_name(tracer)
    assert (totals["y.a"].count, totals["y.a"].self_s, totals["y.a"].total_s) == (1, 2.0, 3.0)
    assert sum(entry.self_s for entry in totals.values()) == 10.0


def test_wrapped_calls_nest_like_spans():
    tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 3.0, 6.0))
    inner = tracer.wrap(lambda: "done", "l.inner")
    outer = tracer.wrap(lambda: inner(), "l.outer")
    assert outer() == "done"
    assert tracer.names == ["l.inner", "l.outer"]
    assert list(tracer.parents) == [-1, 0]
    assert list(self_times(tracer)) == [4.0, 2.0]


def wrapped_attributes():
    """Every attribute ``layers.install`` replaces, as currently bound."""
    found = {}
    for module_name, attr, _span in layers.SPANS:
        owner, name = layers._owner(module_name, attr)
        found[attr] = vars(owner)[name]
    found["Simulator.schedule"] = vars(Simulator)["schedule"]
    found["Simulator.schedule_at"] = vars(Simulator)["schedule_at"]
    found["ResultStore.scan"] = vars(ResultStore)["scan"]
    return found


def tiny_workload(config: ScenarioConfig, expected=None) -> workloads.SimWorkload:
    run_spec = orchestrator.RunSpec(run_id="tiny", config=config, duration=TINY_SECONDS, seed=3)
    return workloads.SimWorkload("tiny", run_spec, expected)


def test_sliced_operation_matches_run_scenario():
    reference = runner.run_scenario(TINY_HVDB, TINY_SECONDS).report.flat_row()
    result, slices = tiny_workload(TINY_HVDB, reference).execute()
    assert tiny_workload(TINY_HVDB, reference).check(result.report.flat_row()) is None
    assert len(slices) == workloads.SIM_SLICES + 2


def test_wrappers_are_removed_after_a_traced_run():
    workload = tiny_workload(TINY_HVDB)
    before = wrapped_attributes()
    untraced = workload.execute()[0].report.flat_row()
    tracer = Tracer()
    with layers.install(tracer), tracer.span("bench.run"):
        assert all(is_traced(fn) for fn in wrapped_attributes().values())
        traced = workload.execute()[0].report.flat_row()
    assert wrapped_attributes() == before
    spans = len(tracer)
    again = workload.execute()[0].report.flat_row()
    assert len(tracer) == spans, "an untraced run after the traced one recorded spans"
    assert workloads.row_text(traced) == workloads.row_text(untraced) == workloads.row_text(again)

    figures = layers.span_metrics(totals_by_name(tracer))
    for metric in ("engine.self_s", "network.transmit_self_s", "unicast.self_s",
                   "core.rx_self_s", "clustering.self_s", "packet.copy_s",
                   "scenarios.build_s", "metrics.collect_s"):
        assert figures[metric] > 0, metric
    assert figures["flooding.self_s"] == 0
    assert figures["orchestrator.self_s"] == figures["stores.put_s"] == 0


def transmit_is_traced(_ignored: int) -> bool:
    from repro.simulation.network import Network

    return is_traced(Network.transmit)


def test_forked_workers_run_untraced_code():
    with layers.install(Tracer()):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.map(transmit_is_traced, [0]) == [False]
        assert transmit_is_traced(0)


def test_a_perturbed_reference_value_is_reported_as_a_failure(monkeypatch):
    monkeypatch.setattr(run, "import_seconds", lambda: [0.0])
    row = runner.run_scenario(TINY_FLOOD, TINY_SECONDS).report.flat_row()

    tally = run.Tally()
    run.measure_sim(tiny_workload(TINY_FLOOD, row), 0.0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    perturbed = dict(row, pdr=row["pdr"] + 1e-9)
    tally = run.Tally()
    metrics = run.measure_sim(tiny_workload(TINY_FLOOD, perturbed), 0.0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert metrics["wall_s"][0] > 0


def test_a_warm_replay_that_executes_a_run_is_reported_as_a_failure(tmp_path):
    spec = dataclasses.replace(get_spec("phy_smoke"), seeds=(9,))
    sweep = workloads.SweepWorkload(spec, None, str(tmp_path))
    store, runs, _setup = sweep.open_store()
    results, _wall = sweep.cold(store)
    reference_csv = str(tmp_path / "reference.csv")
    orchestrator.export_csv(results, reference_csv)
    sweep.expected = workloads.file_digest(reference_csv)
    assert sweep.check_cold(results) is None

    assert sweep.check_warm(sweep.replay(store)) is None

    store.delete(runs[0].cache_key())
    problem = sweep.check_warm(sweep.replay(store))
    assert problem is not None and "executed 1 run" in problem
    sweep.close_store(store)


def test_benchmark_json_names_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(layers.PER_LAYER)
