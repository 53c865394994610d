"""Tests of the parallel sweep orchestrator.

Covers the guarantees the experiment substrate rests on: grid expansion,
deterministic per-run seeding (same spec + seed => identical results),
cache hit/miss behaviour, CSV/JSON export round-trips, aggregation, and
the ``python -m repro.experiments`` CLI.
"""

import collections
import copy
import dataclasses
import enum
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dsm import DsmConfig
from repro.baselines.sgm import SgmConfig
from repro.baselines.spbm import SpbmConfig
from repro.core.membership import BroadcasterCriterion
from repro.core.protocol import HVDBConfig, HVDBParameters
from repro.core.qos import QoSRequirement
from repro.experiments.orchestrator import (
    AdaptiveCI,
    AdaptiveResult,
    PointConvergence,
    RunResult,
    RunSpec,
    SweepError,
    SweepSpec,
    _canonical,
    canonical_config,
    register_collector,
    execute_run,
    expand_spec,
    export_csv,
    export_json,
    load_cached_results,
    load_csv,
    load_json,
    mean_ci95,
    run_sweep,
    shard_runs,
    summarize,
)
from repro.experiments.scenarios import PHY_SECTIONS, ScenarioConfig
from repro.experiments.specs import available_specs
from repro.experiments.stores import JsonStore
from repro.simulation.phy import CsmaCaMacConfig, SinrRadioConfig


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


class TestExpansion:
    def test_cross_product_of_axes_and_seeds(self):
        spec = tiny_spec(grid={"n_nodes": [10, 14], "group_size": [3, 5]}, seeds=(1, 2, 3))
        runs = spec.expand()
        assert len(runs) == spec.run_count == 2 * 2 * 3
        combos = {(r.config.n_nodes, r.config.group_size, r.seed) for r in runs}
        assert len(combos) == 12

    def test_seed_applied_to_config(self):
        runs = expand_spec(tiny_spec(seeds=(5, 9)))
        assert {r.config.seed for r in runs} == {5, 9}
        for run in runs:
            assert run.seed == run.config.seed

    def test_dict_axis_overrides_coupled_fields(self):
        spec = tiny_spec(
            grid={"n_nodes": [{"n_nodes": 10, "area_size": 400.0}]}, seeds=(1,)
        )
        (run,) = expand_spec(spec)
        assert run.config.n_nodes == 10
        assert run.config.area_size == 400.0
        assert run.params == {"n_nodes": 10, "area_size": 400.0}

    def test_empty_grid_is_single_run_per_seed(self):
        spec = tiny_spec(grid={}, seeds=(1, 2))
        runs = expand_spec(spec)
        assert [r.seed for r in runs] == [1, 2]
        assert all(r.params == {} for r in runs)

    def test_run_ids_are_unique_and_stable(self):
        runs = expand_spec(tiny_spec())
        assert len({r.run_id for r in runs}) == len(runs)
        assert runs == expand_spec(tiny_spec())

    def test_seed_axis_replaces_replication_seeds(self):
        # sweeping the seed itself must not collide with spec.seeds
        runs = expand_spec(tiny_spec(grid={"seed": [3, 4]}, seeds=(1, 2)))
        assert [r.seed for r in runs] == [3, 4]
        assert [r.config.seed for r in runs] == [3, 4]
        assert len({r.run_id for r in runs}) == 2

    def test_run_count_counts_a_pinned_seed_once(self):
        seed_axis = tiny_spec(grid={"seed": [5, 6]}, seeds=(1, 2, 3))
        label_axis = tiny_spec(
            grid={"variant": [{"variant": "a", "seed": 4}, {"variant": "b"}]},
            seeds=(1, 2, 3),
        )
        for spec, runs in ((seed_axis, 2), (label_axis, 1 + 3)):
            assert spec.run_count == len(expand_spec(spec)) == runs

    def test_seed_axis_runs_in_process(self):
        from repro.experiments.runner import run_scenario

        spec = tiny_spec(grid={"seed": [1, 2]}, seeds=(1,), duration=8.0)
        results = [run_scenario(run.config, duration=run.duration) for run in expand_spec(spec)]
        assert [r.config.seed for r in results] == [1, 2]


class TestCacheKey:
    def test_same_inputs_same_key(self):
        a, b = expand_spec(tiny_spec())[0], expand_spec(tiny_spec())[0]
        assert a.cache_key() == b.cache_key()

    def test_key_ignores_sweep_name(self):
        a = expand_spec(tiny_spec())[0]
        b = expand_spec(tiny_spec(name="other"))[0]
        assert a.cache_key() == b.cache_key()

    def test_key_changes_with_config_seed_and_duration(self):
        base = expand_spec(tiny_spec())[0]
        keys = {
            base.cache_key(),
            expand_spec(tiny_spec(seeds=(3,)))[0].cache_key(),
            expand_spec(tiny_spec(duration=11.0))[0].cache_key(),
            expand_spec(tiny_spec(base=dataclasses.replace(tiny_spec().base, max_speed=3.0)))[
                0
            ].cache_key(),
        }
        assert len(keys) == 4


# A verbatim copy of the canonicaliser before it walked dataclass fields
# itself: ``dataclasses.asdict`` first, then the sort.  The field walk
# must give the same JSON text for every config, or cache keys move.


def reference_canonical(value):
    """Make a (possibly nested) config value deterministic and JSON-safe."""
    if isinstance(value, enum.Enum):
        return reference_canonical(value.value)
    if isinstance(value, dict):
        return {str(k): reference_canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [reference_canonical(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value):
        return reference_canonical(dataclasses.asdict(value))
    return repr(value)


def reference_canonical_config(config):
    data = reference_canonical(dataclasses.asdict(config))
    for section, selector in PHY_SECTIONS.items():
        if getattr(config, selector, None) != section:
            data.pop(section, None)
    return data


def text(value) -> str:
    """JSON text in insertion order: ``1``/``1.0``/``True`` and key order differ."""
    return json.dumps(value)


Pair = collections.namedtuple("Pair", "left right")

_QOS = st.builds(
    QoSRequirement,
    max_delay=st.floats(min_value=1e-3, allow_infinity=True),
    min_bandwidth=st.floats(min_value=0.0, max_value=1e9),
)

#: any value a config field or a swept parameter might hold
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(BroadcasterCriterion),
    _QOS,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.builds(Pair, inner, inner),
        st.dictionaries(st.one_of(st.integers(-5, 5), st.text(max_size=3)), inner, max_size=3),
    ),
    max_leaves=8,
)
_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=500),
    st.floats(allow_nan=False, allow_infinity=True),
    st.booleans(),
)
_HVDB = st.builds(
    HVDBConfig,
    vc_cols=_NUMBERS,
    dimension=_NUMBERS,
    clustering_interval=_NUMBERS,
    params=st.one_of(
        st.none(),
        st.builds(
            HVDBParameters,
            route_expiry=_NUMBERS,
            broadcaster_criterion=st.sampled_from(BroadcasterCriterion),
            max_logical_hops=_VALUES,
        ),
    ),
    qos_requirements=st.dictionaries(st.integers(min_value=0, max_value=20), _QOS, max_size=3),
)
_CONFIGS = st.builds(
    ScenarioConfig,
    protocol=st.sampled_from(["hvdb", "flooding", "dsm"]),
    radio=st.sampled_from(["unit_disk", "sinr", "other"]),
    mac=st.sampled_from(["csma", "csma_ca", "ideal"]),
    n_nodes=_NUMBERS,
    area_size=_NUMBERS,
    max_speed=_NUMBERS,
    seed=st.integers(min_value=0, max_value=2**31),
    group_size=_VALUES,
    traffic_start=_NUMBERS,
    hvdb=_HVDB,
    sgm=st.builds(SgmConfig, fanout=_VALUES),
    dsm=st.builds(DsmConfig, position_period=_NUMBERS),
    spbm=st.builds(SpbmConfig, levels=_NUMBERS),
    sinr=st.builds(SinrRadioConfig, capture_db=_NUMBERS, reference_loss_db=_VALUES),
    csma_ca=st.builds(CsmaCaMacConfig, cw_min=_NUMBERS, duty_cycle=_NUMBERS),
)


class TestCanonicalMatchesReference:
    def test_every_registered_run(self):
        runs = [run for spec in available_specs() for run in expand_spec(spec)]
        assert len(runs) > 300
        for run in runs:
            assert text(canonical_config(run.config)) == text(
                reference_canonical_config(run.config)
            ), run.run_id

    def test_every_registered_base_and_grid_value(self):
        for spec in available_specs():
            assert text(canonical_config(spec.base)) == text(
                reference_canonical_config(spec.base)
            ), spec.name
            for axis, values in spec.grid.items():
                for value in values:
                    assert text(_canonical(value)) == text(
                        reference_canonical(value)
                    ), (spec.name, axis)

    @settings(max_examples=200, deadline=None)
    @given(config=_CONFIGS)
    def test_drawn_configs(self, config):
        assert text(canonical_config(config)) == text(reference_canonical_config(config))

    @settings(max_examples=200, deadline=None)
    @given(value=_VALUES)
    def test_drawn_values(self, value):
        assert text(_canonical(value)) == text(reference_canonical(value))

    def test_dataclass_class_is_rejected(self):
        with pytest.raises(TypeError):
            reference_canonical(QoSRequirement)
        with pytest.raises(TypeError):
            _canonical(QoSRequirement)
        with pytest.raises(TypeError):
            _canonical({"section": HVDBParameters})


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=10,
)
_RESULTS = st.builds(
    RunResult,
    run_id=st.text(max_size=12),
    params=st.dictionaries(
        st.text(max_size=6),
        st.one_of(_JSON_LEAVES, _QOS),
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
    duration=st.floats(allow_nan=True, allow_infinity=True),
    metrics=st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=6),
    wall_time=st.floats(min_value=0.0, max_value=1e3),
    from_cache=st.booleans(),
    cache_key=st.text(alphabet="0123456789abcdef", max_size=64),
    adaptive_round=st.integers(min_value=0, max_value=9),
)


def poke(value) -> None:
    """Change every container inside ``value``, in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            poke(item)
        value["poked"] = True
    elif isinstance(value, list):
        for item in value:
            poke(item)
        value.append("poked")


class TestRecordMatchesAsdict:
    @settings(max_examples=200, deadline=None)
    @given(result=_RESULTS)
    def test_to_dict_text_equals_asdict(self, result):
        assert text(result.to_dict()) == text(dataclasses.asdict(result))
        # tuples stay tuples; a NaN is one shared object, so equal to itself
        assert result.to_dict() == dataclasses.asdict(result)

    @settings(max_examples=100, deadline=None)
    @given(result=_RESULTS)
    def test_changing_the_dict_leaves_the_result_unchanged(self, result):
        before = text(dataclasses.asdict(result))
        poke(result.to_dict())
        assert text(dataclasses.asdict(result)) == before

    def test_keys_are_the_field_names_in_order(self):
        result = RunResult(run_id="x", params={}, seed=1, duration=1.0, metrics={})
        assert list(result.to_dict()) == [f.name for f in dataclasses.fields(RunResult)]

    def test_adaptive_report_equals_asdict(self):
        policy = AdaptiveCI(target_half_width=0.05, metric="pdr", growth=1.5)
        point = PointConvergence(
            point="n_nodes=10",
            params={"n_nodes": 10, "variant": "fast"},
            n_seeds=4,
            rounds=2,
            mean=0.8,
            half_width=float("inf"),
            target=0.05,
            status="unconverged",
        )
        report = AdaptiveResult(sweep="s", policy=policy, points=[point]).to_dict()
        assert text(report["policy"]) == text(dataclasses.asdict(policy))
        assert text(report["points"]) == text([dataclasses.asdict(point)])
        report["points"][0]["params"]["n_nodes"] = 99
        assert point.params["n_nodes"] == 10


class TestDeterminism:
    def test_same_spec_same_results(self):
        first = run_sweep(tiny_spec(), workers=1)
        second = run_sweep(tiny_spec(), workers=1)
        assert [r.metrics for r in first] == [r.metrics for r in second]

    def test_workers_do_not_change_results(self):
        serial = run_sweep(tiny_spec(), workers=1)
        parallel = run_sweep(tiny_spec(), workers=2)
        assert [r.run_id for r in serial] == [r.run_id for r in parallel]
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]

    def test_different_seeds_differ(self):
        spec = tiny_spec(grid={}, seeds=(1, 2))
        a, b = run_sweep(spec, workers=1)
        assert a.metrics != b.metrics


class TestCache:
    def test_second_run_is_all_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(tiny_spec(), workers=1, cache_dir=cache_dir)
        assert all(not r.from_cache for r in first)
        second = run_sweep(tiny_spec(), workers=1, cache_dir=cache_dir)
        assert all(r.from_cache for r in second)
        assert [r.metrics for r in first] == [r.metrics for r in second]

    def test_partial_cache_executes_only_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(tiny_spec(seeds=(1,)), workers=1, cache_dir=cache_dir)
        results = run_sweep(tiny_spec(seeds=(1, 2)), workers=1, cache_dir=cache_dir)
        assert [r.from_cache for r in results] == [True, False, True, False]

    def test_force_reexecutes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(tiny_spec(), workers=1, cache_dir=cache_dir)
        forced = run_sweep(tiny_spec(), workers=1, cache_dir=cache_dir, force=True)
        assert all(not r.from_cache for r in forced)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(tiny_spec(seeds=(1,), grid={}), workers=1, cache_dir=cache_dir)
        (entry,) = [p for p in os.listdir(cache_dir) if p.endswith(".json")]
        with open(os.path.join(cache_dir, entry), "w") as fh:
            fh.write("{not json")
        results = run_sweep(tiny_spec(seeds=(1,), grid={}), workers=1, cache_dir=cache_dir)
        assert [r.from_cache for r in results] == [False]

    def test_cache_counts_hits_and_misses(self, tmp_path):
        cache = JsonStore(str(tmp_path / "c"))
        run = expand_spec(tiny_spec(seeds=(1,), grid={}))[0]
        key = run.cache_key()
        assert cache.get(key) is None
        result = execute_run(run)
        cache.put(key, result)
        assert cache.get(key).metrics == result.metrics
        assert (cache.hits, cache.misses) == (1, 1)

    def test_each_run_key_is_computed_once(self, tmp_path, monkeypatch):
        # the loop stamps the key it looked a run up by onto the result,
        # so a cold sweep does not hash a run's config a second time
        calls = []
        original = RunSpec.cache_key

        def counting(run):
            calls.append(run.run_id)
            return original(run)

        monkeypatch.setattr(RunSpec, "cache_key", counting)
        spec = tiny_spec(seeds=(1, 2), grid={})
        cache_dir = str(tmp_path / "cache")
        results = run_sweep(spec, cache_dir=cache_dir, executor="serial")
        assert len(calls) == 2
        monkeypatch.undo()

        keys = [run.cache_key() for run in expand_spec(spec)]
        assert [r.cache_key for r in results] == keys
        assert sorted(os.listdir(cache_dir)) == sorted(f"{key}.json" for key in keys)
        # without a cache every result still carries its key
        uncached = run_sweep(spec, executor="serial")
        assert [r.cache_key for r in uncached] == keys


class TestOneSweepLoop:
    """A seed list is one round of the sweep loop: exactly ``expand_spec``."""

    def test_runs_expand_spec_in_order_with_seed_and_label_axes(self):
        spec = tiny_spec(
            grid={
                "variant": [{"variant": "a"}, {"variant": "b", "group_size": 3}],
                "seed": [5, 6],
            },
            seeds=(1, 2, 3),
            duration=4.0,
        )
        expected = expand_spec(spec)
        results = run_sweep(spec, workers=1)
        assert [r.run_id for r in results] == [run.run_id for run in expected]
        assert [r.seed for r in results] == [5, 6, 5, 6]

    def test_a_shard_runs_its_slice_of_expand_spec(self, tmp_path):
        spec = tiny_spec(duration=4.0)
        runs = expand_spec(spec)
        cache_dir = str(tmp_path / "cache")
        for index in (1, 2, 3):
            results = run_sweep(spec, cache_dir=cache_dir, shard=(index, 3))
            assert [r.run_id for r in results] == [
                run.run_id for run in shard_runs(runs, index, 3)
            ]
            assert not any(r.from_cache for r in results)
        assert len(os.listdir(cache_dir)) == len(runs)

    def test_replication_policy_is_ignored(self):
        spec = tiny_spec(
            grid={},
            seeds=(2, 1, 2),
            duration=4.0,
            replication=AdaptiveCI(target_half_width=0.01, min_seeds=4, max_seeds=6),
        )
        results = run_sweep(spec, workers=1)
        assert [r.seed for r in results] == [2, 1, 2]
        assert [r.adaptive_round for r in results] == [0, 0, 0]

    def test_replay_keeps_every_cached_run_past_a_gap(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(tiny_spec(grid={}, seeds=(1, 3), duration=4.0), cache_dir=cache_dir)
        spec = tiny_spec(grid={}, seeds=(1, 2, 3), duration=4.0)
        results, missing = load_cached_results(spec, cache_dir)
        assert [r.seed for r in results] == [1, 3]
        assert all(r.from_cache for r in results)
        assert missing == [expand_spec(spec)[1].run_id]


class TestExport:
    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec()
        results = run_sweep(spec, workers=1)
        path = str(tmp_path / "out.json")
        export_json(results, path, spec=spec)
        loaded = load_json(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]

    def test_csv_round_trip(self, tmp_path):
        results = run_sweep(tiny_spec(), workers=1)
        path = str(tmp_path / "out.csv")
        export_csv(results, path)
        rows = load_csv(path)
        assert len(rows) == len(results)
        for row, result in zip(rows, results):
            assert int(row["seed"]) == result.seed
            assert int(row["n_nodes"]) == result.params["n_nodes"]
            assert float(row["pdr"]) == pytest.approx(result.metrics["pdr"])

    def test_row_puts_params_first(self):
        result = RunResult(
            run_id="x", params={"n_nodes": 5}, seed=1, duration=1.0,
            metrics={"pdr": 0.5, "n_nodes": 999},
        )
        row = result.row()
        assert list(row)[:2] == ["n_nodes", "seed"]
        assert row["n_nodes"] == 5  # the swept value wins over a metric collision


class TestAggregation:
    def test_mean_ci95(self):
        mean, ci = mean_ci95([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert ci == pytest.approx(4.303 * 1.0 / 3**0.5, rel=1e-3)
        assert mean_ci95([5.0]) == (5.0, 0.0)
        assert mean_ci95([]) == (0.0, 0.0)

    def test_t95_critical_values(self):
        from repro.experiments.orchestrator import _t95

        # no degrees of freedom -> no half-width contribution at all
        assert _t95(0) == 0.0
        assert _t95(-3) == 0.0
        # the tabulated Student-t endpoints, then the normal approximation
        assert _t95(1) == pytest.approx(12.706)
        assert _t95(30) == pytest.approx(2.042)
        assert _t95(31) == pytest.approx(1.96)
        assert _t95(10_000) == pytest.approx(1.96)

    def test_mean_ci95_single_sample_has_no_half_width(self):
        # n=1: the mean is the sample, the CI half-width is undefined --
        # reported as 0.0, which is why adaptive policies require
        # min_seeds >= 2 before trusting a convergence test
        assert mean_ci95([7.25]) == (7.25, 0.0)

    def test_mean_ci95_zero_variance(self):
        mean, ci = mean_ci95([0.4, 0.4, 0.4, 0.4])
        assert mean == pytest.approx(0.4)
        assert ci == 0.0

    def test_summarize_groups_by_params(self):
        def fake(params, seed, pdr):
            return RunResult(
                run_id="r", params=params, seed=seed, duration=1.0, metrics={"pdr": pdr}
            )

        results = [
            fake({"n_nodes": 10}, 1, 0.4),
            fake({"n_nodes": 10}, 2, 0.6),
            fake({"n_nodes": 20}, 1, 1.0),
        ]
        rows = summarize(results, metrics=["pdr"])
        by_nodes = {r["n_nodes"]: r for r in rows}
        assert by_nodes[10]["n_seeds"] == 2
        assert by_nodes[10]["pdr_mean"] == pytest.approx(0.5)
        assert by_nodes[20]["pdr_mean"] == pytest.approx(1.0)
        assert by_nodes[20]["pdr_ci95"] == 0.0

    def test_summarize_single_seed_and_zero_variance_groups(self):
        def fake(params, seed, pdr):
            return RunResult(
                run_id="r", params=params, seed=seed, duration=1.0, metrics={"pdr": pdr}
            )

        rows = summarize(
            [
                fake({"n_nodes": 10}, 1, 0.7),                       # n=1
                fake({"n_nodes": 20}, 1, 0.9),                       # zero variance
                fake({"n_nodes": 20}, 2, 0.9),
                fake({"n_nodes": 20}, 3, 0.9),
            ],
            metrics=["pdr"],
        )
        by_nodes = {r["n_nodes"]: r for r in rows}
        assert by_nodes[10] == {
            "n_nodes": 10, "n_seeds": 1, "pdr_mean": 0.7, "pdr_ci95": 0.0,
        }
        assert by_nodes[20]["n_seeds"] == 3
        assert by_nodes[20]["pdr_mean"] == pytest.approx(0.9)
        assert by_nodes[20]["pdr_ci95"] == 0.0


class TestFailureHandling:
    @pytest.fixture()
    def failing_spec(self):
        @register_collector("fail_on_n14")
        def fail_on_n14(result):
            if result.config.n_nodes == 14:
                raise RuntimeError("boom at n_nodes=14")
            return {}

        return tiny_spec(seeds=(1,), collector="fail_on_n14")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_failure_reports_and_keeps_completed_runs(
        self, tmp_path, workers, failing_spec
    ):
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(SweepError, match="1 of 2 runs failed.*n_nodes=14"):
            run_sweep(failing_spec, workers=workers, cache_dir=cache_dir)
        # the successful run was recorded and cached before the raise
        cached = [p for p in os.listdir(cache_dir) if p.endswith(".json")]
        assert len(cached) == 1


class TestCollectors:
    def test_e7_collector_adds_qos_metric(self):
        from repro.experiments.specs import get_spec

        spec = copy.deepcopy(get_spec("e7_qos_load"))
        spec.base = dataclasses.replace(
            spec.base, n_nodes=15, area_size=500.0, traffic_start=3.0
        )
        spec.grid = {"sources_per_group": [1]}
        spec.duration = 10.0
        (result,) = run_sweep(spec, workers=1)
        assert 0.0 <= result.metrics["qos_satisfaction"] <= 1.0


class TestCli:
    def test_list_names_every_spec(self, capsys):
        from repro.experiments.__main__ import main
        from repro.experiments.specs import SPECS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SPECS:
            assert name in out

    def test_run_and_resume_smoke(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main
        from repro.experiments import specs

        monkeypatch.setitem(
            specs.SPECS, "smoke", dataclasses.replace(
                specs.get_spec("smoke"), grid={"n_nodes": [10]}, seeds=(1,), duration=8.0
            )
        )
        cache = str(tmp_path / "cache")
        out = str(tmp_path / "artifacts")
        args = ["smoke", "--cache-dir", cache, "--out", out, "--workers", "2"]
        assert main(["run"] + args) == 0
        assert os.path.exists(os.path.join(out, "smoke.csv"))
        assert os.path.exists(os.path.join(out, "smoke.json"))
        capsys.readouterr()

        assert main(["resume"] + args) == 0
        err = capsys.readouterr().err
        assert "1 cache hits" in err

        assert main(["export"] + args[:5]) == 0

    def test_resume_refuses_cold_cache(self, tmp_path, capsys):
        """So do export and merge: a cache is a directory, not any path."""
        from repro.experiments.__main__ import main

        not_a_dir = tmp_path / "cache.db"
        not_a_dir.write_text("")
        for command in ("resume", "export", "merge"):
            for cache in (tmp_path / "nope", not_a_dir):
                code = main(
                    [command, "smoke", "--cache-dir", str(cache), "--out", str(tmp_path)]
                )
                assert code == 2, (command, cache)
        assert not (tmp_path / "nope").exists()
