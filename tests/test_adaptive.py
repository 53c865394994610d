"""Tests of adaptive seed replication (the ``AdaptiveCI`` policy).

Covers the guarantees the adaptive orchestrator loop rests on: policy
validation, the deterministic per-point seed schedule, per-point stopping
(zero-variance points stop at ``min_seeds``, noisy ones grow until the
target or ``max_seeds``), round provenance, that stopping decisions are a
pure function of the cache (a re-run executes nothing; sharded runs merge
byte-identically to unsharded), and the CLI surface
(``--target-ci``/``--ci-metric`` plus the convergence report).
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.orchestrator import (
    AdaptiveCI,
    SpecError,
    SweepSpec,
    adaptive_seed_sequence,
    expand_points,
    export_csv,
    merge_caches,
    register_collector,
    run_sweep_adaptive,
    shard_points,
    sweep,
)
from repro.experiments.scenarios import ScenarioConfig


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny-adaptive",
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


@register_collector("const_metric")
def _const_metric(result):
    """Zero-variance metric: every seed reports the same value."""
    return {"const_metric": 0.5}


@register_collector("seed_metric")
def _seed_metric(result):
    """Guaranteed-variance metric: every seed reports a distinct value."""
    return {"seed_metric": float(result.config.seed)}


class TestPolicyValidation:
    def test_target_must_be_positive(self):
        with pytest.raises(SpecError, match="target_half_width"):
            AdaptiveCI(target_half_width=0.0)
        with pytest.raises(SpecError, match="target_half_width"):
            AdaptiveCI(target_half_width=-0.1)

    def test_min_seeds_below_two_rejected(self):
        # one replication has no CI half-width, so it could never converge
        # honestly -- the policy refuses instead of silently passing n=1
        with pytest.raises(SpecError, match="min_seeds"):
            AdaptiveCI(target_half_width=0.1, min_seeds=1)

    def test_max_below_min_rejected(self):
        with pytest.raises(SpecError, match="max_seeds"):
            AdaptiveCI(target_half_width=0.1, min_seeds=5, max_seeds=4)

    def test_batch_must_be_positive(self):
        with pytest.raises(SpecError, match="batch"):
            AdaptiveCI(target_half_width=0.1, batch=0)

    def test_metric_required(self):
        with pytest.raises(SpecError, match="metric"):
            AdaptiveCI(target_half_width=0.1, metric="")

    def test_growth_below_one_rejected(self):
        with pytest.raises(SpecError, match="growth"):
            AdaptiveCI(target_half_width=0.1, growth=0.99)


class TestSeedSequence:
    def test_spec_seeds_first_then_successors(self):
        policy = AdaptiveCI(target_half_width=0.1, min_seeds=2, max_seeds=5)
        spec = tiny_spec(seeds=(3, 5))
        assert adaptive_seed_sequence(spec, policy) == [3, 5, 6, 7, 8]

    def test_successors_skip_existing_seeds(self):
        policy = AdaptiveCI(target_half_width=0.1, min_seeds=2, max_seeds=4)
        # 5 > 4, so the extension from max(seeds)+1 = 6 never collides; a
        # spec like (2, 4) must not emit 4 twice either
        spec = tiny_spec(seeds=(4, 2))
        assert adaptive_seed_sequence(spec, policy) == [4, 2, 5, 6]

    def test_duplicate_spec_seeds_collapse(self):
        # a repeated seed would count one run twice as two "independent"
        # replications (identical values -> half-width 0 -> instant,
        # bogus convergence); the sequence must dedupe the spec list
        policy = AdaptiveCI(target_half_width=0.1, min_seeds=2, max_seeds=4)
        spec = tiny_spec(seeds=(5, 5, 7))
        assert adaptive_seed_sequence(spec, policy) == [5, 7, 8, 9]

    def test_truncated_to_max_seeds(self):
        policy = AdaptiveCI(target_half_width=0.1, min_seeds=2, max_seeds=3)
        spec = tiny_spec(seeds=(9, 8, 7, 6, 5))
        assert adaptive_seed_sequence(spec, policy) == [9, 8, 7]

    def test_deterministic(self):
        policy = AdaptiveCI(target_half_width=0.1, min_seeds=2, max_seeds=12)
        assert adaptive_seed_sequence(tiny_spec(), policy) == adaptive_seed_sequence(
            tiny_spec(), policy
        )


class TestAdaptiveStopping:
    def test_zero_variance_point_stops_at_min_seeds(self):
        spec = tiny_spec(
            collector="const_metric",
            replication=AdaptiveCI(
                target_half_width=0.001, metric="const_metric",
                min_seeds=2, max_seeds=6, batch=2,
            ),
        )
        report = run_sweep_adaptive(spec, workers=1)
        assert [p.status for p in report.points] == ["converged", "converged"]
        assert [p.n_seeds for p in report.points] == [2, 2]
        assert all(p.half_width == 0.0 for p in report.points)
        assert all(p.rounds == 1 for p in report.points)

    def test_noisy_point_grows_to_max_and_reports_unconverged(self):
        spec = tiny_spec(
            grid={"n_nodes": [10]},
            collector="seed_metric",
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=4, batch=1,
            ),
        )
        report = run_sweep_adaptive(spec, workers=1)
        (point,) = report.points
        assert point.status == "unconverged"
        assert point.n_seeds == 4
        assert point.rounds == 3            # 2 seeds, then +1, then +1
        assert point.half_width > 1e-6

    def test_adaptive_cheaper_than_fixed_grid(self):
        spec = tiny_spec(
            collector="const_metric",
            replication=AdaptiveCI(
                target_half_width=0.01, metric="const_metric",
                min_seeds=2, max_seeds=8, batch=2,
            ),
        )
        report = run_sweep_adaptive(spec, workers=1)
        assert report.executed < report.fixed_equivalent_runs
        assert report.executed == len(report.results) == 4

    def test_round_provenance_stamped_on_results(self):
        spec = tiny_spec(
            grid={"n_nodes": [10]},
            collector="seed_metric",
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=4, batch=1,
            ),
        )
        report = run_sweep_adaptive(spec, workers=1)
        assert [r.adaptive_round for r in report.results] == [0, 0, 1, 2]
        assert [r.seed for r in report.results] == [1, 2, 3, 4]

    def test_unknown_metric_raises_with_alternatives(self):
        spec = tiny_spec(
            replication=AdaptiveCI(target_half_width=0.1, metric="no_such_metric")
        )
        with pytest.raises(SpecError, match="no_such_metric.*numeric metrics"):
            run_sweep_adaptive(spec, workers=1)

    def test_seed_axis_incompatible(self, tmp_path):
        spec = tiny_spec(
            grid={"seed": [3, 4]},
            replication=AdaptiveCI(target_half_width=0.1),
        )
        cache_dir = tmp_path / "cache"
        with pytest.raises(SpecError, match="seed"):
            run_sweep_adaptive(spec, workers=1, cache_dir=str(cache_dir))
        # rejected before the cache directory is even created
        assert not cache_dir.exists()

    def test_missing_policy_raises(self):
        with pytest.raises(SpecError, match="no adaptive replication policy"):
            run_sweep_adaptive(tiny_spec(), workers=1)


class TestAdaptiveCacheDeterminism:
    POLICY = AdaptiveCI(
        target_half_width=0.2, metric="pdr", min_seeds=2, max_seeds=5, batch=1
    )

    def test_rerun_against_warm_cache_executes_nothing(self, tmp_path):
        spec = tiny_spec(replication=self.POLICY)
        cache_dir = str(tmp_path / "cache")
        first = run_sweep_adaptive(spec, workers=2, cache_dir=cache_dir)
        assert first.cached == 0
        second = run_sweep_adaptive(spec, workers=2, cache_dir=cache_dir)
        assert second.executed == 0
        assert second.cached == len(first.results)
        assert [r.run_id for r in second.results] == [r.run_id for r in first.results]
        assert [r.metrics for r in second.results] == [r.metrics for r in first.results]
        assert [p.to_dict() for p in second.points] == [
            p.to_dict() for p in first.points
        ]

    def test_replay_reconstructs_run_set_without_executing(self, tmp_path):
        spec = tiny_spec(replication=self.POLICY)
        cache_dir = str(tmp_path / "cache")
        live = run_sweep_adaptive(spec, workers=1, cache_dir=cache_dir)
        _, replay, missing = sweep(spec, spec.replication, cache_dir=cache_dir, cache_only=True)
        assert missing == []
        assert replay.executed == 0
        assert [r.run_id for r in replay.results] == [r.run_id for r in live.results]
        assert [r.adaptive_round for r in replay.results] == [
            r.adaptive_round for r in live.results
        ]

    def test_replay_of_cold_cache_reports_incomplete_points(self, tmp_path):
        spec = tiny_spec(replication=self.POLICY)
        _, replay, missing = sweep(
            spec, spec.replication, cache_dir=str(tmp_path / "empty"), cache_only=True
        )
        assert len(missing) == 2 * self.POLICY.min_seeds
        assert all(p.status == "incomplete" for p in replay.points)
        assert replay.results == []

    def test_sharded_adaptive_merges_byte_identical(self, tmp_path):
        spec = tiny_spec(replication=self.POLICY)
        reference = run_sweep_adaptive(spec, workers=1)

        shard_dirs = []
        for index in (1, 2):
            shard_dir = str(tmp_path / f"shard{index}")
            shard_dirs.append(shard_dir)
            partial = run_sweep_adaptive(
                spec, workers=1, cache_dir=shard_dir, shard=(index, 2)
            )
            assert partial.cached == 0
        merged_dir = str(tmp_path / "merged")
        merge_caches(shard_dirs, merged_dir)

        _, merged, missing = sweep(spec, spec.replication, cache_dir=merged_dir, cache_only=True)
        assert missing == []
        assert [r.run_id for r in merged.results] == [
            r.run_id for r in reference.results
        ]
        ref_csv = str(tmp_path / "ref.csv")
        merged_csv = str(tmp_path / "merged.csv")
        export_csv(reference.results, ref_csv)
        export_csv(merged.results, merged_csv)
        with open(ref_csv, "rb") as fh:
            ref_bytes = fh.read()
        with open(merged_csv, "rb") as fh:
            assert fh.read() == ref_bytes

    def test_shard_points_partitions_every_point_once(self):
        points = expand_points(tiny_spec(grid={"n_nodes": [10, 12, 14]}))
        shards = [shard_points(points, i, 2) for i in (1, 2)]
        labels = [p.label for shard in shards for p in shard]
        assert sorted(labels) == sorted(p.label for p in points)


class TestCliAdaptive:
    @pytest.fixture()
    def tiny_adaptive(self, monkeypatch):
        from repro.experiments import specs

        monkeypatch.setitem(
            specs.SPECS,
            "smoke_adaptive",
            dataclasses.replace(
                specs.get_spec("smoke_adaptive"),
                grid={"n_nodes": [10, 12]},
                seeds=(1, 2),
                duration=8.0,
                replication=AdaptiveCI(
                    target_half_width=0.5, metric="pdr",
                    min_seeds=2, max_seeds=3, batch=1,
                ),
            ),
        )
        return specs.get_spec("smoke_adaptive")

    def test_run_prints_convergence_report_and_embeds_artifact_block(
        self, tmp_path, capsys, tiny_adaptive
    ):
        from repro.experiments.__main__ import main

        out = str(tmp_path / "artifacts")
        code = main(
            ["run", "smoke_adaptive", "--cache-dir", str(tmp_path / "cache"),
             "--out", out, "--workers", "1"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "adaptive replication on 'pdr'" in stdout
        assert "point(s) converged" in stdout
        with open(os.path.join(out, "smoke_adaptive.json")) as fh:
            document = json.load(fh)
        assert document["adaptive"]["policy"]["target_half_width"] == 0.5
        assert {p["status"] for p in document["adaptive"]["points"]} <= {
            "converged", "unconverged"
        }

    def test_merge_replays_adaptive_cache(self, tmp_path, capsys, tiny_adaptive):
        from repro.experiments.__main__ import main

        cache = str(tmp_path / "cache")
        assert main(
            ["run", "smoke_adaptive", "--cache-dir", cache,
             "--out", str(tmp_path / "a"), "--format", "none", "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["merge", "smoke_adaptive", "--cache-dir", cache,
             "--out", str(tmp_path / "m")]
        ) == 0
        assert "adaptive replication" in capsys.readouterr().out

    def test_merge_incomplete_adaptive_cache_fails(self, tmp_path, capsys, tiny_adaptive):
        from repro.experiments.__main__ import main

        cold = tmp_path / "cold"
        cold.mkdir()
        code = main(
            ["merge", "smoke_adaptive", "--cache-dir", str(cold),
             "--out", str(tmp_path / "m")]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_ci_metric_without_adaptive_is_an_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--ci-metric", "pdr", "--format", "none"]) == 2
        assert "--ci-metric" in capsys.readouterr().err

    def test_target_ci_forces_adaptive_on_fixed_spec(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import specs
        from repro.experiments.__main__ import main

        monkeypatch.setitem(
            specs.SPECS,
            "smoke",
            dataclasses.replace(
                specs.get_spec("smoke"), grid={"n_nodes": [10]}, seeds=(1, 2), duration=8.0
            ),
        )
        code = main(
            ["run", "smoke", "--target-ci", "0.9",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path / "out"), "--workers", "1"]
        )
        assert code == 0
        assert "adaptive replication on 'pdr'" in capsys.readouterr().out


class TestVarianceAwareBatching:
    """growth > 1 doubles down on points still far (>2x) from the target."""

    def test_growth_below_one_rejected(self):
        with pytest.raises(SpecError, match="growth"):
            AdaptiveCI(target_half_width=0.1, growth=0.5)

    def test_next_batch_grows_geometrically_while_far(self):
        policy = AdaptiveCI(target_half_width=0.1, batch=1, growth=2.0)
        far = 10 * policy.target_half_width
        assert policy.next_batch(1, far) == 2
        assert policy.next_batch(2, far) == 4
        assert policy.next_batch(4, far) == 8

    def test_next_batch_resets_once_near_target(self):
        policy = AdaptiveCI(target_half_width=0.1, batch=2, growth=2.0)
        near = 1.5 * policy.target_half_width
        assert policy.next_batch(8, near) == policy.batch

    def test_fixed_policy_never_grows(self):
        policy = AdaptiveCI(target_half_width=0.1, batch=3)  # growth=1
        assert policy.next_batch(3, 10 * policy.target_half_width) == 3

    def test_fractional_growth_still_makes_progress(self):
        policy = AdaptiveCI(target_half_width=0.1, batch=1, growth=1.01)
        assert policy.next_batch(1, 10 * policy.target_half_width) == 2

    def test_growth_cuts_rounds_on_very_noisy_points(self, tmp_path):
        # seed_metric never converges at a 1e-6 target, so both policies
        # exhaust max_seeds=8 -- fixed batch=1 in 7 rounds, growth=2.0 in
        # 3 (the batch doubles after every far-from-target test, initial
        # block included: blocks of 2, 2, 4).  The cache is shared: the policy is
        # not part of the cache key, so the grown sweep replays the fixed
        # sweep's runs and executes nothing new.
        cache_dir = str(tmp_path / "cache")
        base = dict(grid={"n_nodes": [10]}, collector="seed_metric")
        fixed = tiny_spec(
            **base,
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=8, batch=1,
            ),
        )
        grown = tiny_spec(
            **base,
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=8, batch=1, growth=2.0,
            ),
        )
        fixed_report = run_sweep_adaptive(fixed, workers=1, cache_dir=cache_dir)
        grown_report = run_sweep_adaptive(grown, workers=1, cache_dir=cache_dir)
        (fixed_point,) = fixed_report.points
        (grown_point,) = grown_report.points
        assert fixed_point.rounds == 7
        assert grown_point.rounds == 3
        assert fixed_point.n_seeds == grown_point.n_seeds == 8
        assert fixed_point.status == grown_point.status == "unconverged"
        assert grown_report.executed == 0          # same runs, same cache keys
        assert grown_report.cached == 8
        assert [r.seed for r in grown_report.results] == [
            r.seed for r in fixed_report.results
        ]

    def test_growth_round_provenance_follows_scheduling_rounds(self, tmp_path):
        spec = tiny_spec(
            grid={"n_nodes": [10]},
            collector="seed_metric",
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=8, batch=1, growth=2.0,
            ),
        )
        report = run_sweep_adaptive(spec, workers=1)
        # rounds schedule seed blocks of 2, 2 (batch doubled once), then
        # 4 (doubled again, capped by max_seeds)
        assert [r.adaptive_round for r in report.results] == [0, 0, 1, 1, 2, 2, 2, 2]

    def test_growth_replay_is_deterministic(self, tmp_path):
        spec = tiny_spec(
            grid={"n_nodes": [10]},
            collector="seed_metric",
            replication=AdaptiveCI(
                target_half_width=1e-6, metric="seed_metric",
                min_seeds=2, max_seeds=8, batch=1, growth=2.0,
            ),
        )
        cache_dir = str(tmp_path / "cache")
        live = run_sweep_adaptive(spec, workers=1, cache_dir=cache_dir)
        again = run_sweep_adaptive(spec, workers=1, cache_dir=cache_dir)
        assert again.executed == 0
        _, replay, missing = sweep(spec, spec.replication, cache_dir=cache_dir, cache_only=True)
        assert missing == []
        for other in (again, replay):
            assert [r.run_id for r in other.results] == [
                r.run_id for r in live.results
            ]
            assert [r.adaptive_round for r in other.results] == [
                r.adaptive_round for r in live.results
            ]
            assert [p.to_dict() for p in other.points] == [
                p.to_dict() for p in live.points
            ]
