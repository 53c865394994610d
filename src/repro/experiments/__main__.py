"""Command-line front end for the sweep orchestrator.

::

    python -m repro.experiments list
    python -m repro.experiments protocols [--check-coverage]
    python -m repro.experiments run SWEEP [--executor NAME] ...
    python -m repro.experiments resume SWEEP [...]
    python -m repro.experiments export SWEEP --out DIR [...]
    python -m repro.experiments merge SWEEP --cache-dir DEST --from DIR ...

``run`` executes a registered sweep (see ``list``) through an executor
(in-process ``serial`` or the default ``process`` pool;
``docs/executors.md``), caching finished runs as ``<cache-key>.json``
files in the ``--cache-dir`` directory so an interrupted or repeated
invocation only executes what is missing; ``resume`` is ``run`` with
the additional guarantee that it refuses to start from a cold cache
(catching a mistyped ``--cache-dir``).  ``export`` rebuilds the
CSV/JSON artifacts purely from cached results without running
anything.

A sweep whose spec carries an :class:`~repro.experiments.orchestrator.
AdaptiveCI` replication policy runs *adaptively*: each grid point adds
replication seeds until the 95% CI half-width of the policy's metric
meets the target (``unconverged`` points are reported when ``max_seeds``
is exhausted), and ``run`` prints the per-point convergence report.
``--target-ci`` makes any sweep adaptive, and with ``--ci-metric`` it
overrides the policy's target and metric.  ``run``, ``resume``,
``export`` and ``merge`` each make one call into the orchestrator's
sweep loop (:func:`~repro.experiments.orchestrator.sweep`), with that
policy or, for a fixed seed list, none.

``--shard I/N`` restricts ``run``/``resume`` to a deterministic 1-based
slice of the grid (of its runs for a seed list, of its *grid points*
when adaptive, so one point's growing seed set never splits across
jobs), so N CI jobs sharing nothing but their cache directories cover
the sweep exactly once; ``merge`` then folds the shard caches together
and exports the full artifact set.

``protocols`` lists every registered pluggable component (protocol
stacks, radios, MACs, mobility models) and, with ``--check-coverage``,
exits non-zero unless every registered protocol is exercised by at least
one registered sweep (the CI gate keeping new protocols tested).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

from repro.experiments.executors import DEFAULT_EXECUTOR
from repro.experiments.orchestrator import (
    AdaptiveCI,
    AdaptiveResult,
    RunResult,
    SpecError,
    SweepSpec,
    export_csv,
    export_json,
    merge_caches,
    parse_shard,
    summarize,
    sweep,
)
from repro.experiments.specs import available_specs, get_spec
from repro.metrics.collectors import format_table
from repro.registry import RegistryError

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_OUT_DIR = "artifacts"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, resume and export the repo's experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered sweeps")

    p = sub.add_parser(
        "protocols",
        help="list registered protocols/radios/MACs/mobility models "
        "(--check-coverage: fail unless every protocol has a sweep)",
    )
    p.add_argument(
        "--check-coverage",
        action="store_true",
        help="exit 1 unless every registered protocol is exercised by at "
        "least one registered sweep",
    )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("sweep", help="registered sweep name (see `list`)")
        p.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help=f"run-result cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        p.add_argument(
            "--out",
            default=DEFAULT_OUT_DIR,
            help=f"artifact output directory (default: {DEFAULT_OUT_DIR})",
        )
        p.add_argument(
            "--format",
            choices=("csv", "json", "both", "none"),
            default="both",
            help="artifact format(s) to write (default: both)",
        )
        p.add_argument(
            "--seeds",
            default=None,
            help="comma-separated replication seeds overriding the spec's",
        )
        p.add_argument(
            "--duration",
            type=float,
            default=None,
            help="simulated seconds per run, overriding the spec's",
        )
        p.add_argument(
            "--target-ci",
            type=float,
            default=None,
            metavar="HALF_WIDTH",
            help="adaptive target: add seeds per grid point until the 95%% CI "
            "half-width of the chosen metric is at most this (makes a "
            "fixed-seed sweep adaptive; overrides the spec's policy target)",
        )
        p.add_argument(
            "--ci-metric",
            default=None,
            metavar="METRIC",
            help="metric the adaptive CI target applies to "
            "(default: the spec policy's metric, or 'pdr')",
        )

    for name, help_text in (
        ("run", "execute a sweep (incremental: cached runs are reused)"),
        ("resume", "continue a previously started sweep from its cache"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument(
            "--workers",
            type=int,
            default=max(1, min(4, os.cpu_count() or 1)),
            help="pool size for the process executor; 1 runs in-process "
            "(default: min(4, cpu count))",
        )
        p.add_argument(
            "--executor",
            default=DEFAULT_EXECUTOR,
            metavar="NAME",
            help="run-execution backend, serial or process "
            f"(default: {DEFAULT_EXECUTOR})",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="run without reading or writing the cache",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="ignore cached results and re-run everything",
        )
        p.add_argument(
            "--shard",
            default=None,
            metavar="I/N",
            help="execute only this 1-based shard of the grid (e.g. 2/3); "
            "N jobs sharing a cache directory cover the sweep exactly once",
        )

    p = sub.add_parser("export", help="write artifacts from cached results, running nothing")
    add_common(p)

    p = sub.add_parser(
        "merge",
        help="fold shard caches into one cache directory and export the "
        "merged artifacts (idempotent; fails if runs are still missing)",
    )
    add_common(p)
    p.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="DIR",
        help="shard cache directory to fold into --cache-dir (repeatable)",
    )

    return parser


class CliError(Exception):
    """A user-input problem reported as a clean message, not a traceback."""


def _customize(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    replacements = {}
    if getattr(args, "seeds", None):
        try:
            replacements["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise CliError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if getattr(args, "duration", None) is not None:
        replacements["duration"] = args.duration
    return dataclasses.replace(spec, **replacements) if replacements else spec


def _adaptive_policy(
    spec: SweepSpec, args: argparse.Namespace
) -> Optional[AdaptiveCI]:
    """The adaptive policy this invocation runs under; None for a seed list.

    A spec-level ``replication`` policy applies by itself, and
    ``--target-ci`` makes a fixed-seed spec adaptive.
    ``--target-ci``/``--ci-metric`` override the corresponding policy
    fields either way.
    """
    target, metric = args.target_ci, args.ci_metric
    if spec.replication is None:
        if target is not None:
            return AdaptiveCI(target_half_width=target, metric=metric or "pdr")
        if metric is not None:
            raise CliError("--ci-metric only applies to adaptive runs "
                           "(pass --target-ci, or pick a spec with a policy)")
        return None
    replacements = {}
    if target is not None:
        replacements["target_half_width"] = target
    if metric is not None:
        replacements["metric"] = metric
    return dataclasses.replace(spec.replication, **replacements)


def _report(
    spec: SweepSpec,
    results: Sequence[RunResult],
    adaptive: Optional[AdaptiveResult],
    args: argparse.Namespace,
    stem: Optional[str] = None,
) -> None:
    """Print the summary (and any convergence report), then write artifacts."""
    _print_summary(spec, results)
    if adaptive is not None:
        _print_convergence(adaptive)
    stem = stem or spec.name
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, f"{stem}.csv")
        export_csv(results, path)
        print(f"wrote {path}")
    if args.format in ("json", "both"):
        path = os.path.join(args.out, f"{stem}.json")
        export_json(results, path, spec=spec, adaptive=adaptive)
        print(f"wrote {path}")


def _print_summary(spec: SweepSpec, results: Sequence[RunResult]) -> None:
    key_metrics = [
        m for m in ("pdr", "mean_delay", "ctrl_pkts", "tx_per_delivery", "qos_satisfaction")
        if results and m in results[0].metrics
    ]
    rows = summarize(results, metrics=key_metrics)
    display = []
    for row in rows:
        out = {k: v for k, v in row.items() if not k.endswith("_ci95")}
        for metric in key_metrics:
            mean = out.pop(f"{metric}_mean", None)
            ci = row.get(f"{metric}_ci95", 0.0)
            if mean is not None:
                out[metric] = f"{mean:g}±{ci:g}" if ci else f"{mean:g}"
        display.append(out)
    print(format_table(display, title=f"{spec.name}: mean ± 95% CI over seeds"))


def _print_convergence(adaptive: AdaptiveResult) -> None:
    policy = adaptive.policy
    rows = [
        {
            "grid_point": p.point,
            "seeds": p.n_seeds,
            "rounds": p.rounds,
            f"{policy.metric}_mean": f"{p.mean:g}",
            "ci95_half_width": f"{p.half_width:g}",
            "status": p.status,
        }
        for p in adaptive.points
    ]
    print(
        format_table(
            rows,
            title=f"{adaptive.sweep}: adaptive replication on {policy.metric!r} "
            f"(target half-width {policy.target_half_width:g}, "
            f"{policy.min_seeds}..{policy.max_seeds} seeds, batch {policy.batch})",
        )
    )
    print(
        f"adaptive: {len(adaptive.converged)}/{len(adaptive.points)} point(s) "
        f"converged; {adaptive.executed} executed + {adaptive.cached} cached = "
        f"{len(adaptive.results)} runs "
        f"(fixed grid at max_seeds: {adaptive.fixed_equivalent_runs} runs)"
    )


def _cmd_list() -> int:
    rows = [
        {
            "sweep": spec.name,
            "runs": spec.run_count,
            "axes": " x ".join(spec.grid.keys()) or "-",
            "seeds": len(spec.seeds),
            "description": spec.description,
        }
        for spec in available_specs()
    ]
    print(format_table(rows, title="Registered sweeps (python -m repro.experiments run NAME)"))
    return 0


def _component_coverage() -> dict:
    """Map registered protocols/radios/MACs to the sweeps exercising them.

    One expansion pass over every registered spec; the result maps each
    component kind (``protocol``/``radio``/``mac``) to ``{name: [sweep
    names]}`` over every *registered* component of that kind.
    """
    from repro.experiments.orchestrator import expand_spec
    from repro.registry import MACS, PROTOCOL_STACKS, RADIOS

    coverage = {
        "protocol": {name: [] for name in PROTOCOL_STACKS.names()},
        "radio": {name: [] for name in RADIOS.names()},
        "mac": {name: [] for name in MACS.names()},
    }
    for spec in available_specs():
        runs = expand_spec(spec)
        for kind in coverage:
            for name in {getattr(run.config, kind) for run in runs}:
                if name in coverage[kind]:
                    coverage[kind][name].append(spec.name)
    return coverage


def _cmd_protocols(args: argparse.Namespace) -> int:
    from repro.registry import MOBILITY_MODELS

    coverage = _component_coverage()
    rows = [
        {
            "protocol": name,
            "sweeps": ", ".join(sorted(specs)) or "(none)",
        }
        for name, specs in coverage["protocol"].items()
    ]
    print(format_table(rows, title="Registered protocol stacks and the sweeps exercising them"))
    print()
    components = [
        {"kind": kind, "name": name, "sweeps": ", ".join(sorted(specs)) or "(none)"}
        for kind in ("radio", "mac")
        for name, specs in coverage[kind].items()
    ] + [
        {"kind": "mobility", "name": name, "sweeps": ""}
        for name in MOBILITY_MODELS.names()
    ]
    print(format_table(components, title="Other registered components"))
    if args.check_coverage:
        uncovered = sorted(
            f"{kind} {name!r}"
            for kind, names in coverage.items()
            for name, specs in names.items()
            if not specs
        )
        if uncovered:
            print(
                "protocols: FAIL: registered component(s) exercised by no "
                f"registered sweep: {', '.join(uncovered)} -- add a spec "
                "(or an axis value) covering them",
                file=sys.stderr,
            )
            return 1
        counts = {kind: len(names) for kind, names in coverage.items()}
        print(
            f"protocols: OK ({counts['protocol']} protocols, "
            f"{counts['radio']} radios, {counts['mac']} MACs -- every one "
            "exercised by at least one registered sweep)"
        )
    return 0


def _cmd_run(args: argparse.Namespace, require_cache: bool) -> int:
    spec = _customize(get_spec(args.sweep), args)
    cache_dir: Optional[str] = None if args.no_cache else args.cache_dir
    if require_cache and (cache_dir is None or not os.path.isdir(cache_dir)):
        print(
            f"resume: no cache at {args.cache_dir!r} -- use `run` to start this sweep",
            file=sys.stderr,
        )
        return 2
    shard = parse_shard(args.shard) if args.shard else None
    results, adaptive, _missing = sweep(
        spec,
        _adaptive_policy(spec, args),
        workers=args.workers,
        cache_dir=cache_dir,
        force=args.force,
        progress=True,
        shard=shard,
        executor=args.executor,
    )
    # a shard writes suffixed artifacts so it never masquerades as the
    # full result set; `merge`/`export` produce the unsuffixed ones
    stem = f"{spec.name}.shard-{shard[0]}-of-{shard[1]}" if shard else spec.name
    _report(spec, results, adaptive, args, stem=stem)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if not os.path.isdir(args.cache_dir):
        print(f"export: no cache directory at {args.cache_dir!r}", file=sys.stderr)
        return 2
    results, adaptive, missing = sweep(
        spec, _adaptive_policy(spec, args), cache_dir=args.cache_dir, cache_only=True
    )
    if not results:
        print(
            f"export: no cached results for sweep {spec.name!r} "
            "(if the sweep was run with --seeds/--duration overrides, "
            "pass the same overrides to export)",
            file=sys.stderr,
        )
        return 2
    if missing:
        print(
            f"export: {len(missing)} run(s) not cached (first: {missing[0]}); "
            "artifact is partial (use `run` to fill the cache)",
            file=sys.stderr,
        )
    _report(spec, results, adaptive, args)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if args.sources:
        copied, skipped = merge_caches(args.sources, args.cache_dir)
        print(
            f"merge: folded {len(args.sources)} shard cache(s) into "
            f"{args.cache_dir}: {copied} new entries, {skipped} already present"
        )
    if not os.path.isdir(args.cache_dir):
        print(
            f"merge: no cache directory at {args.cache_dir!r} "
            "(use --from to fold shard caches into it)",
            file=sys.stderr,
        )
        return 2
    # replay the sweep against the merged cache; under a policy the run
    # set is whatever the per-point CI tests demand, and a gap shows up
    # as missing (the point as incomplete)
    results, adaptive, missing = sweep(
        spec, _adaptive_policy(spec, args), cache_dir=args.cache_dir, cache_only=True
    )
    if missing:
        print(
            f"merge: {len(missing)} run(s) missing from the merged cache "
            f"(first missing: {missing[0]}); run the remaining shards (or "
            "check --seeds/--duration overrides) before merging",
            file=sys.stderr,
        )
        return 1
    _report(spec, results, adaptive, args)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "protocols":
            return _cmd_protocols(args)
        if args.command == "run":
            return _cmd_run(args, require_cache=False)
        if args.command == "resume":
            return _cmd_run(args, require_cache=True)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "merge":
            return _cmd_merge(args)
    except (CliError, SpecError, RegistryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # `record` caches each run as it completes, so a Ctrl-C'd `run`
        # has already cached every completed run and a re-run resumes
        # from them: report the interrupt, not a traceback
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130
    except KeyError as exc:
        # unknown sweep name from the registry lookup
        print(f"{args.command}: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
