"""Command-line front end for the sweep orchestrator.

::

    python -m repro.experiments list
    python -m repro.experiments protocols [--check-coverage]
    python -m repro.experiments executors
    python -m repro.experiments stores
    python -m repro.experiments run SWEEP [--executor NAME] [--store NAME] ...
    python -m repro.experiments resume SWEEP [...]
    python -m repro.experiments export SWEEP --out DIR [...]
    python -m repro.experiments merge SWEEP --cache-dir DEST --from DIR ...
    python -m repro.experiments migrate --from SPEC --to SPEC

``run`` executes a registered sweep (see ``list``) through a registered
*executor backend* (see ``executors``: in-process ``serial`` or the
default ``process`` pool; ``docs/executors.md``), caching finished runs
under ``--cache-dir`` so an interrupted or repeated invocation only
executes what is missing; ``resume`` is ``run`` with the additional
guarantee that it refuses to start from a cold cache (catching a
mistyped ``--cache-dir``).  ``export`` rebuilds the CSV/JSON artifacts
purely from cached results without running anything.

The cache lives behind a registered *result-store backend* (see
``stores``; ``docs/result-store.md``): everywhere a cache path is
accepted, a bare path means the default ``json`` directory layout and a
store spec like ``sqlite:results.db`` selects another backend
(``--store NAME`` names it explicitly).  The store is sweep-cosmetic --
excluded from cache keys, byte-identical artifacts -- and ``migrate``
copies a cache between backends (it is ``merge`` without a sweep:
content-hash keys make it idempotent).

A sweep whose spec carries an :class:`~repro.experiments.orchestrator.
AdaptiveCI` replication policy runs *adaptively*: each grid point adds
replication seeds until the 95% CI half-width of the policy's metric
meets the target (``unconverged`` points are reported when ``max_seeds``
is exhausted), and ``run`` prints the per-point convergence report.
``--adaptive``/``--target-ci``/``--ci-metric`` force or override the
policy from the command line.

``--shard I/N`` restricts ``run``/``resume`` to a deterministic 1-based
slice of the grid (of the *grid points* when adaptive, so one point's
growing seed set never splits across jobs), so N CI jobs sharing nothing
but their cache directories cover the sweep exactly once; ``merge`` then
folds the shard caches together and exports the full artifact set.

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
from typing import List, Optional, Sequence

from repro.experiments.executors import DEFAULT_EXECUTOR, available_executors
from repro.experiments.orchestrator import (
    AdaptiveCI,
    AdaptiveResult,
    RunResult,
    SpecError,
    SweepSpec,
    export_csv,
    export_json,
    load_adaptive_results,
    load_cached_results,
    merge_caches,
    parse_shard,
    run_sweep,
    run_sweep_adaptive,
    summarize,
)
from repro.experiments.specs import available_specs, get_spec
from repro.experiments.stores import (
    DEFAULT_STORE,
    StoreError,
    available_stores,
    store_exists,
)
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

    sub.add_parser(
        "executors",
        help="list registered run-execution backends (--executor choices)",
    )

    sub.add_parser(
        "stores",
        help="list registered result-store backends (--store choices / "
        "store-spec prefixes)",
    )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("sweep", help="registered sweep name (see `list`)")
        p.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help="run-result cache: a directory, or a store spec like "
            f"sqlite:results.db (default: {DEFAULT_CACHE_DIR})",
        )
        p.add_argument(
            "--store",
            default=None,
            metavar="NAME",
            help="result-store backend for --cache-dir (see `stores`); "
            f"default: the path's prefix, else {DEFAULT_STORE!r}",
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
            "--adaptive",
            action="store_true",
            help="use adaptive seed replication (implied when the spec "
            "carries a replication policy; otherwise requires --target-ci)",
        )
        p.add_argument(
            "--target-ci",
            type=float,
            default=None,
            metavar="HALF_WIDTH",
            help="adaptive target: add seeds per grid point until the 95%% CI "
            "half-width of the chosen metric is at most this (overrides the "
            "spec's policy target)",
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
            help="run-execution backend (see `executors`; "
            f"default: {DEFAULT_EXECUTOR})",
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
        metavar="STORE",
        help="shard cache (directory or store spec) to fold into "
        "--cache-dir (repeatable)",
    )

    p = sub.add_parser(
        "migrate",
        help="copy every cache entry from one result store into another "
        "(idempotent: content-hash keys make re-runs safe)",
    )
    p.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="STORE",
        required=True,
        help="source store (directory or store spec like json:dir, "
        "sqlite:file.db; repeatable)",
    )
    p.add_argument(
        "--to",
        dest="dest",
        required=True,
        metavar="STORE",
        help="destination store (created if missing)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="NAME",
        help="backend for bare paths on both sides (see `stores`); "
        "per-path prefixes win",
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
    """The adaptive policy this invocation should run under, if any.

    A spec-level ``replication`` policy activates adaptively by itself;
    ``--adaptive`` (or ``--target-ci``) forces the adaptive path for a
    fixed-seed spec, in which case ``--target-ci`` must supply the
    target.  ``--target-ci``/``--ci-metric`` override the corresponding
    policy fields either way.
    """
    policy = spec.replication
    target = getattr(args, "target_ci", None)
    metric = getattr(args, "ci_metric", None)
    if policy is None and not getattr(args, "adaptive", False) and target is None:
        if metric is not None:
            raise CliError("--ci-metric only applies to adaptive runs "
                           "(pass --target-ci, or pick a spec with a policy)")
        return None
    if policy is None:
        if target is None:
            raise CliError(
                f"sweep {spec.name!r} has no replication policy; --adaptive "
                "needs --target-ci HALF_WIDTH (and optionally --ci-metric)"
            )
        return AdaptiveCI(target_half_width=target, metric=metric or "pdr")
    replacements = {}
    if target is not None:
        replacements["target_half_width"] = target
    if metric is not None:
        replacements["metric"] = metric
    return dataclasses.replace(policy, **replacements) if replacements else policy


def _write_artifacts(
    spec: SweepSpec,
    results: Sequence[RunResult],
    out_dir: str,
    fmt: str,
    name: Optional[str] = None,
    adaptive: Optional[AdaptiveResult] = None,
) -> List[str]:
    stem = name or spec.name
    written: List[str] = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{stem}.csv")
        export_csv(results, path)
        written.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{stem}.json")
        export_json(results, path, spec=spec, adaptive=adaptive)
        written.append(path)
    return written


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


def _protocol_coverage() -> dict:
    """Map each registered protocol to the sweeps whose grids exercise it."""
    return _component_coverage()["protocol"]


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


def _cmd_executors() -> int:
    rows = [
        {"executor": name, "description": description}
        for name, description in available_executors()
    ]
    print(
        format_table(
            rows,
            title="Registered executor backends "
            f"(run SWEEP --executor NAME; default: {DEFAULT_EXECUTOR})",
        )
    )
    return 0


def _cmd_stores() -> int:
    rows = [
        {"store": name, "description": description}
        for name, description in available_stores()
    ]
    print(
        format_table(
            rows,
            title="Registered result-store backends "
            f"(run SWEEP --store NAME, or prefix cache paths like "
            f"sqlite:results.db; default: {DEFAULT_STORE})",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace, require_cache: bool) -> int:
    spec = _customize(get_spec(args.sweep), args)
    cache_dir: Optional[str] = None if args.no_cache else args.cache_dir
    if require_cache and (
        cache_dir is None or not store_exists(cache_dir, store=args.store)
    ):
        print(
            f"resume: no cache at {args.cache_dir!r} -- use `run` to start this sweep",
            file=sys.stderr,
        )
        return 2
    shard = parse_shard(args.shard) if args.shard else None
    policy = _adaptive_policy(spec, args)
    adaptive: Optional[AdaptiveResult] = None
    if policy is not None:
        adaptive = run_sweep_adaptive(
            spec,
            workers=args.workers,
            cache_dir=cache_dir,
            force=args.force,
            progress=True,
            shard=shard,
            policy=policy,
            executor=args.executor,
            store=args.store,
        )
        results = adaptive.results
    else:
        results = run_sweep(
            spec,
            workers=args.workers,
            cache_dir=cache_dir,
            force=args.force,
            progress=True,
            shard=shard,
            executor=args.executor,
            store=args.store,
        )
    _print_summary(spec, results)
    if adaptive is not None:
        _print_convergence(adaptive)
    # a shard writes suffixed artifacts so it never masquerades as the
    # full result set; `merge`/`export` produce the unsuffixed ones
    stem = f"{spec.name}.shard-{shard[0]}-of-{shard[1]}" if shard else spec.name
    for path in _write_artifacts(
        spec, results, args.out, args.format, name=stem, adaptive=adaptive
    ):
        print(f"wrote {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if not store_exists(args.cache_dir, store=args.store):
        print(f"export: no result store at {args.cache_dir!r}", file=sys.stderr)
        return 2
    policy = _adaptive_policy(spec, args)
    adaptive: Optional[AdaptiveResult] = None
    if policy is not None:
        adaptive, missing_ids = load_adaptive_results(
            spec, args.cache_dir, policy=policy, store=args.store
        )
        results = adaptive.results
    else:
        results, missing_ids = load_cached_results(
            spec, args.cache_dir, store=args.store
        )
    missing = len(missing_ids)
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
            f"export: {missing} run(s) not cached (first: {missing_ids[0]}); "
            "artifact is partial (use `run` to fill the cache)",
            file=sys.stderr,
        )
    _print_summary(spec, results)
    if adaptive is not None:
        _print_convergence(adaptive)
    for path in _write_artifacts(spec, results, args.out, args.format, adaptive=adaptive):
        print(f"wrote {path}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if args.sources:
        copied, skipped = merge_caches(
            args.sources, args.cache_dir, store=args.store
        )
        print(
            f"merge: folded {len(args.sources)} shard cache(s) into "
            f"{args.cache_dir}: {copied} new entries, {skipped} already present"
        )
    if not store_exists(args.cache_dir, store=args.store):
        print(
            f"merge: no result store at {args.cache_dir!r} "
            "(use --from to fold shard caches into it)",
            file=sys.stderr,
        )
        return 2
    policy = _adaptive_policy(spec, args)
    adaptive: Optional[AdaptiveResult] = None
    if policy is not None:
        # replay the adaptive stopping rule against the merged cache: the
        # run set is whatever the per-point CI tests demand, not a static
        # expansion, and any gap shows up as missing/incomplete below
        adaptive, missing = load_adaptive_results(
            spec, args.cache_dir, policy=policy, store=args.store
        )
        results = adaptive.results
        expected = "the adaptive replay"
    else:
        results, missing = load_cached_results(
            spec, args.cache_dir, store=args.store
        )
        expected = f"{spec.run_count} runs"
    if missing:
        print(
            f"merge: {len(missing)} run(s) of {expected} missing from the "
            f"merged cache (first missing: {missing[0]}); run the remaining "
            "shards (or check --seeds/--duration overrides) before merging",
            file=sys.stderr,
        )
        return 1
    _print_summary(spec, results)
    if adaptive is not None:
        _print_convergence(adaptive)
    for path in _write_artifacts(spec, results, args.out, args.format, adaptive=adaptive):
        print(f"wrote {path}")
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    copied, skipped = merge_caches(args.sources, args.dest, store=args.store)
    print(
        f"migrate: {copied} entries copied into {args.dest}, "
        f"{skipped} already present"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "protocols":
            return _cmd_protocols(args)
        if args.command == "executors":
            return _cmd_executors()
        if args.command == "stores":
            return _cmd_stores()
        if args.command == "run":
            return _cmd_run(args, require_cache=False)
        if args.command == "resume":
            return _cmd_run(args, require_cache=True)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "migrate":
            return _cmd_migrate(args)
    except (CliError, SpecError, StoreError, RegistryError) as exc:
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
