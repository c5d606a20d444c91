"""Command-line experiment runner.

Run reconstructed experiments by id and print their tables:

    python -m repro E2 E4              # specific experiments
    python -m repro --list             # what's available
    python -m repro --all --jobs 4     # everything, 4 worker processes

Results are cached under ``.repro_cache/`` keyed by (experiment shard,
package version, source fingerprint), so an unchanged tree re-prints in
seconds; ``--no-cache`` forces recomputation.  A suite interrupted
mid-run resumes from the cache: finished shards are not recomputed.

Benchmarks (``pytest benchmarks/ --benchmark-only``) run the same code
under timing and shape assertions; this entry point is for interactive
exploration.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.errors import ConfigurationError
from repro.runtime.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runtime.runner import (
    ExperimentOutcome,
    dedupe_ids,
    run_experiments,
)
from repro.runtime.tasks import shard_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run reconstructed experiments (see DESIGN.md).")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids, e.g. E1 E5 (case-insensitive)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the tables to a markdown file "
                             "(updated incrementally as experiments finish)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process "
                             "serial; 0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", dest="params",
                        help="experiment keyword override, value parsed "
                             "as JSON with a plain-string fallback (e.g. "
                             "--param sizes=[[24,16]]); applies to every "
                             "requested experiment and is part of the "
                             "cache key")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="result cache directory (default %(default)s)")
    parser.add_argument("--metrics", metavar="PATH",
                        help="collect metrics while running and write the "
                             "deterministic snapshot (JSON) to PATH")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSONL span trace to PATH "
                             "(requires --jobs 1)")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-stage wall-time summary after "
                             "the run (implies metrics collection)")
    return parser


def _write_report(path: str, requested: list[str],
                  outcomes: dict[int, ExperimentOutcome]) -> None:
    """Atomically rewrite the report from every finished experiment.

    Called after each completion, so the file on disk always holds all
    tables computed *so far* -- a crash mid-suite loses nothing.
    """
    sections: list[str] = []
    for index, key in enumerate(requested):
        outcome = outcomes.get(index)
        if outcome is None:
            continue
        if outcome.ok:
            sections.append(f"## {key}\n\n```\n{outcome.result.table()}\n"
                            f"```\n_({outcome.wall_s:.1f}s"
                            f"{', cached' if outcome.cached else ''})_\n")
        else:
            sections.append(f"## {key}\n\n**{outcome.outcome.upper()}**: "
                            f"{outcome.error}\n")
    text = "# Experiment report\n\n" + "\n".join(sections)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir)
        for key in sorted(ALL_EXPERIMENTS,
                          key=lambda k: int(k[1:])):
            run = ALL_EXPERIMENTS[key].run
            doc = (run.__doc__ or "").strip().splitlines()
            status = ""
            if cache is not None:
                tasks = shard_experiment(key)
                hits = sum(1 for t in tasks if cache.get(t) is not None)
                status = ("cached" if hits == len(tasks)
                          else f"partial {hits}/{len(tasks)}" if hits
                          else "uncached")
                status = f"[{status:<8}] "
            print(f"{key:>4}  {status}{doc[0] if doc else ''}")
        return 0

    params = {}
    for item in args.params:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            print(f"error: --param needs KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw

    if args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs > 0 else None  # None -> cpu_count

    try:
        pathlib.Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use --cache-dir {args.cache_dir!r}: {exc}",
              file=sys.stderr)
        return 2

    requested = ([k for k in sorted(ALL_EXPERIMENTS,
                                    key=lambda k: int(k[1:]))]
                 if args.all else dedupe_ids(args.experiments))
    if not requested:
        parser.print_usage()
        print("error: give experiment ids, --all, or --list",
              file=sys.stderr)
        return 2
    unknown = [e for e in requested if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment(s) {', '.join(unknown)}; "
              "try --list", file=sys.stderr)
        return 2
    try:
        # Expanding the shards checks every --param against each
        # experiment's signature and sweep axis before anything runs.
        for key in requested:
            shard_experiment(key, params)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcomes: dict[int, ExperimentOutcome] = {}
    next_to_print = 0

    def emit(outcome: ExperimentOutcome) -> None:
        if outcome.ok:
            print(outcome.result.table())
            print(f"({outcome.wall_s:.1f}s"
                  f"{', cached' if outcome.cached else ''})\n")
        else:
            print(f"[{outcome.experiment}] FAILED: {outcome.error}\n",
                  file=sys.stderr)

    def on_experiment(index: int, outcome: ExperimentOutcome) -> None:
        nonlocal next_to_print
        outcomes[index] = outcome
        if args.report:
            _write_report(args.report, requested, outcomes)
        # Stream tables in requested order as they become available.
        while next_to_print in outcomes:
            emit(outcomes[next_to_print])
            next_to_print += 1

    if args.trace and jobs != 1:
        print("error: --trace requires --jobs 1 (worker processes cannot "
              "share the trace file)", file=sys.stderr)
        return 2

    registry = None
    if args.metrics or args.trace or args.profile:
        from repro import obs

        registry = obs.MetricsRegistry()
    trace = None
    if args.trace:
        from repro import obs

        trace = obs.TraceWriter(args.trace)

    try:
        run_experiments(requested, jobs=jobs, use_cache=not args.no_cache,
                        cache_dir=args.cache_dir, params=params or None,
                        on_experiment=on_experiment,
                        metrics=registry, trace=trace)
    finally:
        if trace is not None:
            trace.close()
            print(f"trace ({trace.spans_written} spans) written to "
                  f"{args.trace}")

    if registry is not None and args.metrics:
        from repro import obs

        obs.write_metrics_json(args.metrics, registry)
        print(f"metrics written to {args.metrics}")
    if registry is not None and args.profile:
        from repro import obs

        print()
        print(obs.format_profile(registry))

    if args.report:
        print(f"report written to {args.report}")
    failures = [o for o in outcomes.values() if o.outcome == "failed"]
    if failures:
        print(f"error: {len(failures)} experiment(s) failed:",
              file=sys.stderr)
        for outcome in sorted(failures, key=lambda o: o.experiment):
            print(f"  {outcome.experiment}: {outcome.error}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
