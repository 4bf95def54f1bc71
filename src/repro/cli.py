"""Command-line interface: regenerate any paper figure or table, inspect
the generated workloads, or simulate a custom configuration.

Usage::

    python -m repro figure2  [--scale tiny|bench|paper]
    python -m repro figure3  [--scale ...]
    python -m repro table1   [--scale ...]
    python -m repro figure6  [--scale ...] [--workloads random zipf ...]
    python -m repro figure7  [--scale ...] [--workloads httpd ...]
    python -m repro ablations [--scale ...]
    python -m repro workloads [--scale ...] [--workloads small large multi]
    python -m repro all      [--scale ...]

    # generic driver: run any of the above in parallel with a result cache
    python -m repro experiment figure7 --scale bench --jobs 4 \\
        --cache-dir ~/.cache/ulc-repro
    python -m repro experiment all --jobs 0   # 0 = all cores

    # free-form simulation of one scheme over one trace
    python -m repro simulate --scheme ulc --levels 800 800 800 \\
        --workload zipf --refs 200000
    python -m repro simulate --scheme unilru --levels 64 448 \\
        --trace my_trace.txt --clients 4 --jobs 1 --cache-dir .runcache

    # headless core-ops benchmarks with a regression gate
    python -m repro bench [--smoke] [--threshold 0.30] \\
        [--output BENCH_core_ops.json] [--baseline previous.json]

    # cross-hierarchy policy tournament (client x server x workload)
    python -m repro tournament --smoke --csv leaderboard.csv
    python -m repro tournament --scale bench --jobs 0 --top 20 \\
        --client-policies lru arc s3fifo --server-policies mq wtinylfu

    # exact single-pass LRU miss-ratio curve of a trace (optionally with
    # the Che/Fagin closed-form estimate and/or sampled approximations)
    python -m repro mrc --workload zipf --refs 200000 --che
    python -m repro mrc --trace my_trace.txt --capacities 64 256 1024
    python -m repro mrc --trace big.ctr --shards 0.01 --aet --approx-only \\
        --capacities 1024 4096 16384

    # convert/inspect on-disk traces (columnar .ctr, CSV, binary, text)
    python -m repro trace convert --trace accesses.csv --out big.ctr \\
        --block-column 1 --client-column 0 --intern
    python -m repro trace info --trace big.ctr

    # simulator-aware static analysis (lint) over the source tree
    python -m repro check [PATH ...defaults to the installed package]
    python -m repro check src/repro --format json
    python -m repro check src/repro --deep --kernel --bounds
    python -m repro check src/repro --all --format sarif
    python -m repro check --list-rules

``figure6``, ``figure7``, ``ablations``, ``all`` and ``simulate`` accept
``--jobs N`` (simulation fan-out over N worker processes; 0 = all cores)
and ``--cache-dir DIR`` (skip any run whose spec hash is already cached).
They also accept ``--check-invariants [N]``: every executed run then
validates its scheme's structural invariants each N references (default
1000) via :class:`repro.checks.InvariantCheckedScheme` — results are
bit-identical with or without the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
import time  # repro: noqa DET001 -- wall-clock reporting of CLI duration, not simulation state
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, ReproError, UnknownExperimentError
from repro.experiments import (
    FIGURE6_WORKLOADS,
    FIGURE7_WORKLOADS,
    SECTION2_WORKLOADS,
    run_all_ablations,
    run_figure6,
    run_figure7,
    run_section2,
)
from repro.runner import CostSpec, RunSpec, WorkloadSpec, materialize_trace, run_specs
from repro.util.tables import format_table
from repro.workloads.io import (
    COLUMNAR_SUFFIX,
    DEFAULT_CHUNK_REFS,
    ColumnarTrace,
    DenseInterner,
    convert_to_columnar,
    open_trace_chunks,
)

EXPERIMENTS = ("figure2", "figure3", "table1", "figure6", "figure7",
               "ablations", "all", "workloads", "simulate", "classify",
               "experiment", "check", "bench", "mrc", "trace",
               "tournament")

#: Experiments the generic ``experiment`` command can target.
EXPERIMENT_TARGETS = ("figure2", "figure3", "table1", "figure6", "figure7",
                      "ablations", "all", "workloads")


def _run_check(args: argparse.Namespace) -> int:
    """The ``check`` command: simulator-aware static analysis.

    Prints the report and returns the engine's exit code directly
    (0 clean, 1 findings, 2 engine error).
    """
    from pathlib import Path

    from repro.checks import format_findings, rules_by_pass, run_checks

    if args.list_rules:
        for pass_name, group in rules_by_pass():
            rows = []
            for code, summary, rationale in group:
                first = rationale.splitlines()[0] if rationale else summary
                rows.append([code, summary, first])
            print(format_table(
                ["rule", "summary", "rationale"], rows,
                title=f"repro check rules — {pass_name}",
            ))
        return 0
    if args.check_all:
        args.deep = args.kernel = args.bounds = True
    if args.target is not None:
        paths = [args.target]
    else:
        # Default to the installed package's own source tree.
        paths = [str(Path(__file__).resolve().parent)]
    if args.update_hash_schema:
        from repro.checks.flow import Project, write_hash_schema

        from repro.checks.flow import DEFAULT_MANIFEST

        written = write_hash_schema(
            Project(paths), args.hash_schema or DEFAULT_MANIFEST
        )
        if written is None:
            print("no hashed *Spec classes found; manifest not written")
            return 2
        print(f"hash-schema manifest written: {written}")
        return 0
    if args.update_baseline:
        from repro.checks.baseline import DEFAULT_BASELINE, write_baseline

        # Baseline the raw findings of every pass (one run against an
        # empty baseline) — every pass shares one file.
        raw = run_checks(
            paths,
            deep=True,
            kernel=True,
            bounds=True,
            baseline=os.devnull,
            manifest=args.hash_schema,
        ).findings
        written = write_baseline(raw, args.baseline or DEFAULT_BASELINE)
        print(f"baseline written with {len(raw)} finding(s): {written}")
        return 0
    report = run_checks(
        paths,
        select=tuple(args.select or ()),
        deep=args.deep,
        kernel=args.kernel,
        bounds=args.bounds,
        baseline=args.baseline,
        manifest=args.hash_schema,
    )
    rendered = format_findings(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if args.format != "human":
            print(
                f"{len(report.findings)} finding(s) written to "
                f"{args.output}"
            )
        else:
            print(rendered)
    else:
        print(rendered)
    return report.exit_code


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` command: headless core-ops benchmark suite.

    Writes ``BENCH_core_ops.json`` and returns non-zero when any
    benchmark regressed beyond the threshold vs the previous document.
    """
    from repro.bench import DEFAULT_OUTPUT, run_bench

    return run_bench(
        output=args.output or DEFAULT_OUTPUT,
        baseline=args.baseline,
        threshold=args.threshold,
        smoke=args.smoke,
        rounds=args.rounds,
        batch_size=args.batch_size,
    )


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` command: convert/inspect on-disk traces.

    ``trace convert`` streams any supported input (CSV, flat binary,
    text, ``.npz``) into the columnar ``.ctr`` directory format without
    ever materialising the whole reference array; ``trace info`` prints
    a ``.ctr`` manifest (or any readable trace's headline stats).
    """
    chunk_size = (
        args.chunk_size if args.chunk_size is not None else DEFAULT_CHUNK_REFS
    )
    verb = args.target or "info"
    if verb not in ("convert", "info"):
        raise ConfigurationError(
            f"unknown trace verb {verb!r}; available: convert, info"
        )
    if args.trace is None:
        raise ConfigurationError(
            "the trace command needs an input: --trace PATH"
        )
    if verb == "convert" and args.out is None:
        raise ConfigurationError(
            f"trace convert needs --out DIR (a {COLUMNAR_SUFFIX} "
            "directory to write)"
        )
    if verb == "info" and str(args.trace).endswith(COLUMNAR_SUFFIX):
        columnar = ColumnarTrace(args.trace)
        rows: List[List[object]] = [
            ["path", str(columnar.path)],
            ["references", len(columnar)],
            ["clients column", "yes" if columnar.has_clients else "no"],
            ["distinct blocks", columnar.num_unique
             if columnar.num_unique is not None else "(not interned)"],
            ["name", columnar.info.name],
            ["pattern", columnar.info.pattern],
        ]
        print(format_table(["property", "value"], rows,
                           title="columnar trace"))
        return 0
    chunks, info = open_trace_chunks(
        args.trace,
        fmt=args.trace_format,
        block_column=args.block_column,
        client_column=args.client_column,
        delimiter=args.delimiter,
        skip_header=args.skip_header,
        dtype=args.binary_dtype,
        chunk_size=chunk_size,
    )
    if verb == "convert":
        interner = DenseInterner() if args.intern else None
        written = convert_to_columnar(
            chunks, args.out, info=info, interner=interner
        )
        detail = f", {len(interner)} distinct blocks interned" \
            if interner is not None else ""
        print(
            f"wrote {written.path}: {len(written)} references"
            f"{detail} (clients: {'yes' if written.has_clients else 'no'})"
        )
        return 0
    refs = 0
    has_clients = False
    for chunk in chunks:
        refs += len(chunk.blocks)
        has_clients = has_clients or chunk.clients is not None
    rows = [
        ["path", str(args.trace)],
        ["references", refs],
        ["clients column", "yes" if has_clients else "no"],
        ["name", info.name],
        ["pattern", info.pattern],
    ]
    print(format_table(["property", "value"], rows, title="trace"))
    return 0


def _workload(args: argparse.Namespace) -> WorkloadSpec:
    """The workload of ``simulate``, ``mrc`` and ``classify``: the
    ``--trace`` file, else ``--refs`` references of ``--workload``."""
    if args.trace is not None:
        return WorkloadSpec("file", str(args.trace))
    return WorkloadSpec("large", args.workload, {"num_refs": args.refs})


def _validate_capacities(capacities: List[int]) -> List[int]:
    """Reject non-positive or duplicate ``--capacities`` values with a
    :class:`ConfigurationError` (CLI exit code 2) instead of letting a
    raw traceback escape from the profilers."""
    for capacity in capacities:
        if capacity <= 0:
            raise ConfigurationError(
                f"--capacities values must be positive, got {capacity}"
            )
    seen = set()
    for capacity in capacities:
        if capacity in seen:
            raise ConfigurationError(
                f"--capacities values must be unique, got {capacity} twice"
            )
        seen.add(capacity)
    return capacities


def _validate_rate(flag: str, rate: Optional[float]) -> Optional[float]:
    """Reject sampling rates outside (0, 1] with a
    :class:`ConfigurationError` naming the offending flag (CLI exit
    code 2) instead of letting the profilers raise from deep inside
    their threshold arithmetic."""
    if rate is None:
        return None
    if not 0.0 < rate <= 1.0:
        raise ConfigurationError(
            f"{flag} rate must be in (0, 1], got {rate:g}"
        )
    return rate


def _default_mrc_capacities(num_unique: int) -> List[int]:
    """Geometric capacity points up to the trace's distinct-block count
    (past which the curve is flat: only compulsory misses remain)."""
    points: List[int] = []
    size = 16
    while size < num_unique:
        points.append(size)
        size *= 2
    points.append(max(1, num_unique))
    return points


def _run_mrc(args: argparse.Namespace) -> str:
    """The ``mrc`` command: one profiling pass, the whole LRU curve.

    Computes the exact Mattson miss-ratio curve of a trace
    (:func:`repro.analysis.mrc.mrc_for_trace`) and, with ``--che``, the
    Che/Fagin closed-form estimate alongside for comparison.
    ``--shards RATE`` / ``--aet RATE`` add sampled approximate curves
    (:mod:`repro.analysis.approx`); ``--approx-only`` skips the exact
    pass entirely, which is the point for traces too large to profile
    exactly — a columnar ``.ctr`` input is then streamed chunk-wise and
    never materialised.
    """
    from repro.analysis.approx import aet_mrc, shards_mrc
    from repro.analysis.mrc import che_mrc, mrc_for_trace
    capacities = (
        _validate_capacities(args.capacities) if args.capacities else None
    )
    shards_rate = _validate_rate("--shards", args.shards)
    aet_rate = _validate_rate("--aet", args.aet)
    want_approx = shards_rate is not None or aet_rate is not None
    if args.approx_only and not want_approx:
        raise ConfigurationError(
            "--approx-only needs at least one of --shards / --aet"
        )

    if args.che and args.approx_only:
        raise ConfigurationError(
            "--che needs the exact pass (drop --approx-only)"
        )
    source = None
    if args.trace is not None and str(args.trace).endswith(COLUMNAR_SUFFIX):
        source = ColumnarTrace(args.trace)
    # Any non-columnar input still materialises once below; the approx
    # profilers then consume the in-memory trace chunk-wise.
    trace = None
    if not args.approx_only or source is None:
        trace = materialize_trace(_workload(args))
    if source is None:
        source = trace

    headers = ["capacity (blocks)"]
    columns: List[List[float]] = []
    exact = None
    if trace is not None and not args.approx_only:
        capacities = capacities or _default_mrc_capacities(
            trace.num_unique_blocks
        )
        exact = mrc_for_trace(trace, args.warmup, capacities=capacities)
        headers += ["hit rate", "miss ratio"]
    shards_curve = None
    if shards_rate is not None:
        shards_curve = shards_mrc(
            source, capacities, rate=shards_rate,
            warmup_fraction=args.warmup, s_max=args.smax,
        )
        capacities = list(shards_curve.capacities)
        headers.append(f"shards hit rate (R={shards_rate:g})")
    aet_curve = None
    if aet_rate is not None:
        aet_curve = aet_mrc(
            source, capacities, rate=aet_rate,
            warmup_fraction=args.warmup,
        )
        capacities = list(aet_curve.capacities)
        headers.append(f"aet hit rate (R={aet_rate:g})")
    if args.che:
        headers.append("che hit rate")

    # Explicit selection: a legitimate curve must never be skipped for
    # being falsy (an empty-capacity curve is still the reference).
    if exact is not None:
        reference = exact
    elif shards_curve is not None:
        reference = shards_curve
    else:
        reference = aet_curve
    if reference is None or capacities is None:
        # Unreachable through the validated flag combinations above.
        raise ConfigurationError(
            "nothing to compute: pass --shards/--aet or drop --approx-only"
        )
    rows: List[List[object]] = [[capacity] for capacity in capacities]
    if exact is not None:
        for row, hit in zip(rows, exact.hit_rates):
            row += [f"{hit:.4f}", f"{1.0 - hit:.4f}"]
    if shards_curve is not None:
        for row, hit in zip(rows, shards_curve.hit_rates):
            row.append(f"{hit:.4f}")
    if aet_curve is not None:
        for row, hit in zip(rows, aet_curve.hit_rates):
            row.append(f"{hit:.4f}")
    if args.che and trace is not None:
        estimate = che_mrc(trace, capacities, args.warmup)
        for row, hit in zip(rows, estimate.hit_rates):
            row.append(f"{hit:.4f}")

    title = (
        f"LRU miss-ratio curve: {source.info.name} "
        f"({reference.references} refs measured, "
        f"{reference.num_unique_blocks} distinct blocks"
        f"{' est.' if exact is None else ''})"
    )
    return format_table(headers, rows, title=title)


def _run_classify(args: argparse.Namespace) -> str:
    """The ``classify`` command: pattern-classify a trace or workload."""
    from repro.workloads import classify_pattern

    trace = materialize_trace(_workload(args))
    verdict = classify_pattern(trace)
    rows = [["trace", trace.info.name],
            ["references", len(trace)],
            ["distinct blocks", trace.num_unique_blocks],
            ["clients", trace.num_clients],
            ["pattern", verdict.label]]
    for key, value in verdict.features.items():
        rows.append([f"  {key}", f"{value:.4f}"])
    return format_table(["property", "value"], rows,
                        title="pattern classification")


def _describe_workloads(scale: str, only: Optional[List[str]]) -> str:
    """Characterise the generated workloads (the ``workloads`` command)."""
    from repro.experiments import resolve_scale
    from repro.experiments.figure6 import BASELINE_REFS as F6_REFS
    from repro.experiments.figure7 import (
        BASELINE_REFS as F7_REFS,
        EXTRA_GEOMETRY,
    )
    from repro.workloads import (
        describe,
        make_large_workload,
        make_multi_workload,
        make_small_workload,
    )

    resolved = resolve_scale(scale)
    rows = []
    small = ["cs", "glimpse", "sprite", "zipf", "random", "multi"]
    large = ["random", "zipf", "httpd", "dev1", "tpcc1"]
    multi = ["httpd", "openmail", "db2"]

    def include(name: str, family: str) -> bool:
        return only is None or name in only or family in only

    for name in small:
        if not include(name, "small"):
            continue
        trace = make_small_workload(name, scale=max(0.01, resolved.geometry * 16))
        rows.append([f"small/{name}"] + _stat_row(describe(trace)))
    for name in large:
        if not include(name, "large"):
            continue
        trace = make_large_workload(
            name,
            scale=resolved.geometry,
            num_refs=resolved.references(F6_REFS[name]),
        )
        rows.append([f"large/{name}"] + _stat_row(describe(trace)))
    for name in multi:
        if not include(name, "multi"):
            continue
        trace = make_multi_workload(
            name,
            scale=resolved.geometry * EXTRA_GEOMETRY[name],
            num_refs=resolved.references(F7_REFS[name]),
        )
        rows.append([f"multi/{name}"] + _stat_row(describe(trace)))
    return format_table(
        ["workload", "refs", "blocks", "clients", "reuse",
         "mean dist", "median dist", "sharing"],
        rows,
        title=f"Generated workloads @ scale={scale}",
    )


def _stat_row(stats) -> List[object]:
    return [
        stats.num_refs,
        stats.num_unique_blocks,
        stats.num_clients,
        round(stats.reuse_fraction, 3),
        round(stats.mean_reuse_distance, 1),
        round(stats.median_reuse_distance, 1),
        round(stats.sharing_fraction, 3),
    ]


def _run_experiment(
    name: str,
    scale: str,
    workloads: Optional[List[str]],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    check_invariants: Optional[int] = None,
) -> str:
    if name == "workloads":
        return _describe_workloads(scale, workloads)
    if name in ("figure2", "figure3", "table1"):
        result = run_section2(scale, workloads or SECTION2_WORKLOADS)
        if name == "figure2":
            return result.render_figure2()
        if name == "figure3":
            return result.render_figure3()
        return result.render_table1()
    if name == "figure6":
        return run_figure6(
            scale, workloads or FIGURE6_WORKLOADS,
            jobs=jobs, cache_dir=cache_dir,
            check_invariants=check_invariants,
        ).render()
    if name == "figure7":
        return run_figure7(
            scale, workloads or FIGURE7_WORKLOADS,
            jobs=jobs, cache_dir=cache_dir,
            check_invariants=check_invariants,
        ).render()
    if name == "ablations":
        return "\n\n".join(
            a.render()
            for a in run_all_ablations(
                scale, jobs=jobs, cache_dir=cache_dir,
                check_invariants=check_invariants,
            )
        )
    if name == "all":
        parts = []
        for sub in ("figure2", "figure3", "table1", "figure6", "figure7",
                    "ablations"):
            parts.append(_run_experiment(
                sub, scale, None, jobs, cache_dir, check_invariants
            ))
        return "\n\n".join(parts)
    raise UnknownExperimentError(
        f"unknown experiment {name!r}; available: {EXPERIMENT_TARGETS}"
    )


def _run_simulate(args: argparse.Namespace) -> str:
    """The ``simulate`` command: one scheme, one trace, full report.

    The run is expressed as a :class:`repro.runner.RunSpec`, so
    ``--cache-dir`` makes repeated invocations with identical parameters
    return instantly from the on-disk result cache.
    """
    from repro.sim import custom, paper_three_level, paper_two_level

    workload = _workload(args)
    if args.clients:
        num_clients = args.clients
    else:
        # Materialized once here; the executor's per-process memo reuses
        # this build for the simulation itself.
        num_clients = materialize_trace(workload).num_clients
    if len(args.levels) == 3:
        costs = paper_three_level()
    elif len(args.levels) == 2:
        costs = paper_two_level()
    else:
        costs = custom(
            [0.0] + [1.0] * (len(args.levels) - 1),
            11.2,
            [1.0] * (len(args.levels) - 1),
        )
    spec = RunSpec(
        scheme=args.scheme,
        capacities=tuple(args.levels),
        workload=workload,
        costs=CostSpec.from_model(costs),
        num_clients=num_clients,
        warmup_fraction=args.warmup,
    )
    result = run_specs(
        [spec],
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        check_invariants=args.check_invariants,
        batch_size=args.batch_size,
    )[0]
    rows = [
        ["scheme", spec.build_scheme().describe()],
        ["workload", f"{result.workload} ({result.references} refs measured)"],
        ["total hit rate", f"{result.total_hit_rate:.4f}"],
        ["miss rate", f"{result.miss_rate:.4f}"],
    ]
    for level, rate in enumerate(result.level_hit_rates, start=1):
        rows.append([f"L{level} hit rate", f"{rate:.4f}"])
    for boundary, rate in enumerate(result.demotion_rates, start=1):
        rows.append([f"B{boundary} demotion rate", f"{rate:.4f}"])
    rows.append(["T_ave (ms)", f"{result.t_ave_ms:.4f}"])
    rows.append(["  hit part", f"{result.t_hit_ms:.4f}"])
    rows.append(["  miss part", f"{result.t_miss_ms:.4f}"])
    rows.append(["  demotion part", f"{result.t_demotion_ms:.4f}"])
    if "refs_per_s" in result.extras:
        rows.append(
            ["throughput (refs/s)", f"{result.extras['refs_per_s']:.0f}"]
        )
    return format_table(["metric", "value"], rows, title="simulation result")


def _run_tournament(args: argparse.Namespace) -> str:
    """The ``tournament`` command: every (client policy x server
    policy x workload) cell of the two-level composed hierarchy,
    ranked.

    ``--smoke`` pins the tiny scale and a single workload so the full
    policy grid still finishes within a CI smoke budget; ``--csv``
    additionally writes the deterministic leaderboard file.
    """
    from repro.experiments import (
        SMOKE_WORKLOADS,
        TOURNAMENT_WORKLOADS,
        run_tournament,
    )

    if args.smoke:
        args.scale = "tiny"
    workloads = args.workloads or list(
        SMOKE_WORKLOADS if args.smoke else TOURNAMENT_WORKLOADS
    )
    result = run_tournament(
        args.scale,
        client_policies=args.client_policies,
        server_policies=args.server_policies,
        workloads=workloads,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        check_invariants=args.check_invariants,
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
    return result.render(top=args.top)


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.approx import (
        DEFAULT_SAMPLE_RATE as APPROX_DEFAULT_RATE,
    )

    parser = argparse.ArgumentParser(
        prog="ulc-repro",
        description=(
            "Reproduce the figures and tables of 'ULC: A File Block "
            "Placement and Replacement Protocol ...' (ICDCS 2004)."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "for the 'experiment' command: which experiment to run "
            f"(one of {', '.join(EXPERIMENT_TARGETS)}; default: all)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=["tiny", "bench", "paper"],
        help="experiment size preset (default: bench)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "simulation worker processes: unset/1 = serial, "
            "0 = all cores, N = that many workers"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "content-addressed result cache directory: runs whose spec "
            "hash is present are loaded instead of simulated"
        ),
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="restrict to these workloads (experiment-specific names)",
    )
    parser.add_argument(
        "--check-invariants",
        nargs="?",
        const=1000,
        type=int,
        default=None,
        metavar="N",
        help=(
            "validate each scheme's structural invariants every N "
            "references while simulating (flag alone: N=1000); results "
            "are unchanged, violations raise a ProtocolError"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the report to this file",
    )
    simulate = parser.add_argument_group("simulate options")
    simulate.add_argument(
        "--scheme",
        default="ulc",
        help="scheme registry name (simulate; default: ulc)",
    )
    simulate.add_argument(
        "--levels",
        nargs="+",
        type=int,
        default=[800, 800, 800],
        metavar="BLOCKS",
        help="cache size of each level in blocks (simulate)",
    )
    simulate.add_argument(
        "--trace",
        default=None,
        help=(
            "trace file to replay (simulate, mrc, classify), read by "
            "suffix: .ctr, .npz, .csv, .bin/.raw, else text"
        ),
    )
    simulate.add_argument(
        "--workload",
        default="zipf",
        help="generated workload when no --trace is given (simulate)",
    )
    simulate.add_argument(
        "--refs",
        type=int,
        default=100_000,
        help="references to generate when no --trace is given (simulate)",
    )
    simulate.add_argument(
        "--clients",
        type=int,
        default=0,
        help="number of clients (simulate; 0 = from the trace)",
    )
    simulate.add_argument(
        "--warmup",
        type=float,
        default=0.1,
        help="warm-up fraction (simulate; default 0.1)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "simulate: drive the run through the batched engine in "
            "chunks of N references (bit-identical results); bench: "
            "chunk size of the batched scenarios"
        ),
    )
    bench = parser.add_argument_group("bench options")
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "bench: JSON document to compare against (default: the "
            "--output file's previous content); check: findings "
            "baseline to subtract (default: the committed "
            "src/repro/checks/flow/baseline.json, shared by every pass)"
        ),
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help=(
            "bench: allowed fractional refs/s drop before the run "
            "fails (default 0.30)"
        ),
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "bench: reduced references/rounds for CI smoke runs; "
            "tournament: tiny scale over a single workload"
        ),
    )
    bench.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="bench: timed repetitions per scenario (best-of)",
    )
    mrc = parser.add_argument_group("mrc options")
    mrc.add_argument(
        "--capacities",
        nargs="+",
        type=int,
        default=None,
        metavar="BLOCKS",
        help=(
            "mrc: capacity points to evaluate (default: geometric series "
            "up to the trace's distinct-block count); --trace/--workload/"
            "--refs/--warmup select the trace as for simulate"
        ),
    )
    mrc.add_argument(
        "--che",
        action="store_true",
        help=(
            "mrc: add the Che/Fagin closed-form hit-rate estimate "
            "alongside the exact curve"
        ),
    )
    mrc.add_argument(
        "--shards",
        nargs="?",
        const=APPROX_DEFAULT_RATE,
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "mrc: add the SHARDS spatially-sampled estimate at this "
            f"sampling rate (flag alone: {APPROX_DEFAULT_RATE})"
        ),
    )
    mrc.add_argument(
        "--aet",
        nargs="?",
        const=APPROX_DEFAULT_RATE,
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "mrc: add the AET reuse-time-sampled estimate at this "
            f"sampling rate (flag alone: {APPROX_DEFAULT_RATE})"
        ),
    )
    mrc.add_argument(
        "--smax",
        type=int,
        default=None,
        metavar="SAMPLES",
        help=(
            "mrc: cap SHARDS at a fixed sample budget (fixed-size "
            "variant, rate adapts downward; implies --shards)"
        ),
    )
    mrc.add_argument(
        "--approx-only",
        action="store_true",
        help=(
            "mrc: skip the exact Mattson pass entirely (requires "
            "--shards or --aet; the only mode that never materialises "
            "a .ctr trace in memory)"
        ),
    )
    tournament = parser.add_argument_group("tournament options")
    tournament.add_argument(
        "--client-policies",
        nargs="*",
        default=None,
        metavar="POLICY",
        help=(
            "tournament: policies to field at the client level "
            "(default: every registered policy)"
        ),
    )
    tournament.add_argument(
        "--server-policies",
        nargs="*",
        default=None,
        metavar="POLICY",
        help=(
            "tournament: policies to field at the server level "
            "(default: every registered policy)"
        ),
    )
    tournament.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help=(
            "tournament: also write the ranked leaderboard as a "
            "deterministic CSV (byte-identical across repeat runs)"
        ),
    )
    tournament.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="tournament: show only the N best cells in the table",
    )
    trace_group = parser.add_argument_group("trace options")
    trace_group.add_argument(
        "--out",
        default=None,
        metavar="DIR.ctr",
        help="trace convert: columnar output directory to write",
    )
    trace_group.add_argument(
        "--trace-format",
        default="auto",
        choices=["auto", "columnar", "npz", "csv", "binary", "text"],
        help="trace: input format (default: by file suffix)",
    )
    trace_group.add_argument(
        "--block-column",
        type=int,
        default=0,
        metavar="COL",
        help="trace convert: CSV column holding block ids (default 0)",
    )
    trace_group.add_argument(
        "--client-column",
        type=int,
        default=None,
        metavar="COL",
        help="trace convert: CSV column holding client ids (default: none)",
    )
    trace_group.add_argument(
        "--delimiter",
        default=",",
        help="trace convert: CSV field delimiter (default ',')",
    )
    trace_group.add_argument(
        "--skip-header",
        action="store_true",
        help="trace convert: skip the first CSV line",
    )
    trace_group.add_argument(
        "--binary-dtype",
        default="<i8",
        metavar="DTYPE",
        help=(
            "trace convert: numpy dtype of raw binary block-id streams "
            "(default '<i8')"
        ),
    )
    trace_group.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="REFS",
        help=(
            "trace/mrc: streaming chunk size in references (default "
            "1Mi); bounds resident memory for .ctr sources"
        ),
    )
    trace_group.add_argument(
        "--intern",
        action="store_true",
        help=(
            "trace convert: renumber block ids into a dense 0..n-1 "
            "range while converting (first-seen order)"
        ),
    )
    check = parser.add_argument_group("check options")
    check.add_argument(
        "--format",
        default="human",
        choices=["human", "json", "sarif"],
        help="check report format (default: human)",
    )
    check.add_argument(
        "--select",
        nargs="*",
        default=None,
        metavar="RULE",
        help="restrict the check to these rule codes (e.g. DET001)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="list every check rule with its rationale and exit",
    )
    check.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the whole-program dataflow pass (call graph + "
            "taint + cache-key soundness, FLOW001..3)"
        ),
    )
    check.add_argument(
        "--kernel",
        action="store_true",
        help=(
            "also run the slot-typestate pass over the slab kernel "
            "(use-after-free + slot-leak + cross-slab + guarded hit-run "
            "fast paths, KER001..4)"
        ),
    )
    check.add_argument(
        "--bounds",
        action="store_true",
        help=(
            "also run the static cost-bound pass over the hot paths "
            "(abstract cost interpreter + hot-path allocation lint + "
            "'# repro: bound' hygiene, BND001..4)"
        ),
    )
    check.add_argument(
        "--all",
        action="store_true",
        dest="check_all",
        help=(
            "run every pass (shallow + deep + kernel + bounds) and "
            "report one merged result"
        ),
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the shared findings baseline from the current "
            "findings of every pass"
        ),
    )
    check.add_argument(
        "--update-hash-schema",
        action="store_true",
        help=(
            "regenerate the committed hash-schema manifest that FLOW003 "
            "compares SPEC_VERSION against"
        ),
    )
    check.add_argument(
        "--hash-schema",
        metavar="PATH",
        help=(
            "hash-schema manifest to compare (with --deep) or write "
            "(with --update-hash-schema); default: the committed "
            "src/repro/checks/flow/hash_schema.json"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        if args.experiment == "check":
            return _run_check(args)
        if args.experiment == "bench":
            return _run_bench(args)
        if args.experiment == "trace":
            return _run_trace(args)
        if args.experiment == "simulate":
            report = _run_simulate(args)
        elif args.experiment == "mrc":
            report = _run_mrc(args)
        elif args.experiment == "classify":
            report = _run_classify(args)
        elif args.experiment == "tournament":
            report = _run_tournament(args)
        else:
            name = args.experiment
            if name == "experiment":
                name = args.target or "all"
            report = _run_experiment(
                name, args.scale, args.workloads, args.jobs, args.cache_dir,
                args.check_invariants,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - started
    print(report)
    print(
        f"\n[{args.experiment} @ scale={args.scale} in {elapsed:.1f}s]",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
