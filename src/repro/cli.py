"""Command-line interface.

``footprint-noc`` (or ``python -m repro``) runs either a single
simulation or a whole paper experiment::

    footprint-noc run --routing footprint --traffic transpose \\
        --injection-rate 0.3 --width 8 --vcs 10

    footprint-noc experiment fig9 --scale smoke
    footprint-noc experiment fault-sweep --scale smoke --fault-kind link
    footprint-noc experiment table1
    footprint-noc run --faults 'link:5:east,router:10@200+500'
    footprint-noc cache stats
    footprint-noc validate --runs 8 --seed 1
    footprint-noc serve --port 7455
    footprint-noc submit --routing footprint,dor --rates 0.02,0.05 --wait
    footprint-noc jobs
    footprint-noc tune --traffic hotspot --budget 40000000
    footprint-noc tune report TUNE_hotspot-8x8_20260808-120000.json
    footprint-noc list

Validation failures (unknown algorithm or pattern, malformed fault spec,
inconsistent configuration, a bad ``$REPRO_*`` value) print a one-line
``error: ...`` message and exit with status 2 instead of dumping a
traceback; Ctrl-C prints ``interrupted`` and exits with status 130.
"""

from __future__ import annotations

import argparse
import sys

from repro import settings
from repro.exceptions import ConfigurationError, ReproError

# Everything else is imported by the verb that uses it: building the
# parser, `list`, a warm `experiment` and the service clients must not
# pay for loading the simulator.

#: What ``--jobs`` falls back to when neither the flag nor $REPRO_JOBS
#: is given; every other verb (and every library caller) gets 1.  These
#: two promise identical output for any worker count, so the pool only
#: ever trades wall clock and they use every usable CPU.  `validate`
#: stays serial because there 1 *means* "skip the pooled re-run", and
#: `serve` because sizing a long-lived daemon is the operator's call.
DEFAULT_JOBS = {"experiment": "auto", "tune": "auto"}


#: The $REPRO_* variables each verb reads besides $REPRO_JOBS (resolved
#: with --jobs); `main` parses them before the verb runs, so a bad value
#: is an error even where a warm cache would never have come to read it.
_READS = dict(
    experiment="CACHE_DIR SERVICE VALIDATE", tune="CACHE_DIR SERVICE VALIDATE",
    validate="SERVICE VALIDATE", cache="CACHE_DIR", submit="SERVICE",
    jobs="SERVICE", run="VALIDATE", serve="VALIDATE",
)


def _jobs_arg(text: str) -> int | str:
    """Validate --jobs at parse time so errors are argparse-clean."""
    try:
        return settings.parse("REPRO_JOBS", text, source="--jobs")
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _comma_list(convert, what: str):
    """An argparse type: a non-empty comma-separated list of ``what``.

    ``convert`` turns one item into its value and raises
    :class:`ValueError` for a bad one.
    """

    def parse(text: str) -> tuple:
        try:
            items = tuple(
                convert(item) for item in text.split(",") if item.strip()
            )
        except ValueError:
            items = ()
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            )
        return items

    return parse


_RATES = _comma_list(float, "floats")

#: The network `run` and `submit` describe flag by flag; each lands in
#: the SimulationConfig field its ``dest`` names (`_config_from_args`).
_NETWORK_FLAGS = {
    "--traffic": dict(dest="traffic", default="uniform"),
    "--width": dict(dest="width", type=int, default=8),
    "--height": dict(dest="height", type=int),
    "--topology": dict(
        dest="topology",
        choices=["mesh", "torus"],
        default="mesh",
        help=(
            "network topology: 'mesh' (the paper's) or 'torus' (wrap "
            "links, dateline VC classes; needs >= 2 VCs, >= 3 for "
            "Duato-based routing)"
        ),
    ),
    "--vcs": dict(dest="num_vcs", type=int, default=10),
    "--packet-size": dict(dest="packet_size", type=int, default=1),
    "--warmup": dict(dest="warmup_cycles", type=int, default=1000),
    "--measure": dict(dest="measure_cycles", type=int, default=2000),
    "--drain": dict(dest="drain_cycles", type=int, default=5000),
    "--seed": dict(dest="seed", type=int, default=1),
}

_CACHE_DIR = (
    f"default: $REPRO_CACHE_DIR, else "
    f"./{settings.SETTINGS['REPRO_CACHE_DIR'].default}"
)

#: Every flag more than one verb takes, declared once.  `_flags`
#: attaches them; a verb states only what is its own: a default, a help
#: sentence.
_SHARED_FLAGS = {
    **_NETWORK_FLAGS,
    "--scale": dict(choices=["smoke", "bench", "paper"], default="bench"),
    "--jobs": dict(
        type=_jobs_arg,
        metavar="N|auto",
        help=(
            "worker processes (default: $REPRO_JOBS, else 'auto' = one "
            "per CPU this process may use; 1 = serial, no pool); the "
            "output is identical for any value"
        ),
    ),
    "--background-rate": dict(
        type=float, default=0.3, help="hotspot background load (default 0.3)"
    ),
    "--cache": dict(
        action=argparse.BooleanOptionalAction,
        help=(
            "reuse simulation results from the on-disk cache and store "
            "fresh ones (results are identical either way; a warm cache "
            "replays the whole verb with zero simulations; default: "
            "%(default)s)"
        ),
    ),
    "--cache-dir": dict(metavar="DIR", help=f"cache directory ({_CACHE_DIR})"),
    "--address": dict(
        metavar="HOST:PORT",
        help="service address (default: $REPRO_SERVICE, else :7455)",
    ),
}


def _flags(parser: argparse.ArgumentParser, *names: str, **own) -> None:
    """Attach shared flags to a verb, ``own`` overriding the declaration."""
    for name in names:
        parser.add_argument(name, **{**_SHARED_FLAGS[name], **own})


def _build_parser() -> argparse.ArgumentParser:
    from repro.harness import FIGURES  # the table alone: no driver loads

    parser = argparse.ArgumentParser(
        prog="footprint-noc",
        description=(
            "Cycle-level NoC simulator reproducing 'Footprint: Regulating "
            "Routing Adaptiveness in Networks-on-Chip' (ISCA 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single simulation")
    run.add_argument("--routing", default="footprint")
    run.add_argument("--injection-rate", type=float, default=0.1)
    _flags(run, *_NETWORK_FLAGS)
    run.add_argument("--buffer-depth", type=int, default=4)
    run.add_argument(
        "--packet-size-range",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        default=None,
    )
    run.add_argument("--hotspot-rate", type=float, default=0.1)
    _flags(run, "--background-rate")
    run.add_argument("--footprint-vc-limit", type=int, default=None)
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault schedule: comma-separated 'link:NODE:DIR', "
            "'router:NODE', 'links:K' or 'routers:K' items, each with "
            "optional '@CYCLE' (activation), '+DURATION' (transient) "
            "and, for the random forms, '~SEED' modifiers — e.g. "
            "'link:5:east,routers:2~7@100+500'"
        ),
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "collect time-series telemetry (occupancy, link utilization, "
            "stalls, footprint counters) and print a summary; telemetry "
            "observes the run without changing its results"
        ),
    )
    run.add_argument(
        "--sample-every",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "telemetry sampling interval in cycles (default 100; 0 "
            "disables sampling); implies --telemetry"
        ),
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "record per-flit lifecycle events and write them to FILE — "
            "'.jsonl' for JSON Lines, anything else for Chrome "
            "trace_event JSON (open in Perfetto / chrome://tracing); "
            "implies --telemetry"
        ),
    )
    run.add_argument(
        "--tree-node",
        type=int,
        action="append",
        default=None,
        metavar="NODE",
        help=(
            "sample the congestion tree of destination NODE each "
            "telemetry sample (repeatable); implies --telemetry"
        ),
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help=(
            "echo cycle count and delivered packets to stderr while the "
            "simulation runs (off by default)"
        ),
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's figures/tables"
    )
    experiment.add_argument("figure", choices=list(FIGURES))
    _flags(experiment, "--scale", "--seed", "--jobs")
    _flags(experiment, "--cache", default=False)
    _flags(
        experiment,
        "--cache-dir",
        help=f"cache directory ({_CACHE_DIR}); implies --cache",
    )
    experiment.add_argument(
        "--fault-kind",
        choices=["link", "router"],
        default="link",
        help="component class the fault-sweep experiment breaks",
    )
    experiment.add_argument(
        "--fault-counts",
        type=_comma_list(int, "integers"),  # the driver rejects k < 0
        default=None,
        metavar="K,K,...",
        help=(
            "fault counts swept by the fault-sweep experiment "
            "(default: the scale's ladder, e.g. 0,1,2,4,8)"
        ),
    )

    cache = sub.add_parser(
        "cache", help="inspect or trim the persistent result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count and total size of the store"),
        ("clear", "delete every cached result"),
        ("prune", "keep only the newest N entries"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        _flags(cache_cmd, "--cache-dir")
        if name == "prune":
            cache_cmd.add_argument(
                "--max-entries",
                type=int,
                required=True,
                metavar="N",
                help="number of most-recent entries to keep",
            )

    validate = sub.add_parser(
        "validate",
        help=(
            "run the runtime invariant checkers: randomized differential "
            "sweep over both engine modes plus warm-cache replay"
        ),
    )
    validate.add_argument(
        "--runs",
        type=int,
        default=8,
        metavar="N",
        help="number of randomized configurations to sweep (default 8)",
    )
    _flags(validate, "--seed")
    _flags(
        validate,
        "--jobs",
        help=(
            "worker processes for the final pooled re-run (default: "
            "$REPRO_JOBS, else 1, which skips that phase; 'auto' = one "
            "per usable CPU)"
        ),
    )
    validate.add_argument(
        "--no-faults",
        action="store_true",
        help="draw only fault-free configurations",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the experiment service: an async job server that "
            "runs sweep grids first come, first served, deduped "
            "against in-flight work and the result cache"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 7455; 0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--state-dir",
        metavar="DIR",
        help=(
            "service state directory, home of the service's default "
            "cache (default: ./.repro-service)"
        ),
    )
    _flags(
        serve,
        "--jobs",
        help=(
            "concurrent simulations (default: $REPRO_JOBS, else 1 — "
            "size the daemon explicitly; 'auto' = one per usable CPU)"
        ),
    )
    _flags(
        serve,
        "--cache-dir",
        help=(
            "result cache backing the service's dedup (default: "
            "<state-dir>/cache)"
        ),
    )

    submit = sub.add_parser(
        "submit",
        help="submit a sweep grid to a running experiment service",
    )
    _flags(submit, "--address")
    submit.add_argument(
        "--name",
        default=None,
        help="job name (default: derived from the grid)",
    )
    submit.add_argument(
        "--stream",
        default="default",
        help="label shown by `repro jobs`; it does not change the order",
    )
    submit.add_argument(
        "--routing",
        type=_comma_list(str.strip, "routing algorithms"),
        default="footprint",
        help="comma-separated routing algorithms to sweep",
    )
    submit.add_argument(
        "--rates",
        type=_RATES,
        default="0.02,0.05",
        help=(
            "comma-separated offered loads to sweep (the hotspot rate "
            "on hotspot traffic, else the injection rate)"
        ),
    )
    _flags(submit, *_NETWORK_FLAGS)
    submit.add_argument(
        "--wait",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="poll until the job finishes and print its results",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting after this long (default: forever)",
    )

    jobs_cmd = sub.add_parser(
        "jobs", help="list, inspect, or cancel service jobs"
    )
    _flags(jobs_cmd, "--address")
    jobs_cmd.add_argument(
        "--job", default=None, metavar="ID", help="show one job in detail"
    )
    jobs_cmd.add_argument(
        "--cancel", default=None, metavar="ID", help="cancel a job"
    )

    tune = sub.add_parser(
        "tune",
        help=(
            "search the config space (congestion threshold, VC limit, "
            "VC count, buffer depth, routing) for Pareto-optimal "
            "latency/throughput/cost configs, evaluating through the "
            "cached simulation farm"
        ),
    )
    tune.add_argument(
        "--traffic",
        default="hotspot",
        help="traffic pattern of the tuning scenario (default hotspot)",
    )
    _flags(tune, "--width", "--topology", "--seed")
    _flags(tune, "--scale", help="full-fidelity cycle counts (default bench)")
    tune.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="CYCLE_NODES",
        help=(
            "search budget in estimated cycle-nodes "
            "(cycles x mesh nodes per task, cache-independent; "
            "default: unlimited)"
        ),
    )
    for flag, default, text in (
        ("--n0", 16, "successive-halving cohort size"),
        ("--refine-rounds", 2, "beam-refinement rounds"),
    ):
        tune.add_argument(
            flag, type=int, default=default, help=f"{text} (default {default})"
        )
    tune.add_argument(
        "--rates",
        type=_RATES,
        default=None,
        metavar="R,R,...",
        help=(
            "evaluation rate ladder, ascending (default: a per-traffic "
            "4-point ladder)"
        ),
    )
    tune.add_argument(
        "--latency-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "ladder rate the latency objective reads (default: the "
            "middle rung)"
        ),
    )
    _flags(tune, "--background-rate", "--jobs")
    _flags(tune, "--cache", default=True)
    _flags(tune, "--cache-dir")
    tune.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="where the TUNE_*.json artifact lands (default: .)",
    )
    tune.add_argument(
        "--no-artifact",
        action="store_true",
        help="skip writing the TUNE_*.json artifact",
    )
    tune_sub = tune.add_subparsers(dest="tune_command")
    tune_report = tune_sub.add_parser(
        "report", help="re-render a TUNE_*.json artifact"
    )
    tune_report.add_argument("file", help="artifact written by repro tune")

    trace = sub.add_parser(
        "trace", help="inspect recorded flit lifecycle traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="digest a trace file (JSONL or Chrome trace_event JSON)",
    )
    summarize.add_argument("file", help="trace file written by run --trace-out")

    sub.add_parser("list", help="list algorithms, patterns, $REPRO_* values")
    return parser


#: Cycle interval of `run --progress` reports.
PROGRESS_EVERY = 1000


def _telemetry_from_args(args: argparse.Namespace):
    """Build the run's TelemetryConfig from CLI flags (None when off)."""
    tree_nodes = tuple(args.tree_node) if args.tree_node else ()
    wants_telemetry = (
        args.telemetry
        or args.sample_every is not None
        or args.trace_out is not None
        or bool(tree_nodes)
    )
    if not (wants_telemetry or args.progress):
        return None
    from repro.telemetry.config import DEFAULT_SAMPLE_EVERY, TelemetryConfig

    if args.sample_every is not None:
        sample_every = args.sample_every
    elif wants_telemetry:
        sample_every = DEFAULT_SAMPLE_EVERY
    else:
        sample_every = 0  # --progress alone: no series, just the ticker
    return TelemetryConfig(
        sample_every=sample_every,
        tree_nodes=tree_nodes,
        trace_flits=args.trace_out is not None,
        progress_every=PROGRESS_EVERY if args.progress else 0,
    )


def _config_from_args(args: argparse.Namespace, **fields):
    """The SimulationConfig of the network flags plus ``fields``."""
    from repro.sim.config import SimulationConfig

    for spec in _NETWORK_FLAGS.values():
        fields[spec["dest"]] = getattr(args, spec["dest"])
    return SimulationConfig(**fields)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_simulation

    faults = None
    if args.faults is not None:
        from repro.faults.schedule import parse_fault_spec

        faults = parse_fault_spec(
            args.faults,
            args.width,
            args.height if args.height is not None else args.width,
            default_seed=args.seed,
            topology=args.topology,
        )
    config = _config_from_args(
        args,
        routing=args.routing,
        injection_rate=args.injection_rate,
        vc_buffer_depth=args.buffer_depth,
        packet_size_range=(
            tuple(args.packet_size_range)
            if args.packet_size_range is not None
            else None
        ),
        hotspot_rate=args.hotspot_rate,
        background_rate=args.background_rate,
        footprint_vc_limit=args.footprint_vc_limit,
        faults=faults,
        telemetry=_telemetry_from_args(args),
    )
    result = run_simulation(config)
    print(f"configuration : {config.describe()}")
    if faults is not None:
        print(f"faults        : {faults.describe()}")
    print(f"cycles run    : {result.cycles_run}")
    if result.latency.count:
        print(f"avg latency   : {result.avg_latency:.2f} cycles")
        print(f"p99 latency   : {result.latency.percentile(99):.0f} cycles")
    else:
        print("avg latency   : n/a (no measured packets delivered)")
    print(f"accepted rate : {result.accepted_rate:.4f} flits/node/cycle")
    print(f"offered rate  : {result.offered_rate:.4f} flits/node/cycle")
    print(f"drained       : {'yes' if result.drained else 'no'}")
    if faults is not None:
        fraction = result.delivered_fraction
        text = "n/a" if fraction != fraction else f"{fraction:.4f}"
        print(f"delivered frac: {text}")
    if result.blocking.blocking_events:
        print(f"block purity  : {result.blocking.purity:.3f}")
    if result.telemetry is not None:
        print("telemetry:")
        for line in result.telemetry.summary().splitlines():
            print(f"  {line}")
        if args.trace_out is not None:
            from repro.telemetry.trace import write_trace

            count = write_trace(result.telemetry, args.trace_out)
            print(f"trace written : {args.trace_out} ({count} events)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.trace import summarize_trace

    try:
        print(summarize_trace(args.file))
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: not a recognized trace file: {exc!r}", file=sys.stderr)
        return 2
    return 0


def _cache_from_args(args: argparse.Namespace):
    """The ResultCache that --cache / --cache-dir ask for (None when off)."""
    if not (args.cache or args.cache_dir is not None):
        return None
    from repro.harness.cache import ResultCache

    return ResultCache(args.cache_dir)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import FIGURES, experiments, reporting

    cache = _cache_from_args(args)
    driver, renderer, takes = FIGURES[args.figure]
    values = dict(
        vars(args), scale=experiments.SCALES[args.scale], cache=cache
    )
    run = getattr(experiments, driver)
    render = getattr(reporting, renderer)
    print(render(run(**{name: values[name] for name in takes})))
    if cache is not None:
        print(cache.describe())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    command = args.cache_command
    if command == "stats":
        stats = cache.stats()
        kib = stats["total_bytes"] / 1024.0
        print(f"directory : {stats['directory']}")
        print(f"entries   : {stats['entries']}")
        print(f"size      : {kib:.1f} KiB")
    elif command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
    elif command == "prune":
        if args.max_entries < 0:
            raise ConfigurationError("--max-entries must be >= 0")
        removed = cache.prune(args.max_entries)
        print(
            f"removed {removed} entries from {cache.directory} "
            f"(keeping newest {args.max_entries})"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.config import validation_from_env
    from repro.sim.engine import ENGINE_MODES
    from repro.validate.differential import random_configs, run_differential

    if args.runs < 1:
        raise ConfigurationError("--runs must be >= 1")
    configs = random_configs(
        args.runs, args.seed, include_faults=not args.no_faults
    )
    report = run_differential(configs, jobs=args.jobs)
    failures = 0
    for entry in report.entries:
        if entry.ok:
            print(f"ok   {entry.description}  [{entry.checks_run} checks]")
        else:
            failures += 1
            print(f"FAIL {entry.description}")
            if entry.error is not None:
                print(f"  {entry.error}")
            elif not entry.modes_identical:
                print(f"  engine modes disagree: {sorted(ENGINE_MODES)}")
            elif entry.warm_misses != 0:
                print(f"  warm cache replay missed {entry.warm_misses}x")
            else:
                print("  cache replay signature mismatch")
    if report.pool_identical is not None:
        status = "identical" if report.pool_identical else "DIVERGED"
        print(f"pooled re-run: {status}")
        if not report.pool_identical:
            failures += 1
    timed = [e for e in report.entries if e.unchecked_s]
    if timed:
        checked = sum(e.checked_s for e in timed)
        unchecked = sum(e.unchecked_s for e in timed)
        # The cold cache pass is the sweep's plain ``skip`` run, unless
        # the environment turns the checkers on for it as well.
        how = (
            "unchecked (the cold cache pass)"
            if validation_from_env() is None
            else "in the cold cache pass (checked too: $REPRO_VALIDATE)"
        )
        print(
            f"checkers: {sum(e.checks_run for e in report.entries)} sweeps; "
            f"skip runs {checked:.2f} s checked vs {unchecked:.2f} s {how}, "
            f"{checked / unchecked:.2f}x"
        )
    print(
        f"validate: {len(report.entries) - failures}/{len(report.entries)} "
        f"configurations clean (modes {'/'.join(ENGINE_MODES)} + "
        f"warm-cache replay, all checkers on)"
    )
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import serve

    port = args.port if args.port is not None else settings.DEFAULT_PORT
    try:
        return asyncio.run(
            serve(
                host=args.host,
                port=port,
                state_dir=args.state_dir,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            )
        )
    except KeyboardInterrupt:
        print("repro service interrupted", file=sys.stderr)
        return 130


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.harness.parallel import SimTask
    from repro.service.client import ServiceClient

    tasks = [
        SimTask(_config_from_args(args, routing=routing), rate=rate)
        for routing in args.routing
        for rate in args.rates
    ]
    name = args.name or (
        f"{args.traffic}-{'+'.join(args.routing)}-x{len(args.rates)}"
    )
    with ServiceClient.from_address(args.address) as client:
        response = client.submit_tasks(name, tasks, stream=args.stream)
        job_id = response["job_id"]
        dedup_note = " (deduped: identical grid already known)" if (
            response["deduped"]
        ) else ""
        print(
            f"job {job_id} [{name}] on stream '{args.stream}': "
            f"{response['tasks']} tasks, hash {response['hash'][:12]}"
            f"{dedup_note}"
        )
        if not args.wait:
            return 0
        job = client.wait(job_id, timeout=args.timeout)
        counts = job["counts"]
        print(
            f"job {job_id} {job['state']} in {job['elapsed_s']}s: "
            f"{counts['simulated']} simulated, {counts['cached']} cached, "
            f"{counts['shared']} shared"
        )
        result = client.result(job_id)
        for point in result["points"]:
            latency = point.get("avg_latency")
            latency_text = (
                f"{latency:8.2f}" if latency is not None else "     n/a"
            )
            print(
                f"  {point['routing']:>16s} {point['traffic']:>10s} "
                f"rate={point['rate']:.3f} -> lat={latency_text} "
                f"acc={point.get('accepted_rate', float('nan')):.4f} "
                f"[{point['kind'] or point['state']}]"
            )
        return 0 if job["state"] == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient.from_address(args.address) as client:
        if args.cancel is not None:
            response = client.cancel(args.cancel)
            verdict = (
                "cancelled" if response["cancelled"] else "already terminal"
            )
            print(f"job {args.cancel}: {verdict} (state {response['state']})")
            return 0
        if args.job is not None:
            job = client.status(args.job)["job"]
            counts = job["counts"]
            print(f"job {job['job_id']} [{job['name']}]")
            print(f"  stream : {job['stream']}")
            print(f"  state  : {job['state']}")
            print(f"  hash   : {job['hash'][:12]}")
            print(
                f"  tasks  : {counts['done']}/{counts['total']} done "
                f"({counts['simulated']} simulated, {counts['cached']} "
                f"cached, {counts['shared']} shared)"
            )
            if job["error"]:
                print(f"  error  : {job['error']}")
            for timestamp, message in job["events"]:
                print(f"  event  : {message}")
            return 0
        status = client.status()
        totals = status["totals"]
        print(
            f"{totals['jobs']} jobs, "
            f"{totals['active_workers']}/{totals['max_workers']} workers "
            f"busy; {totals['simulated']} simulated, {totals['cached']} "
            f"cached, {totals['shared']} shared"
        )
        for job in status["jobs"]:
            counts = job["counts"]
            print(
                f"  {job['job_id']:<5s} {job['state']:<9s} "
                f"{job['stream']:<12s} {counts['done']}/{counts['total']} "
                f"done  [{job['name']}]"
            )
        return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if getattr(args, "tune_command", None) == "report":
        from repro.tuner.report import load_tune, render_tune

        print(render_tune(load_tune(args.file)))
        return 0

    from repro.harness.experiments import SCALES
    from repro.tuner.objectives import Scenario
    from repro.tuner.report import render_tune, write_tune_artifact
    from repro.tuner.runner import run_tune

    base = SCALES[args.scale].config(
        traffic=args.traffic,
        width=args.width,
        topology=args.topology,
        seed=args.seed,
        background_rate=args.background_rate,
    )
    scenario = Scenario(base, args.rates, args.latency_rate)
    result = run_tune(
        scenario,
        budget_cycles=args.budget,
        seed=args.seed,
        jobs=args.jobs,
        cache=_cache_from_args(args),
        n0=args.n0,
        refine_rounds=args.refine_rounds,
    )
    print(render_tune(result))
    if not args.no_artifact:
        path = write_tune_artifact(result, args.out_dir)
        print(f"\nartifact written to {path}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.routing.registry import available_algorithms
    from repro.sim.config import TRAFFIC
    from repro.topology.base import TOPOLOGIES

    print("topologies:")
    for name in TOPOLOGIES:
        print(f"  {name}")
    print("routing algorithms:")
    for name in available_algorithms():
        print(f"  {name}")
    print("traffic patterns:")
    for name in TRAFFIC:
        print(f"  {name}")
    print("environment (current value; empty = unset):")
    for name, setting in settings.SETTINGS.items():
        meaning = setting.meaning
        if setting.default is not None:
            meaning += f" (unset: {setting.default})"
        print(f"  {name:<15s} {settings.raw(name) or '-':<8s} {meaning}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "cache": _cmd_cache,
        "trace": _cmd_trace,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "tune": _cmd_tune,
        "list": _cmd_list,
    }
    try:
        if "jobs" in vars(args):
            # Resolved once, before anything is probed or simulated;
            # the verb and everything below it see a plain int.
            from repro.harness.parallel import resolve_jobs

            args.jobs = resolve_jobs(
                args.jobs, default=DEFAULT_JOBS.get(args.command, 1)
            )
        for name in _READS.get(args.command, "").split():
            settings.read(f"REPRO_{name}")
        return handlers[args.command](args)
    except ReproError as exc:
        # Validation problems (unknown algorithm/pattern, malformed fault
        # spec, inconsistent config) are user errors, not crashes: one
        # line on stderr, nonzero exit, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Whatever finished before Ctrl-C is already in the result
        # cache; the re-run simulates only the rest.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
