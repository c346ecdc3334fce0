"""Command-line interface — the stand-in for the paper's GUI (Fig. 7).

The original experimentation platform was a Windows application in
which "the user can specify most of the algorithmic and hardware
related parameters"; this CLI exposes the same controls::

    metacores viterbi-search --ber 1e-4 --es-n0-db 3 --throughput 2e6
    metacores viterbi-ber    --k 5 --l-mult 5 --m 4 --r2 3 --snr 0 1 2 3 4
    metacores iir-search     --period-us 1.0
    metacores iir-design     --family elliptic --structure cascade --word 12
    metacores spectrum       --k 7
    metacores viterbi-search --ber 1e-2 --throughput 1e6 --trace run.jsonl
    metacores trace-report   run.jsonl
    metacores viterbi-search --ber 1e-2 --throughput 1e6 \
                             --checkpoint run.ckpt --resume
    metacores inject-campaign --k 5 --m 4 --rates 1e-4 1e-3 --out camp.json
    metacores campaign-report camp.json
    metacores serve --port 7777 --workers 4 --cache eval-cache.jsonl
    metacores client eval --port 7777 --metacore viterbi \
                          --ber 1e-2 --throughput 1e6 --k 5 --fidelity 1
    metacores client search --port 7777 --metacore iir --period-us 1.0
    metacores client status --port 7777
    metacores sweep --metacore viterbi --atlas atlas.jsonl \
                    --specs 1e-2:1e6 1e-2:2e6 1e-4:2e6
    metacores recommend --metacore viterbi --atlas atlas.jsonl \
                        --ber 1e-2 --throughput 1e6 --constraint area_mm2=40
    metacores atlas-report atlas.jsonl
    metacores viterbi-search --ber 1e-2 --throughput 1e6 --atlas atlas.jsonl
    metacores client recommend --port 7777 --metacore iir --period-us 1.0

Run ``metacores <command> --help`` for the full parameter list of each
command.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import sys
from typing import Iterator, List, Optional

from repro.core import STRATEGIES, BERThresholdCurve, SearchConfig
from repro.core.metacore import (
    MetaCore,
    definition_for_spec,
    metacore_definition,
    metacore_kinds,
)
from repro.core.parallel import shutdown_all_pools
from repro.errors import ConfigurationError
from repro.observability import (
    format_trace_report,
    install_tracing,
    shutdown_tracing,
    summarize_trace,
)
from repro.iir import (
    IIRSpec,
    available_structures,
    check_quantized,
    design_filter,
    paper_bandpass_spec,
    realize,
)
from repro.iir.design import FILTER_FAMILIES
from repro.power import PowerConfig
from repro.resilience import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    FAULT_MODELS,
    RoundBudgetExceeded,
    STORAGE_CLASSES,
    format_campaign_report,
)
from repro.viterbi import (
    BERSimulator,
    ConvolutionalEncoder,
    ViterbiSpec,
    build_decoder,
    describe_point,
    distance_spectrum,
)
from repro.viterbi.metacore import VITERBI_DEFINITION, point_from_args


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write spans/metrics/events of this run to a JSONL trace file "
        "(inspect with `metacores trace-report FILE`)",
    )


@contextlib.contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[None]:
    """Record the run to ``--trace FILE`` when requested; else no-op."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        yield
        return
    try:
        sink = install_tracing(trace_path)
    except OSError as error:
        print(f"cannot open trace file: {error}", file=sys.stderr)
        raise SystemExit(2)
    try:
        yield
    finally:
        shutdown_tracing(sink)
        print(f"trace written to {trace_path} ({sink.n_records} records)")


def _add_strategy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="grid",
        help="exploration strategy: the multiresolution grid funnel "
        "(default) or seeded evolutionary search "
        "(see docs/search-strategies.md)",
    )


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="evaluate grid points over N worker processes (default 1 = "
        "serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=None,
        help="persistent evaluation cache (JSONL); reruns of the same "
        "specification start warm and skip already-priced points",
    )


def _add_atlas_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--atlas",
        metavar="FILE",
        default=None,
        help="persistent design atlas (JSONL); searches warm-start from "
        "stored frontiers and ingest their results back "
        "(inspect with `metacores atlas-report FILE`)",
    )


def _add_power_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--power",
        action="store_true",
        help="enable power-aware pricing: energy joins the objectives "
        "and metrics (see docs/power.md); off by default, so results "
        "stay bit-identical to the classic cost engine",
    )
    parser.add_argument(
        "--tech-node", type=float, default=None, metavar="UM",
        help="technology node (um) to price energy at; defaults to the "
        "specification's own feature size",
    )
    parser.add_argument(
        "--vdd", type=float, default=None, metavar="V",
        help="DVFS supply voltage; defaults to the node's nominal Vdd "
        "(below nominal slows the clock but saves quadratic energy)",
    )
    parser.add_argument(
        "--max-power-mw", type=float, default=None, metavar="MW",
        help="average-power cap (constraint on power_mw)",
    )
    parser.add_argument(
        "--max-energy-nj", type=float, default=None, metavar="NJ",
        help="energy cap per decoded bit / output sample",
    )


def _add_spec_args(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    """The ``--metacore`` flag and the spec flags of every kind."""
    parser.add_argument("--metacore", choices=metacore_kinds(), required=True)
    parser.add_argument(
        "--ber", type=float, default=None, help="max BER (viterbi)"
    )
    parser.add_argument(
        "--es-n0-db", type=float, default=2.0,
        help="Es/N0 of the BER spec (dB)",
    )
    parser.add_argument(
        "--throughput", type=float, default=None,
        help="bits per second (viterbi)",
    )
    parser.add_argument("--feature-um", type=float, default=0.25)
    if seed:
        parser.add_argument("--seed", type=int, default=20010618)
    parser.add_argument(
        "--period-us", type=float, default=None,
        help="sample period in us (iir)",
    )
    _add_power_args(parser)


def _power_config(args: argparse.Namespace) -> Optional[PowerConfig]:
    """The ``PowerConfig`` the ``--power`` flags describe (None = off)."""
    if not getattr(args, "power", False):
        for flag, name in (
            ("tech_node", "--tech-node"),
            ("vdd", "--vdd"),
            ("max_power_mw", "--max-power-mw"),
            ("max_energy_nj", "--max-energy-nj"),
        ):
            if getattr(args, flag, None) is not None:
                raise ConfigurationError(
                    f"{name} has no effect without --power"
                )
        return None
    return PowerConfig(
        tech_node_um=args.tech_node,
        vdd_v=args.vdd,
        max_power_mw=args.max_power_mw,
        max_energy_nj=args.max_energy_nj,
    )


def _print_energy_line(metrics: dict) -> None:
    """One report line for the energy metrics, when priced."""
    for key, unit in (
        ("energy_nj_per_bit", "nJ/bit"),
        ("energy_nj_per_sample", "nJ/sample"),
    ):
        if key in metrics:
            print(
                f"energy = {metrics[key]:.4g} {unit}, "
                f"power = {metrics.get('power_mw', math.nan):.4g} mW"
            )
            return


def _parse_constraints(pairs: Optional[List[str]]) -> dict:
    """``NAME=VALUE`` pairs into a metric -> upper-bound dict."""
    constraints = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigurationError(
                f"constraint {pair!r} is not NAME=VALUE"
            )
        try:
            constraints[name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"constraint {pair!r} has a non-numeric bound"
            ) from None
    return constraints


#: Storage classes a Viterbi campaign can inject (IIR state is driven
#: through the library API, not this subcommand).
_VITERBI_TARGETS = tuple(c for c in STORAGE_CLASSES if c != "iir_state")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="replace FILE after every computed evaluation round with a "
        "JSONL checkpoint of the run's priced points; a crashed or aborted "
        "run continues with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint instead of starting cold "
        "(needs --checkpoint)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        metavar="N",
        help="abort after N computed evaluation rounds (checkpoint "
        "intact, exit code 3; needs --checkpoint); mainly for tests and CI",
    )
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="retry and quarantine failing evaluations instead of "
        "aborting the whole search",
    )


def _search_config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        max_resolution=args.max_resolution,
        refine_top_k=args.top_k,
        strategy=args.strategy,
    )


def _facade(args: argparse.Namespace, spec) -> MetaCore:
    """The facade a command's flags describe, with the definition's
    default pinned parameters."""
    return MetaCore(
        spec,
        fixed=dict(definition_for_spec(spec).default_fixed),
        config=_search_config(args),
        workers=args.workers,
        cache_path=args.cache,
        atlas_path=getattr(args, "atlas", None),
    )


def _facade_search(args: argparse.Namespace, make_metacore, report=None) -> int:
    """Search with the facade ``make_metacore(power)`` builds and report.

    ``--checkpoint``/``--resume``/``--max-rounds`` and ``--resilient``
    set the facade's evaluator layers; ``report(point, metrics)``
    prints the winner's lines before the energy line.
    """
    if not args.checkpoint and (args.resume or args.max_rounds is not None):
        raise ConfigurationError("--resume and --max-rounds need --checkpoint")
    metacore = make_metacore(_power_config(args))
    metacore.checkpoint_path = args.checkpoint
    metacore.resume = args.resume
    metacore.max_rounds = args.max_rounds
    metacore.resilient = args.resilient
    with _tracing(args):
        try:
            session = metacore.search_session()
        except RoundBudgetExceeded as stop:
            print(
                f"round budget exhausted after {stop.rounds} computed "
                f"rounds; checkpoint saved at {stop.checkpoint_path} "
                "(rerun with --resume to continue)"
            )
            return 3
    result = session.result
    print(session.summary())
    if result.best_point is not None:
        if report is not None:
            report(result.best_point, result.best_metrics)
        _print_energy_line(result.best_metrics)
    if not result.feasible:
        print("specification NOT FEASIBLE within the design space")
        return 1
    return 0


def _add_viterbi_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=5, help="constraint length K")
    parser.add_argument(
        "--l-mult", type=int, default=5, help="trace-back depth in multiples of K"
    )
    parser.add_argument("--r1", type=int, default=1, help="low-resolution bits R1")
    parser.add_argument("--r2", type=int, default=3, help="high-resolution bits R2")
    parser.add_argument(
        "--q",
        choices=("hard", "fixed", "adaptive"),
        default="adaptive",
        help="quantization method Q",
    )
    parser.add_argument("--n", type=int, default=1, help="normalization branches N")
    parser.add_argument(
        "--m", type=int, default=0, help="multiresolution paths M (0 = pure)"
    )


def cmd_viterbi_ber(args: argparse.Namespace) -> int:
    """Measure the BER curve of one decoder instance."""
    point = point_from_args(args)
    decoder = build_decoder(point)
    encoder = ConvolutionalEncoder(int(point["K"]))
    simulator = BERSimulator(encoder, seed=args.seed)
    print(f"instance: {describe_point(point)}")
    for es_n0_db in args.snr:
        measurement = simulator.measure(
            decoder, es_n0_db, max_bits=args.bits, target_errors=args.errors
        )
        print(f"  {measurement}")
    return 0


def cmd_viterbi_search(args: argparse.Namespace) -> int:
    """Run the multiresolution search for a (BER, throughput) spec."""

    def metacore(power):
        spec = VITERBI_DEFINITION.spec_from_args(args, power)
        return _facade(args, spec)

    def report(point, metrics) -> None:
        print(f"winner: {describe_point(point)}")
        print(
            f"area = {metrics['area_mm2']:.2f} mm^2, "
            f"measured BER = {metrics.get('ber', math.nan):.3e} "
            f"(threshold {args.ber:g} at {args.es_n0_db:g} dB)"
        )

    return _facade_search(args, metacore, report)


def cmd_spectrum(args: argparse.Namespace) -> int:
    """Print the distance spectrum of the standard code for K."""
    encoder = ConvolutionalEncoder(args.k)
    spectrum = distance_spectrum(encoder)
    print(f"{encoder}")
    print(f"free distance: {spectrum.free_distance}")
    for distance, weight in spectrum.weights:
        print(f"  d={distance}: input-weight {weight:g}")
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    """Draw the encoder (and optionally one trellis section)."""
    from repro.viterbi import encoder_diagram, trellis_section_diagram

    encoder = ConvolutionalEncoder(args.k)
    print(encoder_diagram(encoder))
    if args.trellis:
        print()
        print(trellis_section_diagram(encoder))
    return 0


def cmd_iir_noise(args: argparse.Namespace) -> int:
    """Compare round-off noise across realization structures."""
    from repro.iir import compare_structure_noise

    spec = paper_bandpass_spec()
    tf = design_filter(spec, args.family).to_tf()
    names = [
        name for name in available_structures() if name != "continued"
    ]
    print(
        f"round-off noise of the {args.family} band-pass design "
        f"(data word {args.word} bits):"
    )
    print(f"{'structure':>11s} {'noise gain':>11s} {'output noise':>13s}")
    for report_item in compare_structure_noise(tf, names):
        print(
            f"{report_item.structure:>11s} "
            f"{report_item.noise_gain:11.1f} "
            f"{report_item.output_noise_db(args.word):10.1f} dB"
        )
    return 0


def cmd_iir_search(args: argparse.Namespace) -> int:
    """Run the IIR MetaCore search at one sample period."""
    return _facade_search(
        args,
        lambda power: _facade(args, IIRSpec.paper(args.period_us, power=power)),
    )


def cmd_iir_design(args: argparse.Namespace) -> int:
    """Design, realize, and quantize one IIR candidate; exit 1 on spec miss."""
    from repro.iir.metacore import _margin_spec

    spec = paper_bandpass_spec()
    designed = design_filter(_margin_spec(spec, args.allocation), args.family)
    tf = designed.to_tf()
    realization = realize(args.structure, tf)
    report = check_quantized(realization, spec, args.word)
    stats = realization.dataflow()
    print(f"{args.family} prototype order {designed.order} "
          f"(digital order {tf.order}) as {args.structure}")
    print(f"  ops/sample: {stats.multiplies} mult, {stats.additions} add, "
          f"{stats.delays} delays")
    print(f"  at {args.word} bits: stable={report.stable} "
          f"ripple={report.passband_ripple:.5f} "
          f"stopband={report.stopband_level:.5f} "
          f"meets spec={report.meets(spec)}")
    return 0 if report.meets(spec) else 1


def cmd_table3(args: argparse.Namespace) -> int:
    """Reproduce the paper's Table 3 with a specification sweep."""
    from repro.core.batch import SpecificationSweep

    specs = [(1e-2, 5e6), (1e-4, 2e6), (1e-5, 1e6), (1e-5, 3e6), (1e-9, 1e6)]

    def run(spec_pair):
        max_ber, throughput = spec_pair
        spec = ViterbiSpec(
            throughput_bps=throughput,
            ber_curve=BERThresholdCurve.single(args.es_n0_db, max_ber),
        )
        return _facade(args, spec).search()

    sweep = SpecificationSweep(runner=run, feasibility_metric="ber_violation")
    with _tracing(args):
        sweep.run(
            specs,
            labels=[f"{b:g}@{t / 1e6:g}Mbps" for b, t in specs],
        )
    print(
        sweep.format_table(
            extra_columns={
                "instance": lambda row: (
                    describe_point(row.result.best_point)
                    if row.feasible
                    else "-"
                )
            }
        )
    )
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    """Reproduce the paper's Table 4 with a specification sweep."""
    from repro.core.batch import SpecificationSweep

    periods = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25]

    def run(period):
        return _facade(args, IIRSpec.paper(period)).search()

    sweep = SpecificationSweep(runner=run)
    with _tracing(args):
        sweep.run(periods, labels=[f"{p:g} us" for p in periods])
    print(
        sweep.format_table(
            extra_columns={
                "structure": lambda row: (
                    str(row.result.best_point["structure"])
                    if row.feasible
                    else "-"
                )
            }
        )
    )
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    """Answer a constraint query from the design atlas."""
    constraints = _parse_constraints(args.constraint)
    definition = metacore_definition(args.metacore)
    spec = definition.spec_from_args(args, _power_config(args))
    with _tracing(args):
        recommendation = _facade(args, spec).recommend(constraints or None)
    print(recommendation.summary())
    _print_instance(definition, recommendation.point)
    return 0 if recommendation.feasible else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Populate the atlas from a portfolio of specifications."""
    try:
        definition = metacore_definition(args.metacore)
        specs, labels = definition.sweep_from_args(args, _power_config(args))
        prototype = _facade(args, specs[0])
    except (ConfigurationError, ValueError) as error:
        print(f"invalid sweep: {error}", file=sys.stderr)
        return 2
    with _tracing(args):
        outcome = prototype.sweep(specs, labels=labels)
    print(outcome.format_table())
    return 0


def cmd_atlas_report(args: argparse.Namespace) -> int:
    """Summarize a design-atlas file: scenarios, frontiers, stats."""
    from repro.atlas import DesignAtlas, format_atlas_report

    try:
        atlas = DesignAtlas(args.file)
    except OSError as error:
        print(f"cannot read atlas file: {error}", file=sys.stderr)
        return 1
    print(format_atlas_report(atlas))
    return 0


def cmd_inject_campaign(args: argparse.Namespace) -> int:
    """Sweep fault rate x storage class over one decoder instance."""
    point = point_from_args(args)
    try:
        config = CampaignConfig(
            model=args.model,
            rates=tuple(args.rates),
            targets=tuple(args.targets),
            es_n0_db=tuple(args.snr),
            max_bits=args.bits,
            word_bits=args.word_bits,
            frac_bits=args.frac_bits,
            seed=args.seed,
        )
    except ConfigurationError as error:
        print(f"invalid campaign: {error}", file=sys.stderr)
        return 2
    campaign = Campaign(
        [point], config, workers=args.workers, cache_path=args.cache
    )
    with _tracing(args):
        result = campaign.run()
    # The file first: a reader that stops early must not cost it.
    if args.out:
        result.save(args.out)
    print(format_campaign_report(result))
    if args.out:
        print(f"campaign results written to {args.out}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Re-render the report of a saved campaign result file."""
    try:
        result = CampaignResult.load(args.file)
    except (OSError, ValueError, ConfigurationError) as error:
        print(f"cannot read campaign file: {error}", file=sys.stderr)
        return 1
    print(format_campaign_report(result))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the evaluation service until shutdown (Ctrl-C or client op)."""
    from repro.serve import EvaluationService, ServiceConfig
    from repro.serve.server import serve_forever

    config = ServiceConfig(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        request_timeout_s=args.timeout_s,
        workers=args.workers,
        cache_path=args.cache,
        resilient=args.resilient,
        atlas_path=args.atlas,
        node_id=args.node_id,
    )

    def on_ready(server) -> None:
        print(f"serving on {server.address}", flush=True)

    try:
        asyncio.run(
            serve_forever(
                lambda: EvaluationService(config),
                host=args.host,
                port=args.port,
                unix_path=args.unix,
                ready_callback=on_ready,
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        print("server stopped")
    return 0


def _client_spec_payload(args: argparse.Namespace) -> dict:
    """Build the wire spec payload a client subcommand describes."""
    from repro.serve import spec_to_payload

    definition = metacore_definition(args.metacore)
    return spec_to_payload(definition.spec_from_args(args, _power_config(args)))


def _print_instance(definition, point, label: str = "instance") -> None:
    """One report line for a design point, when the core describes it."""
    if definition.describe is not None and point is not None:
        print(f"{label}: {definition.describe(point)}")


def _router_address(value: str):
    """Parse a ``HOST:PORT`` / ``unix:PATH`` address flag."""
    if value.startswith("unix:"):
        return None, None, value[len("unix:"):]
    host, sep, port_s = value.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"address {value!r} is not HOST:PORT or unix:PATH"
        )
    try:
        port = int(port_s)
    except ValueError:
        raise ConfigurationError(
            f"address {value!r} has a non-numeric port"
        ) from None
    return host, port, None


def _client_connect(args: argparse.Namespace):
    from repro.serve import ServeClient

    host, port, unix_path = args.host, args.port, args.unix
    router = getattr(args, "router", None)
    if router:
        host, port, unix_path = _router_address(router)
        host = host or "127.0.0.1"
    return ServeClient(host=host, port=port, unix_path=unix_path)


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running evaluation service."""
    from repro.serve import ServeConnectionError, ServeRequestError

    try:
        with _client_connect(args) as client:
            if args.client_command == "status":
                print(json.dumps(client.status(), indent=2, sort_keys=True))
                return 0
            if args.client_command == "shutdown":
                client.shutdown()
                print("server stopping")
                return 0
            if args.client_command == "drain":
                result = client.drain()
                print(json.dumps(result, indent=2, sort_keys=True))
                return 0
            definition = metacore_definition(args.metacore)
            spec = _client_spec_payload(args)
            if args.client_command == "recommend":
                result = client.recommend(
                    spec=spec,
                    constraints=_parse_constraints(args.constraint) or None,
                    config={
                        "max_resolution": args.max_resolution,
                        "refine_top_k": args.top_k,
                    },
                )
                print(result["summary"])
                _print_instance(definition, result.get("point"))
                return 0 if result.get("feasible") else 1
            if args.client_command == "eval":
                metrics = client.eval(
                    definition.point_from_args(args),
                    fidelity=args.fidelity,
                    spec=spec,
                )
                for name in sorted(metrics):
                    print(f"  {name} = {metrics[name]:.6g}")
                return 0
            # search
            config = {
                "max_resolution": args.max_resolution,
                "refine_top_k": args.top_k,
                "strategy": args.strategy,
            }
            result = client.search(spec=spec, config=config)
            print(result["summary"])
            if result["best_point"] is not None:
                describe = definition.describe or str
                print(f"winner: {describe(result['best_point'])}")
            if not result["feasible"]:
                print("specification NOT FEASIBLE within the design space")
                return 1
            return 0
    except (
        ServeConnectionError,
        ServeRequestError,
        ConfigurationError,
        OSError,
    ) as error:
        print(f"request failed: {error}", file=sys.stderr)
        return 1


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run the cluster router over a static replica topology."""
    from repro.cluster import (
        ClusterRouter,
        RouterConfig,
        load_topology,
        topology_from_flags,
    )
    from repro.serve.server import serve_forever

    try:
        if args.topology:
            topology = load_topology(args.topology)
        elif args.replica:
            topology = topology_from_flags(args.replica)
        else:
            raise ConfigurationError(
                "give --topology FILE or at least one --replica"
            )
    except ConfigurationError as error:
        print(f"invalid topology: {error}", file=sys.stderr)
        return 1

    config = RouterConfig(
        vnodes=args.vnodes,
        max_attempts=args.max_attempts,
        probe_interval_s=args.probe_interval_ms / 1000.0,
        eject_after=args.eject_after,
    )

    def on_ready(server) -> None:
        print(
            f"routing on {server.address} across "
            f"{len(topology)} replicas",
            flush=True,
        )

    try:
        asyncio.run(
            serve_forever(
                lambda: ClusterRouter(topology, config),
                host=args.host,
                port=args.port,
                unix_path=args.unix,
                ready_callback=on_ready,
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        print("router stopped")
    return 0


def cmd_atlas_compact(args: argparse.Namespace) -> int:
    """Rewrite an atlas file without its append-only history."""
    from repro.atlas import compact_atlas, format_compact_report

    try:
        report = compact_atlas(
            args.file, frontier_only=args.frontier_only
        )
    except ConfigurationError as error:
        print(f"cannot compact atlas: {error}", file=sys.stderr)
        return 1
    print(format_compact_report(report))
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Aggregate a JSONL trace file into a per-stage breakdown."""
    try:
        summary = summarize_trace(args.file)
    except OSError as error:
        print(f"cannot read trace file: {error}", file=sys.stderr)
        return 1
    print(format_trace_report(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="metacores",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("viterbi-ber", help="measure a decoder's BER curve")
    _add_viterbi_point_args(ber)
    ber.add_argument(
        "--snr", type=float, nargs="+", default=[0.0, 1.0, 2.0, 3.0, 4.0],
        help="Es/N0 points (dB)",
    )
    ber.add_argument("--bits", type=int, default=100_000)
    ber.add_argument("--errors", type=int, default=100)
    ber.add_argument("--seed", type=int, default=20010618)
    ber.set_defaults(func=cmd_viterbi_ber)

    search = sub.add_parser(
        "viterbi-search", help="run the multiresolution Viterbi search"
    )
    search.add_argument("--ber", type=float, required=True, help="max BER")
    search.add_argument(
        "--es-n0-db", type=float, default=2.0, help="Es/N0 of the BER spec (dB)"
    )
    search.add_argument(
        "--throughput", type=float, required=True, help="bits per second"
    )
    search.add_argument("--feature-um", type=float, default=0.25)
    search.add_argument("--max-resolution", type=int, default=2)
    search.add_argument("--top-k", type=int, default=3)
    _add_strategy_arg(search)
    _add_power_args(search)
    _add_parallel_args(search)
    _add_checkpoint_args(search)
    _add_atlas_arg(search)
    _add_trace_arg(search)
    search.set_defaults(func=cmd_viterbi_search)

    spectrum = sub.add_parser(
        "spectrum", help="distance spectrum of a convolutional code"
    )
    spectrum.add_argument("--k", type=int, default=7)
    spectrum.set_defaults(func=cmd_spectrum)

    diagram = sub.add_parser(
        "diagram", help="draw an encoder (and optionally its trellis)"
    )
    diagram.add_argument("--k", type=int, default=3)
    diagram.add_argument("--trellis", action="store_true")
    diagram.set_defaults(func=cmd_diagram)

    noise = sub.add_parser(
        "iir-noise", help="round-off noise comparison across structures"
    )
    noise.add_argument("--family", choices=FILTER_FAMILIES, default="elliptic")
    noise.add_argument("--word", type=int, default=12)
    noise.set_defaults(func=cmd_iir_noise)

    iir = sub.add_parser("iir-search", help="run the IIR MetaCore search")
    iir.add_argument(
        "--period-us", type=float, required=True, help="sample period (us)"
    )
    iir.add_argument("--max-resolution", type=int, default=3)
    iir.add_argument("--top-k", type=int, default=4)
    _add_strategy_arg(iir)
    _add_power_args(iir)
    _add_parallel_args(iir)
    _add_checkpoint_args(iir)
    _add_atlas_arg(iir)
    _add_trace_arg(iir)
    iir.set_defaults(func=cmd_iir_search)

    design = sub.add_parser(
        "iir-design", help="design + realize + quantize one IIR candidate"
    )
    design.add_argument("--family", choices=FILTER_FAMILIES, default="elliptic")
    design.add_argument(
        "--structure", choices=available_structures(), default="cascade"
    )
    design.add_argument("--word", type=int, default=12)
    design.add_argument(
        "--allocation", type=float, default=0.85,
        help="fraction of the ripple budget the nominal design spends",
    )
    design.set_defaults(func=cmd_iir_design)

    table3 = sub.add_parser(
        "table3", help="reproduce the paper's Table 3 (Viterbi sweep)"
    )
    table3.add_argument("--es-n0-db", type=float, default=2.0)
    table3.add_argument("--max-resolution", type=int, default=2)
    table3.add_argument("--top-k", type=int, default=3)
    _add_strategy_arg(table3)
    _add_parallel_args(table3)
    _add_trace_arg(table3)
    table3.set_defaults(func=cmd_table3)

    table4 = sub.add_parser(
        "table4", help="reproduce the paper's Table 4 (IIR sweep)"
    )
    table4.add_argument("--max-resolution", type=int, default=3)
    table4.add_argument("--top-k", type=int, default=4)
    _add_strategy_arg(table4)
    _add_parallel_args(table4)
    _add_trace_arg(table4)
    table4.set_defaults(func=cmd_table4)

    inject = sub.add_parser(
        "inject-campaign",
        help="fault-injection campaign over one decoder instance",
    )
    _add_viterbi_point_args(inject)
    inject.add_argument(
        "--model", choices=FAULT_MODELS, default="seu",
        help="fault model: transient bit-flips (seu) or stuck-at bits",
    )
    inject.add_argument(
        "--rates", type=float, nargs="+", default=[1e-4, 1e-3],
        metavar="RATE",
        help="fault intensities to sweep (fault-free reference is "
        "measured automatically)",
    )
    inject.add_argument(
        "--targets", choices=_VITERBI_TARGETS, nargs="+",
        default=list(_VITERBI_TARGETS),
        help="storage classes to inject, one class per campaign cell",
    )
    inject.add_argument(
        "--snr", type=float, nargs="+", default=[0.0, 2.0],
        help="Es/N0 points of the degradation curves (dB)",
    )
    inject.add_argument(
        "--bits", type=int, default=24_000,
        help="data bits decoded per campaign cell",
    )
    inject.add_argument("--word-bits", type=int, default=16)
    inject.add_argument("--frac-bits", type=int, default=8)
    inject.add_argument("--seed", type=int, default=20010618)
    inject.add_argument(
        "--out", metavar="FILE", default=None,
        help="also save the full campaign result as JSON "
        "(re-render with `metacores campaign-report FILE`)",
    )
    _add_parallel_args(inject)
    _add_trace_arg(inject)
    inject.set_defaults(func=cmd_inject_campaign)

    campaign_report = sub.add_parser(
        "campaign-report",
        help="re-render a saved inject-campaign --out file",
    )
    campaign_report.add_argument(
        "file", help="campaign JSON written by inject-campaign --out"
    )
    campaign_report.set_defaults(func=cmd_campaign_report)

    recommend = sub.add_parser(
        "recommend",
        help="answer a constraint query from the design atlas "
        "(zero evaluations on a library hit)",
    )
    _add_spec_args(recommend)
    recommend.add_argument("--max-resolution", type=int, default=2)
    recommend.add_argument("--top-k", type=int, default=3)
    _add_strategy_arg(recommend)
    recommend.add_argument(
        "--constraint", action="append", metavar="NAME=VALUE", default=None,
        help="extra upper bound on a metric (repeatable), "
        "e.g. --constraint area_mm2=40",
    )
    recommend.add_argument(
        "--atlas", metavar="FILE", required=True,
        help="design atlas to query (and grow on a miss)",
    )
    _add_parallel_args(recommend)
    _add_trace_arg(recommend)
    recommend.set_defaults(func=cmd_recommend)

    sweep = sub.add_parser(
        "sweep",
        help="search a portfolio of specifications into one atlas",
    )
    sweep.add_argument(
        "--metacore", choices=metacore_kinds(), required=True
    )
    sweep.add_argument(
        "--specs", nargs="+", metavar="BER:THROUGHPUT", default=None,
        help="viterbi scenario list, e.g. --specs 1e-2:1e6 1e-4:2e6",
    )
    sweep.add_argument(
        "--periods", type=float, nargs="+", metavar="US", default=None,
        help="iir sample-period list (us), e.g. --periods 1.0 2.0",
    )
    sweep.add_argument(
        "--es-n0-db", type=float, default=2.0,
        help="Es/N0 of the viterbi BER specs (dB)",
    )
    sweep.add_argument("--feature-um", type=float, default=0.25)
    sweep.add_argument("--max-resolution", type=int, default=2)
    sweep.add_argument("--top-k", type=int, default=3)
    _add_strategy_arg(sweep)
    _add_power_args(sweep)
    sweep.add_argument(
        "--atlas", metavar="FILE", required=True,
        help="design atlas the sweep populates",
    )
    _add_parallel_args(sweep)
    _add_trace_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)

    atlas_report = sub.add_parser(
        "atlas-report",
        help="summarize a design-atlas file (scenarios and frontiers)",
    )
    atlas_report.add_argument("file", help="atlas JSONL written by --atlas")
    atlas_report.set_defaults(func=cmd_atlas_report)

    atlas_compact = sub.add_parser(
        "atlas-compact",
        help="rewrite an atlas file keeping only deduped surviving "
        "records (optionally frontier designs only)",
    )
    atlas_compact.add_argument(
        "file", help="atlas JSONL written by --atlas"
    )
    atlas_compact.add_argument(
        "--frontier-only", action="store_true",
        help="drop replay history; keep each scenario's Pareto "
        "frontier only",
    )
    atlas_compact.set_defaults(func=cmd_atlas_compact)

    trace_report = sub.add_parser(
        "trace-report",
        help="aggregate a --trace JSONL file into per-stage totals",
    )
    trace_report.add_argument("file", help="trace file written by --trace")
    trace_report.set_defaults(func=cmd_trace_report)

    serve = sub.add_parser(
        "serve",
        help="run the async batched evaluation service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one; printed on startup)",
    )
    serve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="serve on a unix socket instead of TCP",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="largest micro-batch fed to the evaluator at once",
    )
    serve.add_argument(
        "--max-pending", type=int, default=256,
        help="admission-control window; excess requests are rejected "
        "with an `overloaded` error",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="default per-request timeout",
    )
    serve.add_argument(
        "--resilient", action="store_true",
        help="retry and quarantine failing evaluations per session",
    )
    serve.add_argument(
        "--node-id", default=None,
        help="stable replica identity shown in cluster status tables",
    )
    _add_parallel_args(serve)
    _add_atlas_arg(serve)
    serve.set_defaults(func=cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run the fingerprint-sharded router over serve replicas",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one; printed on startup)",
    )
    cluster.add_argument(
        "--unix", metavar="PATH", default=None,
        help="route on a unix socket instead of TCP",
    )
    cluster.add_argument(
        "--topology", metavar="FILE", default=None,
        help='JSON topology file with a "replicas" list',
    )
    cluster.add_argument(
        "--replica", action="append", metavar="HOST:PORT|unix:PATH",
        default=None,
        help="replica address (repeatable; alternative to --topology)",
    )
    cluster.add_argument(
        "--max-attempts", type=int, default=3,
        help="failover attempts per request across replicas",
    )
    cluster.add_argument(
        "--probe-interval-ms", type=float, default=500.0,
        help="how often each replica's status is probed",
    )
    cluster.add_argument(
        "--eject-after", type=int, default=3,
        help="consecutive failures before a replica is ejected "
        "from routing (it rejoins on the next good probe)",
    )
    cluster.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per replica on the hash ring",
    )
    cluster.set_defaults(func=cmd_cluster)

    client = sub.add_parser(
        "client",
        help="send requests to a running evaluation service",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    def _add_connection_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--port", type=int, default=None)
        sub_parser.add_argument("--unix", metavar="PATH", default=None)
        sub_parser.add_argument(
            "--router", metavar="HOST:PORT|unix:PATH", default=None,
            help="address of a cluster router (overrides "
            "--host/--port/--unix); requests shard across its replicas",
        )

    client_eval = client_sub.add_parser(
        "eval", help="price one design point on the server"
    )
    _add_connection_args(client_eval)
    _add_spec_args(client_eval, seed=True)
    _add_viterbi_point_args(client_eval)
    client_eval.add_argument(
        "--structure", choices=available_structures(), default="cascade",
        help="realization structure (iir point)",
    )
    client_eval.add_argument(
        "--family", choices=FILTER_FAMILIES, default="elliptic",
        help="approximation family (iir point)",
    )
    client_eval.add_argument(
        "--word", type=int, default=12,
        help="coefficient word length (iir point)",
    )
    client_eval.add_argument(
        "--allocation", type=float, default=0.85,
        help="ripple allocation (iir point)",
    )
    client_eval.add_argument("--fidelity", type=int, default=0)
    client_eval.set_defaults(func=cmd_client)

    client_search = client_sub.add_parser(
        "search", help="run a full search on the server"
    )
    _add_connection_args(client_search)
    _add_spec_args(client_search, seed=True)
    client_search.add_argument("--max-resolution", type=int, default=2)
    client_search.add_argument("--top-k", type=int, default=3)
    _add_strategy_arg(client_search)
    client_search.set_defaults(func=cmd_client)

    client_recommend = client_sub.add_parser(
        "recommend",
        help="query the server's design atlas for a satisfying design",
    )
    _add_connection_args(client_recommend)
    _add_spec_args(client_recommend, seed=True)
    client_recommend.add_argument(
        "--constraint", action="append", metavar="NAME=VALUE", default=None,
        help="extra upper bound on a metric (repeatable)",
    )
    client_recommend.add_argument("--max-resolution", type=int, default=2)
    client_recommend.add_argument("--top-k", type=int, default=3)
    client_recommend.set_defaults(func=cmd_client)

    client_status = client_sub.add_parser(
        "status", help="print the server's status snapshot"
    )
    _add_connection_args(client_status)
    client_status.set_defaults(func=cmd_client)

    client_drain = client_sub.add_parser(
        "drain",
        help="stop the server (or every replica, via a router) from "
        "admitting new work while in-flight work finishes",
    )
    _add_connection_args(client_drain)
    client_drain.set_defaults(func=cmd_client)

    client_shutdown = client_sub.add_parser(
        "shutdown", help="ask the server to exit cleanly"
    )
    _add_connection_args(client_shutdown)
    client_shutdown.set_defaults(func=cmd_client)
    return parser


#: Exit status when standard output's reader has gone (``| head``):
#: what a shell reports for a process killed by SIGPIPE.
EXIT_BROKEN_PIPE = 128 + 13


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`ConfigurationError` (flags, specification or search
    settings the program rejects) prints one ``invalid request:`` line
    and exits 2.  A reader that closes standard output early
    (``metacores ... | head``) ends the command quietly with
    :data:`EXIT_BROKEN_PIPE`: commands write their result files before
    they print.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ConfigurationError as error:
        print(f"invalid request: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of
        # the unwritten rest does not raise again on exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    finally:
        # Worker pools must not outlive the command (satellite of the
        # resilience work: no orphaned processes on any exit path).
        shutdown_all_pools()


if __name__ == "__main__":
    sys.exit(main())
