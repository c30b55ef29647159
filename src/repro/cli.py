"""Command-line interface: run campaigns, probes and demos.

Installed as the ``visapult`` console script::

    visapult list
    visapult campaign lan_e4500 --overlapped --nlv
    visapult campaign lan_e4500 --scaled --sanitize
    visapult campaign --faults examples/plans/sc99_flaky.json --sanitize
    visapult campaign sc99-flaky --stripe 4+1
    visapult serve-sim sc99-multiviewer --viewers 6 --scaled
    visapult serve-sim sc99-serve10k --sessions 2000 --flow-classes on
    visapult bench --quick --check
    visapult bench --suite shard --quick --check
    visapult bench --suite stripe --quick --check
    visapult bench --suite kernels --quick --check
    visapult lint
    visapult check src/repro --json CHECK_findings.json
    visapult iperf --wan esnet --streams 8
    visapult artifacts --angles 0 16 45
    visapult live --pes 4 --steps 3 --overlapped
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def cmd_list(_args) -> int:
    from repro.config import topology_names
    from repro.core import campaign_names

    print("available campaigns:")
    for name in campaign_names():
        print(f"  {name}")
    print("available topologies (serve-sim --topology):")
    for name in topology_names():
        print(f"  {name}")
    return 0


def _write_payload(path: str, payload, label: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"{label} -> {path}")


def _result_to_payload(result):
    """The versioned JSON envelope for any campaign result kind."""
    from repro.service.metrics import result_payload

    if hasattr(result, "to_payload"):  # ShardResult
        return result.to_payload()
    service = getattr(result, "service", None)
    if service is not None:  # ServiceResult
        return result_payload("service", service)
    return result_payload("campaign", result.metrics_dict())


def cmd_campaign(args) -> int:
    from repro.config import ExperimentConfig
    from repro.core import run_campaign
    from repro.netlogger import lifeline_plot

    # A fault drill file can carry the whole experiment (campaign,
    # scale, seed, policy); explicit CLI flags win over the drill.
    drill = None
    if args.faults is not None:
        from repro.faults import load_drill

        drill = load_drill(args.faults)
    name = args.name or (drill.campaign if drill is not None else None)
    if name is None:
        print("no campaign named (positionally or in the drill file); "
              "try 'visapult list'", file=sys.stderr)
        return 2
    experiment = ExperimentConfig(
        campaign=name,
        overlapped=args.overlapped
        or (drill is not None and drill.overlapped),
        frames=args.frames,
        scaled=args.scaled or (drill is not None and drill.scaled),
        seed=args.seed
        if args.seed is not None
        else (drill.seed if drill is not None else None),
        sanitize=args.sanitize,
        faults=drill.plan if drill is not None else None,
        policy=drill.policy if drill is not None else None,
        tiles=args.tiles,
        tile_size=args.tile_size,
        stripe=args.stripe,
    )
    if args.stripe is not None:
        from repro.config import StripeConfig

        try:
            StripeConfig.from_spec(args.stripe)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    try:
        config = experiment.to_campaign_config()
    except KeyError as exc:
        print(f"{exc.args[0]}; try 'visapult list'", file=sys.stderr)
        return 2
    result = run_campaign(
        config,
        sanitize=args.sanitize,
        ulm_path=args.ulm,
        alloc_stats=args.alloc_stats,
    )
    print(result.summary())
    if args.json is not None:
        _write_payload(args.json, _result_to_payload(result), "result")
    if args.nlv and hasattr(result, "event_log"):
        print()
        print(lifeline_plot(result.event_log, width=args.width))
    if args.sanitize:
        from repro.analysis import SanitizerReport

        report = SanitizerReport(
            findings=getattr(result, "sanitizer_findings", [])
        )
        print(report.summary())
        if not report.clean:
            return 1
    return 0


def _serve_shard(args, config) -> int:
    """serve-sim over a :class:`~repro.service.shard.ShardCampaign`."""
    from repro.config import FlowClassConfig, named_topology
    from repro.core import run_campaign

    for flag in ("scaled", "no_cache", "tiles", "stripe"):
        if getattr(args, flag):
            print(
                f"--{flag.replace('_', '-')} applies to full-world "
                "service campaigns, not shard campaigns",
                file=sys.stderr,
            )
            return 2
    if args.topology is not None:
        from dataclasses import replace

        try:
            topology = named_topology(args.topology)
        except KeyError as exc:
            print(f"{exc.args[0]}; try 'visapult list'", file=sys.stderr)
            return 2
        # Profiles pinned to sites the new topology lacks fall back
        # to round-robin homing.
        known = set(topology.site_names)
        profiles = tuple(
            replace(p, region=None)
            if p.region is not None and p.region not in known
            else p
            for p in config.workload.profiles
        )
        config = config.with_changes(
            topology=topology,
            workload=config.workload.with_changes(profiles=profiles),
        )
    if args.flow_classes is not None:
        config = config.with_changes(
            flow_classes=FlowClassConfig(
                enabled=args.flow_classes == "on"
            )
        )
    sessions = args.sessions if args.sessions is not None else args.viewers
    if sessions is not None:
        config = config.with_changes(
            workload=config.workload.with_changes(n_viewers=sessions)
        )
    if args.frames is not None:
        config = config.with_changes(frames=args.frames)
    if args.seed is not None:
        config = config.with_changes(seed=args.seed)
    result = run_campaign(config, ulm_path=args.ulm)
    print(result.summary())
    if args.json is not None:
        _write_payload(args.json, result.to_payload(), "shard metrics")
    return 0


def cmd_serve(args) -> int:
    from repro.core import named_campaign, run_campaign
    from repro.service import CacheConfig, ServiceCampaign
    from repro.service.shard import ShardCampaign

    try:
        config = named_campaign(args.name)
    except KeyError as exc:
        print(f"{exc.args[0]}; try 'visapult list'", file=sys.stderr)
        return 2
    if isinstance(config, ShardCampaign):
        return _serve_shard(args, config)
    if not isinstance(config, ServiceCampaign):
        print(
            f"{args.name!r} is a single-session campaign; "
            "use 'visapult campaign'",
            file=sys.stderr,
        )
        return 2
    if (
        args.topology is not None
        or args.flow_classes is not None
        or args.sessions is not None
    ):
        print(
            f"{args.name!r} is a full-world service campaign; "
            "--topology/--flow-classes/--sessions apply to shard "
            "campaigns (try sc99-serve10k)",
            file=sys.stderr,
        )
        return 2
    if args.viewers is not None:
        config = config.with_changes(
            workload=config.workload.with_changes(n_viewers=args.viewers)
        )
    if args.frames is not None:
        config = config.with_changes(
            base=config.base.with_changes(n_timesteps=args.frames)
        )
    if args.scaled:
        frames = args.frames or config.base.n_timesteps
        config = config.with_changes(
            base=config.base.with_changes(
                shape=(160, 64, 64), dataset_timesteps=max(frames, 8)
            )
        )
    if args.no_cache:
        config = config.with_changes(cache=CacheConfig(enabled=False))
    if args.tiles:
        from repro.config import TileConfig

        tiles = TileConfig(
            enabled=True,
            **({"tile_size": args.tile_size}
               if args.tile_size is not None else {}),
        )
        config = config.with_changes(
            base=config.base.with_changes(tiles=tiles)
        )
    if args.stripe is not None:
        from repro.config import StripeConfig

        try:
            stripe = StripeConfig.from_spec(args.stripe)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        config = config.with_changes(
            base=config.base.with_changes(stripe=stripe)
        )
    if args.seed is not None:
        config = config.with_changes(seed=args.seed)
    result = run_campaign(
        config, ulm_path=args.ulm, alloc_stats=args.alloc_stats
    )
    print(result.summary())
    if args.json is not None:
        _write_payload(
            args.json, _result_to_payload(result), "service metrics"
        )
    return 0


def cmd_bench(args) -> int:
    import json

    if args.suite == "render":
        from repro.core import bench_render as suite_mod

        results = suite_mod.run_suite(quick=args.quick)
        default_baseline = "benchmarks/perf/baseline_render.json"
    elif args.suite == "shard":
        from repro.core import bench_shard as suite_mod  # type: ignore[no-redef]

        results = suite_mod.run_suite(quick=args.quick)
        default_baseline = "benchmarks/perf/baseline_shard.json"
    elif args.suite == "stripe":
        from repro.core import bench_stripe as suite_mod  # type: ignore[no-redef]

        results = suite_mod.run_suite(quick=args.quick)
        default_baseline = "benchmarks/perf/baseline_stripe.json"
    elif args.suite == "kernels":
        from repro.core import bench_kernels as suite_mod  # type: ignore[no-redef]

        results = suite_mod.run_suite(quick=args.quick)
        default_baseline = "benchmarks/perf/baseline_kernels.json"
    else:
        from repro.core import bench as suite_mod  # type: ignore[no-redef]

        results = suite_mod.run_suite(quick=args.quick, e2e=not args.no_e2e)
        default_baseline = "benchmarks/perf/baseline.json"
    print(suite_mod.summary(results))
    if args.output is not None:
        suite_mod.write_results(results, args.output)
        print(f"benchmark results -> {args.output}")
    if args.check:
        baseline_path = args.baseline or default_baseline
        try:
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 2
        failures = suite_mod.check_regression(results, baseline)
        if failures:
            print("benchmark regressions vs baseline:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"no benchmark regression vs {baseline_path}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lint import main as lint_main

    return lint_main(args.paths)


def cmd_check(args) -> int:
    from repro.analysis.check import main as check_main

    argv: List[str] = list(args.paths)
    if args.json is not None:
        argv.extend(["--json"] if args.json == "-" else ["--json", args.json])
    if args.sarif is not None:
        argv.extend(["--sarif", args.sarif])
    if args.baseline is not None:
        argv.extend(["--baseline", args.baseline])
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    return check_main(argv)


def cmd_iperf(args) -> int:
    from repro.core.platforms import Wans
    from repro.netsim import Host, Link, Network, TcpParams, iperf
    from repro.util.units import MB, mbps

    wans = {
        "nton": Wans.NTON_2000,
        "nton-tuned": Wans.NTON_TUNED,
        "esnet": Wans.ESNET,
        "scinet": Wans.SCINET99,
        "lan": Wans.LAN_GIGE,
    }
    spec = wans[args.wan]
    net = Network()
    net.add_host(Host("src", nic_rate=mbps(2000)))
    net.add_host(Host("dst", nic_rate=mbps(2000)))
    link = net.add_link(
        Link(spec.name, rate=spec.rate, latency=spec.latency,
             efficiency=spec.efficiency,
             background_rate=spec.background_rate)
    )
    net.add_route("src", "dst", [link])
    result = iperf(
        net, "src", "dst",
        nbytes=args.megabytes * MB,
        streams=args.streams,
        params=TcpParams(max_window=spec.tcp_window),
    )
    print(
        f"{spec.name}: {result.mbps:.1f} Mbps aggregate over "
        f"{args.streams} stream(s) ({args.megabytes} MB in "
        f"{result.duration:.2f} s)"
    )
    return 0


def cmd_artifacts(args) -> int:
    from repro.datagen import CombustionConfig, combustion_field
    from repro.ibravr import artifact_sweep
    from repro.volren import TransferFunction

    volume = combustion_field(
        0.0,
        CombustionConfig(shape=(args.size,) * 3, n_kernels=4,
                         front_sharpness=10.0),
    )
    tf = TransferFunction.opaque_fire()
    sweep = artifact_sweep(
        volume, tf, args.angles, n_slabs=args.slabs,
        image_size=args.image_size,
        axis_switching=args.axis_switching,
    )
    mode = "axis switching" if args.axis_switching else "slabs pinned to X"
    print(f"IBRAVR artifact sweep ({mode}):")
    for s in sweep:
        print(
            f"  {s.angle_deg:6.1f} deg : rms {s.rms_error:.4f} "
            f"(slab axis {s.slab_axis})"
        )
    return 0


def cmd_live(args) -> int:
    from repro.datagen import (
        CombustionConfig,
        SyntheticTimeSeries,
        TimeSeriesMeta,
        combustion_field,
    )
    from repro.live import LiveBackEnd, LiveViewer

    shape = (args.size,) * 3
    cfg = CombustionConfig(shape=shape)
    meta = TimeSeriesMeta(name="cli-live", shape=shape,
                          n_timesteps=args.steps)
    source = SyntheticTimeSeries(
        meta, lambda t: combustion_field(t, cfg), dt=0.5
    )
    viewer = LiveViewer(frame_size=args.image_size)
    port = viewer.start()
    backend = LiveBackEnd(
        source, args.pes, port, overlapped=args.overlapped,
        n_timesteps=args.steps,
    )
    backend.run(timeout=300.0)
    ok = viewer.wait_done(timeout=60.0)
    viewer.stop()
    if viewer.errors:
        raise viewer.errors[0]
    print(
        f"live run: {args.steps} timesteps x {args.pes} PEs "
        f"({'overlapped' if args.overlapped else 'serial'}); "
        f"viewer assembled {len(viewer.frames_assembled)} frames, "
        f"drew {viewer.rendered_images} images"
    )
    if args.output and viewer.last_image is not None:
        from repro.util.image import save_ppm

        print(f"final frame -> {save_ppm(args.output, viewer.last_image)}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visapult",
        description="Visapult reproduction: campaigns, probes, demos.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list campaign names").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser("campaign", help="run a simulated campaign")
    p.add_argument("name", nargs="?", default=None,
                   help="campaign name (may come from the drill file)")
    p.add_argument("--overlapped", action="store_true")
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--scaled", action="store_true",
                   help="shrink the dataset for a fast demo")
    p.add_argument("--seed", type=int, default=None,
                   help="override the campaign's random seed")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject faults from a plan/drill JSON file")
    p.add_argument("--ulm", default=None, metavar="PATH",
                   help="write the run's ULM event log to this file")
    p.add_argument("--nlv", action="store_true",
                   help="print the NLV lifeline plot")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--sanitize", action="store_true",
                   help="run with the concurrency sanitizer attached")
    p.add_argument("--alloc-stats", action="store_true",
                   help="log ALLOC_* allocator-cost events into the ULM")
    p.add_argument("--tiles", action="store_true",
                   help="tile-routed transport with delta transmission")
    p.add_argument("--tile-size", type=int, default=None, metavar="PX",
                   help="screen tile edge in pixels (default 32)")
    p.add_argument("--stripe", default=None, metavar="SPEC",
                   help="RAID-5 parity striping on the DPSS with "
                        "redundant k-of-n reads, e.g. '4+1' (hedged "
                        "repair) or '4+1:eager'")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the versioned result payload to this file")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "serve-sim", help="run a multi-viewer service campaign"
    )
    p.add_argument("name", nargs="?", default="sc99-multiviewer",
                   help="service campaign name (default: sc99-multiviewer)")
    p.add_argument("--viewers", type=int, default=None,
                   help="override the workload's viewer count")
    p.add_argument("--frames", type=int, default=None,
                   help="timesteps each session watches")
    p.add_argument("--scaled", action="store_true",
                   help="shrink the dataset for a fast demo")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the shared render cache")
    p.add_argument("--seed", type=int, default=None,
                   help="override the service run's random seed")
    p.add_argument("--ulm", default=None, metavar="PATH",
                   help="write the run's ULM event log to this file")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write service metrics as JSON to this file")
    p.add_argument("--alloc-stats", action="store_true",
                   help="log ALLOC_* allocator-cost events into the ULM")
    p.add_argument("--tiles", action="store_true",
                   help="tile-routed transport with delta transmission "
                        "and the tile-keyed shared cache")
    p.add_argument("--tile-size", type=int, default=None, metavar="PX",
                   help="screen tile edge in pixels (default 32)")
    p.add_argument("--stripe", default=None, metavar="SPEC",
                   help="full-world campaigns: RAID-5 parity striping "
                        "on the shared DPSS site, e.g. '4+1'")
    p.add_argument("--topology", default=None, metavar="NAME",
                   help="shard campaigns: serve over this named "
                        "multi-site topology (see 'visapult list')")
    p.add_argument("--flow-classes", choices=["on", "off"], default=None,
                   help="shard campaigns: aggregate same-profile "
                        "sessions into flow classes (on) or run the "
                        "per-session oracle allocator (off)")
    p.add_argument("--sessions", type=int, default=None,
                   help="shard campaigns: total offered sessions "
                        "(alias of --viewers)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "bench", help="run the performance benchmark suites"
    )
    p.add_argument("--suite", choices=["fluid", "render", "shard",
                                       "stripe", "kernels"],
                   default="fluid",
                   help="fluid: allocator speedups; render: tile wire "
                        "savings + compositing + orbit cache; shard: "
                        "flow-class aggregation vs per-session flows; "
                        "stripe: parity-read overhead + flaky-drill "
                        "p99 read latency vs the fault-free baseline; "
                        "kernels: vectorized raycast/raster/fairshare "
                        "vs scalar oracles")
    p.add_argument("--quick", action="store_true",
                   help="small workloads (CI-sized; scaled e2e campaign)")
    p.add_argument("--no-e2e", action="store_true",
                   help="skip the end-to-end sc99-multiviewer benchmark "
                        "(fluid suite only)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write results JSON (e.g. BENCH_fluid.json)")
    p.add_argument("--check", action="store_true",
                   help="fail if gated metrics regress >25%% vs baseline")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline floors JSON for --check (default: the "
                        "suite's benchmarks/perf baseline)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "lint", help="check project invariants (VIS1xx rules)"
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: the repro package)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "check",
        help="determinism & protocol-typestate analyzer (VIS2xx rules)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to check (default: the repro package)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="write the findings report as JSON "
                        "(default stdout)")
    p.add_argument("--sarif", default=None, metavar="PATH",
                   help="write a SARIF 2.1.0 report for PR annotation")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline findings file "
                        "(default: analysis/baseline.json when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline; every finding is new")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from the current findings")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("iperf", help="probe a simulated WAN path")
    p.add_argument("--wan", choices=["nton", "nton-tuned", "esnet",
                                     "scinet", "lan"], default="esnet")
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--megabytes", type=float, default=100.0)
    p.set_defaults(fn=cmd_iperf)

    p = sub.add_parser("artifacts", help="IBRAVR artifact sweep")
    p.add_argument("--angles", type=float, nargs="+",
                   default=[0.0, 8.0, 16.0, 30.0, 45.0])
    p.add_argument("--slabs", type=int, default=8)
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--axis-switching", action="store_true")
    p.set_defaults(fn=cmd_artifacts)

    p = sub.add_parser("live", help="run the live localhost pipeline")
    p.add_argument("--pes", type=int, default=2)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--image-size", type=int, default=128)
    p.add_argument("--overlapped", action="store_true")
    p.add_argument("--output", default=None,
                   help="write the final frame to this PPM path")
    p.set_defaults(fn=cmd_live)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
