"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig10_cplant4 --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``
of the same checkout. With ``--trace 0`` the last line of standard
output is a JSON object whose metrics are the end-to-end ones; with
``--trace 1`` the run also profiles one extra set-up and timed call
and reports the per-layer metrics instead. The lines before it report
every metric by name and unit, the output checks, the work counters
and the output digests.

A run sets the workload up three times (``setup_s`` is the import
time plus the median set-up), then starts timed calls until
``--seconds`` have passed, at least two, and reports medians.
Repeats use the same seed, so their work counters must agree exactly;
any that differ are listed and make the run incorrect.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 3
MIN_ITERATIONS = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_program():
    """Import the benchmark modules and the program from this checkout.

    Raises ImportError when ``src/repro`` is missing here, or when the
    ``repro`` that imports lives anywhere else.
    """
    sys.path[:0] = [ROOT, SRC]
    import repro

    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {origin}, not {SRC}")
    from perfbench import catalog, checks, rollup, workloads

    return catalog, checks, rollup, workloads


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(wl, seconds):
    """Set up three times, then repeat the timed call; returns
    (setup times, input digests, iterations)."""
    setup_times, digests = [], []
    for _ in range(SETUPS):
        # Let the previous inputs and world go before building anew.
        made = state = None
        t0 = time.perf_counter()
        made = wl.inputs()
        state = wl.setup(made)
        setup_times.append(time.perf_counter() - t0)
        digests.append(wl.input_digest(made))
    iterations = []
    loop_start = time.perf_counter()
    while (
        len(iterations) < MIN_ITERATIONS
        or time.perf_counter() - loop_start < seconds
    ):
        if iterations and not wl.reuses_setup:
            state = None
            state = wl.setup(wl.inputs())
        # Start every timed call from a collected heap, so garbage left
        # by the previous call is not charged to this one.
        gc.collect()
        t0 = time.perf_counter()
        outcome = wl.run(state)
        wall = time.perf_counter() - t0
        iterations.append(wl.finish(state, outcome, wall))
    return setup_times, digests, iterations


def _traced(wl):
    """One profiled set-up plus timed call; (iteration, profile stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    state = wl.setup(wl.inputs())
    t0 = time.perf_counter()
    outcome = wl.run(state)
    wall = time.perf_counter() - t0
    profiler.disable()
    return wl.finish(state, outcome, wall), pstats.Stats(profiler)


def _pooled(iterations, name):
    return [v for it in iterations for v in it.samples.get(name, ())]


def _layer_metrics(catalog, rollup, iterations, traced, stats):
    """Every per-layer metric, from the traced call and the untraced
    iterations' samples and counters."""
    profile = stats.stats
    layers = rollup.Rollup(os.path.join(SRC, "repro"), HERE).self_times(
        profile
    )
    wall = _median([it.wall_s for it in iterations])
    steps = rollup.call_count(profile, "simcore/env.py", "step")
    scalar = rollup.call_count(
        profile, "simcore/fairshare.py", "_fill_rates_scalar"
    )
    matrix = rollup.call_count(
        profile, "simcore/fairshare.py", "_fill_rates_matrix"
    )
    out = {f"{name}.self_s": layers.get(name, 0.0)
           for name in catalog.LAYERS}
    render_ms = _pooled(iterations, "slab_render_ms")
    voxels = sum(it.counters.get("volren.voxels", 0) for it in iterations)
    out.update({
        "trace_total_s": stats.total_tt,
        "trace_overhead_frac": traced.wall_s / wall - 1.0 if wall else 0.0,
        "simcore.env.steps": steps,
        "simcore.env.host_us_per_step": (
            wall / steps * 1e6 if steps else 0.0
        ),
        "simcore.fairshare.solves_scalar": scalar,
        "simcore.fairshare.solves_matrix": matrix,
        "simcore.fairshare.host_us_per_solve": (
            layers.get("simcore.fairshare", 0.0) / (scalar + matrix) * 1e6
            if scalar + matrix else 0.0
        ),
        "simcore.flowclass.member_refreshes": rollup.call_count(
            profile, "simcore/flowclass.py", "_refresh_member"
        ),
        "volren.slab_render_ms_p50": _median(render_ms),
        "volren.voxels_per_s": (
            voxels / (sum(render_ms) / 1e3) if render_ms else 0.0
        ),
        "protocol.codec_ms": _median(_pooled(iterations, "codec_ms")),
        "ibravr.update_ms": _median(_pooled(iterations, "update_ms")),
    })
    return out


def _report_metrics(iterations):
    """Metrics shown in both modes: the exact counters of the first
    call and the redraw latencies of all untraced calls."""
    redraws = _pooled(iterations, "redraw_ms")
    out = dict(iterations[0].counters)
    out.update({
        "redraw_ms_p50": _median(redraws),
        "redraw_ms_p95": (
            statistics.quantiles(redraws, n=20, method="inclusive")[18]
            if len(redraws) > 1 else _median(redraws)
        ),
    })
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        catalog, checks, rollup, workloads = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in catalog.workload_names():
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(catalog.workload_names())}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    import_s = time.perf_counter() - _START

    setup_times, input_digests, iterations = _measure(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = list(iterations)
    traced = stats = None
    if args.trace:
        traced, stats = _traced(wl)
        runs.append(traced)

    walls = [it.wall_s for it in iterations]
    e2e = {
        "wall_s": _median(walls),
        "setup_s": import_s + _median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    shown = _report_metrics(iterations)
    if args.trace:
        shown.update(_layer_metrics(catalog, rollup, iterations, traced,
                                    stats))
    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    shown["ops_failed_frac"] = failed / attempted
    mismatched = checks.counter_mismatches([it.counters for it in runs])
    inputs_repeat = len(set(input_digests)) == 1
    correct = failed == 0 and not mismatched and inputs_repeat

    units = catalog.metric_units()
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(iterations)} timed call(s) over {sum(walls):.3f} s")
    print(f"  bypasses: {', '.join(catalog.bypassed_by(wl.name))}")
    print(f"  {'wall_s':<38} {e2e['wall_s']:.6f} s  (median of "
          f"{len(walls)}: {', '.join(f'{w:.3f}' for w in walls)})")
    print(f"  {'setup_s':<38} {e2e['setup_s']:.6f} s  (import "
          f"{import_s:.6f} + median of {len(setup_times)} set-ups "
          f"{_median(setup_times):.6f})")
    print(f"  {'peak_rss_mb':<38} {peak_rss_mb:.3f} MB")
    redraws = _pooled(iterations, "redraw_ms")
    for name in sorted(shown):
        unit = units.get(name, "count")
        print(f"  {name:<38} {shown[name]!r} {unit}")
    if redraws:
        beyond = sum(1 for v in redraws if v > shown["redraw_ms_p95"])
        print(f"  redraw samples: {len(redraws)} ({beyond} beyond p95)")
    if args.trace:
        layered = sum(shown[f"{n}.self_s"] for n in catalog.LAYERS)
        print(f"  self times sum to {layered!r} s of the traced total "
              f"{stats.total_tt!r} s")
    print(f"  units: {attempted} attempted ({wl.unit}), {failed} failed")
    for problem in [p for it in runs for p in it.problems][:20]:
        print(f"  FAILED: {problem}")
    print(f"  inputs repeat across {len(input_digests)} set-ups: "
          f"{inputs_repeat} ({input_digests[0]})")
    print(f"  counters repeat across {len(runs)} same-seed call(s): "
          f"{not mismatched}")
    for name, values in mismatched.items():
        print(f"  COUNTER DIFFERS: {name} {values}")
    for name, digest in sorted(runs[0].digests.items()):
        same = all(it.digests.get(name) == digest for it in runs)
        print(f"  digest {name:<8} {digest}"
              f"{'' if same else '  (differs between calls)'}")

    if args.trace:
        metrics = {m.name: shown.get(m.name, 0.0)
                   for m in catalog.PER_LAYER}
        names = [(m.name, m.unit) for m in catalog.PER_LAYER]
    else:
        metrics = e2e
        names = [(m.name, m.unit) for m, _bound in catalog.END_TO_END]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
