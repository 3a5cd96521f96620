"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload launch_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs an untraced half and a traced half (public entry
points wrapped from perfbench/, see layers.py) and reports the
per-layer metrics.  The workload runs in this process; the set-up
time is the median over fresh probe processes.  The last line of
standard output is the JSON result; the lines before it are a
human-readable report.  The exit code is non-zero when any output was
wrong or a fixed-rate phase was invalid.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

WORKLOADS = ("launch_small", "compute_large", "serve_mixed")
#: Workloads run on one CPU, with a one-thread BLAS.  Their block pools
#: hand the GIL between threads; on a shared host the cost of that
#: hand-off depends on whether a neighbour holds the other CPU (the
#: tiled GEMM took 58 ms with both CPUs free and 33-44 ms beside a busy
#: loop), so unpinned they measured the host's scheduler.  Set-up
#: probes inherit the pin.
PINNED = ("launch_small", "compute_large")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, verify one result of each kind, print the ready line")
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nothing else."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no library sources at {src}; run from a full checkout")
    sys.path[:0] = [src, root]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "compute_large":
        # Must precede the first repro import: the scheduler override is
        # part of every plan's identity.
        os.environ["REPRO_SCHEDULER"] = "compiled"
    if args.workload in PINNED:
        # Before numpy loads: BLAS sizes its thread team then.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bootstrap()
    from perfbench import common, layers, stats

    mod = importlib.import_module(f"perfbench.{args.workload}")
    if args.setup_probe:
        if mod.setup_probe(args.seed):
            return 1
        common.signal_ready()
        return 0

    fingerprint = common.host_fingerprint()
    if args.trace:
        res = mod.traced(args.seed, args.seconds)
        os.makedirs(common.OUT, exist_ok=True)
        spans_path = os.path.join(common.OUT, f"spans-{args.workload}.jsonl")
        written = res["recorder"].dump(spans_path)
        per_layer = layers.complete(res["per_layer"])
        common.print_report(
            f"{args.workload} (traced)",
            [(k, v, u, None, "") for k, (v, u) in per_layer.items()],
            {"host": fingerprint, "seed": args.seed, "seconds": args.seconds,
             "spans_file": os.path.relpath(spans_path, common.ROOT), "spans_written": written,
             "attempted": res["attempted"], "failed": res["failed"],
             "breakdown_us_per_op": res.get("breakdown_us"),
             "traced_op_mean_us": res.get("traced_op_mean_us")},
        )
        correct = res["wrong"] == 0
        common.emit(correct, res["attempted"], res["failed"], per_layer)
        return 0 if correct else 1

    res = mod.untraced(args.seed, args.seconds)
    probes = common.setup_probes(args.workload, args.seed)
    setup_s = stats.median(probes)
    error_rate = res["failed"] / res["attempted"]
    rows = [
        ("setup_s", setup_s, "s", len(probes), "median over fresh processes: " +
         ", ".join(f"{p:.3f}" for p in probes)),
        ("peak_rss_mib", res["peak_rss_mib"], "MiB", None,
         "gateway process" if args.workload == "serve_mixed" else "benchmark process"),
        ("error_rate", error_rate, "ratio", res["attempted"],
         f"failed={res['failed']} wrong={res['wrong']}"),
    ] + res["rows"]
    rows.append(("overhead_x", res["overhead_x"], "x", res["overhead_n"],
                 "gated: " + res["overhead_note"]))
    common.print_report(args.workload, rows, {"host": fingerprint, "seed": args.seed,
                                              "seconds": args.seconds, "valid": res["valid"]})
    correct = res["wrong"] == 0 and res["valid"]
    common.emit(correct, res["attempted"], res["failed"], {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "overhead_x": (res["overhead_x"], "x"),
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
