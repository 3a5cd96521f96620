"""Extension: work-division autotuning, tuned vs. default heuristic.

Matthes, Widera, Zenker et al. (arXiv:1706.10086) tune alpaka work
divisions per kernel and architecture and show the heuristic default is
rarely optimal.  This bench reproduces the workflow with
``repro.tuning``: for the hierarchically tiled DGEMM and the 2-d Jacobi
stencil, on *every* registered back-end, it measures

* the back-end's default Table 2 division (``divide_work`` with the
  back-end's preferred mapping), and
* the division :func:`repro.tuning.autotune` finds,

and reports both throughputs.  Because the candidate space always seeds
the default division, tuned can only tie or beat default — the bench
asserts exactly that, plus the persistence contract: a second
``autotune`` against the warm cache answers from disk with **zero**
kernel launches, observed through a ``telemetry.collect()`` block's
``repro_launches_total`` (the same instrumentation the launch-overhead
bench uses).

Sizes are deliberately tiny: the GPU back-end executes blocks with one
host thread per modeled thread, so the bench caps generated candidates
at ``MAX_BLOCK_THREADS`` modeled threads per block (the seeds stay
exempt) and tunes with a small random budget — the configuration the CI
smoke job mirrors.
"""

import numpy as np

from repro import (
    QueueBlocking,
    accelerator,
    accelerator_names,
    autotune,
    create_task_kernel,
    divide_work,
    get_dev_by_idx,
    mem,
    telemetry,
)
from repro.bench import write_bench_json, write_report
from repro.comparison import render_table
from repro.kernels.gemm import GemmTilingKernel, dgemm_reference
from repro.kernels.stencil import Jacobi2DKernel, jacobi_reference_step
from repro.tuning import TuningCache, measure_division

GEMM_N = 16
STENCIL_H = 48
STENCIL_W = 32
#: Cap on generated candidates' modeled threads per block (simulated-GPU
#: blocks run one host thread per modeled thread).
MAX_BLOCK_THREADS = 64
BUDGET = 8


def _gemm_setup(acc, dev):
    rng = np.random.default_rng(7)
    n = GEMM_N
    queue = QueueBlocking(dev)
    hosts = (rng.random((n, n)), rng.random((n, n)), rng.random((n, n)))
    bufs = []
    for h in hosts:
        b = mem.alloc(dev, (n, n))
        mem.copy(queue, b, h)
        bufs.append(b)
    # beta=0 keeps the launch idempotent: tuning re-runs the kernel
    # many times against the same output buffer.
    args = (n, 1.0, bufs[0], bufs[1], 0.0, bufs[2])
    expected = dgemm_reference(1.0, hosts[0], hosts[1], 0.0, hosts[2])

    def check():
        out = np.empty((n, n))
        mem.copy(queue, out, bufs[2])
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    return (n, n), args, 2.0 * n**3, check


def _stencil_setup(acc, dev):
    rng = np.random.default_rng(11)
    h, w = STENCIL_H, STENCIL_W
    queue = QueueBlocking(dev)
    host = rng.random((h, w))
    src = mem.alloc(dev, (h, w))
    dst = mem.alloc(dev, (h, w))
    mem.copy(queue, src, host)
    args = (h, w, 0.1, src, dst)
    expected = jacobi_reference_step(host, 0.1)

    def check():
        out = np.empty((h, w))
        mem.copy(queue, out, dst)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    return (h, w), args, float(h * w), check


WORKLOADS = [
    ("DGEMM tiled", GemmTilingKernel, _gemm_setup, "GFLOPS"),
    ("Jacobi 2-d", Jacobi2DKernel, _stencil_setup, "Mcell/s"),
]

UNIT_SCALE = {"GFLOPS": 1e9, "Mcell/s": 1e6}


def _tune_one(kernel, acc, dev, extent, args, cache):
    """(default seconds, tuned TuningResult) for one workload/back-end."""
    props = acc.get_acc_dev_props(dev).for_dim(len(extent))
    default_wd = divide_work(extent, props, acc.mapping_strategy)
    default_s = measure_division(kernel, acc, dev, default_wd, args).seconds
    tuned = autotune(
        kernel,
        acc,
        extent,
        args,
        device=dev,
        strategy="random",
        budget=BUDGET,
        max_block_threads=MAX_BLOCK_THREADS,
        cache=cache,
        save=False,
    )
    return default_wd, default_s, tuned


def test_tuned_vs_default(benchmark, tmp_path):
    cache = TuningCache(str(tmp_path / "tuning-cache.json"))
    rows = []
    failures = []

    def run():
        for wl_name, kernel_cls, setup, unit in WORKLOADS:
            for acc_name in accelerator_names():
                acc = accelerator(acc_name)
                dev = get_dev_by_idx(acc, 0)
                kernel = kernel_cls()
                extent, args, work, check = setup(acc, dev)
                default_wd, default_s, tuned = _tune_one(
                    kernel, acc, dev, extent, args, cache
                )

                # Correctness: the tuned division computes the same
                # answer (the last measurement launch left its result
                # in the output buffer).
                q = QueueBlocking(dev)
                q.enqueue(
                    create_task_kernel(acc, tuned.work_div, kernel, *args)
                )
                check()

                scale = UNIT_SCALE[unit]
                rows.append(
                    {
                        "Workload": wl_name,
                        "Back-end": acc_name,
                        "default": f"{work / default_s / scale:9.3f}",
                        "tuned": f"{work / tuned.seconds / scale:9.3f}",
                        "unit": unit,
                        "speed-up": f"{default_s / tuned.seconds:6.2f}x",
                        "tuned division": str(tuned.work_div),
                        "meas": tuned.measurements,
                    }
                )
                if tuned.seconds > default_s:
                    failures.append((wl_name, acc_name, default_s, tuned.seconds))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    text = render_table(
        rows,
        "Extension: autotuned vs. default work division "
        f"(DGEMM n={GEMM_N}, Jacobi {STENCIL_H}x{STENCIL_W}; "
        f"random search, budget {BUDGET})",
    )
    print("\n" + text)
    write_report("tuning_tuned_vs_default.txt", text)
    write_bench_json("tuning_tuned_vs_default", {
        f"{r['Workload']}_{r['Back-end']}_speedup": float(
            r["speed-up"].rstrip("x")
        )
        for r in rows
    })

    # The default heuristic is seeded into every candidate space, so
    # the tuned division can only tie or beat it — on every back-end,
    # for both workloads.
    assert not failures, failures

    # Persistence: the cache file round-trips, and a warm second tune
    # answers from it without a single kernel launch (observed through
    # the real runtime instrumentation, not inferred).
    cache.save()
    reloaded = TuningCache(cache.path)
    for wl_name, kernel_cls, setup, unit in WORKLOADS:
        for acc_name in accelerator_names():
            acc = accelerator(acc_name)
            dev = get_dev_by_idx(acc, 0)
            kernel = kernel_cls()
            extent, args, work, check = setup(acc, dev)
            with telemetry.collect() as t:
                warm = autotune(
                    kernel, acc, extent, args, device=dev, cache=reloaded
                )
            assert warm.from_cache, (wl_name, acc_name)
            assert warm.launches == 0, (wl_name, acc_name)
            launches = t.total("repro_launches_total")
            assert launches == 0, (wl_name, acc_name, launches)
