"""compute_large: kernel bodies and compiled replay dominate.

Closed loop, one caller, ``AccCpuOmp2Blocks`` with
``REPRO_SCHEDULER=compiled`` (run.py sets it before ``repro`` is
imported).  Two operations alternate:

* **compiled AXPY**, n = 2**24 in 16384 blocks.  Each array is 128 MiB
  against the host's 105 MiB L3, and the x/y pair plus the replay's two
  temporaries touch 512 MiB (~4.9x L3), so the operation is
  memory-bound.  It takes the compiled replay path.
* **tiled DGEMM**, the paper's ``GemmTilingKernel`` at n=512 with the
  CPU mapping B=1, V=64 (Fig. 8).  Its shared-memory staging makes the
  compiled scheduler fall back to pooled dispatch (reason
  ``shared-memory``), so a compile change that helps one path and slows
  the other shows.

AXPY is checked bit-for-bit against the same update done in numpy
(which is also the native timing); GEMM with ``allclose`` against
``A @ B``.  C is filled with -1 before every GEMM, so a launch that
wrote nothing cannot pass.

Every library call is timed next to its numpy twin in the same round,
and ``overhead_x`` is the median over the run of these paired ratios:
a shared host's speed wanders over seconds, which moves both halves of
a pair alike.  run.py pins the process to one CPU with a one-thread
BLAS (see ``run.PINNED``).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro import (
    AccCpuOmp2Blocks,
    QueueBlocking,
    WorkDivMembers,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.kernels import AxpyElementsKernel, GemmTilingKernel
from repro.kernels.gemm import gemm_workdiv_tiling

from . import layers, stats
from .common import peak_rss_mib
from .spans import Recorder

AXPY_N = 2 ** 24
AXPY_BLOCKS = 16384
ALPHA = 0.5
GEMM_N = 512
GEMM_B, GEMM_V = 1, 64
#: Tolerance of the tiled GEMM against ``A @ B``: tiles sum the k
#: extent in another order than BLAS, so the last bits may differ.
GEMM_RTOL = 1e-10


class Workload:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.dev = get_dev_by_idx(AccCpuOmp2Blocks, 0)
        self.queue = QueueBlocking(self.dev)

        self.x = mem.alloc(self.dev, AXPY_N)
        self.y = mem.alloc(self.dev, AXPY_N)
        mem.copy(self.queue, self.x, rng.random(AXPY_N))
        self.ref = rng.random(AXPY_N)
        mem.copy(self.queue, self.y, self.ref)
        self.xv, self.yv = self.x.as_numpy(), self.y.as_numpy()
        self.axpy = create_task_kernel(
            AccCpuOmp2Blocks,
            WorkDivMembers.make(AXPY_BLOCKS, 1, AXPY_N // AXPY_BLOCKS),
            AxpyElementsKernel(), AXPY_N, ALPHA, self.x, self.y,
        )

        self.Ah = rng.random((GEMM_N, GEMM_N))
        self.Bh = rng.random((GEMM_N, GEMM_N))
        self.Cref = np.empty((GEMM_N, GEMM_N))
        self.A = mem.alloc(self.dev, (GEMM_N, GEMM_N))
        self.B = mem.alloc(self.dev, (GEMM_N, GEMM_N))
        self.C = mem.alloc(self.dev, (GEMM_N, GEMM_N))
        mem.copy(self.queue, self.A, self.Ah)
        mem.copy(self.queue, self.B, self.Bh)
        self.Cv = self.C.as_numpy()
        self.gemm = create_task_kernel(
            AccCpuOmp2Blocks, gemm_workdiv_tiling(GEMM_N, GEMM_B, GEMM_V),
            GemmTilingKernel(), GEMM_N, 1.0, self.A, self.B, 0.0, self.C,
        )
        self.axpy_s: List[float] = []
        self.axpy_native_s: List[float] = []
        self.gemm_s: List[float] = []
        self.gemm_native_s: List[float] = []

    # -- one round: AXPY then GEMM, each timed, twinned and checked ------

    def round(self, record: bool = True) -> int:
        """Run both operations once; returns how many were wrong."""
        perf = time.perf_counter
        t0 = perf()
        self.queue.enqueue(self.axpy)
        t1 = perf()
        self.ref += ALPHA * self.xv
        t2 = perf()
        wrong = not np.array_equal(self.yv, self.ref)

        self.Cv.fill(-1.0)
        t3 = perf()
        self.queue.enqueue(self.gemm)
        t4 = perf()
        np.matmul(self.Ah, self.Bh, out=self.Cref)
        t5 = perf()
        wrong += not np.allclose(self.Cv, self.Cref, rtol=GEMM_RTOL, atol=0.0)
        if record:
            self.axpy_s.append(t1 - t0)
            self.axpy_native_s.append(t2 - t1)
            self.gemm_s.append(t4 - t3)
            self.gemm_native_s.append(t5 - t4)
        return int(wrong)

    def measure(self, seconds: float) -> tuple:
        """Closed loop for ``seconds``; returns (attempted, failed)."""
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while True:
            failed += self.round()
            attempted += 2
            if time.perf_counter() >= deadline:
                return attempted, failed

    def summarize(self) -> dict:
        """Figures over the rounds recorded so far."""
        axpy, gemm = stats.median(self.axpy_s), stats.median(self.gemm_s)
        return {
            "p50_ms": 1e3 * stats.geomean([axpy, gemm]),
            "overhead_x": stats.geomean([
                stats.median([t / n for t, n in zip(self.axpy_s, self.axpy_native_s)]),
                stats.median([t / n for t, n in zip(self.gemm_s, self.gemm_native_s)]),
            ]),
            "axpy_gb_per_s": 24.0 * AXPY_N / axpy / 1e9,
            "gemm_gflop_per_s": 2.0 * GEMM_N ** 3 / gemm / 1e9,
        }


def setup_probe(seed: int) -> int:
    return Workload(seed).round(record=False)


def untraced(seed: int, seconds: float) -> dict:
    w = Workload(seed)
    first_failed = w.round(record=False)
    attempted, failed = w.measure(seconds)
    summ = w.summarize()
    n = len(w.axpy_s)
    rows = [
        ("axpy_gb_per_s", summ["axpy_gb_per_s"], "GB/s", n, "computed as 24 B/element"),
        ("gemm_gflop_per_s", summ["gemm_gflop_per_s"], "GFLOP/s", n, "2 n^3 flops"),
        ("op.axpy.p50", 1e3 * stats.median(w.axpy_s), "ms", n,
         f"numpy_p50={1e3 * stats.median(w.axpy_native_s):.2f}ms"),
        ("op.gemm.p50", 1e3 * stats.median(w.gemm_s), "ms", n,
         f"numpy_p50={1e3 * stats.median(w.gemm_native_s):.2f}ms"),
    ]
    return {
        "attempted": attempted + 2, "failed": failed + first_failed, "wrong": failed + first_failed,
        "overhead_x": summ["overhead_x"], "overhead_n": 2 * n,
        "overhead_note": "geomean of the AXPY and GEMM medians of paired library/numpy ratios",
        "peak_rss_mib": peak_rss_mib(), "rows": rows, "valid": True,
    }


def traced(seed: int, seconds: float) -> dict:
    """Untraced half, then the same loop with every layer wrapped."""
    w = Workload(seed)
    w.round(record=False)
    w.measure(seconds / 2)
    base = w.summarize()

    rec = Recorder()
    layers.install(rec)
    try:
        w.axpy_s, w.gemm_s, w.axpy_native_s, w.gemm_native_s = [], [], [], []
        w.round(record=False)
        before = layers.counters()
        rec.enabled = True
        attempted, failed = w.measure(seconds / 2)
        rec.enabled = False
        after = layers.counters()
    finally:
        rec.uninstall()
    m = layers.runtime_metrics(rec, before, after, attempted)
    m["trace.overhead_pct"] = 100.0 * (w.summarize()["p50_ms"] / base["p50_ms"] - 1.0)
    m["trace.accounted_pct"] = layers.accounted_pct(rec, w.axpy_s + w.gemm_s)
    return {"attempted": attempted, "failed": failed, "wrong": failed,
            "per_layer": m, "recorder": rec,
            "breakdown_us": layers.breakdown_us(rec, attempted),
            "traced_op_mean_us": 1e6 * stats.ratio(sum(w.axpy_s + w.gemm_s), attempted)}
