"""launch_small: the launch path with trivial kernel bodies.

Closed loop, one caller, warm ``enqueue`` on a ``QueueBlocking``.  The
loop round-robins over four operations on two back-ends
(``AccCpuSerial``: sequential block schedule; ``AccCpuOmp2Blocks``:
pooled block schedule):

* an empty 1x1x1 kernel;
* ``AxpyElementsKernel`` n=1024 as 1 block;
* the same as 16 blocks x 64 elements;
* a warm replay of a 4-sweep 32x32 ``Jacobi2DKernel`` ``Graph``.

Kernel bodies are trivial, the plan cache is hot and nothing is
allocated or compiled in the loop, so the time is the launch path.
Every operation is checked against numpy (bit-identity) outside the
timed region, and every AXPY and Jacobi operation is also run directly
in numpy in the same loop for ``overhead_x``: each burst of library
calls is paired with the burst of numpy twins that follows it.  run.py
pins the process to one CPU (see ``run.PINNED``).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro import (
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.kernels import AxpyElementsKernel, Jacobi2DKernel

from . import layers, stats
from .common import peak_rss_mib
from .spans import Recorder

BACKENDS = ("AccCpuSerial", "AccCpuOmp2Blocks")
AXPY_N = 1024
ALPHA = 0.5
PLATE = 32
SWEEPS = 4
HEAT_C = 0.2
#: Consecutive calls of one operation per visit.  Interleaving single
#: calls of different operations costs each call ~60-100 us of cold
#: interpreter and CPU state (measured on AccCpuSerial: empty kernel 112
#: us interleaved, 46 us in bursts of 8), which would swamp the launch
#: path this workload is meant to expose.
BURST = 8
#: Jacobi bursts between re-seeds of the plate, so the state never
#: converges to a fixed point a skipped replay would leave unchanged.
RESEED_EVERY = 8


@fn_acc
def empty_kernel(acc):
    pass


class Op:
    """One round-robin operation: the library call, its numpy twin and
    the check of the library's output."""

    def __init__(self, name: str, run: Callable[[], None],
                 native: Optional[Callable[[], None]], verify: Callable[[], bool],
                 before: Optional[Callable[[], None]] = None):
        self.name = name
        self.run = run
        self.native = native
        self.verify = verify
        self.before = before
        self.lib_s: List[float] = []
        self.native_s: List[float] = []


def _axpy_op(acc_name, acc, dev, queue, rng, blocks):
    xh = rng.random(AXPY_N)
    ref = rng.random(AXPY_N)
    x = mem.alloc(dev, AXPY_N)
    y = mem.alloc(dev, AXPY_N)
    mem.copy(queue, x, xh)
    mem.copy(queue, y, ref)
    task = create_task_kernel(
        acc, WorkDivMembers.make(blocks, 1, AXPY_N // blocks),
        AxpyElementsKernel(), AXPY_N, ALPHA, x, y,
    )
    yv = y.as_numpy()

    def native():
        np.add(ALPHA * xh, ref, out=ref)

    return Op(f"axpy{blocks}/{acc_name}", lambda: queue.enqueue(task), native,
              lambda: np.array_equal(yv, ref))


def _native_sweep(a, b):
    b[1:-1, 1:-1] = a[1:-1, 1:-1] + HEAT_C * (
        a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:] - 4.0 * a[1:-1, 1:-1]
    )
    b[0, :] = a[0, :]
    b[-1, :] = a[-1, :]
    b[:, 0] = a[:, 0]
    b[:, -1] = a[:, -1]


def _jacobi_op(acc_name, acc, dev, rng):
    src = mem.alloc(dev, (PLATE, PLATE))
    dst = mem.alloc(dev, (PLATE, PLATE))
    elems = Vec(8, 16)
    wd = WorkDivMembers.make(Vec(PLATE, PLATE).ceil_div(elems), Vec(1, 1), elems)
    kernel = Jacobi2DKernel()
    g = Graph()
    a, b = src, dst
    for step in range(SWEEPS):
        g.launch(acc, wd, kernel, PLATE, PLATE, HEAT_C, a, b,
                 reads=[a], writes=[b], label=f"sweep{step}")
        a, b = b, a
    ref = np.empty((PLATE, PLATE))
    scratch = np.empty((PLATE, PLATE))
    sv = src.as_numpy()
    count = [0]

    def reseed():
        # A host-side write: CPU device memory is host-accessible, and a
        # mem.copy here would show up in the traced pass's mem layer.
        if count[0] % RESEED_EVERY == 0:
            sv[:] = ref[:] = rng.random((PLATE, PLATE))
        count[0] += 1

    def native():
        for _ in range(SWEEPS // 2):
            _native_sweep(ref, scratch)
            _native_sweep(scratch, ref)

    reseed()
    g.submit()  # cold: builds and caches the graph plan
    native()
    return Op(f"jacobi{SWEEPS}/{acc_name}", g.submit, native,
              lambda: np.array_equal(sv, ref), before=reseed)


def build(seed: int) -> List[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for acc_name in BACKENDS:
        acc = accelerator(acc_name)
        dev = get_dev_by_idx(acc, 0)
        queue = QueueBlocking(dev)
        empty = create_task_kernel(acc, WorkDivMembers.make(1, 1, 1), empty_kernel)
        # The empty kernel produces nothing to compare; it passes when
        # the launch returns without raising.
        ops.append(Op(f"empty/{acc_name}", lambda q=queue, t=empty: q.enqueue(t),
                      None, lambda: True))
        ops.append(_axpy_op(acc_name, acc, dev, queue, rng, 1))
        ops.append(_axpy_op(acc_name, acc, dev, queue, rng, 16))
        ops.append(_jacobi_op(acc_name, acc, dev, rng))
    return ops


def first_results(ops: List[Op]) -> int:
    """One verified result of every operation; returns the failures."""
    failed = 0
    for op in ops:
        if op.before:
            op.before()
        op.run()
        if op.native:
            op.native()
        failed += not op.verify()
    return failed


def measure(ops: List[Op], seconds: float) -> tuple:
    """Closed loop for ``seconds``; returns (attempted, failed).

    Each visit of an operation is a burst of BURST timed library calls,
    then BURST timed numpy twins, then one bit-identity check, which
    covers every call of the burst (a skipped or wrong call changes the
    final state).  A mismatch fails the whole burst.
    """
    perf = time.perf_counter
    attempted = failed = 0
    deadline = perf() + seconds
    while perf() < deadline:
        for op in ops:
            if op.before:
                op.before()
            lib = op.lib_s
            for _ in range(BURST):
                t0 = perf()
                op.run()
                lib.append(perf() - t0)
            if op.native:
                nat = op.native_s
                for _ in range(BURST):
                    t0 = perf()
                    op.native()
                    nat.append(perf() - t0)
            attempted += BURST
            failed += 0 if op.verify() else BURST
    return attempted, failed


def paired_ratio(op: Op) -> float:
    """Median over the run of library/numpy ratios of adjacent bursts
    (each the ratio of the two bursts' medians)."""
    return stats.median([
        stats.median(op.lib_s[i:i + BURST]) / stats.median(op.native_s[i:i + BURST])
        for i in range(0, len(op.lib_s), BURST)
    ])


def summarize(ops: List[Op]) -> dict:
    """End-to-end figures over the loop so far: the geometric mean of
    the per-operation medians, launches per second of library time, and
    the geometric mean of the paired library/numpy ratios."""
    lib_all = [s for op in ops for s in op.lib_s]
    return {
        "p50_ms": 1e3 * stats.geomean([stats.median(op.lib_s) for op in ops]),
        "ops_per_s": len(lib_all) / sum(lib_all),
        "overhead_x": stats.geomean([paired_ratio(op) for op in ops if op.native]),
        "lib_all": lib_all,
    }


def setup_probe(seed: int) -> int:
    return first_results(build(seed))


def untraced(seed: int, seconds: float) -> dict:
    ops = build(seed)
    first_failed = first_results(ops)
    attempted, failed = measure(ops, seconds)
    summ = summarize(ops)
    lib_all = summ["lib_all"]
    rows = [
        ("launch_us_p50", 1e6 * stats.median(lib_all), "us", len(lib_all), "all operations pooled"),
        ("launch_us_p99", None if not stats.supports(len(lib_all), 99.0)
         else 1e6 * stats.percentile(lib_all, 99.0), "us", len(lib_all), "all operations pooled"),
        ("launches_per_s", summ["ops_per_s"], "1/s", len(lib_all), "per second of library time"),
    ]
    for op in ops:
        tail = stats.tail(op.lib_s)
        note = "" if tail is None else f"p{tail['p']:g}={1e6 * tail['value']:.1f}us"
        if op.native:
            note += (f" numpy_p50={1e6 * stats.median(op.native_s):.2f}us"
                     f" paired_ratio={paired_ratio(op):.2f}")
        rows.append((f"op.{op.name}.p50", 1e6 * stats.median(op.lib_s), "us", len(op.lib_s), note))
    return {
        "attempted": attempted + len(ops), "failed": failed + first_failed, "wrong": failed + first_failed,
        "overhead_x": summ["overhead_x"],
        "overhead_n": sum(len(op.lib_s) for op in ops if op.native),
        "overhead_note": "geomean over AXPY and Jacobi operations of the median paired-burst library/numpy ratio",
        "peak_rss_mib": peak_rss_mib(), "rows": rows, "valid": True,
    }


def traced(seed: int, seconds: float) -> dict:
    """Untraced half, then the same loop with every layer wrapped."""
    base_ops = build(seed)
    first_results(base_ops)
    measure(base_ops, seconds / 2)
    base = summarize(base_ops)

    rec = Recorder()
    layers.install(rec)
    try:
        ops = build(seed)  # built after install: graph replays bind the wrappers
        first_results(ops)
        before = layers.counters()
        rec.enabled = True
        attempted, failed = measure(ops, seconds / 2)
        rec.enabled = False
        after = layers.counters()
    finally:
        rec.uninstall()
    summ = summarize(ops)
    m = layers.runtime_metrics(rec, before, after, attempted)
    m["trace.overhead_pct"] = 100.0 * (summ["p50_ms"] / base["p50_ms"] - 1.0)
    m["trace.accounted_pct"] = layers.accounted_pct(rec, summ["lib_all"])
    return {"attempted": attempted, "failed": failed, "wrong": failed,
            "per_layer": m, "recorder": rec,
            "breakdown_us": layers.breakdown_us(rec, attempted),
            "traced_op_mean_us": 1e6 * stats.ratio(sum(summ["lib_all"]), attempted)}
