"""Extension: per-launch library overhead, measured per back-end.

The paper attributes part of its <6 % overhead to "a small number of
additional CUDA runtime calls" per launch.  This bench measures *this*
library's per-launch cost (empty kernel, one-thread grid) on every
back-end — the quantity an adopter budgeting many small launches needs.

Since the Task→Plan→Execute refactor the cost splits in two: a **cold**
launch builds a `LaunchPlan` (work-div validation, device properties,
runner selection) while a **warm** launch serves it from the LRU plan
cache.  Both are reported, together with the cache hit rate a
`telemetry.collect()` block sees — the acceptance check that repeated
launches really do bypass planning.
"""

import pytest

from repro import (
    QueueBlocking,
    WorkDivMembers,
    accelerator,
    accelerator_names,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    telemetry,
)
from repro.bench import (
    measure_wall,
    write_bench_json,
    write_report,
)
from repro.comparison import render_table

LAUNCHES = 100


@fn_acc
def _empty(acc):
    pass


def _setup(acc_name):
    acc = accelerator(acc_name)
    dev = get_dev_by_idx(acc, 0)
    queue = QueueBlocking(dev)
    task = create_task_kernel(acc, WorkDivMembers.make(1, 1, 1), _empty)
    return queue, task


def _warm_cost(acc_name):
    """Per-launch cost with the plan served from the cache."""
    queue, task = _setup(acc_name)

    def launch():
        for _ in range(LAUNCHES):
            queue.enqueue(task)

    return measure_wall(launch, repeat=3) / LAUNCHES


def _cold_cost(acc_name):
    """Per-launch cost when every launch must rebuild its plan."""
    queue, task = _setup(acc_name)

    def launch():
        for _ in range(LAUNCHES):
            clear_plan_cache()
            queue.enqueue(task)

    return measure_wall(launch, repeat=3) / LAUNCHES


def _hit_rate(acc_name):
    """Observed plan-cache hit rate over a fresh repeated-launch run."""
    queue, task = _setup(acc_name)
    clear_plan_cache()
    with telemetry.collect() as t:
        for _ in range(LAUNCHES):
            queue.enqueue(task)
    return t.plan_cache_hit_rate


def test_launch_overhead(benchmark):
    names = accelerator_names()

    def run():
        return {
            name: {
                "cold": _cold_cost(name),
                "warm": _warm_cost(name),
                "hit_rate": _hit_rate(name),
            }
            for name in names
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "Back-end": name,
            "cold [us]": f"{c['cold'] * 1e6:8.1f}",
            "warm [us]": f"{c['warm'] * 1e6:8.1f}",
            "saved": f"{(1 - c['warm'] / c['cold']) * 100:5.1f} %",
            "cache hits": f"{c['hit_rate'] * 100:5.1f} %",
        }
        for name, c in sorted(costs.items(), key=lambda kv: kv[1]["warm"])
    ]
    text = render_table(
        rows,
        "Extension: per-launch overhead (empty kernel), "
        "cold plan build vs. warm plan-cache hit",
    )
    print("\n" + text)
    write_report("launch_overhead.txt", text)
    metrics = {}
    for name, c in costs.items():
        metrics[f"{name}_cold_launch"] = (c["cold"], "s")
        metrics[f"{name}_warm_launch"] = (c["warm"], "s")
        metrics[f"{name}_cache_hit_rate"] = c["hit_rate"]
    write_bench_json("launch_overhead", metrics)

    # Repeated launches of an identical task must be served by the plan
    # cache: 1 miss, LAUNCHES-1 hits.
    for name, c in costs.items():
        assert c["hit_rate"] == pytest.approx((LAUNCHES - 1) / LAUNCHES), name

    # The cache must pay for itself where it matters most: the
    # OpenMP-block back-end (pooled scheduler, paper Fig. 5's CPU case)
    # launches no slower warm than cold.
    assert costs["AccCpuOmp2Blocks"]["warm"] <= costs["AccCpuOmp2Blocks"]["cold"]

    # Sanity bands (generous: 1-core CI container): the single-threaded
    # back-ends launch in tens of microseconds; thread-spawning
    # back-ends stay under ~10 ms per launch.
    assert costs["AccCpuSerial"]["warm"] < 2e-3, costs
    for name, c in costs.items():
        assert c["warm"] < 2e-2, (name, c)
    # Serial launches are not slower than thread-spawning ones.
    assert (
        costs["AccCpuSerial"]["warm"] <= costs["AccCpuThreads"]["warm"] * 3
    )


def test_compiled_replay_launch_overhead():
    """The `compiled` strategy's warm-launch cost: after the cold trace,
    every launch is one cached-replay dispatch — no re-trace, and a
    per-launch cost in the same band as the other single-dispatch
    back-ends (a replay that secretly re-traced would sit orders of
    magnitude above it)."""
    import os

    from repro.compile import compile_stats
    from repro.runtime.scheduler import SCHEDULER_ENV

    prev = os.environ.get(SCHEDULER_ENV)
    os.environ[SCHEDULER_ENV] = "compiled"
    clear_plan_cache()
    before = compile_stats()
    try:
        import numpy as np

        from repro import mem
        from repro.kernels import AxpyKernel

        acc = accelerator("AccCpuOmp2Blocks")
        dev = get_dev_by_idx(acc, 0)
        queue = QueueBlocking(dev)
        n = 64
        x = mem.alloc(dev, n)
        y = mem.alloc(dev, n)
        x.as_numpy()[:] = np.arange(float(n))
        task = create_task_kernel(
            acc, WorkDivMembers.make(n, 1, 1), AxpyKernel(), n, 1.5, x, y
        )
        queue.enqueue(task)  # cold: trace + compile

        def launch():
            for _ in range(LAUNCHES):
                queue.enqueue(task)

        warm = measure_wall(launch, repeat=3) / LAUNCHES
        after = compile_stats()
        stats = {k: after[k] - before[k] for k in ("traces", "retraces")}
        stats["fallbacks"] = {
            r: n - before["fallbacks"].get(r, 0)
            for r, n in after["fallbacks"].items()
            if n > before["fallbacks"].get(r, 0)
        }
        x.free()
        y.free()
    finally:
        if prev is None:
            os.environ.pop(SCHEDULER_ENV, None)
        else:
            os.environ[SCHEDULER_ENV] = prev
        clear_plan_cache()

    text = render_table(
        [{
            "Strategy": "compiled (warm replay)",
            "warm [us]": f"{warm * 1e6:8.1f}",
            "traces": str(stats["traces"]),
            "retraces": str(stats["retraces"]),
        }],
        "Extension: compiled-replay launch overhead (64-thread AXPY)",
    )
    print("\n" + text)
    write_report("launch_overhead_compiled.txt", text)
    write_bench_json(
        "launch_overhead_compiled",
        {
            "compiled_warm_launch": (warm, "s"),
            "compiled_traces": stats["traces"],
            "compiled_retraces": stats["retraces"],
        },
    )

    # Warm compiled replay must never re-trace.
    assert stats["traces"] == 1, stats
    assert stats["retraces"] == 0, stats
    assert stats["fallbacks"] == {}, stats
    # Same order-of-magnitude band as the other warm launches.
    assert warm < 2e-2, warm


def test_chunking_precomputed_in_plan():
    """Warm launches must not re-partition block indices: the chunked
    dispatch geometry is memoised on the cached ``LaunchPlan``
    (``chunks_for``), and the pooled scheduler consults it rather than
    re-running ``chunk_indices`` per dispatch."""
    from repro.runtime import get_plan, resolve_max_block_workers

    acc = accelerator("AccCpuOmp2Blocks")
    dev = get_dev_by_idx(acc, 0)
    queue = QueueBlocking(dev)
    task = create_task_kernel(acc, WorkDivMembers.make(32, 1, 1), _empty)
    queue.enqueue(task)
    plan = get_plan(task, dev)
    assert plan.schedule == "pooled"

    workers = resolve_max_block_workers()
    chunks = plan.chunks_for(workers)
    bounds = plan.chunk_bounds_for(workers)
    # Memoised: same objects on every consultation.
    assert plan.chunks_for(workers) is chunks
    assert plan.chunk_bounds_for(workers) is bounds
    assert sum(len(c) for c in chunks) == 32
    assert bounds[0][0] == 0 and bounds[-1][1] == 32

    # And dispatch actually reads the memoised geometry: intercept the
    # plan's accessor and relaunch.
    consulted = []
    orig = plan.chunks_for
    plan.chunks_for = lambda w: (consulted.append(w), orig(w))[1]
    try:
        queue.enqueue(task)
    finally:
        plan.chunks_for = orig
    assert consulted == [workers]


def test_telemetry_fast_path_when_unobserved():
    """The telemetry guard, structural half: with no observer registered
    the span helper must return the shared no-op singleton — one falsy
    check, no allocation, no clock read — so an unobserved launch pays
    nothing for the telemetry layer's existence."""
    from repro.runtime.instrument import observers
    from repro.telemetry.spans import NULL_SPAN, span

    assert observers() == ()
    assert span("launch") is NULL_SPAN
    assert span("mem.copy", cat="mem") is NULL_SPAN
    assert span("plan.build", cat="runtime", extra="attr") is NULL_SPAN


def test_telemetry_overhead_bounded():
    """The telemetry guard, measured half: warm launches with a
    collector registered must stay within an order of magnitude of the
    bare path (block timing + histogram updates cost something, but a
    collector must never turn microsecond launches into millisecond
    ones).  The unobserved band itself is asserted by
    ``test_launch_overhead``."""
    from repro import telemetry

    bare = _warm_cost("AccCpuSerial")
    with telemetry.collect():
        observed = _warm_cost("AccCpuSerial")
    assert observed < max(bare * 10, 2e-3), (bare, observed)
