"""Extension: whole-graph warm replay vs. per-launch dispatch.

ROADMAP item 3's acceptance bench.  A dataflow graph resolves every
node's ``LaunchPlan``, grid context and scheduler into replay ops it
keeps, so a warm resubmission pays one context check for the whole
pipeline instead of a plan lookup, grid construction and queue
round-trip per node.  The bound asserted
here: a warm replay of a PIPELINE_NODES-deep kernel chain costs **less
than 3x one warm single launch** — i.e. per-node replay overhead is a
small fraction of even the cached launch path.

The identity half (also runnable standalone for CI:
``python benchmarks/bench_graph.py identity``) checks the inferred-
dependency halo pipeline against a sequential per-step reference on
every registered back-end, bitwise, and runs it sanitize-clean.
"""

import sys

import numpy as np
import pytest

from repro import (
    Graph,
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    accelerator_names,
    clear_plan_cache,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    mem,
)
from repro.bench import measure_wall, write_bench_json, write_report
from repro.comparison import render_table
from repro.kernels import Jacobi2DKernel, jacobi_reference_step
from repro.runtime import graph_plan_cache_info

#: Depth of the replayed kernel chain (acceptance floor: >= 6 nodes).
PIPELINE_NODES = 6
SUBMITS = 100
LAUNCHES = 100


@fn_acc
def _bump(acc, b):
    b[0] += 1.0


def _single_warm_cost(acc_name: str) -> float:
    """Per-launch cost of the ordinary warm path (plan-cache hit)."""
    acc = accelerator(acc_name)
    dev = get_dev_by_idx(acc, 0)
    queue = QueueBlocking(dev)
    buf = mem.alloc(dev, 4)
    task = create_task_kernel(acc, WorkDivMembers.make(1, 1, 1), _bump, buf)
    queue.enqueue(task)  # warm the plan cache

    def launch():
        for _ in range(LAUNCHES):
            queue.enqueue(task)

    return measure_wall(launch, repeat=3) / LAUNCHES


def _graph_warm_cost(acc_name: str, nodes: int) -> float:
    """Per-submit cost of replaying a ``nodes``-deep chained graph."""
    acc = accelerator(acc_name)
    dev = get_dev_by_idx(acc, 0)
    buf = mem.alloc(dev, 4)
    wd = WorkDivMembers.make(1, 1, 1)
    g = Graph()
    for i in range(nodes):
        # Same buffer in every node: read-write classification chains
        # them into one linear pipeline.
        g.launch(acc, wd, _bump, buf, label=f"n{i}")
    g.submit()  # cold: resolves and snapshots every node's plan
    assert g.last_stats is not None and not g.last_stats.replayed

    def submit():
        for _ in range(SUBMITS):
            g.submit()

    cost = measure_wall(submit, repeat=3) / SUBMITS
    assert g.last_stats.replayed and g.last_stats.mode == "inline"
    return cost


def test_graph_warm_replay_bound(benchmark):
    """Warm whole-graph replay of a >=6-node pipeline beats 3x a single
    warm launch, and replays the graph's own ops."""
    clear_plan_cache()
    before = graph_plan_cache_info()

    def run():
        return {
            "single": _single_warm_cost("AccCpuSerial"),
            "graph": _graph_warm_cost("AccCpuSerial", PIPELINE_NODES),
        }

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    after = graph_plan_cache_info()

    per_node = costs["graph"] / PIPELINE_NODES
    rows = [
        {
            "path": "single warm launch",
            "cost [us]": f"{costs['single'] * 1e6:8.1f}",
            "per node [us]": f"{costs['single'] * 1e6:8.1f}",
        },
        {
            "path": f"graph replay ({PIPELINE_NODES} nodes)",
            "cost [us]": f"{costs['graph'] * 1e6:8.1f}",
            "per node [us]": f"{per_node * 1e6:8.1f}",
        },
    ]
    text = render_table(
        rows,
        "Extension: whole-graph warm replay vs. per-launch dispatch "
        f"(bound: {PIPELINE_NODES} nodes < 3x one launch)",
    )
    print("\n" + text)
    write_report("graph_replay.txt", text)
    write_bench_json("graph_replay", {
        "single_warm_launch": (costs["single"], "s"),
        "graph_replay_total": (costs["graph"], "s"),
        "graph_replay_per_node": (per_node, "s"),
        "pipeline_nodes": PIPELINE_NODES,
    })

    # The acceptance bound: the whole warm pipeline for the price of
    # (less than) three warm launches.
    assert costs["graph"] < 3 * costs["single"], costs
    # And it really replayed the graph's ops: one miss (the cold submit,
    # which built them), then hits.
    assert after["misses"] >= before["misses"] + 1
    assert after["hits"] > before["hits"]


def _halo_pipeline(acc_name: str, h=16, w=32, steps=4, c=0.2):
    """The inferred-dependency halo pipeline on one back-end: domain
    split into two halves with a one-column halo, sweeps + sub-view
    halo copies recorded into a graph, result gathered to host."""
    acc = accelerator(acc_name)
    dev = get_dev_by_idx(acc, 0)
    half = w // 2
    local_w = half + 1
    kernel = Jacobi2DKernel()
    elems = Vec(8, 8)
    wd = WorkDivMembers.make(
        Vec(h, local_w).ceil_div(elems), Vec(1, 1), elems
    )

    plate = np.zeros((h, w))
    plate[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = 100.0

    bufs = []
    stage = [plate[:, 0:local_w].copy(), plate[:, half - 1 : w].copy()]
    g = Graph()
    for i in range(2):
        src = mem.alloc(dev, (h, local_w))
        dst = mem.alloc(dev, (h, local_w))
        bufs.append([src, dst])
        g.copy(src, stage[i], label=f"stage{i}")
    for step in range(steps):
        for i, (src, dst) in enumerate(bufs):
            g.launch(
                acc, wd, kernel, h, local_w, c, src, dst,
                reads=[src], writes=[dst], label=f"sweep{step}.{i}",
            )
        left_dst, right_dst = bufs[0][1], bufs[1][1]
        g.copy(
            mem.sub_view(right_dst, (0, 0), (h, 1)),
            mem.sub_view(left_dst, (0, half - 1), (h, 1)),
        )
        g.copy(
            mem.sub_view(left_dst, (0, local_w - 1), (h, 1)),
            mem.sub_view(right_dst, (0, 1), (h, 1)),
        )
        for pair in bufs:
            pair[0], pair[1] = pair[1], pair[0]
    left = np.empty((h, local_w))
    right = np.empty((h, local_w))
    g.copy(left, bufs[0][0], label="gather0")
    g.copy(right, bufs[1][0], label="gather1")
    yield g

    result = np.empty((h, w))
    result[:, :half] = left[:, :half]
    result[:, half:] = right[:, 1:]
    for pair in bufs:
        for b in pair:
            b.free()

    reference = plate
    for _ in range(steps):
        reference = jacobi_reference_step(reference, c)
    np.testing.assert_array_equal(result, reference, err_msg=acc_name)


@pytest.mark.parametrize("acc_name", accelerator_names())
def test_graph_halo_identity(acc_name):
    """The halo pipeline with inferred dependencies is bit-identical to
    the sequential reference on every back-end."""
    pipeline = _halo_pipeline(acc_name)
    g = next(pipeline)
    g.submit()
    for _ in pipeline:  # runs the verification tail
        pass


def test_graph_halo_sanitize_clean():
    """The same pipeline under the dynamic sanitizer (which forces the
    queued execution path): no races, no bounds findings."""
    from repro.sanitize import enabled

    pipeline = _halo_pipeline("AccCpuSerial", h=8, w=16, steps=2)
    g = next(pipeline)
    with enabled(label="graph-halo") as report:
        g.submit()
    for _ in pipeline:
        pass
    report.raise_if_findings()


def _identity_main() -> int:
    """CI entry point: ``python benchmarks/bench_graph.py identity``."""
    failures = 0
    for name in accelerator_names():
        try:
            test_graph_halo_identity(name)
            print(f"identity ok: {name}")
        except Exception as exc:  # noqa: BLE001 - CI summary
            failures += 1
            print(f"identity FAILED: {name}: {exc}")
    test_graph_halo_sanitize_clean()
    print("sanitize ok: AccCpuSerial")
    return failures


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "identity":
        raise SystemExit(_identity_main())
    raise SystemExit(pytest.main([__file__, "-v"]))
