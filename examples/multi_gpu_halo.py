"""Domain decomposition with halo exchange across two simulated GPU dies.

The multi-device pattern real alpaka applications (PIConGPU,
HASEonGPU) are built on: the 2-d heat equation is split into two
half-domains, one per K80 die, each with a one-column halo.  The whole
time loop is recorded into one :class:`repro.graph.Graph`:

1. both dies' Jacobi sweeps are independent nodes — the scheduler puts
   them on separate per-die queues, so they run concurrently;
2. edge columns are exchanged through sub-view copies whose
   dependencies on the sweeps (and the next step's dependency on the
   arriving halo) are *inferred* from the buffers they touch — the
   hand-written ``Event``/``enqueue_after`` choreography of the
   pre-graph version of this example is gone;
3. the two halo copies touch disjoint columns, so region-precise
   inference lets them fly concurrently too.

Verified bit-identically against a single-domain reference at the end.

Run:  python examples/multi_gpu_halo.py [steps]
"""

import sys

import numpy as np

from repro import (
    AccGpuCudaSim,
    Graph,
    Vec,
    WorkDivMembers,
    get_dev_by_idx,
    mem,
)
from repro.kernels import Jacobi2DKernel, jacobi_reference_step


def main(h=32, w=64, steps=20, c=0.2):
    # Global problem and reference solution.
    plate = np.zeros((h, w))
    plate[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = 100.0
    reference = plate
    for _ in range(steps):
        reference = jacobi_reference_step(reference, c)

    half = w // 2
    dies = [get_dev_by_idx(AccGpuCudaSim, i) for i in range(2)]

    # Each die holds its half plus one halo column on the shared edge.
    local_w = half + 1
    bufs = []
    for i, die in enumerate(dies):
        src = mem.alloc(die, (h, local_w))
        dst = mem.alloc(die, (h, local_w))
        bufs.append([src, dst])

    kernel = Jacobi2DKernel()
    elems = Vec(8, 8)
    blocks = Vec(h, local_w).ceil_div(elems)
    wd = WorkDivMembers.make(blocks, Vec(1, 1), elems)

    g = Graph()
    # Staging: each die's half (plus halo column) from the host plate.
    stage = [plate[:, 0:local_w].copy(), plate[:, half - 1 : w].copy()]
    for (src, _dst), die, host in zip(bufs, dies, stage):
        g.copy(src, host, label=f"stage{die.idx}")

    for step in range(steps):
        # 1. sweeps on both dies: no shared buffers, so no edge between
        #    them — the per-die queues run them concurrently.
        for (src, dst), die in zip(bufs, dies):
            g.launch(
                AccGpuCudaSim, wd, kernel, h, local_w, c, src, dst,
                reads=[src], writes=[dst],
                label=f"sweep{step}.die{die.idx}",
            )
        # 2. halo exchange through sub-views.  Each copy reads one die's
        #    new edge column and writes the neighbour's halo column;
        #    the sweep->copy and copy->next-sweep edges are inferred,
        #    and the two copies touch disjoint columns so they overlap.
        left_dst, right_dst = bufs[0][1], bufs[1][1]
        g.copy(
            mem.sub_view(right_dst, (0, 0), (h, 1)),
            mem.sub_view(left_dst, (0, half - 1), (h, 1)),
            label=f"halo{step}.l2r",
        )
        g.copy(
            mem.sub_view(left_dst, (0, local_w - 1), (h, 1)),
            mem.sub_view(right_dst, (0, 1), (h, 1)),
            label=f"halo{step}.r2l",
        )
        # 3. double-buffer swap (record-time: affects later nodes only).
        for pair in bufs:
            pair[0], pair[1] = pair[1], pair[0]

    # Gather the two halves (dropping halo columns).
    left = np.empty((h, local_w))
    right = np.empty((h, local_w))
    g.copy(left, bufs[0][0], label="gather0")
    g.copy(right, bufs[1][0], label="gather1")

    ex = g.submit(devices=dies)

    result = np.empty((h, w))
    result[:, :half] = left[:, :half]
    result[:, half:] = right[:, 1:]

    # Bit-identical to the sequential single-domain reference: same
    # float ops in the same per-cell order, only scheduled differently.
    assert np.array_equal(result, reference), (
        np.abs(result - reference).max()
    )
    stats = ex.last_stats
    print(
        f"halo-exchange heat equation: {steps} steps on {h}x{w}, "
        f"2 dies x {half}+1 columns, bit-identical to single-domain"
    )
    print(
        f"graph: {stats.node_count} nodes on {stats.device_count} dies, "
        f"mode={stats.mode}, overlap={stats.overlap_ratio:.2f}x, "
        f"critical path {stats.critical_path_seconds * 1e3:.1f} ms of "
        f"{stats.wall_seconds * 1e3:.1f} ms wall"
    )


if __name__ == "__main__":
    main(steps=int(sys.argv[1]) if len(sys.argv) > 1 else 20)
