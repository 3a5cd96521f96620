"""Heat diffusion on a 2-d plate — the n-dimensional side of the model.

Demonstrates 2-d work divisions and element boxes, double buffering
through two device buffers, and the dataflow-graph API: the whole
``steps``-deep time loop (staging copy, Jacobi sweeps, gather copy) is
*recorded* once into a :class:`repro.graph.Graph` and submitted as a
unit.  Dependencies between the sweeps come from buffer-argument
inference — no queue or event plumbing — and a second submission
replays the node ops the first one resolved (no plan lookup for the
entire pipeline).  A hot spot diffuses across a cold plate; the script reports
the temperature profile and verifies against a pure-numpy reference.

Run:  python examples/heat_equation.py [backend-name] [steps]
"""

import sys

import numpy as np

from repro import (
    Graph,
    Vec,
    WorkDivMembers,
    accelerator,
    get_dev_by_idx,
    mem,
)
from repro.kernels import Jacobi2DKernel, jacobi_reference_step


def simulate(acc_name: str, h: int = 96, w: int = 128, steps: int = 50) -> None:
    Acc = accelerator(acc_name)
    dev = get_dev_by_idx(Acc, 0)

    # Initial condition: cold plate, hot square in the middle.
    plate = np.zeros((h, w))
    plate[h // 3 : 2 * h // 3, w // 3 : 2 * w // 3] = 100.0

    src = mem.alloc(dev, (h, w))
    dst = mem.alloc(dev, (h, w))

    # 2-d division: blocks of one thread owning 8x16 element boxes
    # (block-level mapping works on every back-end).
    elems = Vec(8, 16)
    blocks = Vec(h, w).ceil_div(elems)
    work_div = WorkDivMembers.make(blocks, Vec(1, 1), elems)

    kernel = Jacobi2DKernel()
    c = 0.2
    result = np.empty((h, w))

    # Record the whole time loop: the staging copy, one sweep per step
    # (reads=/writes= narrow the default read-write classification so
    # the inferred chain is exactly src->dst->src->...), and the final
    # gather.  Including the staging copy makes resubmission idempotent.
    g = Graph()
    g.copy(src, plate, label="stage")
    for step in range(steps):
        g.launch(
            Acc, work_div, kernel, h, w, c, src, dst,
            reads=[src], writes=[dst], label=f"sweep{step}",
        )
        src, dst = dst, src  # double buffering: swap the roles
    g.copy(result, src, label="gather")
    g.submit()

    reference = plate
    for _ in range(steps):
        reference = jacobi_reference_step(reference, c)

    err = np.abs(result - reference).max()
    assert err < 1e-9, err

    # Submit again: the graph replays the node ops its first submission
    # resolved — and the result is bit-identical.
    again = g.submit()
    err2 = np.abs(result - reference).max()
    assert err2 <= err and again.last_stats.replayed

    print(
        f"{acc_name}: {steps} steps on {h}x{w} plate  "
        f"T(center)={result[h // 2, w // 2]:7.3f}  "
        f"T(max)={result.max():7.3f}  max|err|={err:.2e}  "
        f"[graph: {len(g)} nodes, {again.last_stats.mode} replay "
        f"{again.last_stats.wall_seconds * 1e3:.1f} ms]"
    )


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "AccCpuOmp2Blocks"
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    simulate(name, steps=steps)
