"""repro.graph — futurized dataflow graphs over the queue runtime.

The record-then-submit layer on top of queues and events (the CUDA-graph
analogue the paper's queue model anticipates)::

    from repro.graph import Graph

    g = Graph()
    a = g.launch(Acc, wd, Sweep(), h, w, c, src, dst)   # Node (future)
    b = g.copy(halo_dst, halo_src)                      # after `a`, inferred
    c = g.launch(Acc, wd, Sweep(), h, w, c, dst, nxt).after(b)
    g.submit()                                          # schedule + run
    assert c.done

Dependencies are inferred from buffer arguments (reader-after-writer,
writer-after-any, region-precise through sub-views — see
:mod:`repro.graph.infer`) and merged with explicit ``.after()`` edges.
Submission schedules across one queue per device, overlapping copies
with compute and sharding independent branches.  A single-device graph
(sanitizer off) runs inline instead: its first submission resolves each
node into a replay op kept on the graph, and warm resubmissions replay
those ops at roughly the cost of a few warm launches
(``benchmarks/bench_graph.py`` asserts the bound).
"""

from ..core.errors import GraphError
from .executor import GraphExec, GraphRunStats
from .graph import Graph
from .infer import Access, access_of, classify_args, infer_edges
from .node import Node

__all__ = [
    "Graph",
    "Node",
    "GraphExec",
    "GraphRunStats",
    "GraphError",
    "Access",
    "access_of",
    "classify_args",
    "infer_edges",
]
