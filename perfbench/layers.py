"""Which public entry points the traced pass wraps, and how the spans
and the library's public counters become per-layer metrics.

Layer -> wrapped entry point (span name):

* queue            ``Queue.enqueue``                      (queue.enqueue)
* runtime          ``repro.runtime.launch``               (runtime.launch)
* runtime.plan     ``repro.runtime.get_plan``             (plan.get_plan)
* acc.base         ``GridContext.__init__``               (grid.context)
* acc.timing       ``advance_modeled_time``               (perfmodel.advance)
* scheduler/engine ``<Scheduler>.dispatch``               (sched.dispatch)
* compile          ``repro.compile.replay.execute_compiled`` (compile.replay)
* graph            ``Graph.submit``                       (graph.submit)
* mem              ``mem.alloc``, ``mem.copy``, copy/memset task bodies
* serve            ``Gateway.submit``, ``<Workload>.execute``
* protocol         array and message encode/decode, both ends
"""

from __future__ import annotations

from typing import Dict

from . import stats
from .spans import END, EXTRA, FAILED, PARENT, START, LayerStats, Recorder, self_times

FALLBACK_REASONS = (
    "atomics", "barrier", "custom-block-subset", "divergent-control-flow",
    "load-after-store", "replay-error", "rng", "sanitizer", "shared-memory",
    "span-shape", "trace-too-large", "unsupported-arg", "unsupported-op",
)

_CODEC = ("encode_arrays", "decode_arrays", "encode_message", "decode_message")


def _nbytes(obj) -> int:
    n = getattr(obj, "logical_nbytes", None)
    return int(n) if n is not None else int(getattr(obj, "nbytes", 0))


def install(rec: Recorder) -> None:
    """Wrap the launch-path, compile, graph and mem entry points;
    :meth:`Recorder.uninstall` undoes it."""
    import repro.runtime as runtime
    import repro.runtime.plan as plan_mod
    import repro.runtime.scheduler as sched_mod
    from repro import mem
    from repro.acc import base as acc_base
    from repro.acc import timing
    from repro.compile import replay
    from repro.graph import graph as graph_mod
    from repro.queue.queue import Queue

    rec.wrap(Queue, "enqueue", "queue.enqueue")
    rec.wrap(runtime, "launch", "runtime.launch")
    rec.wrap(runtime, "get_plan", "plan.get_plan")
    rec.wrap(plan_mod, "get_plan", "plan.get_plan")
    rec.wrap(acc_base.GridContext, "__init__", "grid.context")
    rec.wrap(timing, "advance_modeled_time", "perfmodel.advance")
    for cls in (sched_mod.SequentialScheduler, sched_mod.PooledScheduler,
                sched_mod.ProcessPoolScheduler, sched_mod.CompiledScheduler):
        rec.wrap(cls, "dispatch", "sched.dispatch",
                 extra=lambda self, plan, grid, blocks, task: len(blocks))
    rec.wrap(replay, "execute_compiled", "compile.replay")
    rec.wrap(graph_mod.Graph, "submit", "graph.submit",
             extra=lambda self, *a, **k: len(self.nodes))
    rec.wrap(mem, "alloc", "mem.alloc")
    rec.wrap(mem, "copy", "mem.copy",
             extra=lambda queue, dst, src, *a, **k: min(_nbytes(dst), _nbytes(src)))
    rec.wrap(mem.TaskCopy, "execute", "mem.transfer")
    rec.wrap(mem.TaskMemset, "execute", "mem.transfer")


def install_server(rec: Recorder) -> None:
    """The serving layers, wrapped inside the gateway process."""
    from repro.serve import gateway, protocol, server
    from repro.serve.workloads import get_workload, workload_names

    def note_execute(span, self, requests, acc_type, device):
        start = span[START]
        for r in requests:
            rec.samples["admission_wait"].append(r.admitted_at - r.submitted_at)
            rec.samples["batch_wait"].append(start - r.admitted_at)
        if self.kind == "launch":
            rec.samples["batch_size"].append(len(requests))

    rec.wrap(gateway.Gateway, "submit", "serve.submit",
             request_id=lambda self, request: request.request_id)
    for cls in {type(get_workload(name)) for name in workload_names()}:
        rec.wrap(cls, "execute", "serve.execute",
                 request_id=lambda self, requests, *a: tuple(r.request_id for r in requests),
                 on_call=note_execute)
    _install_codec(rec, server, ("decode_arrays", "decode_message", "encode_message"))
    _install_codec(rec, protocol, _CODEC)


def install_client(rec: Recorder) -> None:
    """The wire codec as the load generator's client calls it."""
    from repro.serve import client

    _install_codec(rec, client, _CODEC)


def _install_codec(rec: Recorder, module, names) -> None:
    for name in names:
        rec.wrap(module, name, "protocol.codec")


def counters() -> Dict[str, object]:
    """Snapshot of the library's public cache and compile counters."""
    from repro.compile import compile_stats
    from repro.runtime import graph_plan_cache_info, plan_cache_info

    return {"plan": plan_cache_info(), "graph": graph_plan_cache_info(),
            "compile": compile_stats()}


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return stats.ratio(hits, hits + misses)


def runtime_metrics(rec: Recorder, before: dict, after: dict, ops: int) -> Dict[str, float]:
    """Per-layer metrics of the launch path, graph, compile and mem
    layers, from the recorded spans and counter deltas over ``ops``
    measured operations (requests on a server)."""
    ls = LayerStats(rec.spans())
    m: Dict[str, float] = {
        "queue.enqueue_us": ls.mean_self_us("queue.enqueue"),
        "runtime.launch_us": ls.mean_self_us("runtime.launch"),
        "plan.get_plan_us": ls.mean_self_us("plan.get_plan"),
        "plan.hit_ratio": _hit_ratio(before["plan"], after["plan"]),
        "grid.context_us": ls.mean_self_us("grid.context"),
        "perfmodel.advance_us": ls.mean_self_us("perfmodel.advance"),
    }
    # A compiled dispatch that falls back calls the pooled dispatch from
    # inside itself: count launches and blocks on the outermost span.
    dispatch = ls.by_name.get("sched.dispatch", [])
    dispatch_ids = {s[0] for s in dispatch}
    outer = [s for s in dispatch if s[PARENT] not in dispatch_ids]
    m["sched.dispatch_us"] = 1e6 * stats.ratio(ls.self_["sched.dispatch"], len(outer))
    m["sched.per_block_us"] = 1e6 * stats.ratio(
        sum(s[END] - s[START] for s in outer), sum(s[EXTRA] for s in outer))

    replays = [s[END] - s[START] for s in ls.by_name.get("compile.replay", []) if not s[FAILED]]
    m["compile.replay_ms"] = 1e3 * stats.ratio(sum(replays), len(replays))
    cb, ca = before["compile"], after["compile"]
    for key in ("traces", "cache_hits", "retraces"):
        m[f"compile.{key}"] = float(ca[key] - cb[key])
    fallbacks = {r: ca["fallbacks"].get(r, 0) - cb["fallbacks"].get(r, 0)
                 for r in set(ca["fallbacks"]) | set(cb["fallbacks"])}
    compiled = ca["compiled_launches"] - cb["compiled_launches"]
    m["compile.compiled_fraction"] = stats.ratio(compiled, compiled + sum(fallbacks.values()))
    for reason in FALLBACK_REASONS:
        m[f"compile.fallbacks.{reason}"] = float(fallbacks.get(reason, 0))
    m["compile.fallbacks.other"] = float(
        sum(v for r, v in fallbacks.items() if r not in FALLBACK_REASONS))

    nodes = sum(s[EXTRA] for s in ls.by_name.get("graph.submit", []))
    m["graph.submit_us_per_node"] = 1e6 * stats.ratio(ls.self_["graph.submit"], nodes)
    m["graph.plan_hit_ratio"] = _hit_ratio(before["graph"], after["graph"])

    m["mem.alloc_us"] = ls.mean_total_us("mem.alloc")
    m["mem.copy_us"] = ls.mean_total_us("mem.copy")
    m["mem.allocs_per_req"] = stats.ratio(ls.calls.get("mem.alloc", 0), ops)
    m["mem.bytes_copied"] = stats.ratio(
        sum(s[EXTRA] for s in ls.by_name.get("mem.copy", [])), ops)
    return m


def server_metrics(rec: Recorder, requests: int) -> Dict[str, float]:
    """Serving-layer metrics measured inside the gateway process."""
    ls = LayerStats(rec.spans())
    sm = rec.samples

    def med_ms(name):
        return 1e3 * stats.median(sm[name]) if sm.get(name) else 0.0

    return {
        "serve.admission_wait_ms": med_ms("admission_wait"),
        "serve.batch_wait_ms": med_ms("batch_wait"),
        "serve.execute_ms": 1e-3 * ls.mean_total_us("serve.execute"),
        "serve.batch_size_mean": stats.ratio(sum(sm["batch_size"]), len(sm["batch_size"])),
        "serve.retry_after_count": float(sum(
            1 for s in ls.by_name.get("serve.submit", []) if s[FAILED] == "RetryAfter")),
        "protocol.server_codec_us": codec_us_per_request(rec, requests),
    }


def breakdown_us(rec: Recorder, ops: int) -> Dict[str, float]:
    """Self time per measured operation of every recorded span name, in
    microseconds: where one operation's time goes, layer by layer."""
    ls = LayerStats(rec.spans())
    return {name: 1e6 * stats.ratio(t, ops) for name, t in sorted(ls.self_.items())}


def accounted_pct(rec: Recorder, op_seconds) -> float:
    """Share of the measured operation time that the recorded layers'
    self times add up to (the rest is the benchmark loop's own cost)."""
    return 100.0 * stats.ratio(sum(self_times(rec.spans()).values()), sum(op_seconds))


def codec_us_per_request(rec: Recorder, requests: int) -> float:
    """Wire encode/decode self time per request, in microseconds."""
    ls = LayerStats(rec.spans())
    return 1e6 * stats.ratio(ls.self_["protocol.codec"], requests)


#: Every per-layer metric the traced pass reports, with its unit; a
#: workload that bypasses a layer reports that layer as 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "queue.enqueue_us": "us",
    "runtime.launch_us": "us",
    "plan.get_plan_us": "us",
    "plan.hit_ratio": "ratio",
    "grid.context_us": "us",
    "perfmodel.advance_us": "us",
    "sched.dispatch_us": "us",
    "sched.per_block_us": "us",
    "compile.replay_ms": "ms",
    "compile.traces": "count",
    "compile.cache_hits": "count",
    "compile.retraces": "count",
    "compile.compiled_fraction": "ratio",
    **{f"compile.fallbacks.{r}": "count" for r in FALLBACK_REASONS},
    "compile.fallbacks.other": "count",
    "graph.submit_us_per_node": "us",
    "graph.plan_hit_ratio": "ratio",
    "mem.alloc_us": "us",
    "mem.copy_us": "us",
    "mem.allocs_per_req": "count",
    "mem.bytes_copied": "B",
    "serve.admission_wait_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.server_latency_ms": "ms",
    "serve.retry_after_count": "count",
    "protocol.codec_us": "us",
    "protocol.wire_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}


def complete(values: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric as ``(value, unit)``, 0 where not measured."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {k: (float(values.get(k, 0.0)), u) for k, u in PER_LAYER_UNITS.items()}
