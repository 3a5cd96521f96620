"""Compile-path accounting as ``repro_compile_*`` registry counters.

Every event lands once, in the process metrics registry
(:mod:`repro.telemetry.metrics`), so the ops endpoints and dump files
show how much of the fleet's work ran vectorized and why the rest fell
back.  :func:`compile_stats` reads the same counters back as the
summary the benchmarks and tests assert on; take a snapshot before and
after the work of interest and compare the two (e.g. "a warm replay
performed zero re-traces").
"""

from __future__ import annotations

from typing import Dict

__all__ = ["compile_stats", "note"]

#: ``compile_stats()`` key -> (registry counter, help text).
_COUNTERS = {
    "traces": (
        "repro_compile_traces_total",
        "Compile traces performed, by kernel",
    ),
    "cache_hits": (
        "repro_compile_cache_hits_total",
        "Compiled-replay cache hits, by kernel",
    ),
    "retraces": (
        "repro_compile_retraces_total",
        "Compile re-traces after a uniform-guard flip, by kernel",
    ),
    "compiled_launches": (
        "repro_compile_launches_total",
        "Launches executed as compiled replays, by kernel",
    ),
    "crosschecks": (
        "repro_compile_crosschecks_total",
        "Compiled-vs-interpreted cross-checks that ran (and matched)",
    ),
    "fallbacks": (
        "repro_compile_fallbacks_total",
        "Compiled dispatches that fell back to interpretation, "
        "by kernel and classified reason",
    ),
}
_STAT_OF = {name: stat for stat, (name, _) in _COUNTERS.items()}


def note(stat: str, kernel: str, **labels: str) -> None:
    """Count one compile event: ``stat`` is a :func:`compile_stats` key
    (``"fallbacks"`` also takes a ``reason`` label)."""
    from ..telemetry.metrics import registry

    name, help = _COUNTERS[stat]
    registry().counter(name, help, kernel=kernel, **labels).inc()


def compile_stats() -> Dict[str, object]:
    """Process totals of the ``repro_compile_*`` counters: ``traces``,
    ``cache_hits``, ``retraces``, ``compiled_launches``, ``crosschecks``
    and ``fallbacks`` (a ``{reason: count}`` dict)."""
    from ..telemetry.metrics import registry

    out: Dict[str, object] = {stat: 0 for stat in _COUNTERS}
    fallbacks: Dict[str, int] = {}
    for inst in registry().instruments():
        stat = _STAT_OF.get(inst.name)
        if stat == "fallbacks":
            reason = dict(inst.labels)["reason"]
            fallbacks[reason] = fallbacks.get(reason, 0) + int(inst.value)
        elif stat is not None:
            out[stat] += int(inst.value)
    out["fallbacks"] = fallbacks
    return out
