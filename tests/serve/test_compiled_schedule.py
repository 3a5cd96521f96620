"""Gateway workloads under ``REPRO_SCHEDULER=compiled``.

The gateway never special-cases the vectorized replay — the schedule
resolves inside the normal launch plan — so every workload must come
back bit-identical to its interpreted run, with non-compilable kernels
falling back transparently mid-service.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import Gateway, ServeConfig


#: A pooled lane — the only kind the ``compiled`` schedule applies to
#: (sequential back-ends never remap to it).
POOLED_LANES = (("AccCpuOmp2Blocks", 0),)


def _run_workload(name, params, arrays):
    cfg = ServeConfig(
        batch_window=0.0, drain_timeout=30.0, lanes=POOLED_LANES
    )
    with Gateway(cfg) as gw:
        handle = gw.launch(name, params=params, arrays=arrays)
        result = handle.result(timeout=30)
        gw.shutdown(release_pools=False)
    return {k: np.asarray(v).copy() for k, v in result.arrays.items()}


def _under_schedule(monkeypatch, schedule):
    from repro.runtime import clear_plan_cache

    if schedule is None:
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    else:
        monkeypatch.setenv("REPRO_SCHEDULER", schedule)
    clear_plan_cache()


WORKLOADS = [
    ("axpy", {"alpha": 1.7}, lambda rng: {
        "x": rng.standard_normal(300),
        "y": rng.standard_normal(300),
    }),
    ("scale", {"factor": 0.25}, lambda rng: {
        "x": rng.standard_normal(257),
    }),
    ("gemm", {"alpha": 1.0, "beta": 0.5}, lambda rng: {
        "A": rng.standard_normal((16, 16)),
        "B": rng.standard_normal((16, 16)),
        "C": rng.standard_normal((16, 16)),
    }),
]


@pytest.mark.parametrize(
    "name,params,make_arrays", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_workload_bit_identical_under_compiled(
    monkeypatch, rng, name, params, make_arrays
):
    arrays = make_arrays(rng)
    _under_schedule(monkeypatch, None)
    baseline = _run_workload(name, params, arrays)
    _under_schedule(monkeypatch, "compiled")
    compiled = _run_workload(name, params, arrays)
    _under_schedule(monkeypatch, None)
    assert set(compiled) == set(baseline)
    for key in baseline:
        assert compiled[key].tobytes() == baseline[key].tobytes(), key


def _serve_axpy(x, y, requests):
    """``requests`` solo AXPY launches, one after another, on a pooled
    lane."""
    cfg = ServeConfig(
        batch_window=0.0, drain_timeout=30.0, lanes=POOLED_LANES
    )
    with Gateway(cfg) as gw:
        results = [
            gw.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            ).result(timeout=30)
            for _ in range(requests)
        ]
        gw.shutdown(release_pools=False)
    return results


def test_compiled_service_replays_not_retraces(monkeypatch, rng):
    from repro.compile import compile_stats

    _under_schedule(monkeypatch, "compiled")
    before = compile_stats()
    x = rng.standard_normal(300)
    y = rng.standard_normal(300)
    results = _serve_axpy(x, y, 4)
    _under_schedule(monkeypatch, None)
    expected = 2.0 * x + y
    for r in results:
        assert np.array_equal(r.arrays["y"], expected)
    after = compile_stats()
    delta = {k: after[k] - before[k] for k in ("traces", "cache_hits",
                                               "retraces",
                                               "compiled_launches")}
    # One trace for the one shape; every later request replays it.
    assert delta == {"traces": 1, "cache_hits": 3, "retraces": 0,
                     "compiled_launches": 4}, delta


def test_served_plan_cache_stays_warm(rng):
    from repro.runtime import plan_cache_info

    x = rng.standard_normal(300)
    y = rng.standard_normal(300)
    before = plan_cache_info()
    results = _serve_axpy(x, y, 8)
    after = plan_cache_info()
    for r in results:
        assert np.array_equal(r.arrays["y"], 2.0 * x + y)
    # The first request may build the plan; the rest must reuse it.
    assert after["misses"] - before["misses"] <= 1, (before, after)
    assert after["hits"] - before["hits"] >= 7, (before, after)
