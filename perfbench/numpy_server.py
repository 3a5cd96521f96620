"""The serving twin: serve_mixed's request kinds written directly in
numpy behind the gateway's wire protocol, with nothing else.

One asyncio task per connection reads JSON lines, computes each request
inline and writes the reply, so a request costs a TCP round trip, the
codec and the numpy arithmetic.  It imports only numpy and the standard
library, and answers exactly what the gateway would (the client checks
every reply the same way).

Usage: ``python perfbench/numpy_server.py`` prints
``listening on 127.0.0.1:<port>`` and serves until SIGINT.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import time

import numpy as np

#: The gateway protocol's frame bound.
MAX_LINE_BYTES = 64 * 1024 * 1024


def decode(spec: dict) -> np.ndarray:
    raw = base64.b64decode(spec["data"])
    return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(spec["shape"]).copy()


def encode(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {"dtype": str(arr.dtype), "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def sweep(grid: np.ndarray, c: float) -> np.ndarray:
    out = grid.copy()
    out[1:-1, 1:-1] = grid[1:-1, 1:-1] + c * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        - 4.0 * grid[1:-1, 1:-1]
    )
    return out


def compute(workload: str, params: dict, arrays: dict) -> dict:
    if workload == "axpy":
        return {"y": float(params.get("alpha", 1.0)) * arrays["x"] + arrays["y"]}
    if workload == "scale":
        return {"out": float(params.get("factor", 1.0)) * arrays["x"]}
    if workload == "gemm":
        A, B = arrays["A"], arrays["B"]
        C = arrays.get("C", np.zeros_like(A))
        return {"C": float(params.get("alpha", 1.0)) * (A @ B) + float(params.get("beta", 0.0)) * C}
    if workload == "heat_equation":
        plate = arrays["plate"]
        for _ in range(int(params.get("steps", 10))):
            plate = sweep(plate, float(params.get("c", 0.2)))
        return {"plate": plate}
    raise KeyError(workload)


def reply(line: bytes) -> bytes:
    t0 = time.perf_counter()
    msg = json.loads(line)
    try:
        out = compute(msg["workload"], msg.get("params") or {},
                      {k: decode(v) for k, v in (msg.get("arrays") or {}).items()})
        resp = {"id": msg.get("id"), "ok": True,
                "arrays": {k: encode(v) for k, v in out.items()},
                "latency": time.perf_counter() - t0, "batch_size": 1, "lane": "numpy"}
    except (KeyError, ValueError, TypeError) as exc:
        resp = {"id": msg.get("id"), "ok": False, "error": type(exc).__name__, "message": str(exc)}
    return json.dumps(resp, separators=(",", ":")).encode() + b"\n"


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while line := await reader.readline():
            writer.write(reply(line))
            await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()


async def serve() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0, limit=MAX_LINE_BYTES)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"numpy twin listening on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(serve())
