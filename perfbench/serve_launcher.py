"""Run the gateway (``python -m repro.serve``) with the traced pass's
wrappers installed in the server process.

Usage: ``python perfbench/serve_launcher.py --spans-out FILE -- <repro.serve args>``

On SIGINT the gateway drains and stops; the launcher then prints one
line ``PERFBENCH-LAYERS {json}`` with the server-side per-layer metrics
and writes the recorded spans to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

LAYERS_TAG = "PERFBENCH-LAYERS"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import layers
    from perfbench.spans import FAILED, LayerStats, Recorder
    from repro.serve.__main__ import main as serve_main

    rec = Recorder()
    layers.install(rec)
    layers.install_server(rec)
    before = layers.counters()
    rec.enabled = True
    try:
        code = serve_main(serve_args)
    finally:
        rec.enabled = False
    after = layers.counters()
    # Requests the gateway admitted; RetryAfter refusals are not requests.
    requests = sum(1 for s in LayerStats(rec.spans()).by_name.get("serve.submit", [])
                   if not s[FAILED])
    out = layers.runtime_metrics(rec, before, after, requests)
    out.update(layers.server_metrics(rec, requests))
    rec.dump(args.spans_out)
    print(f"{LAYERS_TAG} {json.dumps(out)}", flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
