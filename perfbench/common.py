"""Plumbing shared by the workloads: the checkout layout, set-up probes,
peak RSS, the printed report and the result line."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0
READY = "PERFBENCH-READY"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing sources, a dead server, ...)."""


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mib() -> float:
    """Peak resident set of this process in MiB; Linux reports
    ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set so far of the running process ``pid`` in MiB
    (``VmHWM``, which Linux reports in kB)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def setup_probes(workload: str, seed: int, count: int = SETUP_PROBES) -> List[float]:
    """Wall seconds from spawning a fresh ``run.py --setup-probe`` to its
    ready line: interpreter start, imports, set-up and one verified
    result of every operation kind.  Probes run one at a time."""
    times = []
    for i in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed + 1000 * (i + 1)), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            ready = None
            for line in proc.stdout:
                if line.strip() == READY:
                    ready = time.perf_counter() - t0
                    break
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready is None or code != 0:
            raise BenchError(f"set-up probe {i} of {workload} failed (exit {code})")
        times.append(ready)
    return times


def signal_ready() -> None:
    print(READY, flush=True)


def host_fingerprint() -> Dict[str, object]:
    from repro.bench import host_fingerprint as fp

    return fp()


def print_report(workload: str, rows: List[tuple], extra: Optional[dict] = None) -> None:
    """Human-readable table: ``(name, value, unit, samples, note)`` rows."""
    print(f"== perfbench {workload} ==")
    for name, value, unit, n, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        samples = "" if n is None else f"n={n}"
        print(f"  {name:<28} {shown:>12} {unit:<6} {samples:<10} {note}")
    if extra:
        print("report " + json.dumps(extra, sort_keys=True, default=str))


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """The result line: must be the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
