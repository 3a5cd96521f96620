"""Reports, activation paths, observer/timeline integration, CLI."""

from __future__ import annotations

import pytest

from repro import (
    Grid,
    QueueBlocking,
    Threads,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    get_idx,
    mem,
    observe,
)
from repro.core.errors import SanitizerError
from repro.runtime.instrument import ExecutionObserver
from repro.sanitize import SANITIZE_ENV, enabled, sanitize_active, session_report


class RacyKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        bi = get_idx(acc, Grid, Threads)[0]
        out[0] = float(bi)


class CleanKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            out[i] = float(i)


def _launch(kernel, n=4):
    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    q = QueueBlocking(dev)
    out = mem.alloc(dev, n)
    mem.memset(q, out, 0.0)
    wd = WorkDivMembers.make(n, 1, 1)
    q.enqueue(create_task_kernel(acc, wd, kernel, n, out))
    return out


class TestActivation:
    def test_inactive_by_default(self):
        assert not sanitize_active()

    def test_enabled_context_collects(self):
        with enabled(label="t") as report:
            assert sanitize_active()
            _launch(RacyKernel())
        assert not sanitize_active()
        assert not report.clean
        assert report.launches[0].kernel == "RacyKernel"

    def test_env_var_activates(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_active()
        before = len(session_report().launches)
        _launch(CleanKernel())
        assert len(session_report().launches) == before + 1

    def test_clean_launch_clean_report(self):
        with enabled() as report:
            _launch(CleanKernel())
        assert report.clean
        report.raise_if_findings()  # no-op when clean

    def test_raise_if_findings(self):
        with enabled() as report:
            _launch(RacyKernel())
        with pytest.raises(SanitizerError, match="data-race"):
            report.raise_if_findings()


class TestReportContents:
    def test_render_names_kernel_backend_and_site(self):
        with enabled() as report:
            _launch(RacyKernel())
        text = report.render()
        assert "RacyKernel" in text and "AccCpuSerial" in text
        assert "data-race" in text and __file__ in text
        assert "out[0] = float(bi)" in text

    def test_counts_by_kind(self):
        with enabled() as report:
            _launch(RacyKernel())
        assert set(report.counts_by_kind()) == {"data-race"}

    def test_findings_dedup_with_count(self):
        with enabled() as report:
            _launch(RacyKernel(), n=6)
        races = [f for f in report.findings if f.kind == "data-race"]
        assert len(races) == 1  # one site pair, deduplicated
        assert races[0].count == 5


class TestObserverIntegration:
    def test_on_sanitizer_report_hook_fires(self):
        seen = []

        class Obs(ExecutionObserver):
            def on_sanitizer_report(self, plan, record):
                seen.append(record)

        with observe(Obs()):
            with enabled():
                _launch(RacyKernel())
        assert len(seen) == 1
        assert seen[0].kernel == "RacyKernel" and seen[0].findings

    def test_timeline_records_sanitize_event(self):
        from repro import telemetry

        with telemetry.collect() as t:
            with enabled():
                _launch(RacyKernel())
        ev = [e for e in t.events if e.cat == "sanitize" and e.ph == "i"]
        assert len(ev) == 1
        assert ev[0].args["kernel"] == "RacyKernel"
        assert ev[0].args["findings"] >= 1
        assert t.total("repro_sanitizer_findings_total") == (
            ev[0].args["findings"]
        )

    def test_launch_begin_end_still_fire_when_sanitized(self):
        calls = []

        class Obs(ExecutionObserver):
            def on_launch_begin(self, plan, task, device):
                calls.append("begin")

            def on_launch_end(self, plan, task, device):
                calls.append("end")

        with observe(Obs()):
            with enabled():
                _launch(CleanKernel())
        assert calls == ["begin", "end"]


class TestCli:
    def test_kernels_subcommand_clean(self, capsys):
        from repro.sanitize.cli import main

        rc = main(["kernels", "--backend", "AccCpuSerial", "--only", "axpy"])
        assert rc == 0
        assert "kernel sweep clean" in capsys.readouterr().out

    def test_demos_subcommand_flags(self, capsys):
        from repro.sanitize.cli import main

        rc = main(["demos", "oob-stencil", "--backend", "AccCpuSerial"])
        assert rc == 0
        assert "flagged as intended" in capsys.readouterr().out

    def test_run_subcommand_on_script(self, tmp_path, capsys):
        from repro.sanitize.cli import main

        script = tmp_path / "buggy.py"
        script.write_text(
            "import numpy as np\n"
            "from repro import (QueueBlocking, WorkDivMembers, accelerator,\n"
            "    create_task_kernel, fn_acc, get_dev_by_idx, get_idx, mem,\n"
            "    Grid, Threads)\n"
            "class K:\n"
            "    @fn_acc\n"
            "    def __call__(self, acc, n, out):\n"
            "        out[0] = float(get_idx(acc, Grid, Threads)[0])\n"
            "acc = accelerator('AccCpuSerial')\n"
            "dev = get_dev_by_idx(acc, 0)\n"
            "q = QueueBlocking(dev)\n"
            "out = mem.alloc(dev, 1)\n"
            "mem.memset(q, out, 0.0)\n"
            "q.enqueue(create_task_kernel(\n"
            "    acc, WorkDivMembers.make(4, 1, 1), K(), 4, out))\n"
        )
        rc = main(["run", str(script)])
        assert rc == 1
        assert "data-race" in capsys.readouterr().out
