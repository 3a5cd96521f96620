"""The compiled-vs-interpreted cross-check sweep and its CLI."""

import os

import pytest

from repro.sanitize import sweep_crosscheck
from repro.sanitize.cli import main as sanitize_main


@pytest.fixture(autouse=True)
def fresh_compile_state(monkeypatch):
    from repro.runtime import clear_plan_cache

    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.delenv("REPRO_COMPILE_CROSSCHECK", raising=False)
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestSweep:
    def test_full_sweep_is_clean(self):
        report = sweep_crosscheck()
        assert report.clean
        # Every family runs: compilable ones through the vectorized
        # path (each launch cross-checked), the rest via classified
        # fallbacks — nothing crashes unclassified.
        assert len(report.ran) == 12
        assert report.compiled_launches > 0
        assert report.crosschecks == report.compiled_launches
        assert report.fallbacks  # sweep includes non-compilable families
        # Every reason is a classified slug, never a raw traceback.
        assert all(
            r and " " not in r and r == r.lower() for r in report.fallbacks
        )

    def test_only_restricts_families(self):
        report = sweep_crosscheck(only=["axpy"])
        assert report.clean
        assert [k for k, _ in report.ran] == ["axpy"]
        assert report.compiled_launches > 0

    def test_env_restored_after_sweep(self):
        sweep_crosscheck(only=["axpy"])
        assert "REPRO_SCHEDULER" not in os.environ
        assert "REPRO_COMPILE_CROSSCHECK" not in os.environ

    def test_render_mentions_verdict(self):
        report = sweep_crosscheck(only=["axpy", "reduce"])
        out = report.render()
        assert "CLEAN" in out
        assert "crosschecks" in out

    def test_failure_reported_not_raised(self, monkeypatch):
        from repro.core.errors import CompileCrossCheckError
        import repro.sanitize.sweep as sweep_mod

        def boom(acc, device, queue):
            raise CompileCrossCheckError("forced mismatch")

        monkeypatch.setattr(
            sweep_mod, "KERNEL_SWEEP", (("boom", boom),)
        )
        report = sweep_crosscheck()
        assert not report.clean
        assert "forced mismatch" in report.failures[0]
        assert "FAILED" in report.render()


class TestCli:
    def test_crosscheck_subcommand_exit_zero(self, capsys):
        rc = sanitize_main(["crosscheck", "--only", "axpy"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLEAN" in out
