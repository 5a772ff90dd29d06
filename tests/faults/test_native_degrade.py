"""Native-kernel tier loss: loud once, graceful forever, never a crash."""

import warnings

import pytest

from repro.utils import native


@pytest.fixture
def fresh_native(monkeypatch):
    """Reset the module's load latch; restored by monkeypatch."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    monkeypatch.delenv("REPRO_NO_NATIVE_KERNEL", raising=False)


class TestDegradation:
    def test_build_failure_warns_once_and_latches(self, plan, recorder,
                                                  fresh_native):
        plan("native.build:fail")
        with pytest.warns(RuntimeWarning,
                          match="native kernels unavailable"):
            assert not native.available()
        assert recorder.counters["native.degraded"] == 1
        # Latched: later probes are silent no-ops on the pure-Python tiers.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not native.available()
        assert recorder.counters["native.degraded"] == 1

    def test_load_failure_degrades_not_crashes(self, plan, recorder,
                                               fresh_native, monkeypatch):
        monkeypatch.setattr(native, "_build",
                            lambda: "/nonexistent/kernels.so")
        plan("native.load:fail")
        with pytest.warns(RuntimeWarning, match="OSError"):
            assert not native.available()
        assert recorder.counters["native.degraded"] == 1

    def test_deliberate_opt_out_stays_silent(self, recorder, fresh_native,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE_KERNEL", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not native.available()
        assert "native.degraded" not in recorder.counters
