"""Admission control: both limits bind, releases balance, hints scale."""

import pytest

from repro import obs
from repro.server.admission import (
    RETRY_AFTER_MAX_MS,
    AdmissionController,
    RejectedError,
)


class TestLimits:
    def test_queue_depth_limit(self):
        controller = AdmissionController(max_queue_depth=2, max_inflight_bytes=10**6)
        t1 = controller.admit(10)
        t2 = controller.admit(10)
        with pytest.raises(RejectedError) as excinfo:
            controller.admit(10)
        assert excinfo.value.reason == "queue_depth"
        assert excinfo.value.retry_after_ms > 0
        controller.release(t1)
        t3 = controller.admit(10)  # slot freed
        controller.release(t2)
        controller.release(t3)
        assert controller.depth == 0
        assert controller.inflight_bytes == 0

    def test_inflight_bytes_limit(self):
        controller = AdmissionController(max_queue_depth=100, max_inflight_bytes=100)
        ticket = controller.admit(80)
        with pytest.raises(RejectedError) as excinfo:
            controller.admit(30)
        assert excinfo.value.reason == "inflight_bytes"
        controller.admit(20)  # exactly fits
        controller.release(ticket)

    def test_rejection_leaves_state_unchanged(self):
        controller = AdmissionController(max_queue_depth=1)
        controller.admit(5)
        before = (controller.depth, controller.inflight_bytes)
        with pytest.raises(RejectedError):
            controller.admit(5)
        assert (controller.depth, controller.inflight_bytes) == before
        assert controller.rejected_total == 1

    def test_release_is_idempotent_per_ticket(self):
        controller = AdmissionController()
        ticket = controller.admit(7)
        controller.release(ticket)
        controller.release(ticket)
        assert controller.depth == 0
        assert controller.inflight_bytes == 0

    def test_retry_after_grows_with_backlog(self):
        controller = AdmissionController(max_queue_depth=100)
        empty_hint = controller.retry_after_ms()
        for _ in range(10):
            controller.admit(1)
        assert controller.retry_after_ms() > empty_hint

    def test_retry_after_grows_with_rejection_streak(self):
        controller = AdmissionController(max_queue_depth=1)
        controller.admit(1)
        hints = []
        for _ in range(3):
            with pytest.raises(RejectedError) as excinfo:
                controller.admit(1)
            hints.append(excinfo.value.retry_after_ms)
        assert hints == sorted(hints)
        assert hints[0] < hints[-1]

    def test_retry_after_is_capped(self):
        controller = AdmissionController(max_queue_depth=1)
        controller.admit(1)
        hint = 0
        for _ in range(100):
            with pytest.raises(RejectedError) as excinfo:
                controller.admit(1)
            hint = excinfo.value.retry_after_ms
        assert hint == RETRY_AFTER_MAX_MS

    def test_retry_after_growth_resets_on_admit(self):
        controller = AdmissionController(max_queue_depth=2)
        t1 = controller.admit(1)
        t2 = controller.admit(1)
        for _ in range(50):
            with pytest.raises(RejectedError):
                controller.admit(1)
        controller.release(t1)
        controller.release(t2)
        controller.admit(1)  # success forgets the streak
        assert controller.consecutive_rejections == 0
        assert (
            controller.retry_after_ms()
            < RETRY_AFTER_MAX_MS
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight_bytes=0)

    def test_stats_payload(self):
        controller = AdmissionController(max_queue_depth=3, max_inflight_bytes=50)
        controller.admit(10)
        with pytest.raises(RejectedError):
            controller.admit(100)
        stats = controller.stats()
        assert stats["depth"] == 1
        assert stats["inflight_bytes"] == 10
        assert stats["admitted_total"] == 1
        assert stats["rejected_total"] == 1
        assert stats["max_queue_depth"] == 3


class TestObservability:
    def test_admit_and_reject_events(self):
        from repro.obs import events, metrics

        obs.reset()
        obs.enable()
        obs.reset()
        obs.enable()
        try:
            controller = AdmissionController(max_queue_depth=1)
            ticket = controller.admit(5)
            with pytest.raises(RejectedError):
                controller.admit(5)
            controller.release(ticket)
            names = [e.name for e in events.events()]
            assert names == ["server.admit", "server.reject"]
            reject = events.events()[1]
            assert reject.attrs["reason"] == "queue_depth"
            assert reject.attrs["retry_after_ms"] > 0
            assert metrics.counter("server.admitted") == 1
            assert metrics.counter("server.rejected") == 1
            assert metrics.counter("server.rejected.queue_depth") == 1
            assert metrics.METRICS.gauge("server.queue_depth") == 0
        finally:
            obs.disable()
            obs.reset()
            obs.disable()
            obs.reset()
