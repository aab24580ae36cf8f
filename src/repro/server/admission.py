"""Bounded admission for the solve server.

A persistent front-end that accepts everything it is sent has two
failure modes: unbounded queueing (every request eventually answered,
none answered in time) and unbounded buffering (request bytes pile up in
memory until the process dies).  The :class:`AdmissionController` bounds
both with two independent limits:

- ``max_queue_depth`` — how many requests may be admitted-but-unfinished
  at once (queued *or* executing);
- ``max_inflight_bytes`` — the summed wire size of those requests, so a
  few giant graphs cannot starve many small ones.

Admission is all-or-nothing and O(1): a request either receives a
:class:`Ticket` (and must :meth:`~AdmissionController.release` it when
the response is written) or a :class:`RejectedError` carrying a
``retry_after_ms`` hint — the client-visible backoff, proportional to
the current queue depth so a deeper backlog pushes retries further out.

The controller is synchronous and unlocked by design: the server calls
it only from the event-loop thread, where asyncio's cooperative
scheduling already serializes access.  Every decision is observable —
``server.admit`` / ``server.reject`` events, admission counters, and a
``server.queue_depth`` gauge updated on every transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder

DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_MAX_INFLIGHT_BYTES = 32 * 1024 * 1024

# The retry-after hint grows linearly with backlog: roughly the time one
# queue slot takes to drain on a warm cache, per request ahead of you.
# Sustained rejection streaks grow it further (each consecutive reject
# adds a slot), but never past the cap — an unbounded hint would park
# polite clients forever on a server that is already draining.
_RETRY_AFTER_PER_SLOT_MS = 25
RETRY_AFTER_MAX_MS = 1000


class RejectedError(ReproError):
    """Admission denied; ``retry_after_ms`` is the client's backoff hint."""

    def __init__(self, message: str, retry_after_ms: int, reason: str) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.reason = reason


@dataclass
class Ticket:
    """Proof of admission; release it exactly once when the request ends."""

    nbytes: int
    released: bool = False


class AdmissionController:
    """Two-limit admission: queue depth and in-flight request bytes."""

    def __init__(
        self,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if max_inflight_bytes < 1:
            raise ValueError(
                f"max_inflight_bytes must be >= 1, got {max_inflight_bytes}"
            )
        self.max_queue_depth = max_queue_depth
        self.max_inflight_bytes = max_inflight_bytes
        self.depth = 0
        self.inflight_bytes = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.consecutive_rejections = 0

    def retry_after_ms(self) -> int:
        """The backoff hint for a rejection issued right now: one slot
        per queued request plus one per consecutive rejection, capped at
        :data:`RETRY_AFTER_MAX_MS` (growth resets on the next admit)."""
        slots = self.depth + 1 + self.consecutive_rejections
        return min(RETRY_AFTER_MAX_MS, _RETRY_AFTER_PER_SLOT_MS * slots)

    def admit(self, nbytes: int) -> Ticket:
        """Admit a request of ``nbytes`` wire bytes or raise
        :class:`RejectedError` with a retry-after hint."""
        reason = None
        if self.depth >= self.max_queue_depth:
            reason = "queue_depth"
        elif self.inflight_bytes + nbytes > self.max_inflight_bytes:
            reason = "inflight_bytes"
        if reason is not None:
            self.rejected_total += 1
            self.consecutive_rejections += 1
            hint = self.retry_after_ms()
            if obs_recorder.ON:
                obs_metrics.inc("server.rejected")
                obs_metrics.inc(f"server.rejected.{reason}")
                obs_events.emit(
                    obs_events.EVENT_SERVER_REJECT,
                    reason=reason,
                    depth=self.depth,
                    inflight_bytes=self.inflight_bytes,
                    nbytes=nbytes,
                    retry_after_ms=hint,
                )
            raise RejectedError(
                f"admission denied ({reason}): depth={self.depth}/"
                f"{self.max_queue_depth}, inflight={self.inflight_bytes}/"
                f"{self.max_inflight_bytes} bytes",
                retry_after_ms=hint,
                reason=reason,
            )
        self.depth += 1
        self.inflight_bytes += nbytes
        self.admitted_total += 1
        self.consecutive_rejections = 0
        if obs_recorder.ON:
            obs_metrics.inc("server.admitted")
            obs_metrics.set_gauge("server.queue_depth", self.depth)
            obs_events.emit(
                obs_events.EVENT_SERVER_ADMIT,
                depth=self.depth,
                inflight_bytes=self.inflight_bytes,
                nbytes=nbytes,
            )
        return Ticket(nbytes=nbytes)

    def release(self, ticket: Ticket) -> None:
        """Return a ticket's slot and bytes; idempotent per ticket."""
        if ticket.released:
            return
        ticket.released = True
        self.depth = max(0, self.depth - 1)
        self.inflight_bytes = max(0, self.inflight_bytes - ticket.nbytes)
        if obs_recorder.ON:
            obs_metrics.set_gauge("server.queue_depth", self.depth)

    def stats(self) -> dict[str, int]:
        """Current state plus lifetime counters (the ``stats`` op payload)."""
        return {
            "depth": self.depth,
            "inflight_bytes": self.inflight_bytes,
            "max_queue_depth": self.max_queue_depth,
            "max_inflight_bytes": self.max_inflight_bytes,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
        }


__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_INFLIGHT_BYTES",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "RETRY_AFTER_MAX_MS",
    "RejectedError",
    "Ticket",
]
