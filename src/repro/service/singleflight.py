"""Single-flight coalescing: N concurrent identical requests, one
computation.

A mapping request is pure — the answer depends only on its fingerprint
— so when a second identical request arrives while the first is still
computing, starting a second search is pure waste.  The cache tiers
cannot help here: they only hold *finished* results, and the heavy
traffic pattern the service exists for (many clients asking for the
same hot mapping) produces its duplicates precisely while the first
computation is in flight.

:class:`SingleFlight` closes that gap.  Callers key their work with
the same :func:`~repro.mapping.cache.stable_digest` keys the
cache tiers use; the first caller's computation is shared with every
later caller that arrives before it finishes, and the result lands in
the cache tiers exactly once.  This is the classic ``singleflight``
pattern (Go's ``golang.org/x/sync/singleflight``), restated for one
asyncio event loop — dict operations need no lock because the methods
never await between check and insert.
"""

from __future__ import annotations

import asyncio

from repro.errors import ServiceError

__all__ = ["SingleFlight"]


class SingleFlight:
    """Coalesce concurrent computations by key, on one event loop.

    ``run(key, compute)`` starts ``compute()`` (a coroutine factory)
    if no computation for ``key`` is in flight, otherwise awaits the
    existing one.  Every waiter — leader included — awaits through
    :func:`asyncio.shield`, so one cancelled request can never cancel
    the shared computation under its coalesced peers; failures
    propagate to every waiter and are forgotten (the next request
    retries).  A shared computation that is itself cancelled (leader
    torn down mid-flight) surfaces to every waiter as a retryable
    :class:`~repro.errors.ServiceError` (503) — an answer, never a
    hang or a severed connection.
    """

    def __init__(self) -> None:
        self._inflight: "dict[str, asyncio.Task]" = {}
        self.started = 0
        self.coalesced = 0

    @property
    def in_flight(self) -> int:
        """How many distinct computations are currently running."""
        return len(self._inflight)

    async def run(self, key: str, compute):
        """The shared result of ``compute()`` for ``key``.

        ``compute`` is only called by the flight leader; followers for
        the same key await the leader's task.  The in-flight entry is
        removed when the task settles (success, failure or
        cancellation), so a later identical request computes afresh —
        by then the cache tiers answer it anyway.
        """
        task = self._inflight.get(key)
        if task is None:
            self.started += 1
            task = asyncio.ensure_future(compute())
            self._inflight[key] = task
            task.add_done_callback(
                lambda _task: self._inflight.pop(key, None))
        else:
            self.coalesced += 1
        try:
            return await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.cancelled():
                # The *shared* computation was cancelled (the leader's
                # handler died mid-flight, or shutdown reaped it) —
                # distinct from this waiter being cancelled.  Translate
                # to a retryable refusal: followers must get an answer,
                # never an escaped CancelledError that severs their
                # connection with no response.
                raise ServiceError(
                    503, "shared computation was cancelled; retry",
                    retry_after=1.0) from None
            raise

    def stats(self) -> dict:
        """``{"started", "coalesced", "in_flight"}`` counters."""
        return {"started": self.started, "coalesced": self.coalesced,
                "in_flight": self.in_flight}
