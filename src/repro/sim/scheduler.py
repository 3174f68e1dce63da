"""A deterministic discrete-event scheduler.

The chaos harness (:mod:`repro.sim.harness`) composes a simulated run
out of *events* — client transactions, maintenance actions, injected
failures — ordered on a virtual timeline.  :class:`EventScheduler` is
the ordering core: a priority queue of :class:`Event` objects keyed by
``(time, seq)``, where ``seq`` is the insertion sequence number, so
two events scheduled at the same time always pop in the order they
were scheduled.  Determinism is the whole point: given the same set of
``schedule`` calls, the pop order is bit-for-bit identical on every
run, which is what makes a chaos schedule replayable from its seed and
shrinkable by event deletion.

The scheduler deliberately knows nothing about the engine or the
:class:`repro.sim.clock.SimClock` — event time is a virtual ordering
key, while the clock measures modeled I/O cost.  The harness bridges
the two where it matters (arming clock deadlines so failures fire
*mid-operation*, not only between events).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Event:
    """One scheduled event on the virtual timeline."""

    time: float
    seq: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> tuple[float, int]:
        return (self.time, self.seq)

    def describe(self) -> str:
        """Compact, deterministic one-line rendering (trace format)."""
        if not self.payload:
            return f"t={self.time:g} {self.kind}"
        inner = " ".join(f"{key}={self.payload[key]!r}"
                         for key in sorted(self.payload))
        return f"t={self.time:g} {self.kind} {inner}"


class EventScheduler:
    """Priority queue of events with deterministic tie-breaking.

    Heap entries carry a strictly increasing push counter as the final
    tiebreaker, so two events that collide on ``(time, seq)`` — legal
    when a replayed schedule meets dynamically added events — order by
    insertion instead of making ``heapq`` compare :class:`Event`
    objects (which define no ordering).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._next_seq = 0
        self._pushes = 0

    def _push(self, event: Event) -> None:
        heapq.heappush(self._heap,
                       (event.time, event.seq, self._pushes, event))
        self._pushes += 1

    def schedule(self, time: float, kind: str, **payload: Any) -> Event:
        """Add an event at ``time``; later-scheduled ties pop later."""
        if time < 0:
            raise ValueError("cannot schedule before time zero")
        event = Event(time, self._next_seq, kind, payload)
        self._next_seq += 1
        self._push(event)
        return event

    def schedule_event(self, event: Event) -> None:
        """Re-add a pre-built event (replaying a stored schedule).

        The event keeps its own ``seq``; the scheduler's counter is
        advanced past it so dynamically added events still order after
        replayed ones at equal times.
        """
        self._next_seq = max(self._next_seq, event.seq + 1)
        self._push(event)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("no events scheduled")
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Event | None:
        """The earliest event without removing it (None when empty)."""
        return self._heap[0][3] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Event]:
        """Pop every event in order."""
        while self._heap:
            yield self.pop()


def shrink_events(events: list[Event], fails: Callable[[list[Event]], bool],
                  max_runs: int) -> list[Event]:
    """Minimize a failing schedule by greedy event deletion.

    Re-runs ``fails`` with one event removed, keeping every removal
    that still fails; after a kept removal the scan stays at the same
    index (the next event slid into it), so one pass tries each event
    once.  Passes repeat to a fixed point, with at most ``max_runs``
    calls of ``fails`` in all.  Sound for the chaos harnesses because
    per-client RNG streams make each event's behaviour independent of
    which other events survive.
    """
    current = list(events)
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        index = 0
        while index < len(current) and runs < max_runs:
            candidate = current[:index] + current[index + 1:]
            runs += 1
            if fails(candidate):
                current = candidate
                changed = True
            else:
                index += 1
    return current
