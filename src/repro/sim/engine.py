"""The discrete-event simulation engine: a global event queue with a virtual clock.

This is the substrate every scaling experiment plugs into.  Events are
processed in timestamp order (ties broken by scheduling order, so same-time
events run FIFO); actions receive the simulation instance and may schedule
further events.

The engine originally lived in :mod:`repro.edge.events` and was sized for the
small E7/E8 sweeps; it now also drives the multi-cell request simulator
(:mod:`repro.sim.simulator`), which replays hundreds of thousands of requests
in one process.  Hot-path choices that keep it fast at that scale:

* Heap items are ``(time, sequence, action, args)`` tuples, so ``heapq``
  sift comparisons resolve on the first two elements in C instead of calling
  a Python ``__lt__`` (which dominated profiles of 200k-request replays).
* Fire-and-forget events (:meth:`post`) carry the callable and its argument
  tuple, called as ``action(*args)``: a bound method and its arguments, with
  no closure allocated per event.  A cancellable :class:`_ScheduledEvent`
  handle (``args`` is ``None``) exists only when the caller asked for one
  (:meth:`schedule`); its action is called as ``action(sim)``.
* :meth:`pending` reads a live counter maintained on schedule/cancel/pop
  instead of scanning the whole heap — run loops poll it.
* :meth:`run` inlines the pop loop (no per-event :meth:`step` call, no
  :class:`EventRecord` allocation unless tracing is on) and pauses the cyclic
  garbage collector for its duration: events, requests and argument tuples
  die by reference counting, and generation-0 scans otherwise trigger
  thousands of times across a long replay.
* :meth:`run_stream_window` merges a time-sorted arrival stream into the run
  loop without the stream ever touching the heap, so replaying a 50k-request
  trace keeps the heap at the size of the genuinely concurrent work.  The loop
  reads the stream in blocks of :data:`STREAM_BLOCK` Python floats (one
  ``tolist()`` per block, not a numpy scalar per arrival) and, before each
  arrival, drains only the heap events that come first.

For large runs construct the simulation with ``trace=False`` so the per-event
:class:`EventRecord` history is not accumulated.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, repeat
from math import inf
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SimulationError

EventAction = Callable[["Simulation"], None]

#: Stream timestamps the merged run loop converts to Python floats at a time.
#: A bounded block keeps memory flat at any stream length.
STREAM_BLOCK = 1024


def _stream_blocks(times: Sequence[float], start: int, stop: int) -> Iterator[List[float]]:
    """``times[start:stop]`` as lists of Python floats, one block at a time.

    The values are what ``float(times[i])`` returns, so the virtual clock is a
    plain Python float on every path; a numpy array converts each block in
    one ``tolist()`` call instead of boxing one scalar per arrival.
    """
    numpy_times = hasattr(times, "dtype")
    for low in range(start, stop, STREAM_BLOCK):
        block = times[low : min(low + STREAM_BLOCK, stop)]
        yield block.astype(float, copy=False).tolist() if numpy_times else list(map(float, block))


class _ScheduledEvent:
    """Handle for one scheduled action; returned by :meth:`Simulation.schedule`.

    Ordering lives in the heap tuple, not here — the event itself only carries
    the payload plus the cancellation state.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled", "_queued", "_owner")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: EventAction,
        label: str,
        owner: "Simulation",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self._queued = True
        self._owner = owner


@dataclass(slots=True)
class EventRecord:
    """A processed event, kept for tracing and assertions in tests."""

    time: float
    label: str


class Simulation:
    """Event queue with a virtual clock.

    Actions scheduled with :meth:`schedule` receive the simulation instance
    and may schedule further events; :meth:`run` processes events until the
    queue is empty or a time/step limit is hit.

    Parameters
    ----------
    trace:
        When true (the default), every processed event is appended to
        :attr:`processed`.  Large-scale replays disable this to keep memory
        flat across millions of events.
    """

    def __init__(self, trace: bool = True) -> None:
        self.now: float = 0.0
        self.trace = trace
        #: ``(time, sequence, action, args)``; ``args`` is ``None`` for a
        #: cancellable handle from :meth:`schedule` (``action`` is the handle).
        self._queue: List[Tuple[float, int, Any, Optional[tuple]]] = []
        self._sequence: int = 0
        self._live: int = 0
        self.processed: List[EventRecord] = []
        self.events_processed: int = 0
        self._running = False

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, action: EventAction, label: str = "") -> _ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + delay
        self._sequence += 1
        event = _ScheduledEvent(time, self._sequence, action, label, self)
        heappush(self._queue, (time, self._sequence, event, None))
        self._live += 1
        return event

    def schedule_at(self, time: float, action: EventAction, label: str = "") -> _ScheduledEvent:
        """Schedule ``action`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} before current time {self.now}")
        return self.schedule(time - self.now, action, label=label)

    def post(self, delay: float, action: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellable handle, no label.

        The hot-path variant for events that are never cancelled (the vast
        majority in a large replay).  ``action(*args)`` runs at ``now +
        delay``; unlike :meth:`schedule`, the action does not receive the
        simulation.  The callable and its argument tuple go on the heap as
        they are, so posting a bound method allocates no closure and no
        per-event handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        heappush(self._queue, (self.now + delay, sequence, action, args))
        self._live += 1

    @staticmethod
    def cancel(event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (it will be skipped)."""
        if event._queued and not event.cancelled:
            event.cancelled = True
            event._owner._live -= 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[EventRecord]:
        """Process the next event; returns its record or ``None`` when empty."""
        queue = self._queue
        while queue:
            time, _, action, args = heappop(queue)
            if args is None:
                action._queued = False
                if action.cancelled:
                    continue
                label = action.label
                action, args = action.action, (self,)
            else:
                label = ""
            if time < self.now:
                raise SimulationError("event queue became unordered")
            self.now = time
            self._live -= 1
            action(*args)
            self.events_processed += 1
            record = EventRecord(time=time, label=label)
            if self.trace:
                self.processed.append(record)
            return record
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the number processed.

        The cyclic garbage collector is paused for the duration of the loop
        (restored on exit): event tuples, argument tuples and requests are
        acyclic and die by reference counting, while generation-0 scans would
        otherwise fire thousands of times across a 200k-event replay.
        """
        count, _ = self._run_merged((), None, until, max_events)
        return count

    def run_stream_window(
        self,
        times: Sequence[float],
        callback: Callable[["Simulation", int], None],
        start_index: int = 0,
        until: Optional[float] = None,
        boundary: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Run the heap with a time-sorted arrival stream merged in; resumable.

        Behaves exactly as if ``callback(sim, i)`` had been scheduled at
        ``times[i]`` for every ``i >= start_index`` when the stream run began:
        same-time stream items run FIFO; on an exact timestamp tie with a
        heap event, events scheduled *before* that moment keep their earlier
        sequence numbers and run first, while events scheduled during the run
        run after the stream item (eager scheduling would order them exactly
        the same way).  The stream never touches the heap, so its size stays
        at the genuinely concurrent work.  ``times`` must be sorted
        non-decreasingly; callers sort or check it once, it is not rescanned
        here.

        With ``until`` set, the run stops after the last heap event or stream
        item at or before ``until``.  The clock then moves to ``until`` when
        the next stream item or heap event (a cancelled one included) lies
        beyond it; when nothing is left it stays at the last event.  Returns
        ``(events_processed, next_start_index)`` so the caller can advance
        window by window — the sharded backend's conservative time-window
        loop, or a replay resuming after an exception.  ``boundary`` is the
        sequence number that marks "scheduled before the stream run began";
        pass the value captured before the first window so same-time ordering
        is consistent across the whole replay (``None`` captures it at call
        time).
        """
        if start_index < 0:
            raise SimulationError(f"start_index must be >= 0, got {start_index}")
        if start_index < len(times) and times[start_index] < self.now:
            raise SimulationError(
                f"stream starts at {times[start_index]} before current time {self.now}"
            )
        return self._run_merged(times, callback, until, None, start_index, boundary)

    def _run_merged(
        self,
        times: Sequence[float],
        callback: Optional[Callable[["Simulation", int], None]],
        until: Optional[float],
        max_events: Optional[int],
        start_index: int = 0,
        boundary: Optional[int] = None,
    ) -> Tuple[int, int]:
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if max_events is not None and max_events <= 0:
            return 0, start_index
        self._running = True
        count = 0
        index = start_index
        num_stream = len(times)
        stop = num_stream if until is None else bisect_right(times, until, min(index, num_stream))
        queue = self._queue
        pop = heappop
        trace = self.trace
        processed = self.processed
        # Events already on the heap hold sequence numbers <= this boundary;
        # had the stream been scheduled eagerly right now it would get larger
        # ones, so on exact timestamp ties those pre-existing events win.
        # Windowed callers pass the boundary captured before their first
        # window so the tie-break stays consistent across the whole replay.
        if boundary is None:
            boundary = self._sequence
        # A heap item sorts below the limit (t, boundary + 1) exactly when it
        # runs before a stream item at t: it is earlier, or tied and scheduled
        # before the run.  The last limit, the tail, admits every event up to
        # ``until``, whatever its sequence number.
        tail = (inf if until is None else until, inf)
        limits = chain(
            zip(chain.from_iterable(_stream_blocks(times, index, stop)), repeat(boundary + 1)),
            (tail,),
        )
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for limit in limits:
                while queue and queue[0] < limit:
                    time, _, action, args = pop(queue)
                    if args is None:
                        # A handle from schedule(): skipped once cancelled.
                        action._queued = False
                        if action.cancelled:
                            continue
                        label = action.label
                        action, args = action.action, (self,)
                    else:
                        label = ""
                    self.now = time
                    # Kept exact per event so pending() agrees with step()
                    # semantics for actions that query it mid-run.
                    self._live -= 1
                    action(*args)
                    count += 1
                    if trace:
                        processed.append(EventRecord(time=time, label=label))
                    if count == max_events:
                        return count, index
                if limit is tail:
                    break
                # Stream items never touch the heap, so no _live update.
                self.now = limit[0]
                callback(self, index)
                index += 1
                count += 1
                if trace:
                    processed.append(EventRecord(time=limit[0], label="arrival"))
            if until is not None and (index < num_stream or queue):
                # Stopped because the next item or event lies beyond until.
                self.now = until
        finally:
            self.events_processed += count
            if gc_was_enabled:
                gc.enable()
            self._running = False
        return count, index

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live
