"""Tests for the engine hot-path structures: live counter, post, stream merge,
and the bounded-reservoir latency recorder."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import LatencyRecorder, Simulation
from repro.sim.multicell import CellConfig, default_catalogue
from repro.sim.placement import PlacementSpec
from repro.sim.simulator import MultiCellSimulator
from repro.workloads.generator import ArrivalTraceGenerator
from repro.workloads.traces import RequestTrace


class TestPendingCounter:
    def test_counts_scheduled_and_processed(self):
        simulation = Simulation()
        for delay in (1.0, 2.0, 3.0):
            simulation.schedule(delay, lambda s: None)
        assert simulation.pending() == 3
        simulation.run(max_events=1)
        assert simulation.pending() == 2
        simulation.run()
        assert simulation.pending() == 0

    def test_cancel_decrements_once(self):
        simulation = Simulation()
        event = simulation.schedule(1.0, lambda s: None)
        simulation.schedule(2.0, lambda s: None)
        Simulation.cancel(event)
        assert simulation.pending() == 1
        Simulation.cancel(event)  # double-cancel is a no-op
        assert simulation.pending() == 1
        simulation.run()
        assert simulation.pending() == 0

    def test_cancel_after_processing_is_harmless(self):
        simulation = Simulation()
        event = simulation.schedule(1.0, lambda s: None)
        simulation.run()
        Simulation.cancel(event)
        assert simulation.pending() == 0

    def test_post_counts_as_pending(self):
        simulation = Simulation()
        simulation.post(1.0, lambda s: None, simulation)
        assert simulation.pending() == 1
        simulation.run()
        assert simulation.pending() == 0

    def test_pending_is_exact_mid_run(self):
        # An action querying pending() must see the live count with its own
        # event already excluded — e.g. a last-event detector.
        simulation = Simulation()
        observed = []
        for _ in range(3):
            simulation.post(1.0, lambda s: observed.append(s.pending()), simulation)
        simulation.run()
        assert observed == [2, 1, 0]


class TestPost:
    def test_posted_actions_run_in_time_order(self):
        simulation = Simulation()
        order = []
        simulation.post(2.0, lambda s: order.append("late"), simulation)
        simulation.post(1.0, lambda s: order.append("early"), simulation)
        simulation.schedule(1.5, lambda s: order.append("middle"))
        simulation.run()
        assert order == ["early", "middle", "late"]

    def test_posted_action_visible_to_step(self):
        simulation = Simulation()
        seen = []
        simulation.post(1.0, lambda s: seen.append(s.now), simulation)
        record = simulation.step()
        assert seen == [1.0]
        assert record is not None and record.time == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().post(-0.5, lambda s: None)

    def test_step_runs_posted_action_with_its_args(self):
        # post() stores the callable and its argument tuple; step() calls
        # action(*args), without the simulation as an implicit argument.
        simulation = Simulation(trace=True)
        calls = []
        simulation.post(1.0, lambda *args: calls.append(args), "a", 2)
        simulation.post(2.0, lambda: calls.append("no args"))
        record = simulation.step()
        assert calls == [("a", 2)]
        assert record is not None and (record.time, record.label) == (1.0, "")
        assert simulation.events_processed == 1 and simulation.pending() == 1
        simulation.step()
        assert calls == [("a", 2), "no args"] and simulation.now == 2.0
        assert simulation.step() is None
        assert [record.label for record in simulation.processed] == ["", ""]


class TestRunStream:
    @settings(max_examples=40, deadline=None)
    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30),
        followups=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=5),
    )
    def test_equivalent_to_eager_scheduling(self, delays, followups):
        """Stream-fed arrivals produce the exact event order of eager schedule()."""

        def experiment(use_stream: bool):
            simulation = Simulation(trace=True)
            log = []

            def arrival(sim: Simulation, index: int) -> None:
                log.append(("arrival", index, sim.now))
                extra = followups[index % len(followups)]
                sim.post(extra, lambda s, i: log.append(("followup", i, s.now)), sim, index)

            times = sorted(delays)
            if use_stream:
                simulation.run_stream_window(times, arrival)
            else:
                for index, time in enumerate(times):
                    simulation.schedule_at(time, lambda s, i=index: arrival(s, i))
                simulation.run()
            return log, simulation.events_processed

        stream_log, stream_count = experiment(True)
        eager_log, eager_count = experiment(False)
        assert stream_log == eager_log
        assert stream_count == eager_count

    def test_rejects_stream_before_now(self):
        simulation = Simulation()
        simulation.schedule(5.0, lambda s: None)
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.run_stream_window([1.0], lambda s, i: None)

    def test_tie_with_preexisting_event_runs_event_first(self):
        # An event scheduled before the stream run holds an earlier sequence
        # number, so on an exact timestamp tie it must run before the stream
        # item — exactly as eager scheduling would order them.
        simulation = Simulation()
        order = []
        simulation.schedule(1.0, lambda s: order.append("pre-scheduled"))
        simulation.run_stream_window([1.0], lambda s, i: order.append("stream"))
        assert order == ["pre-scheduled", "stream"]

    def test_tie_with_event_scheduled_during_run_runs_stream_first(self):
        # Conversely, an event posted while the stream runs gets a later
        # sequence number than the (virtually pre-scheduled) stream items.
        simulation = Simulation()
        order = []

        def arrival(sim: Simulation, index: int) -> None:
            order.append(f"stream-{index}")
            if index == 0:
                sim.post(1.0, lambda s: order.append("posted"), sim)  # fires at t=2.0

        simulation.run_stream_window([1.0, 2.0], arrival)
        assert order == ["stream-0", "stream-1", "posted"]

    def test_stream_items_recorded_when_tracing(self):
        simulation = Simulation(trace=True)
        simulation.run_stream_window([1.0, 2.0], lambda s, i: None)
        assert [record.label for record in simulation.processed] == ["arrival", "arrival"]
        assert simulation.events_processed == 2


#: Grid of the windowed differential: arrivals, heap events and follow-ups
#: land on multiples of 0.25 s, so exact ties are common; window cuts land
#: on multiples of 0.125 s, so a cut falls on an item, on a heap event or
#: between them.
_GRID = 0.25


class TestRunStreamWindow:
    """``run_stream_window`` chained over cut points vs one whole-stream
    call vs eager ``schedule_at``: same event log, clock and count."""

    @staticmethod
    def _experiment(arrivals, followups, prescheduled, mode, cuts=(), numpy_times=False):
        simulation = Simulation(trace=True)
        log = []

        def followup(index: int) -> None:
            log.append(("followup", index, simulation.now))

        def arrival(sim: Simulation, index: int) -> None:
            log.append(("arrival", index, sim.now))
            # Delay 0 posts at the arrival's own timestamp: it must run after
            # every stream item stamped the same, as eager scheduling orders it.
            sim.post(followups[index % len(followups)], followup, index)

        handles = []

        def pre_event(number: int, cancels_later: bool):
            def action(sim: Simulation) -> None:
                log.append(("pre", number, sim.now))
                if cancels_later:
                    # Cancelled mid-run: skipped and not counted.
                    for handle in handles[number + 1 :]:
                        Simulation.cancel(handle)

            return action

        for number, (time, state) in enumerate(prescheduled):
            handles.append(
                simulation.schedule_at(
                    time, pre_event(number, state == "canceller"), label=f"pre-{number}"
                )
            )
        for handle, (_, state) in zip(handles, prescheduled):
            if state == "cancelled":
                Simulation.cancel(handle)
        times = np.array(arrivals) if numpy_times else list(arrivals)
        windows = []
        if mode == "eager":
            for index, time in enumerate(arrivals):
                simulation.schedule_at(time, lambda s, i=index: arrival(s, i))
            simulation.run()
        elif mode == "stream":
            simulation.run_stream_window(times, arrival)
        else:
            boundary = simulation._sequence  # pinned across every window
            next_index = 0
            for until in (*cuts, None):
                before = len(log)
                count, next_index = simulation.run_stream_window(
                    times, arrival, start_index=next_index, until=until, boundary=boundary
                )
                windows.append((until, count, len(log) - before, simulation.now, next_index))
            assert next_index == len(arrivals)
        return log, simulation, windows

    @settings(max_examples=80, deadline=None)
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=4), max_size=25),
        followups=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
        prescheduled=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=24).map(lambda k: k * _GRID),
                st.sampled_from(["live", "cancelled", "canceller"]),
            ),
            max_size=6,
        ),
        cut_steps=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
        numpy_times=st.booleans(),
    )
    def test_windows_match_one_stream_run_and_eager_scheduling(
        self, gaps, followups, prescheduled, cut_steps, numpy_times
    ):
        arrivals = (np.cumsum(gaps, dtype=np.int64) * _GRID).tolist()
        delays = [step * _GRID for step in followups]
        cuts = sorted(step * (_GRID / 2) for step in cut_steps)

        eager_log, eager, _ = self._experiment(arrivals, delays, prescheduled, "eager")
        stream_log, stream, _ = self._experiment(
            arrivals, delays, prescheduled, "stream", numpy_times=numpy_times
        )
        window_log, windowed, windows = self._experiment(
            arrivals, delays, prescheduled, "windows", cuts=cuts, numpy_times=numpy_times
        )

        assert stream_log == eager_log
        assert window_log == eager_log
        assert stream.events_processed == eager.events_processed == len(eager_log)
        assert windowed.events_processed == len(eager_log)
        # A window stops with the clock at its cut when an item or a heap
        # event, even a cancelled one, lies beyond the cut.  A cancelled one
        # never runs, so it can leave the clock at a cut past the last event.
        scheduled = [*arrivals, *(entry[2] for entry in eager_log), *(t for t, _ in prescheduled)]

        def beyond(cut: float) -> bool:
            return any(time > cut for time in scheduled)

        assert stream.now == eager.now
        assert windowed.now == max([eager.now, *(cut for cut in cuts if beyond(cut))])
        assert windowed.pending() == stream.pending() == 0
        # Arrivals trace as "arrival", posts as "", scheduled events by label.
        assert windowed.processed == stream.processed
        assert [record.time for record in stream.processed] == [
            entry[2] for entry in eager_log
        ]
        # Each window runs exactly the events up to and including its cut,
        # and sets the clock to the cut only when something lies beyond it.
        done = 0
        for until, count, logged, now, _ in windows:
            assert count == logged
            done += count
            if until is None:
                continue
            assert all(entry[2] <= until for entry in window_log[:done])
            assert all(entry[2] > until for entry in window_log[done:])
            if beyond(until):
                assert now == until
            else:
                assert now <= until

    def test_pinned_boundary_keeps_tie_order_across_windows(self):
        # An event posted in the first window ties with an arrival handled in
        # the second.  With the boundary pinned before the first window, the
        # arrival still wins the tie, as in one whole-stream call.
        def run(pin: bool):
            simulation = Simulation()
            order = []

            def arrival(sim: Simulation, index: int) -> None:
                order.append(f"stream-{index}")
                if index == 0:
                    sim.post(1.0, order.append, "posted")  # fires at t=2.0

            boundary = simulation._sequence if pin else None
            _, next_index = simulation.run_stream_window(
                [1.0, 2.0], arrival, until=1.5, boundary=boundary
            )
            simulation.run_stream_window(
                [1.0, 2.0], arrival, start_index=next_index, boundary=boundary
            )
            return order

        assert run(pin=True) == ["stream-0", "stream-1", "posted"]
        assert run(pin=False) == ["stream-0", "posted", "stream-1"]


class TestReplayPaths:
    def _simulator(self) -> MultiCellSimulator:
        domains = ["d0", "d1"]
        cells = [CellConfig(name="cell_0"), CellConfig(name="cell_1")]
        return MultiCellSimulator(cells, default_catalogue(domains, seed=0), seed=0)

    def _trace(self, shuffled: bool = False):
        generator = ArrivalTraceGenerator(
            ["d0", "d1"], num_users=20, profile="poisson", rate=200.0, period_s=1.0, seed=0
        )
        trace = generator.generate(300)
        if not shuffled:
            return trace
        rows = np.random.default_rng(1).permutation(len(trace))
        return RequestTrace.from_columns(
            trace.timestamps[rows],
            trace.user_indices[rows],
            trace.domain_indices[rows],
            trace.domain_names,
        )

    def _interrupted(self, shuffled: bool = False) -> MultiCellSimulator:
        """A simulator whose replay raised at t = 0.5 s, tail pending."""
        simulator = self._simulator()

        def boom(sim):
            raise RuntimeError("injected failure")

        simulator.engine.schedule(0.5, boom)
        with pytest.raises(RuntimeError, match="injected failure"):
            simulator.replay(self._trace(shuffled))
        return simulator

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_resumed_replay_equals_an_uninterrupted_one(self, shuffled):
        """A crash mid-replay keeps the undelivered arrivals; run() resumes
        them, retained, as if the replay never stopped."""
        simulator = self._interrupted(shuffled)
        _, delivered = simulator._tail
        assert 0 < delivered < 300
        resumed = simulator.run()
        assert simulator._tail is None
        assert resumed.completed == 300
        reference = self._simulator()
        reference.engine.schedule(0.5, lambda sim: None)
        uninterrupted = reference.replay(self._trace(shuffled))

        assert len(simulator.requests) == 300
        assert [request.request_id for request in simulator.requests] == [
            request.request_id for request in reference.requests
        ]
        for request, twin in zip(simulator.requests, reference.requests):
            for slot in request.__slots__:
                assert getattr(request, slot) == getattr(twin, slot), (request.request_id, slot)
        # The raising event is the only one not counted.
        assert resumed.events_processed == uninterrupted.events_processed - 1
        assert replace(resumed, wall_clock_s=0.0, events_processed=0) == replace(
            uninterrupted, wall_clock_s=0.0, events_processed=0
        )

    def test_resume_keeps_the_replay_tie_order(self):
        """An event posted mid-replay still runs after a tail arrival at its exact time."""
        trace = self._trace()
        tie = float(trace.timestamps[250])  # an arrival after the failure at 0.5 s

        def run(interrupt: bool) -> list:
            simulator = self._simulator()
            seen = []

            def at_tie():
                seen.append(len(simulator.requests))

            def boom(sim):
                if interrupt:
                    raise RuntimeError("injected failure")

            simulator.engine.schedule(0.5, boom)
            # Posted at t = 0 from inside the replay, so it ties with arrival
            # 250 as an event scheduled during the run: the arrival goes first.
            simulator.engine.schedule(0.0, lambda sim: sim.post(tie, at_tie))
            if interrupt:
                with pytest.raises(RuntimeError, match="injected failure"):
                    simulator.replay(trace)
                simulator.run()
            else:
                simulator.replay(trace)
            return seen

        assert run(interrupt=False) == [251]
        assert run(interrupt=True) == [251]

    def test_replay_while_a_tail_is_pending_raises(self):
        simulator = self._interrupted()
        issued = simulator._request_counter
        with pytest.raises(SimulationError, match=r"call run\(\)"):
            simulator.replay(self._trace())
        assert simulator._request_counter == issued
        assert simulator.run().completed == 300

    @pytest.mark.parametrize(
        "placement",
        [None, PlacementSpec(policy="max-flow", prewarm=True)],
        ids=["no-placement", "prewarmed-max-flow"],
    )
    def test_trace_starting_before_the_clock_is_rejected_up_front(self, placement):
        simulator = self._simulator()
        simulator.configure_placement(placement)
        # The clock passes the trace's start with no arrival, so placement
        # has not been prepared from any trace yet.
        simulator.engine.schedule(5.0, lambda sim: None)
        simulator.run()
        with pytest.raises(SimulationError, match="before current time"):
            simulator.replay(self._trace())
        assert simulator._tail is None
        assert simulator._request_counter == 0
        assert simulator.engine.pending() == 0
        if placement is not None:
            # No plan solved and no cache prewarmed from a trace that never ran.
            assert not simulator._placement.prepared
            assert simulator._placement.prewarmed_models == 0


class TestLatencyReservoir:
    def test_exact_under_threshold(self):
        recorder = LatencyRecorder(reservoir_size=100)
        values = np.random.default_rng(0).exponential(size=80)
        for value in values:
            recorder.record(float(value))
        assert recorder.exact and len(recorder) == 80
        summary = recorder.summary()
        assert summary["p95_s"] == pytest.approx(float(np.percentile(values, 95)))
        assert summary["mean_s"] == pytest.approx(float(values.mean()))
        assert summary["max_s"] == pytest.approx(float(values.max()))

    def test_memory_bounded_beyond_threshold(self):
        recorder = LatencyRecorder(reservoir_size=64, seed=1)
        for value in range(10_000):
            recorder.record(float(value))
        assert len(recorder) == 10_000
        assert not recorder.exact
        assert recorder._samples.shape == (64,)

    def test_mean_max_count_exact_beyond_threshold(self):
        recorder = LatencyRecorder(reservoir_size=16)
        values = [float(v) for v in range(1000)]
        for value in values:
            recorder.record(value)
        summary = recorder.summary()
        assert summary["mean_s"] == pytest.approx(sum(values) / len(values))
        assert summary["max_s"] == 999.0
        assert len(recorder) == 1000

    def test_reservoir_percentiles_are_reasonable(self):
        recorder = LatencyRecorder(reservoir_size=500, seed=2)
        values = np.random.default_rng(3).exponential(scale=2.0, size=20_000)
        for value in values:
            recorder.record(float(value))
        estimate = recorder.percentile(50)
        exact = float(np.percentile(values, 50))
        assert abs(estimate - exact) / exact < 0.25

    def test_deterministic_given_seed(self):
        def fill(seed: int) -> list:
            recorder = LatencyRecorder(reservoir_size=32, seed=seed)
            for value in range(500):
                recorder.record(float(value))
            return list(recorder._values())

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)

    def test_empty_summary_is_zero(self):
        summary = LatencyRecorder().summary()
        assert summary == {"mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
        assert LatencyRecorder().percentile(95) == 0.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder(reservoir_size=0)

    def test_absorb_two_empty_recorders(self):
        recorder = LatencyRecorder(reservoir_size=16)
        recorder.absorb(LatencyRecorder(reservoir_size=16))
        assert len(recorder) == 0
        assert recorder.summary() == {
            "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0
        }

    def test_absorb_empty_other_is_identity(self):
        recorder = LatencyRecorder(reservoir_size=16)
        for value in (1.0, 2.0, 3.0):
            recorder.record(value)
        before = recorder.summary()
        recorder.absorb(LatencyRecorder(reservoir_size=16))
        assert len(recorder) == 3 and recorder.exact
        assert recorder.summary() == before

    def test_absorb_into_empty_copies_other(self):
        other = LatencyRecorder(reservoir_size=16)
        values = [0.5, 4.0, 2.5, 1.0]
        for value in values:
            other.record(value)
        recorder = LatencyRecorder(reservoir_size=16)
        recorder.absorb(other)
        assert len(recorder) == len(values) and recorder.exact
        assert recorder.summary() == other.summary()
        # The absorbed samples are a copy, not a view: mutating the source
        # afterwards must not leak into the merged distribution.
        other.record(1000.0)
        assert recorder.summary()["max_s"] == 4.0

    def test_absorb_merged_percentiles_exact_while_union_fits(self):
        left, right = LatencyRecorder(reservoir_size=64), LatencyRecorder(reservoir_size=64)
        values = np.random.default_rng(5).exponential(size=40)
        for value in values[:17]:
            left.record(float(value))
        for value in values[17:]:
            right.record(float(value))
        left.absorb(right)
        assert left.exact and len(left) == 40
        assert left.summary()["p95_s"] == pytest.approx(float(np.percentile(values, 95)))
        assert left.summary()["mean_s"] == pytest.approx(float(values.mean()))
