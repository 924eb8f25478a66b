"""Tests for the discrete-event simulator and process model."""

import pytest

from repro.errors import SimulationError
from repro.simcore.engine import Process, Simulator, Timeout, Wait
from repro.simcore.event import Event


class TestTimeout:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError, match="NaN"):
            Timeout(float("nan"))

    def test_nan_delay_fails_the_yielding_process(self):
        sim = Simulator()

        def body():
            yield Timeout(float("nan"))

        process = sim.spawn(body(), name="nan-sleeper")
        sim.run()
        assert process.finished
        with pytest.raises(SimulationError, match="NaN"):
            _ = process.result

    def test_timeout_subclass_takes_the_generic_path(self):
        class Nap(Timeout):
            __slots__ = ()

        sim = Simulator()

        def body():
            got = yield Nap(2.0, value="nap")
            return got, sim.now

        assert sim.run_process(body()) == ("nap", 2.0)

    def test_simple_sleep_advances_clock(self):
        sim = Simulator()

        def body():
            yield Timeout(2.5)
            return "done"

        result = sim.run_process(body())
        assert result == "done"
        assert sim.now == pytest.approx(2.5)

    def test_sequential_sleeps_accumulate(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)
            yield Timeout(2.0)
            yield Timeout(3.0)

        sim.run_process(body())
        assert sim.now == pytest.approx(6.0)

    def test_timeout_value_passed_back(self):
        sim = Simulator()
        got = []

        def body():
            got.append((yield Timeout(1.0, value="hello")))
            got.append((yield Timeout(1.0, value=0)))
            got.append((yield Timeout(1.0)))
            got.append((yield Timeout(1.0, value=None)))

        sim.run_process(body())
        assert got == ["hello", 0, None, None]


class TestWait:
    def test_wait_resumes_with_event_value(self):
        sim = Simulator()
        gate = Event("gate")

        def opener():
            yield Timeout(5.0)
            gate.succeed("opened")

        def waiter():
            value = yield Wait(gate)
            return value

        sim.spawn(opener())
        process = sim.spawn(waiter())
        sim.run()
        assert process.result == "opened"
        assert sim.now == pytest.approx(5.0)

    def test_bare_event_yield_is_shorthand_for_wait(self):
        sim = Simulator()
        gate = Event("gate")

        def opener():
            yield Timeout(1.0)
            gate.succeed(7)

        def waiter():
            value = yield gate
            return value

        sim.spawn(opener())
        process = sim.spawn(waiter())
        sim.run()
        assert process.result == 7

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        gate = Event("gate")
        gate.succeed(1)

        def waiter():
            value = yield Wait(gate)
            return value

        assert sim.run_process(waiter()) == 1

    def test_failed_event_raises_in_waiter(self):
        sim = Simulator()
        gate = Event("gate")

        def opener():
            yield Timeout(1.0)
            gate.fail(ValueError("nope"))

        def waiter():
            try:
                yield Wait(gate)
            except ValueError:
                return "caught"
            return "missed"

        sim.spawn(opener())
        process = sim.spawn(waiter())
        sim.run()
        assert process.result == "caught"


class TestProcessComposition:
    def test_wait_for_child_process(self):
        sim = Simulator()

        def child():
            yield Timeout(3.0)
            return 99

        def parent():
            result = yield sim.spawn(child(), "child")
            return result

        assert sim.run_process(parent(), "parent") == 99

    def test_child_exception_propagates_to_parent(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            raise RuntimeError("child failed")

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                return str(exc)

        assert sim.run_process(parent()) == "child failed"

    def test_parallel_children_overlap_in_time(self):
        sim = Simulator()

        def child(delay):
            yield Timeout(delay)

        def parent():
            first = sim.spawn(child(3.0))
            second = sim.spawn(child(5.0))
            yield first
            yield second

        sim.run_process(parent())
        assert sim.now == pytest.approx(5.0)  # overlap, not 8.0

    def test_result_of_unfinished_process_is_error(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)

        process = sim.spawn(body())
        with pytest.raises(SimulationError):
            _ = process.result

    def test_failing_process_result_reraises(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)
            raise KeyError("x")

        process = sim.spawn(body())
        sim.run()
        with pytest.raises(KeyError):
            _ = process.result

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Process(sim, 42, "bad")  # type: ignore[arg-type]

    def test_unknown_command_fails_process(self):
        sim = Simulator()

        def body():
            yield "not-a-command"

        process = sim.spawn(body())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.result


class TestSimulatorRun:
    def test_run_until_stops_early(self):
        sim = Simulator()

        def body():
            yield Timeout(10.0)

        process = sim.spawn(body())
        sim.run(until=4.0)
        assert sim.now == pytest.approx(4.0)
        assert not process.finished

    def test_deadlock_detected_by_run_process(self):
        sim = Simulator()
        gate = Event("never")

        def body():
            yield Wait(gate)

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(body())

    def test_schedule_bare_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(2.0)]

    def test_negative_schedule_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_schedule_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule(float("nan"), lambda: None)
        assert len(sim._queue) == 0

    def test_until_before_now_does_not_rewind_the_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append(sim.now))
        sim.run(until=5.0)
        assert sim.now == 5.0
        with pytest.raises(SimulationError, match="clock"):
            sim.run(until=3.0)
        assert sim.now == 5.0
        sim.run(until=5.0)  # until == now is a no-op, not an error
        assert sim.now == 5.0
        sim.run()
        assert seen == [10.0]

    def test_fifo_tiebreak_with_cancelled_entries_mixed_in(self):
        sim = Simulator()
        order = []
        entries = {
            tag: sim._queue.push(1.0, lambda tag=tag: order.append(tag))
            for tag in "abcdefg"
        }
        sim._queue.push(0.5, lambda: order.append("early"))
        for tag in "bdf":
            entries[tag].cancelled = True
        sim.run()
        assert order == ["early", "a", "c", "e", "g"]
        assert sim.now == 1.0

    def test_until_with_a_cancelled_entry_at_the_head(self):
        sim = Simulator()
        seen = []
        head = sim._queue.push(1.0, lambda: seen.append("cancelled"))
        head.cancelled = True
        sim._queue.push(10.0, lambda: seen.append(sim.now))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert seen == []
        assert len(sim._queue) == 1
        sim.run()
        assert seen == [10.0]

    def test_only_cancelled_entries_left_drains_without_advancing(self):
        sim = Simulator()
        late = sim._queue.push(8.0, lambda: None)
        late.cancelled = True
        # A drained agenda leaves the clock where the last event put it;
        # only a live entry beyond ``until`` moves it to ``until``.
        assert sim.run(until=5.0) == 0.0
        assert len(sim._queue._heap) == 0

    def test_max_events_is_an_inclusive_budget(self):
        for budget, events, raises in [(3, 3, False), (3, 4, True)]:
            sim = Simulator()
            for index in range(events):
                sim.schedule(float(index), lambda: None)
            if raises:
                with pytest.raises(SimulationError, match="exceeded 3 events"):
                    sim.run(max_events=budget)
            else:
                assert sim.run(max_events=budget) == float(events - 1)

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="infinite"):
            sim.run(max_events=100)

    def test_simultaneous_processes_run_in_spawn_order(self):
        sim = Simulator()
        order = []

        def body(tag):
            order.append(tag)
            yield Timeout(0.0)

        sim.spawn(body("a"))
        sim.spawn(body("b"))
        sim.spawn(body("c"))
        sim.run()
        assert order == ["a", "b", "c"]
