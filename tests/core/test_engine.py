"""Unit tests for the discrete-event kernel."""

import pytest

from repro.core.engine import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    event = sim.timeout(10.0)
    event.add_callback(lambda e: fired.append(sim.now))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == [10.0]


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        event = sim.timeout(1.0, label)
        event.add_callback(lambda e: order.append(e.value))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_trigger_twice_raises():
    sim = Simulator()
    event = Event(sim)
    event.trigger(1)
    with pytest.raises(SimulationError):
        event.trigger(2)


def test_callback_on_already_fired_event_runs_later():
    sim = Simulator()
    event = Event(sim)
    event.trigger("v")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == []  # deferred to the event loop
    sim.run()
    assert seen == ["v"]


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))
        return "result"

    process = sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
    assert process.triggered
    assert process.value == "result"


def test_process_receives_timeout_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, "payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def ticker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            trace.append((name, sim.now))

    sim.process(ticker("fast", 1.0))
    sim.process(ticker("slow", 1.5))
    sim.run()
    # At t=3.0 both fire; slow's timeout was scheduled earlier (at t=1.5)
    # so FIFO tie-breaking runs it first.
    assert trace == [
        ("fast", 1.0),
        ("slow", 1.5),
        ("fast", 2.0),
        ("slow", 3.0),
        ("fast", 3.0),
        ("slow", 4.5),
    ]




def test_nested_process_waits_on_subprocess():
    sim = Simulator()
    trace = []

    def child():
        yield sim.timeout(2.0)
        return "child-done"

    def parent():
        result = yield sim.process(child())
        trace.append((result, sim.now))

    sim.process(parent())
    sim.run()
    assert trace == [("child-done", 2.0)]


def test_determinism_across_runs():
    def build_and_run():
        sim = Simulator()
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append(name)

        for index in range(10):
            sim.process(proc(f"p{index}", (index * 7) % 3 + 0.5))
        sim.run()
        return log

    assert build_and_run() == build_and_run()
