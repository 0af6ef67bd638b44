"""Unit tests for the simulated clock."""

import pytest

from repro.common.clock import SimClock


def test_starts_at_zero():
    assert SimClock().now == 0.0


def test_custom_start():
    assert SimClock(5.0).now == 5.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(2.5)
    assert clock.now == 4.0


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance(-0.1)


def test_advance_to_future():
    clock = SimClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_past_is_noop():
    clock = SimClock(10.0)
    clock.advance_to(3.0)
    assert clock.now == 10.0


def test_charge_accumulates_per_resource():
    clock = SimClock()
    clock.charge("disk-a", 1.0)
    clock.charge("disk-a", 2.0)
    clock.charge("disk-b", 0.5)
    assert clock.busy_time("disk-a") == 3.0
    assert clock.busy_time("disk-b") == 0.5
    assert clock.busy_time("disk-c") == 0.0


def test_charge_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().charge("x", -1.0)


def test_charge_repeated_ends_on_the_same_float_as_a_loop():
    looped, batched = SimClock(), SimClock()
    for clock in (looped, batched):
        clock.charge("meta", 0.3)
    for _ in range(1_000):
        looped.charge("meta", 8e-6)
    batched.charge_repeated("meta", 8e-6, 1_000)
    assert batched.busy_time("meta") == looped.busy_time("meta")
    assert batched.busy_time("meta") != 0.3 + 1_000 * 8e-6  # why it loops
    batched.charge_repeated("idle", 8e-6, 0)
    assert batched.drain() == looped.drain()
    with pytest.raises(ValueError):
        batched.charge_repeated("meta", -1.0, 2)


def test_drain_advances_by_max():
    clock = SimClock()
    clock.charge("a", 3.0)
    clock.charge("b", 1.0)
    elapsed = clock.drain(["a", "b"])
    assert elapsed == 3.0
    assert clock.now == 3.0
    assert clock.busy_time("a") == 0.0


def test_drain_all_when_unspecified():
    clock = SimClock()
    clock.charge("a", 2.0)
    clock.charge("b", 5.0)
    assert clock.drain() == 5.0
    assert clock.now == 5.0


def test_drain_empty_is_zero():
    clock = SimClock()
    assert clock.drain() == 0.0
    assert clock.now == 0.0


def test_reset():
    clock = SimClock()
    clock.advance(7.0)
    clock.charge("a", 1.0)
    clock.reset()
    assert clock.now == 0.0
    assert clock.busy_time("a") == 0.0
