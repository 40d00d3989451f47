"""Tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity_immediately(self, sim):
        resource = Resource(sim, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        sim.run()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_admits_next_waiter(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def holder(name, hold):
            request = resource.request()
            yield request
            order.append((sim.now, name))
            yield sim.timeout(hold)
            resource.release(request)

        sim.process(holder("a", 1.0))
        sim.process(holder("b", 1.0))
        sim.run()
        assert order == [(0.0, "a"), (1.0, "b")]

    def test_priority_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def holder(name, priority):
            yield sim.timeout(0.1)  # Let the blocker grab the slot first.
            request = resource.request(priority=priority)
            yield request
            order.append(name)
            resource.release(request)

        def blocker():
            request = resource.request()
            yield request
            yield sim.timeout(1.0)
            resource.release(request)

        sim.process(blocker())
        sim.process(holder("low", priority=5))
        sim.process(holder("high", priority=1))
        sim.run()
        assert order == ["high", "low"]

    def test_release_ungranted_request_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        waiting = resource.request()
        with pytest.raises(RuntimeError):
            resource.release(waiting)

    def test_cancel_removes_from_queue(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        waiting = resource.request()
        waiting.cancel()
        resource.release(held)
        sim.run()
        assert not waiting.triggered
        assert resource.request().triggered  # the released slot is free

    def test_cancel_granted_request_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        granted = resource.request()
        with pytest.raises(RuntimeError):
            granted.cancel()
