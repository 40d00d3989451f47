"""Tests for the await-based single-flight layer.

No pytest-asyncio in the toolchain: each test drives its own event loop
with ``asyncio.run``.
"""

import asyncio

import pytest

from repro.serving.aio import AsyncSingleFlight


class TestAsyncSingleFlight:
    def test_sequential_calls_each_lead(self):
        async def scenario():
            flight = AsyncSingleFlight()
            for i in range(3):
                result, shared = await flight.run("k", lambda i=i: self._value(i))
                assert (result, shared) == (i, False)
            assert flight.leaders == 3
            assert flight.shared == 0
            assert flight.inflight() == 0

        asyncio.run(scenario())

    @staticmethod
    async def _value(i):
        await asyncio.sleep(0)
        return i

    def test_concurrent_same_key_shares_one_execution(self):
        async def scenario():
            flight = AsyncSingleFlight()
            gate = asyncio.Event()
            executions = []

            async def slow_fn():
                executions.append(1)
                await gate.wait()
                return "value"

            async def call():
                return await flight.run("k", slow_fn)

            tasks = [asyncio.ensure_future(call()) for _ in range(5)]
            while flight.shared < 4:
                await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(*tasks)
            assert len(executions) == 1
            assert sorted(shared for _, shared in results) == [
                False,
                True,
                True,
                True,
                True,
            ]
            assert all(result == "value" for result, _ in results)
            assert flight.leaders == 1 and flight.shared == 4
            assert flight.inflight() == 0

        asyncio.run(scenario())

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            flight = AsyncSingleFlight()
            a, shared_a = await flight.run("a", lambda: self._value(1))
            b, shared_b = await flight.run("b", lambda: self._value(2))
            assert (a, b) == (1, 2)
            assert not shared_a and not shared_b
            assert flight.leaders == 2 and flight.shared == 0

        asyncio.run(scenario())

    def test_leader_exception_propagates_to_followers(self):
        async def scenario():
            flight = AsyncSingleFlight()
            gate = asyncio.Event()

            async def failing():
                await gate.wait()
                raise RuntimeError("remote down")

            async def call():
                try:
                    await flight.run("k", failing)
                except RuntimeError as exc:
                    return str(exc)
                return None

            tasks = [asyncio.ensure_future(call()) for _ in range(3)]
            while flight.shared < 2:
                await asyncio.sleep(0)
            gate.set()
            outcomes = await asyncio.gather(*tasks)
            assert outcomes == ["remote down"] * 3
            assert flight.inflight() == 0
            # Retry after the failed flight starts fresh and succeeds.
            result, shared = await flight.run("k", lambda: self._value("ok"))
            assert (result, shared) == ("ok", False)

        asyncio.run(scenario())

    def test_cancelled_follower_does_not_break_the_flight(self):
        async def scenario():
            flight = AsyncSingleFlight()
            gate = asyncio.Event()

            async def slow_fn():
                await gate.wait()
                return "value"

            leader = asyncio.ensure_future(flight.run("k", slow_fn))
            while flight.inflight() == 0:
                await asyncio.sleep(0)
            victim = asyncio.ensure_future(flight.run("k", slow_fn))
            survivor = asyncio.ensure_future(flight.run("k", slow_fn))
            await asyncio.sleep(0)
            victim.cancel()
            with pytest.raises(asyncio.CancelledError):
                await victim
            gate.set()
            # The shared flight survives the cancelled awaiter.
            assert await leader == ("value", False)
            assert await survivor == ("value", True)

        asyncio.run(scenario())

    def test_drain_waits_for_inflight_flights(self):
        async def scenario():
            flight = AsyncSingleFlight()
            landed = []

            async def slow_fn():
                await asyncio.sleep(0.01)
                landed.append(1)
                return "done"

            task = asyncio.ensure_future(flight.run("k", slow_fn))
            while flight.inflight() == 0:
                await asyncio.sleep(0)
            await flight.drain()
            assert landed == [1]
            assert flight.inflight() == 0
            assert await task == ("done", False)

        asyncio.run(scenario())
