"""Workload drivers: replay query/task streams against an engine.

Analytic drivers step a local clock through sequential requests (fast, good
for policy studies); discrete-event drivers run on the simulator so
concurrency, rate limits, prefetch asynchrony, and GPU contention interact
for real. Both return enough to compute the paper's metrics.
"""

from __future__ import annotations

from typing import Sequence

from repro.agent.base import ScriptedAgent
from repro.agent.model import AgentStats, AgentTask
from repro.core.engine import EngineResponse, KnowledgeEngine
from repro.core.types import Query
from repro.sim.kernel import Simulator


def run_closed_loop(
    engine: KnowledgeEngine,
    queries: Sequence[Query],
    think_time: float = 0.0,
    start: float = 0.0,
) -> tuple[list[EngineResponse], float]:
    """Sequential analytic replay of a flat query stream.

    Each query is issued ``think_time`` seconds after the previous response.
    Returns (responses, finish_time).
    """
    if think_time < 0:
        raise ValueError("think_time must be >= 0")
    now = start
    responses = []
    for query in queries:
        response = engine.handle(query, now)
        responses.append(response)
        now += response.latency + think_time
    return responses, now


def run_task_closed_loop(
    agent: ScriptedAgent, tasks: Sequence[AgentTask], start: float = 0.0
) -> AgentStats:
    """Sequential analytic replay of agent tasks."""
    stats = AgentStats()
    now = start
    for task in tasks:
        result = agent.run_task(task, now)
        stats.add(result)
        now = result.finished_at
    return stats


def run_open_loop(
    sim: Simulator,
    engine: KnowledgeEngine,
    timed_queries: Sequence[tuple[float, Query]],
    run: bool = True,
) -> list[EngineResponse]:
    """Discrete-event replay of (arrival_time, query) pairs.

    Every arrival spawns an independent request process at its timestamp;
    contention happens inside the engine/remote. With ``run=True`` the
    simulation is driven to completion before returning.
    """
    responses: list[EngineResponse] = []

    def request(query: Query):
        response = yield from engine.process(sim, query)
        responses.append(response)

    def emitter():
        last = 0.0
        for at, query in timed_queries:
            if at < last:
                raise ValueError("timed_queries must be time-ordered")
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            sim.process(request(query), name="request")
            last = at

    sim.process(emitter(), name="arrivals")
    if run:
        sim.run()
    return responses


def run_task_concurrent(
    sim: Simulator,
    agent: ScriptedAgent,
    tasks: Sequence[AgentTask],
    concurrency: int,
    run: bool = True,
) -> AgentStats:
    """Closed-loop with ``concurrency`` parallel clients sharing a task list.

    This is the Figure 10 load model: each client immediately starts its
    next task when the previous one finishes.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    stats = AgentStats()
    queue = list(tasks)

    def worker():
        while queue:
            task = queue.pop(0)
            result = yield from agent.run_task_process(sim, task)
            stats.add(result)

    for _ in range(min(concurrency, max(1, len(queue)))):
        sim.process(worker(), name="client")
    if run:
        sim.run()
    return stats
