"""The scripted think-act-observe loop shared by all agents.

One task executes as: for each scripted tool call — an LLM inference step
(think + action generation), then the tool call through the knowledge
engine, then observation — and finally one more inference step that emits
the answer. Inference either burns pure latency or occupies GPU compute via
the priority-aware scheduler; tool calls are the engine's business.

The loop is written once, as the sans-IO generator :func:`agent_flow`;
``run_task`` (analytic) and ``run_task_process`` (simulator) only drive it.
"""

from __future__ import annotations

from typing import Generator

from repro.agent.model import AgentLatencyModel, AgentTask, TaskResult
from repro.agent.parser import format_block
from repro.core.engine import KnowledgeEngine
from repro.core.types import Query
from repro.serving.scheduler import PriorityAwareScheduler


class ScriptedAgent:
    """Drives :class:`AgentTask` scripts through a knowledge engine.

    Parameters
    ----------
    engine:
        Any :class:`~repro.core.engine.KnowledgeEngine`.
    latency_model:
        Per-step inference cost; a default Figure-11-calibrated model is
        created when omitted.
    scheduler:
        Optional :class:`PriorityAwareScheduler`; when given, inference
        steps are submitted as agent work (full-GPU seconds) instead of
        plain timeouts, so co-location contention is real.
    record_trajectory:
        Render the tagged trajectory text (costs memory; off by default for
        large sweeps).
    answer_step:
        Whether the final answer generation costs an inference step (True;
        single-request latency studies turn it off to isolate one
        think-act-observe cycle).
    """

    #: The action tag this agent emits (``search`` / ``tool`` / ``file``).
    action_tag = "tool"
    #: Template for the think block preceding each action.
    think_template = "I need more information: {query}"

    def __init__(
        self,
        engine: KnowledgeEngine,
        latency_model: AgentLatencyModel | None = None,
        scheduler: PriorityAwareScheduler | None = None,
        record_trajectory: bool = False,
        answer_step: bool = True,
        name: str = "agent",
    ) -> None:
        self.engine = engine
        self.latency_model = latency_model or AgentLatencyModel()
        self.scheduler = scheduler
        self.record_trajectory = record_trajectory
        self.answer_step = answer_step
        self.name = name

    # -- analytic execution ------------------------------------------------
    def run_task(self, task: AgentTask, now: float = 0.0) -> TaskResult:
        """Execute ``task`` analytically starting at time ``now``."""
        flow = agent_flow(self, task, now)
        clock, reply = now, None
        while True:
            try:
                effect = flow.send(reply)
            except StopIteration as stop:
                return stop.value
            if isinstance(effect, Query):
                response = self.engine.handle(effect, clock)
                clock += response.latency
                reply = response, response.latency, clock
            else:
                clock += effect
                reply = effect, clock

    # -- discrete-event execution ------------------------------------------------
    def run_task_process(self, sim, task: AgentTask) -> Generator:
        """Execute ``task`` as a simulated process; returns a TaskResult.
        Inference is GPU-scheduled when a scheduler is attached."""
        flow = agent_flow(self, task, sim.now)
        reply = None
        while True:
            try:
                effect = flow.send(reply)
            except StopIteration as stop:
                return stop.value
            began = sim.now
            if isinstance(effect, Query):
                response = yield from self.engine.process(sim, effect)
                reply = response, sim.now - began, sim.now
            elif self.scheduler is not None:
                yield from self.scheduler.submit_agent(effect)
                reply = sim.now - began, sim.now
            else:
                yield sim.timeout(effect)
                reply = effect, sim.now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(engine={self.engine.name!r})"


def agent_flow(agent: ScriptedAgent, task: AgentTask, start: float) -> Generator:
    """One task's think-act-observe loop, started at ``start``; returns the
    :class:`TaskResult`.

    A *sans-IO* generator: it yields the seconds of one inference step to
    infer (the driver sends back ``(seconds spent, clock)``) and a
    :class:`Query` to ask the engine (``(response, seconds spent, clock)``).
    Steps are drawn from ``agent.latency_model`` as the loop reaches them.
    """
    clock = start
    inference_total = 0.0
    retrieval_total = 0.0
    hits = 0
    knowledge_correct = True
    parts: list[str] = []
    for query in task.queries:
        spent, clock = yield agent.latency_model.sample_step()
        inference_total += spent
        response, spent, clock = yield query
        retrieval_total += spent
        if response.served_from_cache:
            hits += 1
        if response.lookup.truth_match is False:
            knowledge_correct = False
        if agent.record_trajectory:
            think = agent.think_template.format(query=query.text)
            parts.append(format_block("think", think))
            parts.append(format_block(agent.action_tag, query.text))
            parts.append(format_block("info", response.result))
    if agent.answer_step:
        spent, clock = yield agent.latency_model.sample_step()
        inference_total += spent
    if agent.record_trajectory:
        parts.append(format_block("answer", task.answer or task.question))
    return TaskResult(
        task_id=task.task_id,
        latency=clock - start,
        inference_latency=inference_total,
        retrieval_latency=retrieval_total,
        steps=task.hops,
        hits=hits,
        knowledge_correct=knowledge_correct,
        trajectory="\n".join(parts),
        finished_at=clock,
    )
