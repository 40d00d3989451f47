"""Agent substrate: the think-act-observe loop at the tool boundary.

The cache only ever sees the agent's tool calls, so the agent substitute is
a *scripted* loop: each task carries the sequence of tool queries a real
Search-R1 / coding agent would emit, the loop interleaves simulated LLM
inference with engine-mediated tool calls, and the trajectory is rendered in
the paper's tag format (``<think>``, ``<search>``/``<tool>``, ``<info>``,
``<answer>`` — Figure 1b).

``parser`` round-trips that tag format; ``SearchAgent`` and ``CodeAgent``
drive tasks through any :class:`~repro.core.engine.KnowledgeEngine` either
analytically or on the discrete-event simulator (optionally occupying GPU
compute through the priority-aware scheduler).
"""

from repro.agent.model import AgentLatencyModel, AgentTask, TaskResult
from repro.agent.parser import (
    Block,
    extract_blocks,
    format_block,
)
from repro.agent.search_agent import SearchAgent
from repro.agent.code_agent import CodeAgent

__all__ = [
    "AgentLatencyModel",
    "AgentTask",
    "Block",
    "CodeAgent",
    "SearchAgent",
    "TaskResult",
    "extract_blocks",
    "format_block",
]
