"""Shared experiment infrastructure.

``ExperimentResult`` is a printable table of rows (dicts); every runner
returns one. ``claims`` turns a runner's generator of ``(claim, held)``
pairs into its ``check(result) -> failed claim names``.
``run_system_on_tasks`` executes one (system, workload) configuration
end-to-end on the discrete-event simulator and extracts the paper's
metrics. ``SystemSetup`` names the three evaluated configurations and
builds them consistently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.agent.base import ScriptedAgent
from repro.agent.model import AgentStats, AgentTask
from repro.agent.search_agent import SearchAgent
from repro.core import AsteriaConfig
from repro.core.engine import KnowledgeEngine
from repro.factory import (
    build_asteria_engine,
    build_exact_engine,
    build_remote,
    build_vanilla_engine,
)
from repro.network.remote import RemoteDataService
from repro.sim.kernel import Simulator
from repro.workloads.facts import FactUniverse
from repro.workloads.replay import run_task_concurrent

#: The paper's three primary systems plus the accuracy-only ANN ablation.
SYSTEMS = ("vanilla", "exact", "asteria", "ann_only")


@dataclass
class ExperimentResult:
    """A printable experiment outcome: named rows of metric columns."""

    name: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        """Append one row of named metric columns."""
        self.rows.append(values)

    def column(self, key: str) -> list:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def filter(self, **criteria) -> list[dict]:
        """Rows matching every (column == value) criterion."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def row(self, **criteria) -> dict:
        """The first row matching ``criteria``; :class:`MissingRow` if none."""
        rows = self.filter(**criteria)
        if not rows:
            raise MissingRow(f"{self.name}: no row with {criteria}")
        return rows[0]

    def format_table(self) -> str:
        """GitHub-style markdown table of all rows."""
        if not self.rows:
            return f"## {self.name}\n(no rows)\n"
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)
        widths = {
            column: max(len(column), *(len(fmt(row.get(column, ""))) for row in self.rows))
            for column in columns
        }
        header = " | ".join(column.ljust(widths[column]) for column in columns)
        rule = "-|-".join("-" * widths[column] for column in columns)
        body = "\n".join(
            " | ".join(fmt(row.get(column, "")).ljust(widths[column]) for column in columns)
            for row in self.rows
        )
        lines = [f"## {self.name}", header, rule, body]
        if self.notes:
            lines.append(f"\n{self.notes}")
        return "\n".join(lines) + "\n"

    def print_table(self) -> None:
        """Print the markdown rendering of the table."""
        print(self.format_table())


class MissingRow(LookupError):
    """A claim reads a row the result does not have."""


def claims(
    body: Callable[[ExperimentResult], Iterator[tuple[str, bool]]],
) -> Callable[[ExperimentResult], list[str]]:
    """``check(result)``: the names of the claims ``body`` yields as not held.

    ``body`` yields ``(claim, held)`` pairs. A row it reads but the result
    lacks is one failed claim, named for the row, and ends the check: the
    claims after it read that row too.
    """

    @functools.wraps(body)
    def check(result: ExperimentResult) -> list[str]:
        failed = []
        try:
            for claim, held in body(result):
                if not held:
                    failed.append(claim)
        except MissingRow as missing:
            failed.append(str(missing))
        return failed

    return check


@dataclass
class SystemSetup:
    """How to build one evaluated system for a given workload.

    Parameters mirror §6.1: a shared remote-service shape per workload and a
    per-system engine configuration.
    """

    system: str
    capacity_items: int | None
    seed: int = 0
    tau_sim: float | None = None
    tau_lsm: float | None = None
    policy: str = "lcfu"
    prefetch: bool = False
    recalibration: bool = False
    recalibration_interval: float = 60.0
    default_ttl: float | None = 3600.0

    def build_engine(self, remote: RemoteDataService) -> KnowledgeEngine:
        """Instantiate the engine this setup describes."""
        if self.system == "vanilla":
            return build_vanilla_engine(remote)
        if self.system == "exact":
            return build_exact_engine(
                remote, capacity_items=self.capacity_items, default_ttl=self.default_ttl
            )
        if self.system in ("asteria", "ann_only"):
            config = AsteriaConfig(
                capacity_items=self.capacity_items,
                default_ttl=self.default_ttl,
                match="ann_only" if self.system == "ann_only" else "semantic",
                prefetch_enabled=self.prefetch,
                recalibration_enabled=self.recalibration,
                recalibration_interval=self.recalibration_interval,
            )
            if self.tau_sim is not None:
                config.tau_sim = self.tau_sim
            if self.tau_lsm is not None:
                config.tau_lsm = self.tau_lsm
            return build_asteria_engine(
                remote, config, seed=self.seed, policy=self.policy, name=self.system
            )
        raise ValueError(f"unknown system {self.system!r}; known: {SYSTEMS}")


@dataclass
class RunOutcome:
    """Everything measured from one simulated run."""

    system: str
    engine: KnowledgeEngine
    remote: RemoteDataService
    stats: AgentStats
    horizon: float

    @property
    def throughput(self) -> float:
        return self.stats.throughput(self.horizon) if self.horizon > 0 else 0.0

    def metrics_row(self, **extra) -> dict:
        """The standard metric columns the paper reports."""
        return {
            "system": self.system,
            "throughput_rps": round(self.throughput, 4),
            "hit_rate": round(self.engine.metrics.hit_rate, 4),
            "mean_latency_s": round(self.stats.mean_latency, 4),
            "p99_latency_s": round(self.stats.percentile_latency(99), 4),
            "api_calls": self.remote.calls,
            "retry_ratio": round(self.remote.retry_ratio, 4),
            "api_cost_usd": round(self.remote.cost_meter.api_cost, 4),
            **extra,
        }


def run_system_on_tasks(
    setup: SystemSetup,
    tasks: Sequence[AgentTask],
    universe: FactUniverse,
    concurrency: int = 8,
    rate_limit_per_minute: int | None = 100,
    remote_latency: "float | dict | None" = None,
    cost_per_call: float = 0.005,
    agent_factory: Callable[[KnowledgeEngine], ScriptedAgent] | None = None,
) -> RunOutcome:
    """Run one system over ``tasks`` on a fresh simulator.

    ``concurrency`` closed-loop clients share the task list (the paper's
    load model); the remote service resolves against ``universe`` and is
    throttled at ``rate_limit_per_minute`` unless None.
    """
    sim = Simulator()
    remote = build_remote(
        universe,
        latency=remote_latency,
        rate_limit_per_minute=rate_limit_per_minute,
        cost_per_call=cost_per_call,
        seed=setup.seed,
    )
    engine = setup.build_engine(remote)
    if agent_factory is None:
        # The paper accounts one LLM generation per retrieval (Figure 11:
        # a request is 0.6 s inference + retrieval), so the final answer is
        # folded into the last loop generation rather than charged extra.
        agent = SearchAgent(engine, answer_step=False)
    else:
        agent = agent_factory(engine)
    stats = run_task_concurrent(sim, agent, list(tasks), concurrency=concurrency)
    return RunOutcome(
        system=setup.system,
        engine=engine,
        remote=remote,
        stats=stats,
        horizon=sim.now,
    )
