"""Discrete-event simulation kernel.

This package provides the virtual-time substrate used by every experiment in
the reproduction: a deterministic event-driven simulator with cooperative
processes (Python generators), counted resources with priority queueing, and
seeded random-variate distributions.

All latency, throughput, and cost numbers in the benchmarks are measured in
*simulated* seconds on this kernel, which makes the experiments fast,
deterministic, and independent of the host machine.

Public classes
--------------
``Simulator``
    The event loop: schedules callbacks and drives processes.
``Timeout``, ``Event``
    Awaitable primitives yielded by process generators.
``Resource``
    A counted resource with FIFO or priority admission.
``Distribution`` and its concrete subclasses
    Seedable random variates for service and network latencies.
"""

from repro.sim.clock import SimClock
from repro.sim.distributions import (
    Constant,
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    TruncatedNormal,
    Uniform,
    distribution_from_spec,
)
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Resource

__all__ = [
    "Constant",
    "Distribution",
    "Empirical",
    "Event",
    "Exponential",
    "LogNormal",
    "Process",
    "Resource",
    "SimClock",
    "Simulator",
    "Timeout",
    "TruncatedNormal",
    "Uniform",
    "distribution_from_spec",
]
