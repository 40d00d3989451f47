"""A simulated GPU with MPS-style compute partitions.

The abstraction mirrors how CUDA MPS's ``ACTIVE_THREAD_PERCENTAGE`` behaves
for serving workloads: a partition holding share *s* of the device executes
a kernel stream at roughly *s* × full-device speed. Each partition also has
a bounded number of *slots* — concurrently resident batches — standing in
for the serving framework's continuous batching. Work items are expressed in
*full-GPU seconds*: a 0.6 s inference step on an 80 % partition occupies a
slot for 0.75 s.

Busy time is tracked per partition so experiments can report utilisation and
GPU-hour costs.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class GpuPartition:
    """One MPS partition of a :class:`GpuDevice`.

    Parameters
    ----------
    sim:
        The simulator this partition runs on.
    name:
        Partition label (e.g. ``agent``, ``judger``).
    share:
        Fraction of device compute in (0, 1].
    slots:
        Concurrent batch slots (default 4).
    speed_exponent:
        Effective speed is ``share ** speed_exponent``. The default 1.0 is
        linear scaling; LLM *serving* is largely memory-bandwidth-bound, and
        MPS thread-percentage capping degrades it sublinearly, so co-location
        experiments use ~0.3 (calibrated so an 80/20 split retains ≈94 % of
        dedicated agent throughput — Table 7).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        share: float,
        slots: int = 4,
        speed_exponent: float = 1.0,
    ) -> None:
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if speed_exponent < 0:
            raise ValueError(f"speed_exponent must be >= 0, got {speed_exponent}")
        self.sim = sim
        self.name = name
        self.share = share
        self.slots = slots
        self.speed = share**speed_exponent
        self._resource = Resource(sim, capacity=slots)
        self.busy_seconds = 0.0
        self.completed = 0

    @property
    def queue_length(self) -> int:
        """Work items waiting for a slot."""
        return self._resource.queue_length

    def service_time(self, work: float) -> float:
        """Wall-clock seconds to run ``work`` full-GPU seconds here."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        return work / self.speed

    def execute(self, work: float, priority: float = 0.0) -> Generator:
        """Process-style execution: queue for a slot, run, release.

        Returns the wall-clock seconds spent executing (excluding queueing).
        """
        request = self._resource.request(priority=priority)
        yield request
        duration = self.service_time(work)
        try:
            yield self.sim.timeout(duration)
        finally:
            self._resource.release(request)
        self.busy_seconds += duration
        self.completed += 1
        return duration

    def __repr__(self) -> str:
        return (
            f"GpuPartition({self.name!r}, share={self.share}, slots={self.slots}, "
            f"queued={self.queue_length})"
        )


class GpuDevice:
    """A GPU carved into named partitions whose shares sum to <= 1.

    ``partition`` registers a new partition; :attr:`rental_gpu_seconds`
    equals the experiment wall-time — a rented GPU costs money whether busy
    or idle, which is what Table 5 charges.
    """

    def __init__(self, sim: Simulator, name: str = "gpu0") -> None:
        self.sim = sim
        self.name = name
        self._partitions: dict[str, GpuPartition] = {}
        self._created_at = sim.now

    def partition(
        self,
        name: str,
        share: float,
        slots: int = 4,
        speed_exponent: float = 1.0,
    ) -> GpuPartition:
        """Create a partition; total allocated share must stay <= 1."""
        if name in self._partitions:
            raise ValueError(f"partition {name!r} already exists on {self.name}")
        allocated = sum(p.share for p in self._partitions.values())
        if allocated + share > 1.0 + 1e-9:
            raise ValueError(
                f"cannot allocate {share:.2f}: only {1.0 - allocated:.2f} of "
                f"{self.name} remains"
            )
        part = GpuPartition(self.sim, name, share, slots, speed_exponent)
        self._partitions[name] = part
        return part

    @property
    def rental_gpu_seconds(self) -> float:
        """GPU-seconds of rental since creation (busy or not)."""
        return self.sim.now - self._created_at

    def busy_seconds(self) -> float:
        """Total compute-occupied seconds across partitions."""
        return sum(p.busy_seconds for p in self._partitions.values())

    def __repr__(self) -> str:
        return f"GpuDevice({self.name!r}, partitions={sorted(self._partitions)})"
