"""Fleet-scale extension: per-node L1 + shared regional L2.

Not a paper artefact — the natural deployment the paper's cross-region
framing and multi-cloud related work (Macaron, EVCache) point to. N agent
nodes round-robin one skewed workload; with a shared L2 a single node's
remote fetch warms the entire fleet, so the fleet hit rate stays flat as
nodes are added, while isolated nodes dilute their private caches.
"""

from __future__ import annotations

from repro.core import AsteriaConfig
from repro.factory import build_remote, build_semantic_cache, build_tiered_engine
from repro.experiments.harness import ExperimentResult, claims
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload

DEFAULT_NODE_COUNTS = (1, 2, 4, 8)
QUICK = {"n_queries": 400}


def run(
    dataset_name: str = "musique",
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    l1_capacity: int = 8,
    l2_capacity: int = 150,
    n_queries: int = 1200,
    seed: int = 0,
) -> ExperimentResult:
    """One row per (node count, sharing mode)."""
    result = ExperimentResult(
        name="Tiered fleet: shared L2 vs isolated nodes",
        notes=(
            "Shared tier keeps the fleet hit rate flat as nodes scale; "
            "isolated nodes pay one cold start per node."
        ),
    )
    dataset = build_dataset(dataset_name, seed=seed)
    for n_nodes in node_counts:
        for shared in (False, True):
            remote = build_remote(dataset.universe, seed=seed)
            nodes = []
            shared_l2 = (
                build_semantic_cache(
                    AsteriaConfig(capacity_items=l2_capacity), seed=seed + 5
                )
                if shared
                else None
            )
            for index in range(n_nodes):
                l2 = shared_l2
                if l2 is None:
                    # Isolated: same total L2 budget, split across nodes.
                    per_node = max(1, l2_capacity // n_nodes)
                    l2 = build_semantic_cache(
                        AsteriaConfig(capacity_items=per_node), seed=seed + 5
                    )
                nodes.append(
                    build_tiered_engine(
                        remote,
                        l2,
                        l1_capacity=l1_capacity,
                        seed=seed + 5,
                        name=f"node{index}",
                    )
                )
            workload = SkewedWorkload(dataset, seed=seed + 1)
            now = 0.0
            latencies = []
            for index, query in enumerate(workload.queries(n_queries)):
                response = nodes[index % n_nodes].handle(query, now)
                latencies.append(response.latency)
                now += response.latency + 0.05
            # A node counts an L2 hit as a fetch: its shared tier counts it.
            l2_hits = sum(node.remote.hits for node in nodes)
            hits = sum(node.metrics.hits for node in nodes) + l2_hits
            total = sum(node.metrics.requests for node in nodes)
            result.add_row(
                nodes=n_nodes,
                l2="shared" if shared else "isolated",
                fleet_hit_rate=round(hits / total, 4),
                l2_hit_share=round(l2_hits / total, 4),
                remote_calls=remote.calls,
                mean_latency_s=round(sum(latencies) / len(latencies), 4),
            )
    return result


@claims
def check(result: ExperimentResult):
    def fleet(nodes: int, l2: str) -> dict:
        return result.row(nodes=nodes, l2=l2)

    hits, calls = "fleet_hit_rate", "remote_calls"
    for nodes in (2, 4, 8):
        shared, isolated = fleet(nodes, "shared"), fleet(nodes, "isolated")
        yield f"{nodes} nodes: shared L2 hits more", shared[hits] > isolated[hits]
        yield f"{nodes} nodes: shared L2 calls less", shared[calls] < isolated[calls]
    shared_8 = fleet(8, "shared")[hits]
    yield "shared: flat from 1 to 8 nodes", shared_8 > fleet(1, "shared")[hits] - 0.05
    yield "isolated: 0.1 lower at 8 nodes", shared_8 > fleet(8, "isolated")[hits] + 0.1
