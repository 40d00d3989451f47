"""Fleet deployment: many agent nodes sharing one regional semantic cache.

Extension scenario beyond the paper's single-cluster deployment: each agent
node keeps a tiny private L1 semantic cache, and all nodes in the region
share an L2 one intra-metro hop away. One node's remote fetch warms the
whole fleet; without sharing, every node pays its own cold start and
dilutes the same capacity budget.

Run:  python examples/fleet_shared_cache.py
"""

from repro.core import AsteriaConfig
from repro.factory import build_remote, build_semantic_cache, build_tiered_engine
from repro.workloads import SkewedWorkload, build_dataset

N_NODES = 4
N_QUERIES = 800
L1_CAPACITY = 8
L2_CAPACITY = 150


def run_fleet(shared: bool, dataset):
    remote = build_remote(dataset.universe, seed=3)
    nodes = []
    shared_l2 = (
        build_semantic_cache(AsteriaConfig(capacity_items=L2_CAPACITY), seed=5)
        if shared
        else None
    )
    for index in range(N_NODES):
        # NB: `shared_l2 or ...` would be wrong — an *empty* cache is falsy.
        l2 = shared_l2
        if l2 is None:
            l2 = build_semantic_cache(
                AsteriaConfig(capacity_items=L2_CAPACITY // N_NODES), seed=5
            )
        nodes.append(
            build_tiered_engine(
                remote, l2, l1_capacity=L1_CAPACITY, seed=5, name=f"node{index}"
            )
        )
    workload = SkewedWorkload(dataset, seed=2)
    now = 0.0
    for index, query in enumerate(workload.queries(N_QUERIES)):
        response = nodes[index % N_NODES].handle(query, now)
        now += response.latency + 0.05
    return remote, nodes


def main() -> None:
    dataset = build_dataset("musique", seed=1)
    print(
        f"{N_NODES} agent nodes, round-robin over {N_QUERIES} skewed queries; "
        f"L1={L1_CAPACITY} entries/node, L2 budget={L2_CAPACITY} entries total.\n"
    )
    for shared in (False, True):
        remote, nodes = run_fleet(shared, dataset)
        # A node's own hits are L1 hits; its shared tier counts the L2 hits.
        l1_hits = sum(node.metrics.hits for node in nodes)
        l2_hits = sum(node.remote.hits for node in nodes)
        hits = l1_hits + l2_hits
        total = sum(node.metrics.requests for node in nodes)
        label = "shared L2" if shared else "isolated "
        print(
            f"  {label}: fleet hit rate {hits / total:6.1%} "
            f"(L1 {l1_hits / total:5.1%} + L2 {l2_hits / total:5.1%}) | "
            f"remote calls {remote.calls:4d} | "
            f"API spend ${remote.cost_meter.api_cost:.3f}"
        )
        for node in nodes:
            print(
                f"      {node.name}: {node.metrics.requests:3d} reqs, "
                f"hit {(node.metrics.hits + node.remote.hits) / node.metrics.requests:6.1%} "
                f"(own L1 {node.metrics.hits:3d}, from L2 {node.remote.hits:3d})"
            )
    print(
        "\nThe shared tier converts one node's misses into every node's "
        "hits; the isolated fleet re-fetches the same head facts per node."
    )


if __name__ == "__main__":
    main()
