"""Table 5 — cost and performance across deployment configurations.

Three configurations under peak Musique load:

* **Agent_vanilla** — one GPU, every request pays the search API.
* **Asteria w/o Sharing** — caching, but the judger gets its own second GPU
  (double GPU rent).
* **Asteria** — co-located judger on the same GPU via MPS 80/20.

The paper's accounting (total costs $82.5 / $158.5 / $76.64; throughput
0.87 / 4.74 / 4.89 req/s; ~6× throughput per dollar for Asteria) combines:

* **API fees for a fixed benchmark workload** — the ~1300-task stream of
  Figure 12 at $5/1k calls (vanilla pays for every task: $6.5);
* **GPU rental for a fixed serving window** — $76 per GPU (~51 H100-hours
  at $1.49/h), doubled for the dedicated-judger configuration.

We measure each configuration's per-task API call rate and throughput on
the simulator, then apply the same accounting.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, claims
from repro.experiments.table7_colocation import run_serving_experiment
from repro.network.cost import PRICE_H100_PER_HOUR

#: The paper's fixed workload size (Figure 12 / Table 5).
NOMINAL_TASKS = 1300
#: GPU rental hours per device implied by the paper's $76/GPU line item.
ACCOUNTING_HOURS = 51.0
QUICK: dict = {}


def run(
    dataset_name: str = "musique",
    cache_ratio: float = 0.6,
    n_tasks: int = 400,
    concurrency: int = 8,
    rate_limit_per_minute: int = 100,
    seed: int = 0,
) -> ExperimentResult:
    """One row per configuration with API/GPU/total cost and thpt/$."""
    result = ExperimentResult(
        name="Table 5: cost and performance across configurations",
        notes=(
            "Paper: vanilla $82.5 @ 0.87 req/s; w/o sharing $158.5 @ 4.74; "
            "Asteria $76.64 @ 4.89 -> ~6x throughput per dollar."
        ),
    )
    configurations = (
        ("vanilla", "vanilla"),
        ("asteria_wo_sharing", "dedicated"),
        ("asteria", "colocated"),
    )
    for label, serving_mode in configurations:
        outcome = run_serving_experiment(
            serving_mode=serving_mode,
            dataset_name=dataset_name,
            cache_ratio=cache_ratio,
            n_tasks=n_tasks,
            concurrency=concurrency,
            rate_limit_per_minute=rate_limit_per_minute,
            seed=seed,
        )
        calls_per_task = outcome["api_calls"] / n_tasks
        api_cost = calls_per_task * NOMINAL_TASKS * 0.005
        gpu_cost = outcome["gpus"] * ACCOUNTING_HOURS * PRICE_H100_PER_HOUR
        total = gpu_cost + api_cost
        result.add_row(
            configuration=label,
            api_cost_usd=round(api_cost, 2),
            gpu_cost_usd=round(gpu_cost, 2),
            total_cost_usd=round(total, 2),
            throughput_rps=round(outcome["throughput_rps"], 3),
            thpt_per_dollar=round(
                outcome["throughput_rps"] / total if total > 0 else 0.0, 5
            ),
            hit_rate=round(outcome["hit_rate"], 3),
        )
    return result


@claims
def check(result: ExperimentResult):
    vanilla, shared_not, asteria = (
        result.row(configuration=label)
        for label in ("vanilla", "asteria_wo_sharing", "asteria")
    )
    cost, fees, tput, per_dollar = (
        "total_cost_usd", "api_cost_usd", "throughput_rps", "thpt_per_dollar"
    )
    yield "vanilla total $82.5 +- 5", abs(vanilla[cost] - 82.5) < 5.0
    yield "w/o sharing total $158.5 +- 10", abs(shared_not[cost] - 158.5) < 10.0
    yield "asteria total $76.64 +- 5", abs(asteria[cost] - 76.64) < 5.0
    yield "API fees < 0.2x vanilla", asteria[fees] < 0.2 * vanilla[fees]
    yield "co-location keeps > 0.9x throughput", asteria[tput] > 0.9 * shared_not[tput]
    yield "thpt/$ > 4.5x vanilla", asteria[per_dollar] > 4.5 * vanilla[per_dollar]
    yield "thpt/$ > w/o sharing", asteria[per_dollar] > shared_not[per_dollar]
