"""Table 2 — file access frequency for SWE-bench tasks on sqlfluff.

The paper counts how often each repository file is needed across coding
tasks: file 1 by every task (frequency 1.0), then 0.28, 0.22, ... 0.04. We
generate issues from the synthetic repository and measure the same
statistic, reporting generated-vs-paper per head file.
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, claims
from repro.workloads.swebench import (
    SWEBenchWorkload,
    TABLE2_ACCESS_FREQUENCIES,
    _HEAD_FILES,
)

QUICK = {"n_issues": 200}


def run(n_issues: int = 1000, seed: int = 0) -> ExperimentResult:
    """Empirical file-access frequencies over ``n_issues`` generated issues."""
    workload = SWEBenchWorkload(seed=seed)
    issues = workload.issues(n_issues)
    frequencies = workload.empirical_file_frequencies(issues)
    result = ExperimentResult(
        name="Table 2: SWE-bench file access frequency (sqlfluff)",
        notes="Paper frequencies: 1.0, 0.28, 0.22, 0.14, 0.10, 0.08, 0.04, 0.04, 0.04.",
    )
    for file_rank, (path, paper_freq) in enumerate(
        zip(_HEAD_FILES, TABLE2_ACCESS_FREQUENCIES), start=1
    ):
        result.add_row(
            file_id=file_rank,
            path=path.rsplit("/", 1)[-1],
            paper_freq=paper_freq,
            measured_freq=round(frequencies.get(path, 0.0), 3),
        )
    return result


@claims
def check(result: ExperimentResult):
    for row in result.rows:
        gap = abs(row["measured_freq"] - row["paper_freq"])
        yield f"file {row['file_id']}: within 0.06 of the paper", gap < 0.06
