"""Experiment runners: one module per table/figure of the paper's evaluation.

Every module declares three things side by side: ``run(...) ->
ExperimentResult``, whose defaults are the paper-faithful scale; ``QUICK``,
the keyword arguments that shrink it without dropping a row its claims
read; and ``check(result)``, which names each of the paper's claims the
result misses. ``python -m repro list`` names them all, ``repro run NAME``
prints one table and its missed claims, and EXPERIMENTS.md records
paper-vs-measured.
"""

from repro.experiments.harness import ExperimentResult, SystemSetup, run_system_on_tasks

__all__ = ["ExperimentResult", "SystemSetup", "run_system_on_tasks"]
