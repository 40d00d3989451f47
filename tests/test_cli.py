"""Tests for the experiment CLI."""

import pytest

from repro.cli import EXPERIMENTS, _parse_overrides, main


class TestParseOverrides:
    def test_literals(self):
        overrides = _parse_overrides(["n_tasks=300", "cache_ratio=0.4"])
        assert overrides == {"n_tasks": 300, "cache_ratio": 0.4}

    def test_tuples_and_strings(self):
        overrides = _parse_overrides(
            ['dataset_names=("musique",)', "dataset_name=musique"]
        )
        assert overrides["dataset_names"] == ("musique",)
        assert overrides["dataset_name"] == "musique"

    def test_missing_equals_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides(["oops"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_with_overrides(self, capsys):
        # One window only: the table prints, and the 7-day claims miss their row.
        code = main(
            ["run", "fig2", "--set", 'window_draws=(("24h", 1000),)',
             "--set", "n_topics=100"]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "FAILED CLAIM [fig2]" in output and "'7d'" in output

    def test_run_drift_quick(self, capsys):
        # 100 tasks a phase is too few for drift to cost precision.
        code = main(["run", "drift", "--set", "phase_tasks=100"])
        assert code == 1
        output = capsys.readouterr().out
        assert "drift" in output.lower()
        assert "FAILED CLAIM [drift]: drift costs precision without" in output

    def test_run_all_exits_1_when_any_experiment_misses_a_claim(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        fig1c = EXPERIMENTS["fig1c"]
        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig1c": fig1c})
        assert main(["run-all", "--quick"]) == 0
        broken = fig1c._replace(check=lambda result: ["a claim"])
        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig1c": fig1c, "broken": broken})
        assert main(["run-all", "--quick"]) == 1
        output = capsys.readouterr().out
        assert "FAILED CLAIM [broken]: a claim" in output
        assert "1 of 2 experiments missed a claim: broken" in output


#: Flags nothing passed, deleted: each value is now a constant at its one
#: use, or its parameter is gone from the layers below.
DELETED_FLAGS = [
    ("stress", "--fault-rate 0.3"),
    ("stress", "--population 256"),
    ("stress", "--zipf-s 1.3"),
    ("stress", "--snapshot-interval 0.1"),
    ("stress", "--kill-shard 0"),
    ("stress", "--no-stale"),
    ("stress", "--judge-spin 0.001"),
    ("serve", "--slo-interval 1.0"),
    ("serve", "--judge-spin 0.001"),
    ("replicate", "--population 64"),
    ("replicate", "--zipf-s 1.3"),
    ("replicate", "--node-id A"),
    ("replicate", "--sync-interval 0.5"),
    ("replicate", "--latency-ab 0.08"),
    ("replicate", "--latency-ba 0.12"),
    ("slo", "--served-threshold 0.99"),
    ("slo", "--stale-threshold 0.2"),
    ("slo", "--fast-window 300"),
    ("slo", "--slow-window 3600"),
]


@pytest.mark.parametrize(
    "command, passed",
    DELETED_FLAGS,
    ids=[f"{command}{passed.split()[0]}" for command, passed in DELETED_FLAGS],
)
def test_deleted_flag_is_refused(capsys, command, passed):
    flag = passed.split()[0]
    required = ["--series", "series.json"] if command == "slo" else []
    with pytest.raises(SystemExit) as exit_:
        main([command, *required, *passed.split()])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestRegistry:
    def test_registry_covers_all_paper_artefacts(self):
        for artefact in (
            "fig1c", "fig2", "fig3", "table2", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "table4", "table5", "fig13",
            "table6", "table7",
        ):
            assert artefact in EXPERIMENTS
