"""Sweep runner: gating semantics and CLI plumbing (small, fast slices)."""

import re

import pytest

from repro.fuzz import run_sweep
from repro.fuzz.profiles import PROFILES
from repro.fuzz.sweep import main


class TestRunSweep:
    def test_small_sweep_is_clean_on_guarantees(self):
        summary = run_sweep(range(4), profiles=("none", "dup", "crash"), shrink_failures=False)
        assert summary.runs == 12
        assert summary.ok, [f.violations for f in summary.failures]

    def test_time_cap_stops_early(self):
        summary = run_sweep(range(1000), profiles=("none",), time_cap_s=0.0)
        assert summary.timed_out
        assert summary.runs == 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(range(1), profiles=("meteor-strike",))

    def test_reconfig_is_no_longer_a_profile(self):
        assert "reconfig" not in PROFILES
        with pytest.raises(ValueError):
            run_sweep(range(1), profiles=("reconfig",))

    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_profile_runs_clean(self, profile):
        summary = run_sweep(range(5, 7), profiles=(profile,), shrink_failures=False)
        assert summary.runs == 2
        assert summary.ok, [f.violations for f in summary.failures]


class TestCli:
    def test_cli_runs_and_reports(self, capsys):
        code = main(["--seeds", "2", "--profiles", "none,crash", "--quiet", "--no-shrink"])
        out = capsys.readouterr().out
        assert "sweep:" in out
        assert code == 0
        # Every CI leg logs its memory on the summary line.
        (summary,) = [line for line in out.splitlines() if line.startswith("sweep:")]
        assert re.search(r", peak RSS \d+ MiB$", summary), summary

    def test_explore_cli_summary_ends_with_peak_rss(self, capsys):
        from repro.fuzz.__main__ import main as fuzz_main

        assert fuzz_main(["explore", "--max-msgs", "2", "--max-groups", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        (summary,) = [line for line in out.splitlines() if line.startswith("explore:")]
        assert re.search(r", peak RSS \d+ MiB$", summary), summary

    def test_cli_replay_of_committed_regression(self, capsys):
        from pathlib import Path

        schedule = (
            Path(__file__).parents[1] / "regression" / "schedules"
            / "lost_delivery_inventory.json"
        )
        assert main(["--replay", str(schedule)]) == 0

    def test_a_committed_schedule_replays_without_its_exposure_key(self, capsys):
        from pathlib import Path

        schedule = (
            Path(__file__).parents[1] / "regression" / "schedules"
            / "single_shared_group_3cycle.json"
        )
        # Recorded while a timestamp authority ran beside the protocol; the
        # key is ignored, and a notified group acks every notifier, which
        # keeps the 3-cycle the schedule pins closed.
        assert '"exposure": "declared"' in schedule.read_text()
        assert main(["--replay", str(schedule)]) == 0

    def test_a_none_sweep_is_strict(self, tmp_path, capsys):
        # Seed 27 closed an acyclic-order cycle under the old one-ack-per-group
        # notif rule; now it is clean, so there is nothing to shrink.
        sweep = ["--seeds", "1", "--seed-base", "27", "--profiles", "none"]
        assert main(sweep + ["--out-dir", str(tmp_path), "--quiet"]) == 0
        assert "1/1 clean" in capsys.readouterr().out
        assert not list(tmp_path.glob("shrunk-*.json"))

    def test_schedule_of_a_lossy_sweep_replays_strictly(self, tmp_path, capsys):
        # Seed 276 closed a cycle under loss while a dropped envelope took its
        # history edges with it for good.  A lost envelope now stops its
        # channel: the sweep is clean, and the schedule that seed shrank to
        # replays with every property checked.
        from pathlib import Path

        sweep = ["--seeds", "1", "--seed-base", "276", "--profiles", "loss"]
        assert main(sweep + ["--out-dir", str(tmp_path), "--quiet"]) == 0
        assert "1/1 clean" in capsys.readouterr().out
        assert not list(tmp_path.glob("shrunk-*.json"))
        schedule = (
            Path(__file__).parents[1] / "regression" / "schedules"
            / "lossy_channel_cycle_276.json"
        )
        assert main(["--replay", str(schedule)]) == 0
        assert "violations=0" in capsys.readouterr().out
