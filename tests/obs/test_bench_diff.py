"""Tests for the bench regression gate: the shared scenario comparator
(:func:`repro.obs.verdict.compare_scenarios`) on BENCH payloads and
``repro check --baseline``."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.registry import scenarios_from_bench
from repro.obs.verdict import BAD_VERDICTS, ModeMismatch, compare_scenarios


def _diff(base, new, **kwargs):
    """(verdicts by position, bad-verdict rows) of two BENCH payloads."""
    rows = compare_scenarios(
        scenarios_from_bench(base, []),
        scenarios_from_bench(new, []),
        modes=(base.get("mode"), new.get("mode")),
        **kwargs,
    )
    return [row["verdict"] for row in rows], [
        row for row in rows if row["verdict"] in BAD_VERDICTS
    ]


def _payload(scenarios, mode="smoke", schema="repro-bench/v2"):
    return {
        "schema": schema,
        "run_id": "r",
        "mode": mode,
        "seed": 0,
        "git_sha": "abc1234",
        "created_unix": 0,
        "date": "2026-01-01",
        "failed": sum(s.get("status") == "failed" for s in scenarios),
        "scenarios": scenarios,
    }


def _scenario(name, best_ns, status="ok", **extra):
    scenario = {
        "name": name,
        "repeats": 1,
        "status": status,
        "attempts": 1,
        "wall_ns": {"best": best_ns, "mean": best_ns * 1.1, "all": [best_ns]},
        "results": {},
        "counters": {},
        **extra,
    }
    if status != "ok":
        scenario["wall_ns"] = {"best": 0, "mean": 0.0, "all": []}
    return scenario


def _write(tmp_path, filename, payload):
    path = tmp_path / filename
    path.write_text(json.dumps(payload))
    return str(path)


BASE = _payload([_scenario("alpha", 1_000_000), _scenario("beta", 2_000_000)])


class TestDiffScenarios:
    def test_identical_payloads_no_regressions(self):
        verdicts, bad = _diff(BASE, copy.deepcopy(BASE))
        assert bad == []
        assert verdicts == ["ok", "ok"]

    def test_slowdown_beyond_tolerance_regresses(self):
        slowed = _payload(
            [_scenario("alpha", 2_000_000), _scenario("beta", 2_000_000)]
        )
        verdicts, bad = _diff(BASE, slowed, tolerance=0.25)
        assert [row["scenario"] for row in bad] == ["alpha"]
        assert verdicts[0] == "REGRESSION"

    def test_slowdown_within_tolerance_ok(self):
        slowed = _payload(
            [_scenario("alpha", 1_200_000), _scenario("beta", 2_000_000)]
        )
        _, bad = _diff(BASE, slowed, tolerance=0.25)
        assert bad == []

    def test_speedup_reported_not_regressed(self):
        faster = _payload(
            [_scenario("alpha", 100_000), _scenario("beta", 2_000_000)]
        )
        verdicts, bad = _diff(BASE, faster)
        assert bad == []
        assert verdicts[0] == "faster"

    def test_missing_scenario_is_a_regression(self):
        partial = _payload([_scenario("alpha", 1_000_000)])
        verdicts, bad = _diff(BASE, partial)
        assert [row["scenario"] for row in bad] == ["beta"]
        assert verdicts[1] == "MISSING"

    def test_new_scenario_is_informational(self):
        extended = _payload(
            [
                _scenario("alpha", 1_000_000),
                _scenario("beta", 2_000_000),
                _scenario("gamma", 500_000),
            ]
        )
        verdicts, bad = _diff(BASE, extended)
        assert bad == []
        assert verdicts == ["ok", "ok", "new"]

    def test_candidate_failure_is_a_regression(self):
        failing = _payload(
            [
                _scenario("alpha", 0, status="failed", error="MemoryFault: page 3"),
                _scenario("beta", 2_000_000),
            ]
        )
        verdicts, bad = _diff(BASE, failing)
        assert len(bad) == 1
        assert verdicts[0] == "FAILED"

    def test_baseline_failure_skipped(self):
        base = _payload(
            [
                _scenario("alpha", 0, status="failed", error="boom"),
                _scenario("beta", 2_000_000),
            ]
        )
        fresh = _payload(
            [_scenario("alpha", 9_000_000), _scenario("beta", 2_000_000)]
        )
        verdicts, bad = _diff(base, fresh)
        assert bad == []
        assert verdicts[0] == "baseline-failed"

    def test_mode_mismatch_refused(self):
        with pytest.raises(ModeMismatch, match="mode mismatch"):
            _diff(BASE, _payload([], mode="full"))

    def test_v1_payload_without_status_accepted(self):
        v1 = _payload(
            [
                {"name": "alpha", "wall_ns": {"best": 1_000_000, "mean": 1_100_000}},
                {"name": "beta", "wall_ns": {"best": 2_000_000, "mean": 2_200_000}},
            ],
            schema="repro-bench/v1",
        )
        _, bad = _diff(v1, copy.deepcopy(v1))
        assert bad == []

    def test_mean_metric_compares_mean(self):
        # mean regressed 3x, best unchanged: only the mean comparison fires.
        fresh = copy.deepcopy(BASE)
        fresh["scenarios"][0]["wall_ns"]["mean"] = 3_300_000
        _, by_best = _diff(BASE, fresh, metric="best_ns")
        _, by_mean = _diff(BASE, fresh, metric="mean_ns")
        assert by_best == []
        assert len(by_mean) == 1


class TestMain:
    def test_identical_files_exit_zero(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASE)
        assert main(["check", "--baseline", base, base]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASE)
        slowed = _write(
            tmp_path,
            "new.json",
            _payload([_scenario("alpha", 9_000_000), _scenario("beta", 2_000_000)]),
        )
        assert main(["check", "--baseline", base, slowed]) == 1
        err = capsys.readouterr().err
        assert "regression: alpha: best 9.000 ms vs baseline 1.000 ms" in err
        assert "1 regression(s)" in err

    def test_failed_and_missing_scenarios_are_reported(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASE)
        failing = _write(
            tmp_path,
            "new.json",
            _payload(
                [_scenario("alpha", 0, status="failed", error="MemoryFault: page 3")]
            ),
        )
        assert main(["check", "--baseline", base, failing]) == 1
        err = capsys.readouterr().err
        assert "alpha: ok in baseline but failed in candidate (MemoryFault" in err
        assert "beta: present in baseline but not in candidate" in err

    def test_wider_tolerance_absorbs_slowdown(self, tmp_path):
        # The gate uses the one default tolerance; a wider one is a
        # library-level choice.
        slowed_payload = _payload(
            [_scenario("alpha", 1_800_000), _scenario("beta", 2_000_000)]
        )
        base = _write(tmp_path, "base.json", BASE)
        slowed = _write(tmp_path, "new.json", slowed_payload)
        assert main(["check", "--baseline", base, slowed]) == 1
        _, bad = _diff(BASE, slowed_payload, tolerance=1.0)
        assert bad == []

    def test_unreadable_input_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = _write(tmp_path, "base.json", BASE)
        assert main(["check", "--baseline", str(bad), good]) == 2
        assert main(["check", "--baseline", good, str(bad)]) == 2
        assert main(["check", "--baseline", good, str(tmp_path / "absent")]) == 2

    def test_non_bench_payload_exits_two(self, tmp_path):
        not_bench = _write(tmp_path, "x.json", {"hello": "world"})
        good = _write(tmp_path, "base.json", BASE)
        assert main(["check", "--baseline", not_bench, good]) == 2
        assert main(["check", "--baseline", good, not_bench]) == 2

    def test_mode_mismatch_exits_two(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASE)
        full = _write(tmp_path, "full.json", dict(BASE, mode="full"))
        assert main(["check", "--baseline", base, full]) == 2
        assert "mode mismatch" in capsys.readouterr().err
