import dataclasses
import itertools
import json
import pickle
import random
from collections import Counter

import pytest

from ringmill import harness
from ringmill.engine import us_from
from ringmill.harness import (CellClass, CellVerdict, RunManifest, ScriptError,
                              SweepResult, SweepSpec, _cell_class,
                              _trial_seed, evaluate_cell, parse_matrix_csv,
                              reference_pattern, render_matrix,
                              run_spectrum_scenario, run_sweep)
from ringmill.plant import (FailCause, PidGains, TabulatedTrajectory, TrapezoidTrajectory,
                            TrialVerdict)
from ringmill.ring import RingConfig
from ringmill.spectrum import CoverageArea, Rejection, SpectrumManager, SpectrumRequest
from ringmill.trial import (ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, Scenario, run_trial,
                            symmetric_profiles)


def outcome(passed=True, cause="none", fe=0.1, survived=1_000_000):
    return TrialVerdict(passed, FailCause(cause), fe, survived)


def synthetic_result():
    spec = SweepSpec(latencies_ms=(0.5, 1.0), jitters_ms=(0.05, 0.2),
                     seeds_per_cell=1, trial_seconds=1.0, master_seed=7)
    cells = [
        CellVerdict(0.5, 0.05, CellClass.PASS, (outcome(),), ()),
        CellVerdict(0.5, 0.2, CellClass.PASS, (outcome(),), ()),
        CellVerdict(1.0, 0.05, CellClass.PASS_WITH_ADAPTATION,
                    # init not done when the 1 s trial ends
                    (outcome(passed=False, cause="init-failure", survived=1_000_000),),
                    (outcome(),)),
        CellVerdict(1.0, 0.2, CellClass.FAIL,
                    (outcome(passed=False, cause="init-failure"),),
                    (outcome(passed=False, cause="watchdog", fe=0.05, survived=3_456),)),
    ]
    return SweepResult(spec=spec, cells=cells)


class TestReferencePattern:
    def test_shape_and_boundaries(self):
        pattern = reference_pattern()
        assert len(pattern) == 30
        assert pattern[(0.5, 0.05)] is CellClass.PASS
        assert pattern[(3.0, 0.15)] is CellClass.PASS
        assert pattern[(0.5, 0.2)] is CellClass.PASS
        assert pattern[(1.0, 0.2)] is CellClass.PASS_WITH_ADAPTATION
        assert pattern[(3.0, 0.2)] is CellClass.PASS_WITH_ADAPTATION
        assert all(pattern[(lat, 0.3)] is CellClass.FAIL
                   for lat in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0))
        assert all(pattern[(5.0, jit)] is CellClass.FAIL
                   for jit in (0.05, 0.1, 0.15, 0.2, 0.3))


class TestClassification:
    def test_pass_cell_runs_default_only(self):
        cell = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                             0.5, 0.05, seeds_per_cell=2, trial_seconds=3.0,
                             master_seed=0)
        assert cell.cell_class is CellClass.PASS
        assert len(cell.default_outcomes) == 2
        assert cell.adapted_outcomes == ()
        assert all(o.passed for o in cell.default_outcomes)

    def test_adaptation_cell_invariants(self):
        cell = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                             2.0, 0.2, seeds_per_cell=2, trial_seconds=3.0,
                             master_seed=0)
        assert cell.cell_class is CellClass.PASS_WITH_ADAPTATION
        assert any(not o.passed for o in cell.default_outcomes)
        assert len(cell.adapted_outcomes) == 2
        assert all(o.passed for o in cell.adapted_outcomes)

    def test_fail_cell_invariants(self):
        cell = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                             5.0, 0.05, seeds_per_cell=2, trial_seconds=3.0,
                             master_seed=0)
        assert cell.cell_class is CellClass.FAIL
        assert any(not o.passed for o in cell.adapted_outcomes)

    def test_seed_count_does_not_change_a_deep_pass(self):
        # stability check by rerun: 1 seed vs 3 seeds agree on an easy cell
        one = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                            0.5, 0.05, seeds_per_cell=1, trial_seconds=2.0,
                            master_seed=3)
        three = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                              0.5, 0.05, seeds_per_cell=3, trial_seconds=2.0,
                              master_seed=3)
        assert one.cell_class is three.cell_class is CellClass.PASS

    def test_sweep_order_does_not_change_verdicts(self):
        spec = SweepSpec(latencies_ms=(0.5, 5.0), jitters_ms=(0.05, 0.3),
                         seeds_per_cell=1, trial_seconds=2.0, master_seed=1)
        severe = run_sweep(spec, DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                           order="severe-first")
        mild = run_sweep(spec, DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                         order="mild-first")
        assert severe.cells == mild.cells

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                      order="random")


class TestRender:
    def test_markdown_layout_matches_reference_table(self):
        text = render_matrix(synthetic_result(), "markdown")
        assert text == (
            "| Jitter \\ Latency (ms) | 0.5 | 1 |\n"
            "|---|---|---|\n"
            "| 0.05 | ✓ | (✓) |\n"
            "| 0.2 | ✓ | x |\n"
        )

    def test_single_cell_pass_matrix(self):
        spec = SweepSpec(latencies_ms=(1.0,), jitters_ms=(0.1,), seeds_per_cell=1,
                         trial_seconds=1.0)
        result = SweepResult(spec=spec, cells=[
            CellVerdict(1.0, 0.1, CellClass.PASS, (outcome(),), ())])
        text = render_matrix(result, "markdown")
        assert text.splitlines()[-1] == "| 0.1 | ✓ |"

    def test_csv_round_trip_is_identity(self):
        result = synthetic_result()
        parsed = parse_matrix_csv(render_matrix(result, "csv"))
        assert parsed.spec == result.spec
        assert parsed.cells == result.cells

    @pytest.mark.parametrize("latency_ms, trial_seconds", [(0.5, 1.000001), (1234.567, 1.0)],
                             ids=["trial-seconds", "latency"])
    def test_csv_round_trip_keeps_seven_digit_values(self, latency_ms, trial_seconds):
        # whole-µs values with more than six significant digits
        spec = SweepSpec(latencies_ms=(latency_ms,), jitters_ms=(0.05,), seeds_per_cell=1,
                         trial_seconds=trial_seconds)
        length_us = round(trial_seconds * 1_000_000)
        result = SweepResult(spec, [CellVerdict(latency_ms, 0.05, CellClass.PASS,
                                                (outcome(survived=length_us),), ())])
        text = render_matrix(result, "csv")
        parsed = parse_matrix_csv(text)
        assert parsed.spec == result.spec
        assert parsed.cells == result.cells
        assert render_matrix(parsed, "csv") == text

    @pytest.mark.parametrize("cls, default, adapted, message", [
        (CellClass.PASS_WITH_ADAPTATION, (outcome(passed=False, cause="watchdog", survived=5),),
         (outcome(passed=False, cause="watchdog", survived=7),), "class pass-with-adaptation"),
        (CellClass.PASS, (outcome(), outcome()), (), "2 trials for 1 seeds"),
        (CellClass.PASS, (outcome(survived=999_999),), (), "survived 999999 us of 1000000"),
        (CellClass.FAIL, (outcome(passed=False, cause="watchdog", survived=1_000_001),),
         (outcome(passed=False, cause="watchdog", survived=5),), "survived 1000001 us"),
    ], ids=["adapted-failed", "extra-trial", "pass-cut-short", "failed-past-the-end"])
    def test_csv_class_must_follow_from_the_trials(self, cls, default, adapted, message):
        spec = SweepSpec(latencies_ms=(1.0,), jitters_ms=(0.1,), seeds_per_cell=1,
                         trial_seconds=1.0)
        text = render_matrix(SweepResult(spec, [CellVerdict(1.0, 0.1, cls, default, adapted)]),
                             "csv")
        with pytest.raises(ScriptError, match=f"line 3: cell 1,0.1: .*{message}"):
            parse_matrix_csv(text)

    @pytest.mark.parametrize("seeds", [1, 2, 3])
    def test_csv_accepts_exactly_the_class_evaluate_cell_gives(self, seeds, monkeypatch):
        # every pass/fail shape of up to seeds + 1 trials per driver, each row
        # under every class
        shapes = [tuple(outcome(passed, "none" if passed else "watchdog",
                                survived=1_000_000 if passed else 5)
                        for passed in flags)
                  for n in range(seeds + 2) for flags in itertools.product((True, False),
                                                                           repeat=n)]
        spec = SweepSpec(latencies_ms=(1.0,), jitters_ms=(0.1,), seeds_per_cell=seeds,
                         trial_seconds=1.0)
        accepted = set()
        for default, adapted, cls in itertools.product(shapes, shapes, CellClass):
            text = render_matrix(
                SweepResult(spec, [CellVerdict(1.0, 0.1, cls, default, adapted)]), "csv")
            try:
                parse_matrix_csv(text)
            except ScriptError:
                assert cls is not _cell_class(default, adapted, seeds)
            else:
                assert cls is _cell_class(default, adapted, seeds)
                accepted.add((cls, default, adapted))

        # the accepted rows are the cells evaluate_cell gives for every
        # pass/fail script of its trials
        script = {}

        def scripted_trial(config, cmd, fb, trial_length_us, seed, scenario):
            passed = script[config.profile, seed]
            return TrialVerdict(passed, FailCause.NONE if passed else FailCause.WATCHDOG,
                                0.1, trial_length_us if passed else 5)

        monkeypatch.setattr(harness, "run_trial", scripted_trial)
        keys = [(config.profile, _trial_seed(0, 1.0, 0.1, i))
                for config in (DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
                for i in range(seeds)]
        evaluated = set()
        for flags in itertools.product((True, False), repeat=len(keys)):
            script = dict(zip(keys, flags))
            cell = evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG, 1.0, 0.1,
                                 seeds, 1.0, 0)
            evaluated.add((cell.cell_class, cell.default_outcomes, cell.adapted_outcomes))
        assert evaluated == accepted

    @pytest.mark.parametrize("trials", ["1|pass|none|0.1|1000000",
                                        "0|pass|none|0.1|1000000;0|pass|none|0.1|1000000"],
                             ids=["first-is-seed-1", "seed-0-twice"])
    def test_csv_trials_must_be_seeds_in_order(self, trials):
        # a trial's seed index is its position in the row
        text = ("# ringmill-matrix v1 seeds=2 trial_seconds=1 master_seed=0\n"
                "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes\n"
                f"1,0.1,pass,{trials},\n")
        with pytest.raises(ScriptError, match=r"^line 3: bad matrix row: trials are not "
                                              r"seeds 0, 1, \.\.\. in order$"):
            parse_matrix_csv(text)

    def test_csv_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("latency,jitter\n1,2\n")

    def test_structured_is_valid_ndjson(self):
        lines = render_matrix(synthetic_result(), "structured").strip().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert rows[-1]["kind"] == "sweep-summary"
        assert rows[0]["class"] == "pass"
        assert len(rows) == 5  # 4 cells + summary

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_matrix(synthetic_result(), "xml")


class TestManifest:
    def test_json_round_trip(self):
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG,
                                       ADAPTED_LOOP_CONFIG)
        again = RunManifest.from_json(manifest.to_json())
        assert again == manifest
        assert again.spec == SweepSpec()

    def test_loop_config_round_trip(self):
        # the scenario differs from the default in every field
        default = dataclasses.replace(DEFAULT_LOOP_CONFIG, gains=PidGains(38.0, 1.5, 0.1, 0.04),
                                      fe_limit_mm=0.7)
        scenario = Scenario(
            control_ring=RingConfig("control", ("master", "fpga"), 700, 90, 8, 0.0),
            trajectory=TabulatedTrajectory([(0, 0), (500, 10.5), (1000, 0)]))
        manifest = RunManifest.for_run(SweepSpec(), default, ADAPTED_LOOP_CONFIG, scenario)
        text = manifest.to_json()
        again = RunManifest.from_json(text)
        assert again == manifest and again.to_json() == text
        assert (again.default_config, again.scenario) == (default, scenario)
        assert again.scenario.trajectory.sample(250_000) == (5.25, 21.0)

    @pytest.mark.parametrize("trajectory", [TrapezoidTrajectory(),
                                            TabulatedTrajectory([(0, 0), (500, 10), (1000, 0)])])
    def test_run_values_stay_picklable_after_a_trial(self, trajectory):
        # worker processes receive them: the plant's closures must not stick to them
        run = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG,
                                  Scenario(trajectory=trajectory))
        run_trial(run.default_config, *symmetric_profiles(0.5, 0.05), 100_000,
                  scenario=run.scenario)
        assert pickle.loads(pickle.dumps(run)) == run

    def test_other_artifact_version_is_rejected(self):
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["artifact_version"] = "0.1.0"
        with pytest.raises(ValueError, match="artifact version '0.1.0'"):
            RunManifest.from_json(json.dumps(data))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_rejected(self, token):
        # a loop whose following-error limit is NaN can never fail on it
        text = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG,
                                   ADAPTED_LOOP_CONFIG).to_json()
        assert '"fe_limit_mm": 0.8,' in text
        with pytest.raises(ValueError, match=f"manifest number {token} is not finite"):
            RunManifest.from_json(text.replace('"fe_limit_mm": 0.8,',
                                               f'"fe_limit_mm": {token},', 1))

    @pytest.mark.parametrize("field, value, message", [
        ("seeds_per_cell", 0, "seeds_per_cell must be >= 1"),
        ("latencies_ms", [1.0, 0.5], "latencies axis must be strictly increasing"),
        ("jitters_ms", [], "jitters axis is empty"),
    ])
    def test_invalid_spec_is_rejected(self, field, value, message):
        # caught on loading, not when the sweep runs
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["spec"][field] = value
        with pytest.raises(ValueError, match=message):
            RunManifest.from_json(json.dumps(data))

    def test_non_integer_loop_timing_is_rejected(self):
        # a servo period of 1000.5 us would give float tick instants
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["default_config"]["servo_period_us"] = 1000.5
        with pytest.raises(ValueError, match="servo_period_us 1000.5 is not an integer"):
            RunManifest.from_json(json.dumps(data))

    def test_axis_value_that_is_not_whole_us_is_rejected(self):
        # its cell would run a 500 us link under a column headed 0.5004
        with pytest.raises(ValueError, match="latencies axis: 0.5004 ms is not a whole number of us"):
            SweepSpec(latencies_ms=(0.5004, 1.0))
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["spec"]["jitters_ms"] = [0.0502, 0.1]
        with pytest.raises(ValueError, match="jitters axis: 0.0502 ms is not a whole number of us"):
            RunManifest.from_json(json.dumps(data))

    def test_trial_length_that_is_not_whole_us_is_rejected(self):
        # 0.4 us would run an empty trial, and 2.0000004 s a 2 s one
        for seconds in (0.0000004, 2.0000004):
            with pytest.raises(ValueError, match=f"{seconds} s is not a whole number of us"):
                SweepSpec(trial_seconds=seconds)
            with pytest.raises(ValueError, match="is not a whole number of us"):
                evaluate_cell(DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG, 0.5, 0.05, 1, seconds, 0)
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["spec"]["trial_seconds"] = 2.0000004
        with pytest.raises(ValueError, match="2.0000004 s is not a whole number of us"):
            RunManifest.from_json(json.dumps(data))

    def test_whole_us_trial_lengths_convert_exactly(self):
        lengths = {2.0: 2_000_000, 0.5: 500_000, 12.0: 12_000_000, 60.0: 60_000_000,
                   1.000001: 1_000_001, 0.000001: 1}
        for seconds, us in lengths.items():
            assert us_from(seconds, "s") == us
            assert SweepSpec(trial_seconds=seconds).trial_seconds == seconds

    def test_non_integer_ring_timing_is_rejected(self):
        # a slot of 800.5 us would give float delivery instants
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["scenario"]["control_ring"]["slot_time_us"] = 800.5
        with pytest.raises(ValueError, match="slot_time_us 800.5 is not an integer"):
            RunManifest.from_json(json.dumps(data))

    def test_unrunnable_scenario_is_rejected(self):
        # a trial sends between the control ring's master and fpga nodes
        manifest = RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG)
        data = json.loads(manifest.to_json())
        data["scenario"]["control_ring"]["nodes"] = ["a", "b"]
        with pytest.raises(ValueError, match="needs nodes master and fpga"):
            RunManifest.from_json(json.dumps(data))


def tally(result):
    """How many of a script's decisions were each verdict, from the audit log."""
    return Counter(record.verdict for record in result.manager.audit_log)


class TestSpectrumScenario:
    def test_static_plan_script_saturates_the_site(self):
        script = """
        # the three-network static plan
        at 0 request underlay-control x=0 y=0 r=50 bw=20
        at 1 request underlay-sensor  x=0 y=0 r=50 bw=20
        at 2 request overlay          x=0 y=0 r=50 bw=60
        """
        result = run_spectrum_scenario(script)
        assert tally(result) == {"granted": 3}
        _, total = result.manager.occupancy_at(0, 0)
        assert total == 100.0
        assert "100 MHz" in result.occupancy_report()

    def test_two_disjoint_sites_both_get_full_band(self):
        script = ("at 0 request east x=0 y=0 r=50 bw=100\n"
                  "at 1 request west x=5000 y=0 r=50 bw=100\n")
        result = run_spectrum_scenario(script)
        assert tally(result) == {"granted": 2}

    def test_request_storm_matches_feasibility_oracle(self):
        rng = random.Random(404)
        for _ in range(50):
            lines = []
            requests = []
            for i in range(rng.randint(1, 6)):
                x = rng.choice((0, 60, 150))
                bw = rng.choice((20, 40, 60, 100))
                requests.append((CoverageArea(x, 0, 40), bw))
                lines.append(f"at {i} request r{i} x={x} y=0 r=40 bw={bw}")
            result = run_spectrum_scenario("\n".join(lines))

            # exhaustive interval-packing oracle for first-fit admission
            oracle = SpectrumManager()
            expected_granted = 0
            for area, bw in requests:
                blocks = [g.block for g in oracle.active_grants()
                          if g.area.intersects(area)]
                starts = sorted({oracle.band.low_mhz} | {b.high_mhz for b in blocks})
                feasible = any(
                    s + bw <= oracle.band.high_mhz
                    and all(not (s < b.high_mhz and b.low_mhz < s + bw) for b in blocks)
                    for s in starts)
                if feasible:
                    expected_granted += 1
                    assert not isinstance(
                        oracle.request_spectrum(SpectrumRequest("o", area, bw)),
                        Rejection)
                else:
                    assert isinstance(
                        oracle.request_spectrum(SpectrumRequest("o", area, bw)),
                        Rejection)
            assert tally(result)["granted"] == expected_granted

    def test_release_frees_for_reuse(self):
        script = ("at 0 request a x=0 y=0 r=50 bw=100\n"
                  "at 5 request b x=0 y=0 r=50 bw=100\n"
                  "at 10 release a\n"
                  "at 15 request b x=0 y=0 r=50 bw=100\n")
        result = run_spectrum_scenario(script)
        assert tally(result) == {"granted": 2, "rejected": 1, "released": 1}

    @pytest.mark.parametrize("between", ["", "at 15 request b x=500 y=0 r=10 bw=20\n"],
                             ids=["lapsed-lease-held", "lapsed-lease-purged"])
    def test_release_frees_the_oldest_grant_still_active(self, between):
        # a's first lease ends at 10: at 20 the release frees its second
        # grant, and a second release finds nothing, with or without a
        # request between that purges the lapsed lease
        script = ("at 0 request a x=0 y=0 r=10 bw=20 expires=10\n"
                  "at 1 request a x=0 y=0 r=10 bw=20\n" + between +
                  "at 20 release a\n")
        result = run_spectrum_scenario(script)
        assert tally(result)["released"] == 1
        assert [g.grant_id for g in result.manager.active_grants(20)] == (
            [3] if between else [])
        with pytest.raises(ScriptError, match="'a' holds no active grant") as err:
            run_spectrum_scenario(script + "at 21 release a\n")
        assert err.value.line_number == script.count("\n") + 1

    @pytest.mark.parametrize("line, message", [
        ("at 0 request a x=0 y=0 r=10 bw=20 expire=5", "unknown request key 'expire'"),
        ("at 0 request a x=0 y=0 r=10 bw=20 x=50", "request key 'x' given twice"),
        ("at 0 request a x=0 y=0 r=10 bw=20 expires=5 expires=50",
         "request key 'expires' given twice"),
        ("at -5 request a x=0 y=0 r=10 bw=20", "time -5 is before the script starts at 0"),
        ("at -1 release a", "time -1 is before the script starts at 0"),
    ], ids=["mistyped-key", "repeated-key", "repeated-expires", "negative-request-time",
            "negative-release-time"])
    def test_bad_request_line_is_located(self, line, message):
        with pytest.raises(ScriptError, match=f"line 2: {message}"):
            run_spectrum_scenario(f"at 0 request z x=900 y=0 r=10 bw=20\n{line}\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ScriptError) as err:
            run_spectrum_scenario("at 0 request a x=0 y=0 r=50 bw=20\nnonsense\n")
        assert err.value.line_number == 2
        with pytest.raises(ScriptError) as err:
            run_spectrum_scenario("at 0 request a x=0 y=0 bw=20\n")
        assert err.value.line_number == 1
        with pytest.raises(ScriptError) as err:
            run_spectrum_scenario("at 0 release nobody\n")
        assert err.value.line_number == 1

    def test_expiring_lease_in_script(self):
        script = ("at 0 request a x=0 y=0 r=50 bw=100 expires=1000\n"
                  "at 2000 request b x=0 y=0 r=50 bw=100\n")
        result = run_spectrum_scenario(script)
        assert tally(result)["granted"] == 2
