import enum
import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from ringmill.channel import ChannelConfigError, ChannelProfile
from ringmill.cli import main
from ringmill.config import ConfigError, load_config
from ringmill.engine import CausalityError, In, Simulator, component_rng, derive_seed, hold
from ringmill.harness import RunManifest, SweepSpec
from ringmill.plant import (AxisModel, FailCause, PidGains, Profile, TabulatedTrajectory,
                            TrapezoidTrajectory, TrialVerdict)
from ringmill.ring import RingConfig, RingConfigError
from ringmill.spectrum import Band, CoverageArea, SpectrumBlock, SpectrumError, SpectrumRequest
from ringmill.trial import (ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO,
                            NOMINAL_GAINS, Scenario)


def collect(sim, log):
    def make(tag):
        return lambda: log.append((sim.now, tag))
    return make


class TestSchedule:
    def test_schedule_at_current_time_fires_first(self):
        sim = Simulator()
        log = []
        sim.schedule(0, lambda: log.append("now"))
        sim.schedule(5, lambda: log.append("later"))
        sim.run_until(10)
        assert log == ["now", "later"]

    def test_scheduling_in_the_past_is_a_causality_error(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        sim.run_until(1000)
        with pytest.raises(CausalityError):
            sim.schedule(999, lambda: None)

    def test_equal_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(500, lambda: log.append("A"))
        sim.schedule(500, lambda: log.append("B"))
        sim.run_until(500)
        assert log == ["A", "B"]


class TestRunUntil:
    def test_empty_queue_terminates_at_t_end(self):
        summary = Simulator().run_until(1_000_000)
        assert summary.events_processed == 0
        assert summary.clock == 1_000_000

    def test_boundary_is_inclusive(self):
        sim = Simulator()
        log = []
        for t in (1, 2, 3):
            sim.schedule(t, collect(sim, log)(t))
        summary = sim.run_until(2)
        assert [t for t, _ in log] == [1, 2]
        assert summary.events_processed == 2
        assert summary.clock == 2

    def test_one_hour_trial_clock(self):
        one_hour_us = 3_600 * 1_000_000
        summary = Simulator().run_until(one_hour_us)
        assert summary.clock == one_hour_us

    def test_events_created_while_running_are_processed(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 5:
                sim.schedule(sim.now + 1, chain)

        sim.schedule(0, chain)
        sim.run_until(100)
        assert log == [0, 1, 2, 3, 4, 5]


@st.composite
def event_batches(draw):
    times = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                          min_size=1, max_size=40))
    return times


class TestDeterminismProperties:
    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_identical_runs_produce_identical_trace_logs(self, times):
        def run():
            fired = []
            sim = Simulator()
            for i, t in enumerate(times):
                sim.schedule(t, lambda i=i: fired.append((sim.now, i)))
            sim.run_until(20_000)
            return fired

        assert run() == run()

    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_processing_order_is_causal(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule(t, collect(sim, fired)(t))
        sim.run_until(20_000)
        assert [t for t, _ in fired] == sorted(times)

    @given(st.permutations(list(range(12))))
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_of_distinct_times_never_matters(self, order):
        sim = Simulator()
        fired = []
        for t in order:
            sim.schedule(t * 7, collect(sim, fired)(t * 7))
        sim.run_until(1_000)
        assert [t for t, _ in fired] == sorted(t * 7 for t in order)


class TestRng:
    def test_same_stream_same_draws(self):
        a = component_rng(42, "jitter")
        b = component_rng(42, "jitter")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_streams_are_independent(self):
        a = component_rng(42, "jitter")
        b = component_rng(42, "loss")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_component_rng_matches_stream(self):
        assert component_rng(7, "chan", "cmd").random() == \
            component_rng(7, "chan", "cmd").random()

    def test_derive_seed_is_frozen(self):
        # pinned so an accidental change to the mixing breaks loudly
        assert derive_seed(0) == 8911345218238399542
        assert derive_seed(1, "trial", 500) == derive_seed(1, "trial", 500)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    @pytest.mark.parametrize("part", [1.5, 1.0, True, None, b"a"])
    def test_derive_seed_refuses_a_part_that_is_no_str_or_int(self, part):
        # 1.5 and True folded as 1
        with pytest.raises(ValueError, match=f"^seed part {re.escape(repr(part))} is neither "
                                             "a string nor an integer$"):
            derive_seed(1, "trial", part)



# ---------------------------------------------------------------------------
# The type rule: every configured value is checked and held in one form.

TABLE_POINTS = [(0, 0), (500, 10), (1000, 0)]  # a list of tuples, as callers write it
TABULATED = Scenario(trajectory=TabulatedTrajectory(TABLE_POINTS))

#: (a valid instance, the error its class raises, where a manifest holds it or
#: None, and the scenario of that manifest) for every class the rule covers
CHECKED = [
    (ChannelProfile(500, 50), ChannelConfigError, "scenario.command_channel", DEFAULT_SCENARIO),
    (DEFAULT_SCENARIO.control_ring, RingConfigError, "scenario.control_ring", DEFAULT_SCENARIO),
    (NOMINAL_GAINS, ValueError, "default_config.gains", DEFAULT_SCENARIO),
    (TrapezoidTrajectory(), ValueError, "scenario.trajectory", DEFAULT_SCENARIO),
    (TABULATED.trajectory, ValueError, "scenario.trajectory", TABULATED),
    (DEFAULT_LOOP_CONFIG, ValueError, "default_config", DEFAULT_SCENARIO),
    (TrialVerdict(True, FailCause.NONE, 0.1, 1_000_000), ValueError, None, None),
    (DEFAULT_SCENARIO, ValueError, "scenario", DEFAULT_SCENARIO),
    (SweepSpec(), ValueError, "spec", DEFAULT_SCENARIO),
    (RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG), ValueError, "",
     DEFAULT_SCENARIO),
    (SpectrumBlock(3_700_000, 3_710_000), SpectrumError, None, None),
    (Band(), SpectrumError, None, None),
    (CoverageArea(0.0, 0.0, 10.0), SpectrumError, None, None),
    (SpectrumRequest("a", CoverageArea(0.0, 0.0, 10.0), 5.0), SpectrumError, None, None),
    (AxisModel(), ValueError, None, None),
]


def wrong_values(hint) -> list:
    """A value of each wrong kind for a field of this annotation."""
    if hint is float:
        return [True, "1"]  # a bool and a str for a number
    if hint is int:
        return [True, 1.5, "1"]  # and a float for an int
    if hint is bool:
        return [1, "true"]
    if hint is str:
        return [1]
    if get_origin(hint) is tuple:
        return ["ab"]  # a str for a tuple, which read as nodes "a" and "b"
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return [next(iter(hint)).value]  # a plain str for an enum
    return [None]  # for a nested value: a dataclass, a union of them, a dict


TYPE_CASES = [(instance, error, path, scenario, f.name, value)
              for instance, error, path, scenario in CHECKED
              for f in fields(instance)
              for value in wrong_values(get_type_hints(type(instance))[f.name])]


class TestTypeRule:
    @pytest.mark.parametrize(
        "instance, error, path, scenario, field, value", TYPE_CASES,
        ids=[f"{type(c[0]).__name__}.{c[4]}={c[5]!r}" for c in TYPE_CASES])
    def test_a_value_of_a_wrong_kind_is_refused_by_its_class_and_its_manifest(
            self, instance, error, path, scenario, field, value):
        with pytest.raises(error) as refused:
            replace(instance, **{field: value})
        assert type(refused.value) is error
        assert str(refused.value).startswith(f"{field} {value!r} is not ")
        # a manifest holds an enum by its value, and checks its version before any key
        if (path is None or field == "artifact_version"
                or isinstance(value, str) and isinstance(getattr(instance, field), enum.Enum)):
            return
        data = json.loads(RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG,
                                              ADAPTED_LOOP_CONFIG, scenario).to_json())
        values = data
        for key in filter(None, path.split(".")):
            values = values[key]
        values[field] = value
        key_path = f"{path}.{field}" if path else field
        with pytest.raises(ValueError, match=re.escape(f"manifest key {key_path!r}")):
            RunManifest.from_json(json.dumps(data))

    @pytest.mark.parametrize("make, error, field", [
        (lambda: replace(DEFAULT_LOOP_CONFIG, gains=None), ValueError, "gains"),
        (lambda: replace(DEFAULT_LOOP_CONFIG, profile="default"), ValueError, "profile"),
        (lambda: RingConfig("r", "ab", 800, 100), RingConfigError, "nodes"),
        (lambda: Scenario(trajectory=None), ValueError, "trajectory"),
        (lambda: RunManifest.for_run(None, DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG),
         ValueError, "spec"),
        (lambda: TrialVerdict(True, FailCause.NONE, 0.1, 1.5), ValueError, "survived_us"),
        (lambda: Band("3700", "3800"), SpectrumError, "low_khz"),
        (lambda: PidGains(kp="1"), ValueError, "kp"),
        (lambda: TrapezoidTrajectory(amplitude_mm="20"), ValueError, "amplitude_mm"),
        (lambda: replace(DEFAULT_LOOP_CONFIG, fe_limit_mm="1"), ValueError, "fe_limit_mm"),
        (lambda: CoverageArea("1", 0.0, 1.0), SpectrumError, "x"),
        (lambda: CoverageArea(True, 0.0, 1.0), SpectrumError, "x"),
        (lambda: SpectrumRequest("a", None, 5.0), SpectrumError, "area"),
        (lambda: Scenario(control_ring=None), ValueError, "control_ring"),
    ], ids=["gains-none", "profile-str", "nodes-str", "trajectory-none", "spec-none",
            "survived-float", "band-str", "kp-str", "amplitude-str", "fe-limit-str",
            "area-str", "area-bool", "request-area-none", "control-ring-none"])
    def test_a_value_once_accepted_or_refused_by_another_error_is_refused(self, make, error,
                                                                         field):
        # each was accepted, or raised a TypeError or an AttributeError
        with pytest.raises(error) as refused:
            make()
        assert type(refused.value) is error
        assert str(refused.value).startswith(f"{field} ")

    def test_a_list_is_held_as_a_tuple(self):
        # a list axis was held as a list, which no tuple equals
        assert SweepSpec(latencies_ms=[0.5, 1]).latencies_ms == (0.5, 1.0)
        assert type(SweepSpec(latencies_ms=[0.5, 1]).latencies_ms) is tuple
        assert RingConfig("r", ["a", "b"], 800, 100).nodes == ("a", "b")
        assert TabulatedTrajectory(TABLE_POINTS).points == ((0.0, 0.0), (500.0, 10.0),
                                                            (1000.0, 0.0))

    @pytest.mark.parametrize("value", [20, Fraction(20), 20.0], ids=["int", "fraction", "float"])
    def test_a_real_number_is_held_as_a_plain_float(self, value):
        held = hold(value, float, "x")
        assert held == 20.0 and type(held) is float
        assert type(hold((value, value), tuple[float, float], "x")[1]) is float

    @pytest.mark.parametrize("value, hint, message", [
        (True, float, "x True is not a number"),
        (10 ** 400, float, "x 1" + "0" * 400 + " is not a number"),  # too large for a float
        (Profile.DEFAULT, str, "x <Profile.DEFAULT: 'default'> is not a string"),
        (1, bool, "x 1 is not a boolean"),
        ((1.0,), tuple[float, float], "x (1.0,) is not a tuple of 2"),
        ([1.0, True], tuple[float, ...], "x[1] True is not a number"),
        ([(0.0, 1.0), (0.0,)], tuple[tuple[float, float], ...],
         "x[1] (0.0,) is not a tuple of 2"),
        (None, PidGains, "x None is not a PidGains"),
        (None, TrapezoidTrajectory | TabulatedTrajectory,
         "x None is not a TrapezoidTrajectory or a TabulatedTrajectory"),
    ])
    def test_hold_names_the_value_and_its_kind(self, value, hint, message):
        with pytest.raises(ValueError) as refused:
            hold(value, hint, "x")
        assert str(refused.value) == message

    def test_hold_takes_a_member_of_a_union_or_a_subclass(self):
        assert hold(Band(), SpectrumBlock, "x") == Band()
        traj = TabulatedTrajectory(TABLE_POINTS)
        assert hold(traj, TrapezoidTrajectory | TabulatedTrajectory, "x") is traj
        assert hold(Profile.ADAPTED, Profile, "x") is Profile.ADAPTED


# ---------------------------------------------------------------------------
# The range rule: a number field's range is part of its annotation, and a value
# of its kind out of that range is refused in one wording, at its manifest key
# path or its INI key's line.

#: the INI section that sets the fields a manifest holds at a path, where one does
INI_SECTIONS = {"spec": "sweep", "default_config": "loop.default",
                "default_config.gains": "gains.default", "scenario.control_ring": "ring.control",
                "scenario.command_channel": "channel.command",
                "scenario.trajectory": "trajectory"}
#: the INI keys that set a µs field in ms
MS_KEYS = {"mean_delay_us": "mean_delay_ms", "jitter_us": "jitter_ms"}
KIND_WORDS = {float: "a number", int: "an integer"}


def ranges(cls) -> dict[str, tuple[type, In]]:
    """Each field of `cls` that has a range, with its kind and range."""
    return {name: get_args(hint)
            for name, hint in get_type_hints(cls, include_extras=True).items()
            if get_origin(hint) is Annotated}


def ends(interval: In) -> list[tuple[float, float, bool]]:
    """(the end, the direction away from the range, whether it is open) per end."""
    return [(interval.low, -math.inf, interval.open_low),
            (interval.high, math.inf, interval.open_high)]


def outside(kind: type, interval: In) -> list:
    """A value of `kind` just outside each finite end of `interval`, the end itself
    where it is open; for a float, an infinite end that is open, and NaN."""
    values = []
    for end, away, is_open in ends(interval):
        if not math.isfinite(end):
            values += [end] if kind is float and is_open else []
        elif is_open:
            values.append(kind(end))
        else:
            values.append(int(end) + (1 if away > 0 else -1) if kind is int
                          else math.nextafter(end, away))
    return values + ([math.nan] if kind is float else [])


RANGE_CASES = [(instance, error, path, scenario, name, kind, interval, value)
               for instance, error, path, scenario in CHECKED
               for name, (kind, interval) in ranges(type(instance)).items()
               for value in outside(kind, interval)]

CLOSED_ENDS = [(instance, name, kind(end))
               for instance, _, _, _ in CHECKED
               for name, (kind, interval) in ranges(type(instance)).items()
               for end, _, is_open in ends(interval) if not is_open]


def manifest_with(scenario: Scenario, key_path: str, value) -> str:
    """The shipped run's manifest, on `scenario`, with `value` at `key_path`."""
    data = json.loads(RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG,
                                          ADAPTED_LOOP_CONFIG, scenario).to_json())
    *parents, key = key_path.split(".")
    values = data
    for parent in parents:
        values = values[parent]
    values[key] = value
    return json.dumps(data)


class TestRangeRule:
    def test_the_table_holds_every_ranged_class(self):
        assert {type(c[0]).__name__ for c in RANGE_CASES} == {
            "ChannelProfile", "RingConfig", "AxisModel", "PidGains", "TrapezoidTrajectory",
            "LoopConfig", "TrialVerdict", "SweepSpec", "CoverageArea", "SpectrumRequest"}

    @pytest.mark.parametrize(
        "instance, error, path, scenario, field, kind, interval, value", RANGE_CASES,
        ids=[f"{type(c[0]).__name__}.{c[4]}={c[7]!r}" for c in RANGE_CASES])
    def test_a_value_out_of_its_range_is_refused_at_its_class_key_path_and_line(
            self, tmp_path, instance, error, path, scenario, field, kind, interval, value):
        message = f"{field} {value!r} is not {KIND_WORDS[kind]} in {interval.text}"
        with pytest.raises(error) as refused:
            replace(instance, **{field: value})
        assert type(refused.value) is error
        assert str(refused.value) == message
        if path is None:
            return
        if math.isfinite(value):  # a manifest holds no NaN or infinity
            key_path = f"{path}.{field}"
            with pytest.raises(ValueError) as refused:
                RunManifest.from_json(manifest_with(scenario, key_path, value))
            assert str(refused.value) == f"manifest key {key_path!r}: {message}"
        if path in INI_SECTIONS:  # its key on line 3, under a blank line
            raw = value / 1000 if field in MS_KEYS else value
            ini = tmp_path / "run.ini"
            ini.write_text(f"[{INI_SECTIONS[path]}]\n\n{MS_KEYS.get(field, field)} = {raw!r}\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(ini))}, line 3: ") as refused:
                load_config(ini)
            if field not in MS_KEYS:  # a key in ms is read by the whole-µs rule, in ms
                assert str(refused.value) == f"{ini}, line 3: [{INI_SECTIONS[path]}] {message}"

    @pytest.mark.parametrize("instance, field, value", CLOSED_ENDS,
                             ids=[f"{type(c[0]).__name__}.{c[1]}={c[2]!r}" for c in CLOSED_ENDS])
    def test_a_closed_end_is_in_its_range(self, instance, field, value):
        held = getattr(replace(instance, **{field: value}), field)
        assert held == value and type(held) is type(value)

    @pytest.mark.parametrize("text, inside, outside", [
        ("[0, 1]", [0, 0.5, 1], [-1e-300, 1.0000000000000002, math.nan]),
        ("(0, 1)", [5e-324, 0.5], [0, 1, math.nan]),
        ("(-inf, inf)", [-1e308, 0, 1e308], [-math.inf, math.inf, math.nan]),
        ("[2, inf)", [2, 10 ** 400], [1, math.inf]),
    ])
    def test_a_range_holds_what_its_text_says(self, text, inside, outside):
        interval = In(text)
        assert all(value in interval for value in inside)
        assert not any(value in interval for value in outside)

    @pytest.mark.parametrize("key_path, message", [
        ("scenario.feedback_channel.loss_rate", "loss_rate 1.5 is not a number in [0, 1]"),
        ("adapted_config.servo_period_us", "servo_period_us 0 is not an integer in [2, inf)"),
        ("scenario.control_ring.queue_depth", "queue_depth 0 is not an integer in [1, inf)"),
    ])
    def test_a_manifest_names_the_key_path_of_a_value_out_of_range(self, key_path, message):
        # each raised its class's own prose, which named neither the path nor, of the two
        # channels or loops, which one
        value = 1.5 if key_path.endswith("loss_rate") else 0
        with pytest.raises(ValueError) as refused:
            RunManifest.from_json(manifest_with(DEFAULT_SCENARIO, key_path, value))
        assert str(refused.value) == f"manifest key {key_path!r}: {message}"

    @pytest.mark.parametrize("key_path, value, message", [
        ("spec.latencies_ms", [1.0, 0.5],
         "manifest key 'spec': latencies_ms (1.0, 0.5) is not strictly increasing"),
        ("scenario.control_ring.tx_time_us", 900,
         "manifest key 'scenario.control_ring': ring control: slot_time_us 800 cannot start "
         "a tx_time_us 900 transmission"),
        ("adapted_config.watchdog_timeout_us", 999,
         "manifest key 'adapted_config': watchdog_timeout_us 999 is less than "
         "servo_period_us 1000"),
    ], ids=["axis", "ring-slot", "watchdog"])
    def test_a_manifest_names_the_object_of_a_check_that_relates_its_fields(
            self, key_path, value, message):
        with pytest.raises(ValueError) as refused:
            RunManifest.from_json(manifest_with(DEFAULT_SCENARIO, key_path, value))
        assert str(refused.value) == message

    @pytest.mark.parametrize("text, line, message", [
        ("[channel.feedback]\nloss_rate = 1.5\n", 2,
         "[channel.feedback] loss_rate 1.5 is not a number in [0, 1]"),
        ("[ring.control]\nqueue_depth = 0\n", 2,
         "[ring.control] queue_depth 0 is not an integer in [1, inf)"),
        ("[loop.adapted]\n\nservo_period_us = 0\n", 3,
         "[loop.adapted] servo_period_us 0 is not an integer in [2, inf)"),
    ], ids=["channel-loss-rate", "ring-queue-depth", "loop-servo-period"])
    def test_an_ini_names_the_line_of_the_key_out_of_range(self, tmp_path, capsys, text, line,
                                                          message):
        # each named line 1, the section's header
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["trial", "--config", str(path), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        assert f"run.ini, line {line}: {message}\n" in capsys.readouterr().err
