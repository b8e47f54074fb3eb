import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ringmill import cli, harness
from ringmill.channel import ChannelProfile, JitterDistribution
from ringmill.cli import main
from ringmill.config import ConfigError, load_config
from ringmill.harness import (RunManifest, SweepSpec, _trial_seed, parse_matrix_csv,
                              run_from_manifest)
from ringmill.trial import DEFAULT_SCENARIO, run_trial


CONFIG_TEXT = """
[sweep]
latencies_ms = 0.5, 1
jitters_ms = 0.05
seeds_per_cell = 1
trial_seconds = 2
master_seed = 5

[gains.default]
kp = 38

[loop.default]
watchdog_timeout_us = 2200

[loop.adapted]
watchdog_timeout_us = 2200

[ring.control]
slot_time_us = 800
tx_time_us = 100

[trajectory]
amplitude_mm = 15
dwell_s = 0.1
"""


#: every key of every section, each with a value that loads on its own: a field renamed
#: in its dataclass must not rename or drop the INI key that sets it
INI_KEYS = {
    "sweep": {"latencies_ms": "0.5, 1", "jitters_ms": "0.05 0.1", "seeds_per_cell": "1",
              "trial_seconds": "2", "master_seed": "5"},
    **{f"gains.{flavour}": {"kp": "38", "ki": "1.5", "kd": "0.1", "integral_clamp": "0.04"}
       for flavour in ("default", "adapted")},
    # each value alone keeps the adapted flavour no tighter than the default one
    "loop.default": {"servo_period_us": "500", "watchdog_timeout_us": "2000",
                     "init_grace_us": "1000000", "fe_limit_mm": "0.7",
                     "delay_spread_tolerance_us": "900", "rtt_rescue_budget_us": "3000"},
    "loop.adapted": {"servo_period_us": "500", "watchdog_timeout_us": "2200",
                     "init_grace_us": "5000000", "fe_limit_mm": "0.7",
                     "delay_spread_tolerance_us": "1200", "rtt_rescue_budget_us": "3000"},
    "ring.control": {"nodes": "master, fpga, spare", "slot_time_us": "700", "tx_time_us": "90",
                     "queue_depth": "8", "loss_rate": "0"},
    **{f"channel.{way}": {"mean_delay_ms": "3", "jitter_ms": "0.2",
                          "distribution": "truncated-normal", "loss_rate": "0.1",
                          "reorder": "yes"}
       for way in ("command", "feedback")},
    "trajectory": {"amplitude_mm": "15", "velocity_mm_s": "40", "accel_mm_s2": "900",
                   "dwell_s": "0.1", "file": "moves.csv"},
}

#: each field that no key sets, in a section whose object has it: a loop's flavour and its
#: gains section, the ring's name, and the three fields whose keys have other names
FIELDS_WITHOUT_A_KEY = [
    ("loop.default", "profile", "adapted"), ("loop.adapted", "gains", "40"),
    ("ring.control", "ring_id", "control"), ("channel.command", "mean_delay_us", "3000"),
    ("channel.feedback", "jitter_us", "200"), ("channel.command", "reorder_allowed", "false")]


def spy_on_trials(monkeypatch) -> list:
    """Record every trial that `trial`, `sweep` and `calibrate` run from here on."""
    trials = []

    def recording(*args, **kwargs):
        trials.append(args)
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(cli, "run_trial", recording)
    monkeypatch.setattr(harness, "run_trial", recording)
    return trials


class TestConfig:
    def test_defaults_without_file(self):
        run = load_config(None)
        assert run.spec.seeds_per_cell == 3
        assert run.default_config.profile.value == "default"
        assert run.scenario.control_ring.slot_time_us == 800
        assert run.scenario.command_channel == run.scenario.feedback_channel == ChannelProfile(0)

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(CONFIG_TEXT)
        run = load_config(path)
        assert run.spec.latencies_ms == (0.5, 1.0)
        assert run.spec.master_seed == 5
        assert run.default_config.gains.kp == 38.0
        assert run.default_config.watchdog_timeout_us == 2200
        assert run.adapted_config.gains.kp == 40.0  # untouched section keeps default
        assert run.scenario.trajectory.amplitude_mm == 15.0

    def test_trajectory_csv_file(self, tmp_path):
        traj = tmp_path / "moves.csv"
        traj.write_text("time_ms,setpoint_mm\n0,0\n500,10\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(f"[trajectory]\nfile = {traj}\n")
        run = load_config(path)
        assert run.scenario.trajectory.sampler()(250_000)[0] == pytest.approx(5.0)

    def test_bad_ini_is_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("not an ini file at all [")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_comment_after_a_header_is_ignored(self, tmp_path):
        path = tmp_path / "commented.ini"
        path.write_text("[sweep] ; a note ] with a bracket\nmaster_seed = 5\n"
                        "[gains.default]# another\nkp = 38\n")
        run = load_config(path)
        assert run.spec.master_seed == 5
        assert run.default_config.gains.kp == 38.0

    @pytest.mark.parametrize("text, read, value", [
        ("[sweep]\nlatencies_ms = 0.5,\n  1.0\n", lambda run: run.spec.latencies_ms, (0.5, 1.0)),
        ("[sweep]\nlatencies_ms = 0.5,\n\n  1.0\n", lambda run: run.spec.latencies_ms,
         (0.5, 1.0)),
        ("[sweep]\nseeds_per_cell: 1\n", lambda run: run.spec.seeds_per_cell, 1),
        ("[sweep]\nSEEDS_PER_CELL = 1\n", lambda run: run.spec.seeds_per_cell, 1),
        ("[sweep]\n  seeds_per_cell = 1\nmaster_seed = 4\n",
         lambda run: (run.spec.seeds_per_cell, run.spec.master_seed), (1, 4)),
        ("[gains.default]# note\nkp = 38\n", lambda run: run.default_config.gains.kp, 38.0),
        # a "#" glued to a word is text, and the first one after a blank starts the
        # comment: the file is m#1.csv, not "m#1.csv #x"
        ("[trajectory]\nfile = m#1.csv #x ;y\n",
         lambda run: run.scenario.trajectory.sampler()(250_000)[0], 5.0),
        # a channel section sets its channel in the scenario, and only that one
        ("[channel.command]\ndistribution = truncated-normal\nreorder = yes\n",
         lambda run: (run.scenario.command_channel, run.scenario.feedback_channel),
         (ChannelProfile(0, distribution=JitterDistribution.TRUNCATED_NORMAL,
                         reorder_allowed=True), ChannelProfile(0))),
        ("[channel.feedback]\nmean_delay_ms = 2\nloss_rate = 0.9\n",
         lambda run: run.scenario.feedback_channel, ChannelProfile(2_000, loss_rate=0.9)),
    ], ids=["continuation", "continuation-after-blank", "colon", "upper-case-key",
            "indented-first-key", "comment-after-header", "comment-after-glued-hash",
            "command-channel-shape", "feedback-channel-loss"])
    def test_what_a_line_reads_as(self, tmp_path, text, read, value):
        (tmp_path / "m#1.csv").write_text("0,0\n500,10\n1000,0\n")
        (tmp_path / "m#1.csv #x").write_text("0,0\n500,20\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert read(load_config(path)) == value

    def test_bad_value_is_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[sweep]\nseeds_per_cell = -3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_ini_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S)[1])
        run = load_config(path)
        assert run.default_config.init_grace_us == 2_000_000
        assert run.scenario.command_channel == run.scenario.feedback_channel == ChannelProfile(
            3_000, 200, JitterDistribution.UNIFORM, 0.0, False)

    @pytest.mark.parametrize("section", ["[band]\nlow_mhz = 3700\n",
                                         "[spectrum]\nstatic_plan = true\n",
                                         "[ring.sensor]\nenabled = false\n",
                                         "[channel.overlay]\nmean_delay_ms = 10\n"])
    def test_spectrum_sections_are_unknown(self, tmp_path, capsys, section):
        # no subcommand reads a band or a static plan from a scenario file,
        # and a trial runs no sensor ring or overlay uplink
        path = tmp_path / "scenario.ini"
        path.write_text("[sweep]\nseeds_per_cell = 1\n\n" + section)
        assert main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        name = section.split("]")[0] + "]"
        assert f"line 4: unknown section {name}" in capsys.readouterr().err

    def test_trajectory_file_is_relative_to_the_ini(self, tmp_path, monkeypatch):
        (tmp_path / "scenario").mkdir()
        (tmp_path / "scenario" / "moves.csv").write_text("0,0\n500,10\n1000,0\n")
        path = tmp_path / "scenario" / "scenario.ini"
        path.write_text("[trajectory]\nfile = moves.csv\n")
        monkeypatch.chdir(tmp_path)
        assert load_config(path).scenario.trajectory.sampler()(250_000)[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("text, line", [
        ("[channel.command]\nloss_rate = 0\ndistribution = gaussian\n", 3),
        ("[sweep]\nmaster_seed = 1\nseeds_per_cell = 0\n", 3),
        ("[channel.feedback]\nreorder = maybe\n", 2),
        ("[sweep]\nlatencies_ms =\n", 2),
        ("[loop.default]\nfe_limit_mm = 0.7\n\n[loop.adapted]\nwatchdog_timeout_us = 2000\n", 4),
        ("[ring.control]\nnodes = a, b\n", 1),
        ("[sweep]\nseeds_per_cell = 1\n[ring.sensor]\nnodes = sensor-1, sensor-2\n", 3),
        ("[trajectory]\nfile = missing.csv\n", 2),
        ("[sweep]\nlatencies_ms = -1, 1\n", 2),
        ("[sweep]\njitters_ms = -0.05, 0.05\n", 2),
        ("[trajectory]\nfile = moves.csv\n", 2),
        ("[sweep]\nseeds_per_cell = 1\n[trajectory]\nfile = nan.csv\n", 4),
        ("[sweep]\nseeds_per_cell = 1\n[trajectory]\nfile = inf.csv\n", 4),
        # a negative threshold rejects every link, or accepts none
        ("[sweep]\nseeds_per_cell = 1\n[loop.default]\ndelay_spread_tolerance_us = -5\n", 4),
        ("[loop.adapted]\nrtt_rescue_budget_us = -1\n", 2),
        # a watchdog shorter than the servo period expires between two frames
        ("[loop.default]\nservo_period_us = 3000\n", 1),
        # the stage ticks half a period after the controller, and 1 us has no half
        ("[sweep]\nseeds_per_cell = 1\n[loop.default]\nservo_period_us = 1\n", 4),
        # a link value that is not whole us would run another link than it names
        ("[sweep]\nlatencies_ms = 0.5004, 1\n", 2),
        ("[channel.feedback]\nmean_delay_ms = 0.5\njitter_ms = 0.0502\n", 3),
        # a table from 100 ms extrapolates its setpoint back to 0 ms
        ("[sweep]\nseeds_per_cell = 1\n[trajectory]\nfile = late.csv\n", 4),
        # a length that is not whole us would run another length than it names
        ("[sweep]\nseeds_per_cell = 1\ntrial_seconds = 2.0000004\n", 3),
        # a header's name runs to the last "]", so this section is "loop.default] "
        ("[sweep]\nseeds_per_cell = 1\n[loop.default] ]\nfe_limit_mm = 0.7\n", 3),
        # only a comment may follow the "]"
        ("[gains.default] x\nkp = 40\n", 1),
        # finite values whose count of us overflows a float: each was a traceback
        ("[sweep]\nseeds_per_cell = 1\nlatencies_ms = 1e306\n", 3),
        ("[sweep]\ntrial_seconds = 1e303\n", 2),
        ("[channel.command]\nmean_delay_ms = 1e306\n", 2),
        # a table replaces the trapezoid, so a trapezoid key beside it would be ignored
        ("[trajectory]\nfile = t.csv\namplitude_mm = 5\n", 3),
        # a ring's refusal of one value names its key's line, of the ring as a whole its
        # section's
        ("[sweep]\nseeds_per_cell = 1\n[ring.control]\nnodes = master, fpga, master\n", 3),
        ("[ring.control]\nslot_time_us = -800\n", 2),
        ("[ring.control]\nslot_time_us = 50\ntx_time_us = 100\n", 1),
        ("[ring.control]\nqueue_depth = 0\n", 2),
        ("[ring.control]\nloss_rate = 2\n", 2),
        # a key or a section given twice, a key without "=", a key before any section
        ("[sweep]\nseeds_per_cell = 1\nseeds_per_cell = 2\n", 3),
        ("[sweep]\nseeds_per_cell = 1\n[sweep]\n", 3),
        ("[sweep]\nseeds_per_cell\n", 2),
        ("seeds_per_cell = 1\n[sweep]\n", 1),
    ], ids=["distribution", "seeds_per_cell", "reorder", "empty-value", "adapted-watchdog",
            "control-nodes", "sensor-nodes", "missing-file", "negative-latency",
            "negative-jitter", "one-column-row", "nan-setpoint", "inf-setpoint",
            "negative-tolerance", "negative-rescue-budget", "watchdog-below-period",
            "servo-period-1-us",
            "latency-not-whole-us", "jitter-not-whole-us", "late-first-point",
            "trial-seconds-not-whole-us", "second-bracket-in-header", "text-after-header",
            "latency-overflows", "trial-seconds-overflows", "mean-delay-overflows",
            "trapezoid-key-beside-file", "ring-duplicate-nodes", "ring-negative-timing",
            "ring-slot-below-tx", "ring-queue-depth-0", "ring-loss-rate-2", "duplicate-key",
            "duplicate-section", "key-without-value", "key-before-section"])
    def test_bad_input_exits_config_error_with_its_line(self, tmp_path, capsys, text, line):
        (tmp_path / "moves.csv").write_text("0,0\n500\n1000,0\n")
        (tmp_path / "nan.csv").write_text("time_ms,setpoint_mm\n0,0\n500,nan\n1000,0\n")
        (tmp_path / "inf.csv").write_text("time_ms,setpoint_mm\n0,0\n500,inf\n1000,0\n")
        (tmp_path / "late.csv").write_text("time_ms,setpoint_mm\n100,0\n1000,10\n")
        (tmp_path / "t.csv").write_text("time_ms,setpoint_mm\n0,0\n500,10\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        assert main(["trial", "--config", str(path), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        assert f"scenario.ini, line {line}: " in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [(section, key) for section, keys in INI_KEYS.items()
                                              for key in keys])
    def test_every_key_loads(self, tmp_path, section, key):
        (tmp_path / "moves.csv").write_text("0,0\n500,10\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(f"[{section}]\n{key} = {INI_KEYS[section][key]}\n")
        assert load_config(path) != load_config(None)

    @pytest.mark.parametrize("section, field, raw", FIELDS_WITHOUT_A_KEY,
                             ids=[field for _, field, _ in FIELDS_WITHOUT_A_KEY])
    def test_a_field_without_a_key_is_an_unknown_key(self, tmp_path, capsys, section, field,
                                                     raw):
        path = tmp_path / "scenario.ini"
        path.write_text(f"[{section}]\n\n{field} = {raw}\n")
        assert main(["trial", "--config", str(path), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        assert (f"scenario.ini, line 3: unknown key {field!r} in [{section}]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["readme", "fuzz-corpus", "lossy", "table"])
    def test_an_ini_run_reads_back_from_its_manifest(self, tmp_path, name):
        # the INI reader and the manifest reader give the same run
        root = Path(__file__).resolve().parents[1]
        text = {"readme": re.search(r"```ini\n(.*?)```", (root / "README.md").read_text(),
                                    re.S)[1],
                "fuzz-corpus": (root / "tests" / "fuzz" / "scenario.ini").read_text(),
                "lossy": "[sweep]\nlatencies_ms = 0.5\njitters_ms = 0.05\nseeds_per_cell = 1\n"
                         "[channel.command]\nloss_rate = 0.9\n"
                         "[channel.feedback]\nloss_rate = 0.9\n",
                "table": "[trajectory]\nfile = moves.csv\n"}[name]
        (tmp_path / "moves.csv").write_text("time_ms,setpoint_mm\n0,0\n500,10.5\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        run = load_config(path)
        assert run != load_config(None)
        assert RunManifest.from_json(run.to_json()) == run

    def test_bad_gains_exit_config_error_naming_their_section(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text("[sweep]\nseeds_per_cell = 1\n\n[gains.default]\nintegral_clamp = -0.1\n")
        assert main(["trial", "--config", str(path), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        assert ("scenario.ini, line 5: [gains.default] integral_clamp -0.1 is not a number "
                "in [0, inf)" in capsys.readouterr().err)

    def test_unknown_key_is_located_config_error(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[sweep]\nseeds_per_cell = 1\nseed_per_cell = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'seed_per_cell'"):
            load_config(path)


class TestCli:
    def test_trial_command(self, capsys):
        assert main(["trial", "--latency-ms", "0.5", "--jitter-ms", "0.05",
                     "--trial-seconds", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_following_error" in out

    def test_trial_channels_from_config_sections(self, tmp_path, capsys):
        config = tmp_path / "chan.ini"
        config.write_text("[channel.command]\nmean_delay_ms = 0.5\njitter_ms = 0.05\n"
                          "[channel.feedback]\nmean_delay_ms = 0.5\njitter_ms = 0.05\n")
        assert main(["trial", "--config", str(config), "--trial-seconds", "2"]) == 0
        assert "latency=0.5 ms" in capsys.readouterr().out

    def test_trial_prints_the_link_values_it_runs(self, capsys):
        # `:g` printed latency=1234.57 ms: six significant digits
        assert main(["trial", "--latency-ms", "1234.567", "--jitter-ms", "0.1",
                     "--trial-seconds", "0.01"]) == 0
        assert "trial latency=1234.567 ms jitter=0.1 ms " in capsys.readouterr().out

    @pytest.mark.parametrize("sections, link", [
        # only the command channel's delay and jitter were printed
        ("[channel.command]\nmean_delay_ms = 3\njitter_ms = 0.2\n"
         "[channel.feedback]\nmean_delay_ms = 0.5\nloss_rate = 0.5\n",
         "latency=3 ms jitter=0.2 ms feedback latency=0.5 ms jitter=0 ms loss=0.5"),
        ("[channel.command]\nloss_rate = 0.9\n[channel.feedback]\nloss_rate = 0.9\n",
         "latency=0 ms jitter=0 ms loss=0.9"),
        ("[channel.command]\nloss_rate = 0.001\n", "latency=0 ms jitter=0 ms loss=0.001 "
         "feedback latency=0 ms jitter=0 ms"),
    ], ids=["asymmetric", "lossy", "lossy-command"])
    def test_trial_prints_a_loss_rate_and_a_feedback_channel_that_differs(
            self, tmp_path, capsys, sections, link):
        config = tmp_path / "asym.ini"
        config.write_text(sections)
        assert main(["trial", "--config", str(config), "--trial-seconds", "0.5"]) == 0
        assert capsys.readouterr().out.startswith(f"trial {link} profile=default: ")

    def test_mistyped_section_exits_config_error(self, tmp_path, capsys):
        config = tmp_path / "typo.ini"
        config.write_text("[loop.defualt]\nfe_limit_mm = 0.5\n")
        assert main(["trial", "--config", str(config), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 1: unknown section [loop.defualt]" in err

    def test_trial_without_flags_or_channel_sections_runs_a_zero_delay_link(self, capsys):
        # the scenario's channels default to no delay, no jitter and no loss
        assert main(["trial", "--trial-seconds", "1"]) == 0
        assert "trial latency=0 ms jitter=0 ms profile=default: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("lines, shape", [
        ("distribution = truncated-normal\n", {"distribution": JitterDistribution.TRUNCATED_NORMAL}),
        ("reorder = true\nloss_rate = 0.01\n", {"reorder_allowed": True, "loss_rate": 0.01}),
    ], ids=["truncated-normal", "reorder-loss"])
    def test_trial_flags_set_only_the_delay_and_jitter_of_the_config_channels(
            self, tmp_path, capsys, monkeypatch, lines, shape):
        trials = spy_on_trials(monkeypatch)
        config = tmp_path / "shape.ini"
        config.write_text(f"[channel.command]\nmean_delay_ms = 3\n{lines}"
                          f"[channel.feedback]\njitter_ms = 0.2\n{lines}")
        assert main(["trial", "--config", str(config), "--latency-ms", "1", "--jitter-ms", "0.05",
                     "--trial-seconds", "0.5"]) == 0
        assert "trial latency=1 ms jitter=0.05 ms " in capsys.readouterr().out
        (_, command, feedback), = trials
        assert command == feedback == ChannelProfile(1_000, 50, **shape)

    def test_trial_adapted_profile_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["trial", "--latency-ms", "2", "--jitter-ms", "0.2",
                     "--profile", "adapted", "--trial-seconds", "2",
                     "--trace", str(trace)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert trace.read_text().startswith("time_us,")

    def test_sweep_writes_artifacts_and_render_reads_them(self, tmp_path, capsys):
        config = tmp_path / "scenario.ini"
        config.write_text(CONFIG_TEXT)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config),
                     "--output-dir", str(out_dir)]) == 0
        matrix_csv = out_dir / "matrix.csv"
        manifest = RunManifest.from_json((out_dir / "manifest.json").read_text())
        assert manifest.spec.master_seed == 5
        result = parse_matrix_csv(matrix_csv.read_text())
        assert len(result.cells) == 2
        capsys.readouterr()

        assert main(["render", "--matrix", str(matrix_csv),
                     "--format", "markdown"]) == 0
        assert "✓" in capsys.readouterr().out

    @pytest.mark.parametrize("lines, shape, peak_fe", [
        (None, {}, 0.462916),
        ("distribution = truncated-normal\n",
         {"distribution": JitterDistribution.TRUNCATED_NORMAL}, 0.445680),
        ("loss_rate = 0.01\nreorder = true\n", {"loss_rate": 0.01, "reorder_allowed": True},
         0.328123),
    ], ids=["no-channel-sections", "truncated-normal", "loss-reorder"])
    def test_sweep_honours_the_scenario_sections(self, tmp_path, capsys, lines, shape, peak_fe):
        # the sweep's cell is the trial the file describes, trajectory included, and
        # its channels keep the file's shape at the cell's delay and jitter
        config = tmp_path / "scenario.ini"
        config.write_text(CONFIG_TEXT + ("" if lines is None else
                                         f"[channel.command]\nmean_delay_ms = 7\n{lines}"
                                         f"[channel.feedback]\njitter_ms = 0.3\n{lines}"))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        cells = parse_matrix_csv((out_dir / "matrix.csv").read_text()).cells
        cell = {(c.latency_ms, c.jitter_ms): c for c in cells}[1.0, 0.05]
        run, profile = load_config(config), ChannelProfile(1_000, 50, **shape)
        verdict = run_trial(run.default_config, profile, profile, trial_length_us=2_000_000,
                            seed=_trial_seed(5, 1.0, 0.05, 0), scenario=run.scenario)
        got = cell.default_outcomes[0]
        assert got == dataclasses.replace(
            verdict, max_following_error_mm=round(verdict.max_following_error_mm, 9))
        assert got.max_following_error_mm == pytest.approx(peak_fe, abs=1e-6)
        capsys.readouterr()

    def test_a_lossy_channel_pair_sweeps_to_fail_and_its_manifest_replays(self, tmp_path,
                                                                           capsys):
        # the sweep ran a lossless pair here, and its manifest named no channel
        config = tmp_path / "lossy.ini"
        config.write_text("[sweep]\nlatencies_ms = 0.5\njitters_ms = 0.05\nseeds_per_cell = 1\n"
                          "[channel.command]\nloss_rate = 0.9\n"
                          "[channel.feedback]\nloss_rate = 0.9\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--trial-seconds", "1",
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        matrix = (out_dir / "matrix.csv").read_bytes()
        cell, = parse_matrix_csv(matrix.decode()).cells
        assert cell.cell_class.value == "fail"
        manifest = RunManifest.from_json((out_dir / "manifest.json").read_text())
        lossy = ChannelProfile(0, loss_rate=0.9)
        assert (manifest.scenario.command_channel, manifest.scenario.feedback_channel) == (
            lossy, lossy)
        assert run_from_manifest(manifest)[1].encode() == matrix

    def test_sweep_matches_the_golden_matrix(self, tmp_path, capsys):
        # re-record tests/golden/matrix.csv only for a deliberate change of verdicts
        assert main(["sweep", "--seed", "0", "--trial-seconds", "2",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        golden = Path(__file__).resolve().parent / "golden" / "matrix.csv"
        assert (tmp_path / "matrix.csv").read_bytes() == golden.read_bytes()

    def test_manifest_alone_replays_a_non_default_scenario(self, tmp_path, capsys):
        moves = tmp_path / "moves.csv"
        moves.write_text("time_ms,setpoint_mm\n0,0\n500,10\n1000,10\n1500,0\n2000,0\n")
        sweep = ("[sweep]\nlatencies_ms = 0.5, 2\njitters_ms = 0.05, 0.2\n"
                 "seeds_per_cell = 1\ntrial_seconds = 2\n")
        config = tmp_path / "scenario.ini"
        config.write_text(sweep + "[ring.control]\nslot_time_us = 700\n"
                          f"[trajectory]\nfile = {moves}\n")
        plain = tmp_path / "plain.ini"
        plain.write_text(sweep)
        for ini, out in ((config, "scenario"), (plain, "plain")):
            assert main(["sweep", "--config", str(ini), "--output-dir",
                         str(tmp_path / out)]) == 0
        capsys.readouterr()
        matrix = (tmp_path / "scenario" / "matrix.csv").read_text()
        assert matrix != (tmp_path / "plain" / "matrix.csv").read_text()

        scenario = load_config(config).scenario
        moves.unlink()  # the manifest holds the trajectory's points
        manifest = RunManifest.from_json((tmp_path / "scenario" / "manifest.json").read_text())
        assert manifest.scenario == scenario
        assert scenario.control_ring.slot_time_us == 700
        assert run_from_manifest(manifest)[1].encode() == matrix.encode()

    def test_spectrum_command(self, tmp_path, capsys):
        script = tmp_path / "scenario.txt"
        script.write_text("at 0 request a x=0 y=0 r=50 bw=20\n")
        assert main(["spectrum", "--script", str(script)]) == 0
        assert "granted" in capsys.readouterr().out

    def test_bad_script_exits_config_error(self, tmp_path, capsys):
        script = tmp_path / "bad.txt"
        script.write_text("garbage\n")
        assert main(["spectrum", "--script", str(script)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bw", ["0", "-5", "nan", "1e-13", "inf", "1e400", "0.0005",
                                    "1.3125", "1e308"])
    def test_bad_bandwidth_exits_config_error(self, tmp_path, capsys, bw):
        # 1e-13, 0.0005 and 1.3125 MHz parse, but are not whole numbers of kHz; 1e308
        # MHz counts more kHz than a float holds
        script = tmp_path / "bad.txt"
        script.write_text("at 0 request a x=0 y=0 r=50 bw=20\n"
                          f"at 1 request b x=0 y=0 r=50 bw={bw}\n")
        assert main(["spectrum", "--script", str(script)]) == 2
        assert "error: line 2: " in capsys.readouterr().err

    def test_lease_that_ends_before_it_starts_exits_config_error(self, tmp_path, capsys):
        script = tmp_path / "backwards.txt"
        script.write_text("at 0 request a x=0 y=0 r=10 bw=20\n"
                          "at 10 request b x=0 y=0 r=10 bw=20 expires=5\n")
        assert main(["spectrum", "--script", str(script)]) == 2
        assert ("error: line 2: lease expires at 5, not after the request at 10"
                in capsys.readouterr().err)

    def test_occupancy_lists_only_live_leases(self, tmp_path, capsys):
        # a's lease ends at 10, and no request after that purges it
        script = tmp_path / "leases.txt"
        script.write_text("at 0 request a x=0 y=0 r=10 bw=20 expires=10\n"
                          "at 1 request b x=5 y=0 r=10 bw=20\n"
                          "at 2 request c x=100 y=0 r=10 bw=20\n"
                          "at 20 release c\n")
        assert main(["spectrum", "--script", str(script), "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "occupancy.txt").read_text() == (
            "active grants:\n"
            "  #2 b: [3720, 3740] MHz at (5, 0) r=10 m\n"
            "occupancy at grant centers:\n"
            "  (5, 0): 20 MHz\n")

    def test_occupancy_keeps_every_digit_of_a_position(self, tmp_path, capsys):
        # `:g` listed this grant at (1.23457e+06, 0)
        script = tmp_path / "far.txt"
        script.write_text("at 0 request a x=1234567.5 y=0 r=12.25 bw=20\n")
        assert main(["spectrum", "--script", str(script), "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "occupancy.txt").read_text() == (
            "active grants:\n"
            "  #1 a: [3700, 3720] MHz at (1234567.5, 0) r=12.25 m\n"
            "occupancy at grant centers:\n"
            "  (1234567.5, 0): 20 MHz\n")

    @pytest.mark.parametrize("argv, message", [
        (["trial", "--latency-ms", "1", "--jitter-ms", "0.1", "--trial-seconds", "0"],
         "argument --trial-seconds: 0.0 s is not > 0"),
        (["calibrate", "--screen-seconds", "inf"],
         "argument --screen-seconds: inf s is not finite and >= 0"),
        (["trial", "--latency-ms", "-1", "--jitter-ms", "0.1"],
         "argument --latency-ms: -1.0 ms is not finite and >= 0"),
        (["trial", "--latency-ms", "1", "--jitter-ms", "nan"],
         "argument --jitter-ms: nan ms is not finite and >= 0"),
        (["render", "--matrix", "README.md"], "line 1: not a ringmill matrix CSV"),
        (["render", "--matrix", "bad-row.csv"], "line 4: bad matrix row"),
        (["render", "--matrix", "."], "Is a directory"),
        (["render", "--matrix", "no-columns.csv"], "line 2: expected the column header"),
        (["render", "--matrix", "bad-status.csv"], "line 4: bad matrix row: status 'bogus'"),
        (["render", "--matrix", "bad-cause.csv"], "line 4: bad matrix row: 'bogus' is not"),
        (["render", "--matrix", "wrong-cause.csv"],
         "line 4: bad matrix row: passed True but fail_cause"),
        (["render", "--matrix", "duplicate.csv"], "line 5: duplicate cell 0.5,0.05"),
        (["render", "--matrix", "hole.csv"], "line 5: 3 rows for a 2 x 2 latency x jitter grid"),
        (["render", "--matrix", "wrong-class.csv"],
         "line 3: cell 0.5,0.05: class fail does not follow from its trials"),
        (["render", "--matrix", "no-rows.csv"], "line 2: no matrix rows"),
        (["render", "--matrix", "nan-latency.csv"],
         "line 4: bad matrix row: nan ms is not finite and >= 0"),
        (["render", "--matrix", "negative-latency.csv"],
         "line 4: bad matrix row: -1.0 ms is not finite and >= 0"),
        (["render", "--matrix", "inf-jitter.csv"],
         "line 3: bad matrix row: inf ms is not finite and >= 0"),
        (["render", "--matrix", "nan-seconds.csv"],
         "line 1: bad matrix header: trial_seconds: nan s is not finite and >= 0"),
        (["trial", "--config", "pair.ini", "--latency-ms", "5"], "trial needs --jitter-ms"),
        (["trial", "--config", "pair.ini", "--jitter-ms", "0.1"], "trial needs --latency-ms"),
        (["trial", "--latency-ms", "0.5004", "--jitter-ms", "0.05"],
         "argument --latency-ms: 0.5004 ms is not a whole number of us"),
        (["trial", "--latency-ms", "0.5", "--jitter-ms", "0.0502"],
         "argument --jitter-ms: 0.0502 ms is not a whole number of us"),
        (["render", "--matrix", "fraction-latency.csv"],
         "line 4: bad matrix row: 0.5004 ms is not a whole number of us"),
        # an empty trial, a 2 s trial and an empty screening trial, each
        # under a length that is not whole us
        (["trial", "--latency-ms", "1", "--jitter-ms", "0.1", "--trial-seconds", "0.0000004"],
         "argument --trial-seconds: 4e-07 s is not a whole number of us"),
        (["trial", "--latency-ms", "1", "--jitter-ms", "0.1", "--trial-seconds", "2.0000004"],
         "argument --trial-seconds: 2.0000004 s is not a whole number of us"),
        (["calibrate", "--screen-seconds", "0.0000004"],
         "argument --screen-seconds: 4e-07 s is not a whole number of us"),
        (["render", "--matrix", "fraction-seconds.csv"],
         "line 1: bad matrix header: trial_seconds: 1.0000004 s is not a whole number of us"),
        # finite values whose count of us overflows a float: each was a traceback
        (["trial", "--latency-ms", "1e306", "--jitter-ms", "0.1"],
         "argument --latency-ms: 1e+306 ms is too large to count in us"),
        (["trial", "--latency-ms", "1", "--jitter-ms", "0.1", "--trial-seconds", "1e303"],
         "argument --trial-seconds: 1e+303 s is too large to count in us"),
        (["render", "--matrix", "huge-seconds.csv"],
         "line 1: bad matrix header: trial_seconds: 1e+303 s is too large to count in us"),
        (["render", "--matrix", "huge-latency.csv"],
         "line 4: bad matrix row: 1e+306 ms is too large to count in us"),
    ], ids=["trial-seconds", "screen-seconds", "latency-ms", "jitter-ms", "not-a-matrix",
            "bad-row", "directory", "no-column-header", "bad-status", "bad-cause",
            "wrong-cause", "duplicate-cell", "missing-cell", "wrong-class", "no-rows",
            "nan-latency", "negative-latency", "inf-jitter", "nan-trial-seconds",
            "lone-latency-ms", "lone-jitter-ms", "latency-ms-not-whole-us", "jitter-ms-not-whole-us",
            "matrix-latency-not-whole-us", "trial-seconds-below-1-us",
            "trial-seconds-not-whole-us", "screen-seconds-below-1-us",
            "matrix-trial-seconds-not-whole-us", "latency-ms-overflows", "trial-seconds-overflows",
            "matrix-trial-seconds-overflows", "matrix-latency-overflows"])
    def test_bad_flag_or_matrix_exits_config_error(self, tmp_path, capsys, monkeypatch,
                                                   argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "README.md").write_text("# not a matrix\n")
        head = "# ringmill-matrix v1 seeds=1 trial_seconds=1 master_seed=0\n"
        columns = "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes\n"
        row = "0.5,0.05,pass,0|pass|none|0.1|1000000,\n"
        other = "1,0.05,pass,0|pass|none|0.1|1000000,\n"
        for name, body in {"bad-row": columns + row + "1,0.05,pass\n",
                           "bad-status": columns + row + other.replace("|pass|", "|bogus|"),
                           "bad-cause": columns + row + "1,0.05,fail,0|fail|bogus|0.1|1000,\n",
                           "wrong-cause": columns + row + other.replace("none", "watchdog"),
                           "duplicate": columns + row + other + row,
                           # a 2 x 2 grid without its (1, 0.1) cell
                           "hole": columns + row + other + row.replace("0.05", "0.1", 1),
                           # a passing default trial and no adapted one make a pass
                           "wrong-class": columns + row.replace("pass,", "fail,", 1),
                           "no-rows": columns,
                           # without its column header, the first row must not be skipped
                           "no-columns": row + other,
                           "nan-latency": columns + row + other.replace("1,", "nan,", 1),
                           "negative-latency": columns + row + other.replace("1,", "-1,", 1),
                           "fraction-latency": columns + row + other.replace("1,", "0.5004,", 1),
                           "huge-latency": columns + row + other.replace("1,", "1e306,", 1),
                           "inf-jitter": columns + row.replace("0.05", "inf", 1)}.items():
            (tmp_path / f"{name}.csv").write_text(head + body)
        (tmp_path / "nan-seconds.csv").write_text(head.replace("seconds=1", "seconds=nan")
                                                  + columns + row)
        (tmp_path / "fraction-seconds.csv").write_text(
            head.replace("seconds=1", "seconds=1.0000004") + columns + row)
        (tmp_path / "huge-seconds.csv").write_text(
            head.replace("seconds=1", "seconds=1e303") + columns + row)
        # a file channel pair, which a lone flag must not silently fall back to
        (tmp_path / "pair.ini").write_text(
            "[channel.command]\nmean_delay_ms = 0.5\njitter_ms = 0.05\n"
            "[channel.feedback]\nmean_delay_ms = 0.5\njitter_ms = 0.05\n")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    def test_calibrate_failure_exits_calibration_error(self, tmp_path, capsys):
        # no candidate survives screening on trials too short to qualify a link
        out = tmp_path / "out"
        assert main(["calibrate", "--screen-seconds", "0.5", "--output-dir", str(out)]) == 3
        report = capsys.readouterr().out
        assert report.startswith("calibration FAILED after 36 candidate(s)\n")
        assert "(0.5, 0.05): got unscreened, want pass" in report
        assert not (out / "matrix.csv").exists()

    def test_calibrate_refuses_a_cell_outside_its_target_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        trials = spy_on_trials(monkeypatch)
        path = tmp_path / "scenario.ini"
        path.write_text("[sweep]\nlatencies_ms = 0.5, 0.7\njitters_ms = 0.05\n"
                        "seeds_per_cell = 1\n")
        assert main(["calibrate", "--config", str(path), "--screen-seconds", "3",
                     "--trial-seconds", "1"]) == 2
        assert ("error: calibrate has no target class for cell 0.7,0.05: its reference "
                "pattern holds only the default axes" in capsys.readouterr().err)
        assert trials == []

    @pytest.mark.parametrize("section", ["[loop.default]\ndelay_spread_tolerance_us = 900\n",
                                         "[gains.adapted]\nkp = 38\n"], ids=["loop", "gains"])
    def test_calibrate_refuses_a_loop_pair_it_would_not_run(self, tmp_path, capsys,
                                                           monkeypatch, section):
        # its grid is built around the shipped pair, so the file's values would be ignored
        trials = spy_on_trials(monkeypatch)
        path = tmp_path / "loop.ini"
        path.write_text(section)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(path), "--output-dir", str(out)]) == 2
        assert (f"error: {path}: calibrate searches loop pairs around the shipped one"
                in capsys.readouterr().err)
        assert trials == []
        assert not (out / "calibrated.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--output-dir", "file/out"],
        ["calibrate", "--output-dir", "file/out"],
        ["trial", "--latency-ms", "1", "--jitter-ms", "0.1", "--trace", "/nonexistent/x.csv"],
    ], ids=["sweep", "calibrate", "trial"])
    def test_unwritable_output_exits_config_error_before_any_trial(
            self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("a regular file\n")
        trials = spy_on_trials(monkeypatch)
        assert main(argv) == 2
        assert "error: " in capsys.readouterr().err
        assert trials == []

    def test_missing_file_exits_config_error(self, capsys):
        assert main(["render", "--matrix", "/nonexistent/matrix.csv"]) == 2

    @pytest.mark.parametrize("flag", [["trial", "--config"], ["spectrum", "--script"],
                                      ["render", "--matrix"]], ids=["config", "script", "matrix"])
    def test_a_file_that_is_not_utf8_exits_config_error_naming_it(self, tmp_path, capsys, flag):
        # a UnicodeDecodeError is a ValueError, not an OSError: each was a traceback, exit 1
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe")
        assert main([*flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"], ids=["2**64", "-1"])
    def test_a_seed_outside_64_bits_exits_config_error(self, tmp_path, capsys, monkeypatch,
                                                       seed):
        # a seed is folded modulo 2**64: --seed 2**64 wrote seed 0's trace byte for byte,
        # and -1 that of 2**64 - 1; so did a matrix header's master seed
        trials = spy_on_trials(monkeypatch)
        reason = f"seed {seed} is not an integer in [0, 18446744073709551616)"
        with pytest.raises(SystemExit) as exc:
            main(["trial", "--seed", seed, "--trial-seconds", "1"])
        assert exc.value.code == 2
        assert f"argument --seed: {reason}" in capsys.readouterr().err
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(f"# ringmill-matrix v1 seeds=1 trial_seconds=1 master_seed={seed}\n"
                          "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes\n"
                          "0.5,0.05,pass,0|pass|none|0.1|1000000,\n")
        assert main(["render", "--matrix", str(matrix)]) == 2
        assert f"line 1: bad matrix header: master_{reason}" in capsys.readouterr().err
        assert trials == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ringmill" in capsys.readouterr().out


class TestOneTimeRule:
    """A bad ms or s value is refused for the same reason, in the same words,
    by every entry point; each adds only its own location."""

    @pytest.mark.parametrize("entry", ["flag", "ini", "matrix", "python"])
    @pytest.mark.parametrize("raw, unit, reason", [
        ("-1", "ms", "-1.0 ms is not finite and >= 0"),
        ("nan", "ms", "nan ms is not finite and >= 0"),
        ("inf", "ms", "inf ms is not finite and >= 0"),
        ("1e306", "ms", "1e+306 ms is too large to count in us"),
        ("0.5004", "ms", "0.5004 ms is not a whole number of us"),
        ("2.0000004", "s", "2.0000004 s is not a whole number of us"),
        ("1e303", "s", "1e+303 s is too large to count in us"),
        ("0", "s", "0.0 s is not > 0"),
    ], ids=["negative-ms", "nan-ms", "inf-ms", "overflowing-ms", "fraction-of-us-ms",
            "fraction-of-us-s", "overflowing-s", "zero-s"])
    def test_a_bad_time_value_gets_one_reason_everywhere(self, tmp_path, capsys, monkeypatch,
                                                         raw, unit, reason, entry):
        monkeypatch.chdir(tmp_path)
        ms = unit == "ms"
        if entry == "python":
            if ms:
                with pytest.raises(ValueError) as channels:
                    DEFAULT_SCENARIO.channels_at(float(raw), 0.0)
                assert str(channels.value) == reason
            with pytest.raises(ValueError) as spec:
                SweepSpec(**{"latencies_ms": (float(raw),)} if ms
                          else {"trial_seconds": float(raw)})
            assert str(spec.value) == ("latencies_ms: " if ms else "trial_seconds: ") + reason
            return
        if entry == "flag":
            flag = "--latency-ms" if ms else "--trial-seconds"
            argv = ["trial", "--latency-ms", "1", "--jitter-ms", "0.1", flag, raw]
            location = f"argument {flag}: "
        elif entry == "ini":
            key = "latencies_ms" if ms else "trial_seconds"
            Path("scenario.ini").write_text(f"[sweep]\nseeds_per_cell = 1\n{key} = {raw}\n")
            argv = ["trial", "--config", "scenario.ini", "--latency-ms", "0.5",
                    "--jitter-ms", "0.05"]
            location = f"scenario.ini, line 3: [sweep] {key}: "
        else:
            Path("matrix.csv").write_text(
                f"# ringmill-matrix v1 seeds=1 trial_seconds={'1' if ms else raw} master_seed=0\n"
                "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes\n"
                f"{raw if ms else '0.5'},0.05,pass,0|pass|none|0.1|1000000,\n")
            argv = ["render", "--matrix", "matrix.csv"]
            location = ("line 3: bad matrix row: " if ms
                        else "line 1: bad matrix header: trial_seconds: ")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        assert code == 2
        assert capsys.readouterr().err.endswith(f"error: {location}{reason}\n")


# Run in a fresh interpreter, so that no module an earlier test imported counts.
# argv: the work directory and the README's spectrum script.
IMPORT_SET_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
import ringmill.cli

def loaded():
    return sorted(m for m in sys.modules if m == "ringmill" or m.startswith("ringmill."))

work = Path(sys.argv[1])
(work / "one-cell.ini").write_text(
    "[sweep]\\nlatencies_ms = 0.5\\njitters_ms = 0.05\\nseeds_per_cell = 1\\n")
(work / "script.txt").write_text(sys.argv[2])
runs = {
    "trial": ["trial", "--latency-ms", "0.5", "--jitter-ms", "0.05", "--trial-seconds", "0.2"],
    "sweep": ["sweep", "--config", str(work / "one-cell.ini"), "--trial-seconds", "0.2",
              "--output-dir", str(work / "sweep")],
    "render": ["render", "--matrix", str(work / "sweep" / "matrix.csv")],
    "spectrum": ["spectrum", "--script", str(work / "script.txt")],
}
modules = {"import": loaded()}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = ringmill.cli.main(argv)
    modules[name] = (code, loaded())
print(json.dumps(modules))
"""


class TestImports:
    def test_only_the_spectrum_subcommand_loads_the_spectrum_module(self, tmp_path):
        # every other subcommand starts without compiling spectrum.py, and
        # imports at load each module it runs, so no later import shows in its run
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        script = readme.split("## Spectrum scripts", 1)[1].split("```", 2)[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-c", IMPORT_SET_SCRIPT, str(tmp_path), script],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        modules = json.loads(done.stdout)
        at_import = modules.pop("import")
        assert "ringmill.spectrum" not in at_import
        for name in ("trial", "sweep", "render"):
            assert modules[name] == [0, at_import], name
        code, after_spectrum = modules["spectrum"]
        assert code == 0
        assert sorted({*at_import, "ringmill.spectrum"}) == after_spectrum
