import json
import re
from pathlib import Path

import pytest

from ringmill.cli import main
from ringmill.config import ConfigError, default_app_config, load_config
from ringmill.harness import RunManifest, parse_matrix_csv


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

[band]
low_mhz = 3700
high_mhz = 3800
"""


class TestConfig:
    def test_defaults_without_file(self):
        app = default_app_config()
        assert app.sweep.seeds_per_cell == 3
        assert app.default_loop.profile.value == "default"
        assert app.control_ring.slot_time_us == 800

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(CONFIG_TEXT)
        app = load_config(path)
        assert app.sweep.latencies_ms == (0.5, 1.0)
        assert app.sweep.master_seed == 5
        assert app.default_loop.gains.kp == 38.0
        assert app.default_loop.watchdog_timeout_us == 2200
        assert app.adapted_loop.gains.kp == 40.0  # untouched section keeps default
        assert app.trajectory.amplitude == 15.0

    def test_sensor_ring_can_be_disabled(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[ring.sensor]\nenabled = false\n")
        assert load_config(path).sensor_ring is None

    def test_trajectory_csv_file(self, tmp_path):
        traj = tmp_path / "moves.csv"
        traj.write_text("time_ms,setpoint_mm\n0,0\n500,10\n1000,0\n")
        path = tmp_path / "scenario.ini"
        path.write_text(f"[trajectory]\nfile = {traj}\n")
        app = load_config(path)
        assert app.trajectory.position(250_000) == pytest.approx(5.0)

    def test_bad_ini_is_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("not an ini file at all [")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_is_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[sweep]\nseeds_per_cell = -3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_ini_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S)[1])
        app = load_config(path)
        assert app.sensor_ring is not None  # "enabled = true ; set false ..."
        assert app.default_loop.init_grace_us == 2_000_000
        assert app.command_profile.mean_delay_us == 3_000
        assert app.overlay_profile.distribution.value == "uniform"

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

    def test_mistyped_section_exits_config_error(self, tmp_path, capsys):
        config = tmp_path / "typo.ini"
        config.write_text("[loop.defualt]\nfe_limit_mm = 0.5\n")
        assert main(["trial", "--config", str(config), "--latency-ms", "0.5",
                     "--jitter-ms", "0.05", "--trial-seconds", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 1: unknown section [loop.defualt]" in err

    def test_trial_without_channels_is_config_error(self, capsys):
        assert main(["trial", "--trial-seconds", "1"]) == 2
        assert "channel" in capsys.readouterr().err

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
        assert manifest.master_seed == 5
        result = parse_matrix_csv(matrix_csv.read_text())
        assert len(result.cells) == 2
        capsys.readouterr()

        assert main(["render", "--matrix", str(matrix_csv),
                     "--format", "markdown"]) == 0
        assert "✓" in capsys.readouterr().out

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

    def test_missing_file_exits_config_error(self, capsys):
        assert main(["render", "--matrix", "/nonexistent/matrix.csv"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ringmill" in capsys.readouterr().out
