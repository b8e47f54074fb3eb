"""INI scenario configuration.

Every section is optional; omitted values fall back to the shipped
calibrated defaults.  The full schema is documented in the README.
``;`` and ``#`` start comments, also after a value.  A section or key
outside the schema is an error that names its line.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .channel import ChannelProfile, JitterDistribution
from .harness import SweepSpec
from .plant import LoopConfig, PidGains, TrapezoidTrajectory, load_trajectory_csv
from .ring import RingConfig
from .trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO, Scenario


class ConfigError(ValueError):
    pass


_GAIN_KEYS = frozenset({"kp", "ki", "kd", "integral_clamp"})
_LOOP_KEYS = frozenset({"servo_period_us", "watchdog_timeout_us", "init_grace_us",
                        "fe_limit_mm", "delay_spread_tolerance_us", "rtt_rescue_budget_us"})
_RING_KEYS = frozenset({"nodes", "slot_time_us", "tx_time_us", "queue_depth", "loss_rate"})
_CHANNEL_KEYS = frozenset({"mean_delay_ms", "jitter_ms", "distribution", "loss_rate",
                           "reorder"})

# every section a scenario file may have, with the keys it may hold
_SCHEMA: dict[str, frozenset[str]] = {
    "sweep": frozenset({"latencies_ms", "jitters_ms", "seeds_per_cell", "trial_seconds",
                        "master_seed"}),
    "gains.default": _GAIN_KEYS,
    "gains.adapted": _GAIN_KEYS,
    "loop.default": _LOOP_KEYS,
    "loop.adapted": _LOOP_KEYS,
    "ring.control": _RING_KEYS,
    "ring.sensor": _RING_KEYS | {"enabled"},
    "channel.overlay": _CHANNEL_KEYS,
    "channel.command": _CHANNEL_KEYS,
    "channel.feedback": _CHANNEL_KEYS,
    "trajectory": frozenset({"amplitude_mm", "velocity_mm_s", "accel_mm_s2", "dwell_s",
                             "file"}),
}

_HEADER = re.compile(r"\s*\[(?P<name>[^\]]+)\]")
_KEY = re.compile(r"\s*(?P<key>[^=:;#\s][^=:]*?)\s*[=:]")


def _line_of(text: str, section: str, key: str | None = None) -> int:
    """1-based line of a section header, or of a key inside that section."""
    current = None
    for number, line in enumerate(text.splitlines(), 1):
        header = _HEADER.match(line)
        if header:
            current = header["name"]
            if key is None and current == section:
                return number
        elif key is not None and current == section:
            found = _KEY.match(line)
            if found and found["key"].lower() == key:
                return number
    return 0


def _check_schema(parser: configparser.ConfigParser, text: str, path) -> None:
    names = parser.sections()
    if parser.defaults():  # its keys would show up in every section
        names.insert(0, parser.default_section)
    for name in names:
        allowed = _SCHEMA.get(name)
        if allowed is None:
            raise ConfigError(f"{path}, line {_line_of(text, name)}: "
                              f"unknown section [{name}]")
        for key in parser[name]:
            if key not in allowed:
                raise ConfigError(f"{path}, line {_line_of(text, name, key)}: "
                                  f"unknown key {key!r} in [{name}]")


@dataclass
class AppConfig:
    sweep: SweepSpec
    default_loop: LoopConfig
    adapted_loop: LoopConfig
    scenario: Scenario
    # fixed channel pair for single trials; None = take them from CLI flags
    command_profile: ChannelProfile | None = None
    feedback_profile: ChannelProfile | None = None


def default_app_config() -> AppConfig:
    return AppConfig(sweep=SweepSpec(), default_loop=DEFAULT_LOOP_CONFIG,
                     adapted_loop=ADAPTED_LOOP_CONFIG, scenario=DEFAULT_SCENARIO)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _gains(section, fallback: PidGains) -> PidGains:
    return PidGains(
        kp=section.getfloat("kp", fallback.kp),
        ki=section.getfloat("ki", fallback.ki),
        kd=section.getfloat("kd", fallback.kd),
        integral_clamp=section.getfloat("integral_clamp", fallback.integral_clamp),
    )


def _loop(section, gains: PidGains, fallback: LoopConfig) -> LoopConfig:
    return replace(
        fallback,
        gains=gains,
        servo_period_us=section.getint("servo_period_us", fallback.servo_period_us),
        watchdog_timeout_us=section.getint("watchdog_timeout_us", fallback.watchdog_timeout_us),
        init_grace_us=section.getint("init_grace_us", fallback.init_grace_us),
        fe_limit_mm=section.getfloat("fe_limit_mm", fallback.fe_limit_mm),
        delay_spread_tolerance_us=section.getint(
            "delay_spread_tolerance_us", fallback.delay_spread_tolerance_us),
        rtt_rescue_budget_us=section.getint(
            "rtt_rescue_budget_us", fallback.rtt_rescue_budget_us),
    )


def _ring(section, fallback: RingConfig) -> RingConfig:
    nodes = fallback.nodes
    if "nodes" in section:
        nodes = tuple(tok.strip() for tok in section["nodes"].split(",") if tok.strip())
    return RingConfig(
        ring_id=fallback.ring_id,
        nodes=nodes,
        slot_time_us=section.getint("slot_time_us", fallback.slot_time_us),
        tx_time_us=section.getint("tx_time_us", fallback.tx_time_us),
        queue_depth=section.getint("queue_depth", fallback.queue_depth),
        loss_rate=section.getfloat("loss_rate", fallback.loss_rate),
    )


def _channel(section, fallback: ChannelProfile) -> ChannelProfile:
    return ChannelProfile.from_ms(
        section.getfloat("mean_delay_ms", fallback.mean_delay_us / 1000.0),
        section.getfloat("jitter_ms", fallback.jitter_us / 1000.0),
        distribution=JitterDistribution(
            section.get("distribution", fallback.distribution.value)),
        loss_rate=section.getfloat("loss_rate", fallback.loss_rate),
        reorder_allowed=section.getboolean("reorder", fallback.reorder_allowed),
    )


def load_config(path: str | Path) -> AppConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    _check_schema(parser, text, path)

    app = default_app_config()
    known = set(parser.sections())

    def section(name):
        if not parser.has_section(name):
            parser.add_section(name)
        return parser[name]

    try:
        sweep_sec = section("sweep")
        app.sweep = SweepSpec(
            latencies_ms=_floats(sweep_sec.get("latencies_ms", "")) or app.sweep.latencies_ms,
            jitters_ms=_floats(sweep_sec.get("jitters_ms", "")) or app.sweep.jitters_ms,
            seeds_per_cell=sweep_sec.getint("seeds_per_cell", app.sweep.seeds_per_cell),
            trial_seconds=sweep_sec.getfloat("trial_seconds", app.sweep.trial_seconds),
            master_seed=sweep_sec.getint("master_seed", app.sweep.master_seed),
        )

        default_gains = _gains(section("gains.default"), app.default_loop.gains)
        adapted_gains = _gains(section("gains.adapted"), app.adapted_loop.gains)
        app.default_loop = _loop(section("loop.default"), default_gains, app.default_loop)
        app.adapted_loop = _loop(section("loop.adapted"), adapted_gains, app.adapted_loop)

        scenario = app.scenario
        sensor_ring = None
        if section("ring.sensor").getboolean("enabled", True):
            sensor_ring = _ring(section("ring.sensor"), scenario.sensor_ring)
        traj_sec = section("trajectory")
        if "file" in traj_sec:
            trajectory = load_trajectory_csv(Path(traj_sec["file"]).read_text())
        else:
            trajectory = TrapezoidTrajectory(**{
                f.name: traj_sec.getfloat(f.name, f.default)
                for f in fields(TrapezoidTrajectory)})
        app.scenario = Scenario(
            control_ring=_ring(section("ring.control"), scenario.control_ring),
            sensor_ring=sensor_ring,
            overlay_profile=_channel(section("channel.overlay"), scenario.overlay_profile),
            trajectory=trajectory)

        if "channel.command" in known:
            app.command_profile = _channel(section("channel.command"),
                                           ChannelProfile(0, 0))
        if "channel.feedback" in known:
            app.feedback_profile = _channel(section("channel.feedback"),
                                            ChannelProfile(0, 0))
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from None
    return app
