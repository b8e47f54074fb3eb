"""INI scenario configuration.

A scenario file describes one run: `load_config` reads it into the
`RunManifest` that a sweep, a trial and a calibration all run from, plus
the command and feedback channels that only ``ringmill trial`` reads.
Every section is optional; omitted values fall back to the shipped
calibrated defaults.  The full schema is documented in the README.
``;`` and ``#`` start comments, also after a value.  Every error names its
line: a section or key outside the schema, text after a section header
that is not a comment, a value that cannot be read, and a section whose
values the object it builds rejects.
"""

from __future__ import annotations

import configparser
import math
import re
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .channel import ChannelProfile, JitterDistribution
from .engine import us_from
from .harness import RunManifest, SweepSpec
from .plant import load_trajectory_csv, validate_config_pair
from .trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO


class ConfigError(ValueError):
    pass


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"{raw!r} is not a boolean") from None


# time values go through the whole-µs rule here, so that an error names the key's line
def _ms_as_us(raw: str) -> int:
    return us_from(float(raw), "ms")


def _axis_ms(raw: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    for value in values:
        us_from(value, "ms")
    return values


def _seconds(raw: str) -> float:
    value = float(raw)
    us_from(value, "s", positive=True)
    return value


_GAINS = {"kp": _float, "ki": _float, "kd": _float, "integral_clamp": _float}
_LOOP = {"servo_period_us": int, "watchdog_timeout_us": int, "init_grace_us": int,
         "fe_limit_mm": _float, "delay_spread_tolerance_us": int, "rtt_rescue_budget_us": int}
_LOSS = {"loss_rate": _float}  # rings and channels both drop frames
# a (field, reader) pair where the dataclass field is not named like the key
_CHANNEL = {"mean_delay_ms": ("mean_delay_us", _ms_as_us),
            "jitter_ms": ("jitter_us", _ms_as_us),
            "distribution": JitterDistribution, "reorder": ("reorder_allowed", _bool),
            **_LOSS}

# every section a scenario file may have: its keys, each with its reader
_SCHEMA = {
    "sweep": {"latencies_ms": _axis_ms, "jitters_ms": _axis_ms, "seeds_per_cell": int,
              "trial_seconds": _seconds, "master_seed": int},
    "gains.default": _GAINS,
    "gains.adapted": _GAINS,
    "loop.default": _LOOP,
    "loop.adapted": _LOOP,
    "ring.control": {"nodes": _names, "slot_time_us": int, "tx_time_us": int,
                     "queue_depth": int, **_LOSS},
    "channel.command": _CHANNEL,
    "channel.feedback": _CHANNEL,
    # `file` (relative to the INI file) replaces the trapezoid
    "trajectory": {"amplitude_mm": _float, "velocity_mm_s": _float, "accel_mm_s2": _float,
                   "dwell_s": _float, "file": Path},
}

_KEY = re.compile(r"\s*(?P<key>[^=:;#\s][^=:]*?)\s*[=:]")


def _uncommented(line: str) -> str:
    """`line` as configparser reads it: cut at the first ``;`` or ``#`` that
    starts the line or follows a blank, found the way the parser scans
    (each prefix's next occurrence in turn), and stripped."""
    cut, scan = len(line), {";": -1, "#": -1}
    while cut == len(line) and scan:
        for prefix, index in list(scan.items()):
            index = line.find(prefix, index + 1)
            if index == -1:
                del scan[prefix]
            elif index == 0 or line[index - 1].isspace():
                cut = min(cut, index)
            else:
                scan[prefix] = index
    return line[:cut].strip()


def _lines(text: str, path: str | Path | None) -> dict[tuple, int]:
    """1-based line of each (section, key), and of each header as (section,
    None).  A header reads as configparser reads it; text after its ``]``
    that is not a comment is a `ConfigError`."""
    where, section = {}, None
    for number, line in enumerate(text.split("\n"), 1):  # the parser's lines
        value = _uncommented(line)
        header = configparser.ConfigParser.SECTCRE.match(value)
        if header:
            section = header["header"]
            rest = value[header.end():]
            if rest and rest[0] not in ";#":
                raise ConfigError(f"{path}, line {number}: text {rest.strip()!r} "
                                  f"after the section header [{section}]")
            where.setdefault((section, None), number)
        elif found := _KEY.match(line):
            where.setdefault((section, found["key"].lower()), number)
    return where


def load_config(path: str | Path | None,
                ) -> tuple[RunManifest, ChannelProfile | None, ChannelProfile | None]:
    """The run the INI file at `path` describes, and its command and feedback
    channels, each None where its section is absent.  With no path, the
    shipped defaults and no channels."""
    text = Path(path).read_text() if path else ""
    # default_section="" names no section a header can open, so [DEFAULT] is
    # an unknown section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    lines = _lines(text, path)

    def located(section: str, key: str | None, message) -> ConfigError:
        return ConfigError(f"{path}, line {lines[section, key]}: {message}")

    # section -> {field: value}, each value read once through the schema
    values: defaultdict[str, dict] = defaultdict(dict)
    for name in parser.sections():
        keys = _SCHEMA.get(name)
        if keys is None:
            raise located(name, None, f"unknown section [{name}]")
        for key, raw in parser[name].items():
            entry = keys.get(key)
            if entry is None:
                raise located(name, key, f"unknown key {key!r} in [{name}]")
            field, reader = entry if isinstance(entry, tuple) else (key, entry)
            try:
                if not raw:
                    raise ValueError("empty value")
                values[name][field] = reader(raw)
            except ValueError as exc:
                raise located(name, key, f"{key} = {raw}: {exc}") from None

    def build(section: str, make, *args, **kwargs):
        """make(*args, **kwargs), an error it raises located at [section]."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise located(section, None, f"[{section}] {exc}") from None

    def section(name: str, fallback, **extra):
        """`fallback` with the values [name] sets."""
        return build(name, replace, fallback, **values[name], **extra)

    spec = section("sweep", SweepSpec())
    default_loop = section("loop.default", DEFAULT_LOOP_CONFIG,
                           gains=section("gains.default", DEFAULT_LOOP_CONFIG.gains))
    adapted_loop = section("loop.adapted", ADAPTED_LOOP_CONFIG,
                           gains=section("gains.adapted", ADAPTED_LOOP_CONFIG.gains))
    build("loop.adapted" if parser.has_section("loop.adapted") else "loop.default",
          validate_config_pair, default_loop, adapted_loop)

    control_ring = section("ring.control", DEFAULT_SCENARIO.control_ring)
    traj = values["trajectory"]
    if "file" in traj:
        trapezoid = [key for key in traj if key != "file"]
        if trapezoid:
            raise located("trajectory", trapezoid[0], f"{trapezoid[0]} is set, but "
                          f"file = {traj['file']} replaces the trapezoid")
        try:
            trajectory = load_trajectory_csv((Path(path).parent / traj["file"]).read_text())
        except (OSError, ValueError) as exc:
            raise located("trajectory", "file", f"file = {traj['file']}: {exc}") from None
    else:
        trajectory = section("trajectory", DEFAULT_SCENARIO.trajectory)
    scenario = build("ring.control", replace, DEFAULT_SCENARIO, control_ring=control_ring,
                     trajectory=trajectory)

    run = RunManifest.for_run(spec, default_loop, adapted_loop, scenario)
    command, feedback = (section(name, ChannelProfile(0)) if parser.has_section(name) else None
                         for name in ("channel.command", "channel.feedback"))
    return run, command, feedback
