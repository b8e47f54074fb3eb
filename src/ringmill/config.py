"""INI scenario configuration.

A scenario file describes one run: `load_config` reads it into the
`RunManifest` that a sweep, a trial and a calibration all run from, with
the control ring, both channels and the trajectory in its `Scenario`.
Every section is optional; omitted values fall back to the shipped
calibrated defaults.  The schema and the file's rules are in the README;
`_read_ini` applies the rules in one pass over the lines.  Every error
names its line: a line that is not a header, a key or a continuation, a
key before any section, a section or key given twice or outside the
schema, text after a header that is not a comment, a value that cannot be
read or that its field's range refuses, and a section whose values the
object it builds rejects as a whole.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from .channel import JitterDistribution
from .engine import field_hints, hold, us_from
from .harness import RunManifest, SweepSpec
from .plant import load_trajectory_csv, validate_config_pair
from .trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, DEFAULT_SCENARIO


class ConfigError(ValueError):
    pass


def _names(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "yes", "true", "on", "0", "no", "false", "off"):
        raise ValueError(f"{raw!r} is not a boolean")
    return word in ("1", "yes", "true", "on")


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


_GAINS = {"kp": float, "ki": float, "kd": float, "integral_clamp": float}
_LOOP = {"servo_period_us": int, "watchdog_timeout_us": int, "init_grace_us": int,
         "fe_limit_mm": float, "delay_spread_tolerance_us": int, "rtt_rescue_budget_us": int}
_LOSS = {"loss_rate": float}  # rings and channels both drop frames
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
    "trajectory": {"amplitude_mm": float, "velocity_mm_s": float, "accel_mm_s2": float,
                   "dwell_s": float, "file": Path},
}

# a comment starts at a ";" or "#" that starts the line or follows a blank
_COMMENT = re.compile(r"(?:^|(?<=\s))[;#]")
_HEADER = re.compile(r"\[(?P<name>.+)\](?P<rest>.*)")  # the name runs to the last "]"
_ITEM = re.compile(r"(?P<key>[^=:]+?)\s*[=:]\s*(?P<raw>.*)")


def _read_ini(text: str, path: str | Path | None) -> dict[str, tuple[int, dict]]:
    """{section: (header line, {key: [line, raw value]})}, lines counted from 1
    and keys lower-cased.  A line indented past its key's line continues the
    value, each blank line before it kept as a newline."""
    sections: dict[str, tuple[int, dict]] = {}
    keys, key, indent, gap = None, None, 0, ""
    for number, line in enumerate(text.split("\n"), 1):
        comment, problem = _COMMENT.search(line), None
        value = line[:comment.start() if comment else None].strip()
        margin = len(line) - len(line.lstrip())
        if not value:
            gap += "" if comment else "\n"
        elif key and margin > indent:
            keys[key][1] += f"{gap}\n{value}"
            gap = ""
        elif header := _HEADER.fullmatch(value):
            name, rest = header["name"], header["rest"]
            if rest[:1] not in ("", ";", "#"):
                problem = f"text {rest.strip()!r} after the section header [{name}]"
            elif name in sections:
                problem = f"section [{name}] is given twice, first on line {sections[name][0]}"
            keys, key = sections.setdefault(name, (number, {}))[1], None
        elif not (item := _ITEM.fullmatch(value)):
            problem = f"{value!r} is not a [section], a key = value or a continuation"
        elif keys is None:
            problem = f"{value!r} comes before any [section]"
        elif (key := item["key"].lower()) in keys:
            problem = f"key {key!r} is given twice in [{name}], first on line {keys[key][0]}"
        else:
            keys[key], indent, gap = [number, item["raw"]], margin, ""
        if problem:
            raise ConfigError(f"{path}, line {number}: {problem}")
    return sections


def load_config(path: str | Path | None) -> RunManifest:
    """The run the INI file at `path` describes; with no path, the shipped
    defaults.  A channel section absent from the file leaves its channel
    at the scenario's default: no delay, no jitter, no loss."""
    read = _read_ini(Path(path).read_text() if path else "", path)

    def located(section: str, key: str | None, message) -> ConfigError:
        header_line, keys = read[section]
        return ConfigError(f"{path}, line {keys[key][0] if key else header_line}: {message}")

    # section -> {key: (field, value)}, each value read once through the schema
    values: defaultdict[str, dict] = defaultdict(dict)
    for name, (_, keys) in read.items():
        schema = _SCHEMA.get(name)
        if schema is None:
            raise located(name, None, f"unknown section [{name}]")
        for key, (_, raw) in keys.items():
            entry = schema.get(key)
            if entry is None:
                raise located(name, key, f"unknown key {key!r} in [{name}]")
            field, reader = entry if isinstance(entry, tuple) else (key, entry)
            try:
                if not raw:
                    raise ValueError("empty value")
                values[name][key] = field, reader(raw)
            except ValueError as exc:
                raise located(name, key, f"{key} = {raw}: {exc}") from None

    def build(section: str, make, *args, key: str | None = None, **kwargs):
        """make(*args, **kwargs), an error it raises located at [section], or at its `key`."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise located(section, key, f"[{section}] {exc}") from None

    def section(name: str, fallback, **extra):
        """`fallback` with the values [name] sets, each held first at its key's line."""
        hints = field_hints(type(fallback))
        for key, (field, value) in values[name].items():
            build(name, hold, value, hints[field], field, key=key)
        return build(name, replace, fallback, **dict(values[name].values()), **extra)

    spec = section("sweep", SweepSpec())
    default_loop = section("loop.default", DEFAULT_LOOP_CONFIG,
                           gains=section("gains.default", DEFAULT_LOOP_CONFIG.gains))
    adapted_loop = section("loop.adapted", ADAPTED_LOOP_CONFIG,
                           gains=section("gains.adapted", ADAPTED_LOOP_CONFIG.gains))
    build("loop.adapted" if "loop.adapted" in read else "loop.default",
          validate_config_pair, default_loop, adapted_loop)

    control_ring = section("ring.control", DEFAULT_SCENARIO.control_ring)
    command = section("channel.command", DEFAULT_SCENARIO.command_channel)
    feedback = section("channel.feedback", DEFAULT_SCENARIO.feedback_channel)
    traj = values["trajectory"]
    if "file" in traj:
        file = traj["file"][1]
        trapezoid = [key for key in traj if key != "file"]
        if trapezoid:
            raise located("trajectory", trapezoid[0], f"{trapezoid[0]} is set, but "
                          f"file = {file} replaces the trapezoid")
        try:
            trajectory = load_trajectory_csv((Path(path).parent / file).read_text())
        except (OSError, ValueError) as exc:
            raise located("trajectory", "file", f"file = {file}: {exc}") from None
    else:
        trajectory = section("trajectory", DEFAULT_SCENARIO.trajectory)
    scenario = build("ring.control", replace, DEFAULT_SCENARIO, control_ring=control_ring,
                     trajectory=trajectory, command_channel=command, feedback_channel=feedback)
    return RunManifest.for_run(spec, default_loop, adapted_loop, scenario)
