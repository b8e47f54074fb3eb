"""Scenario files: an INI file, a run manifest in another syntax, or a manifest.

A scenario file describes one run.  `load_config` turns an INI file into
the dict that `RunManifest.to_json` writes, and `harness._read` builds and
checks the run from that dict as it does a manifest's.  Each section sets one
object of the manifest (`_SECTIONS`) and each key one of its fields, so the
dataclass annotations are the one list of configured fields; what a file
leaves out is the shipped run's.  A raw value is read in the form of the
shipped value it replaces (`_value`).  Three keys are not named like their
field (`_RENAMED`), a few fields no key sets (`_UNSET`), and `[trajectory]
file` replaces the trapezoid with the table's points.  `_read_ini` applies
the file's rules in one pass over the lines.  Every error names its line:
a line the rules refuse, an unknown section or key, or a value that cannot
be read, at its own line; a field that `_read` refuses at its key's line;
and an object it refuses at the line of the key its message starts with,
if the file sets it, else at its section's header.

A file whose first non-blank character is `{` is a manifest as `sweep` and
`calibrate` write it: `load_config` reads it with `RunManifest.from_json`,
less the output paths and the wall clock of the run that wrote it, so
`--config out/manifest.json` replays that run.  Its refusal names the file
and the key path.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from functools import cache, reduce
from pathlib import Path

from .engine import ConfigError, read_text, us_from
from .harness import ManifestError, RunManifest, SweepSpec, _read
from .plant import load_trajectory_csv
from .trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG


def _bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "yes", "true", "on", "0", "no", "false", "off"):
        raise ValueError(f"{raw!r} is not a boolean")
    return word in ("1", "yes", "true", "on")


def _ms_as_us(raw: str) -> int:
    return us_from(float(raw), "ms")


def _value(raw: str, shipped):
    """`raw` read in the form of the manifest value `shipped` that it replaces: an int,
    a float, a bool, a str (an enum's value), or a list, of names split at commas or
    of numbers split at commas or blanks."""
    if type(shipped) is not list:
        return (_bool if type(shipped) is bool else type(shipped))(raw)
    if type(shipped[0]) is str:
        return [name.strip() for name in raw.split(",") if name.strip()]
    return [float(token) for token in raw.replace(",", " ").split()]


@cache
def _shipped() -> str:
    """The shipped run as a manifest writes it, made at the first load, not at import."""
    return RunManifest.for_run(SweepSpec(), DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG).to_json()


# every section a scenario file may have, and the key path of the manifest object it sets
_SECTIONS = {"sweep": "spec",
             "gains.default": "default_config.gains", "gains.adapted": "adapted_config.gains",
             "loop.default": "default_config", "loop.adapted": "adapted_config",
             "ring.control": "scenario.control_ring",
             "channel.command": "scenario.command_channel",
             "channel.feedback": "scenario.feedback_channel",
             "trajectory": "scenario.trajectory"}
# a key not named like its field: the field, and the reader of its value, or None for
# its field's form
_RENAMED = {"mean_delay_ms": ("mean_delay_us", _ms_as_us), "jitter_ms": ("jitter_us", _ms_as_us),
            "reorder": ("reorder_allowed", None)}
# the fields no key sets: a loop's flavour and gains (their own section), the ring's
# name, and the renamed ones
_UNSET = {"profile", "gains", "ring_id", *(field for field, _ in _RENAMED.values())}

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
    """The run the INI file or the manifest at `path` describes; with no path,
    the shipped defaults.  A channel section absent from the file leaves its
    channel at the scenario's default: no delay, no jitter, no loss."""
    text = read_text(path) if path else ""
    if text.lstrip().startswith("{"):  # a manifest: no INI line starts with "{"
        try:
            run = RunManifest.from_json(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return replace(run, output_paths={}, wall_clock_seconds=0.0)
    read = _read_ini(text, path)
    data = json.loads(_shipped())
    lines: dict[str, tuple[str, int]] = {}  # key path -> (section, line) of what the file sets
    file = None
    for name, (header, keys) in read.items():
        if name not in _SECTIONS:
            raise ConfigError(f"{path}, line {header}: unknown section [{name}]")
        lines[_SECTIONS[name]] = name, header
        values = reduce(dict.__getitem__, _SECTIONS[name].split("."), data)
        for key, (number, raw) in keys.items():
            field, reader = _RENAMED.get(key, (key, None))
            is_file = name == "trajectory" and key == "file"
            if not is_file and (field not in values or key in _UNSET):
                raise ConfigError(f"{path}, line {number}: unknown key {key!r} in [{name}]")
            try:
                if not raw:
                    raise ValueError("empty value")
                if is_file:
                    file = number, Path(raw)
                else:
                    values[field] = reader(raw) if reader else _value(raw, values[field])
            except ValueError as exc:
                raise ConfigError(f"{path}, line {number}: {key} = {raw}: {exc}") from None
            lines[f"{_SECTIONS[name]}.{field}"] = name, number
    if file:
        number, file = file
        trapezoid = [key for key in read["trajectory"][1] if key != "file"]
        if trapezoid:
            raise ConfigError(f"{path}, line {read['trajectory'][1][trapezoid[0]][0]}: "
                              f"{trapezoid[0]} is set, but file = {file} replaces the trapezoid")
        try:
            table = load_trajectory_csv(read_text(Path(path).parent / file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}, line {number}: file = {file}: {exc}") from None
        data["scenario"]["trajectory"] = {"points": table.points}
    try:
        return _read(data, RunManifest)
    except ManifestError as exc:
        # the key the reason starts with, the object's own section, an object the reason
        # names, or else the first section under the object
        words = re.findall(r"\w+", exc.reason)
        named = [exc.path + "." * bool(exc.path) + word for word in words]
        where = next(key for key in (named[0], exc.path, *named, *_SECTIONS.values())
                     if key in lines and key.startswith(exc.path))
        section, number = lines[where]
        raise ConfigError(f"{path}, line {number}: [{section}] {exc.reason}") from None
