"""Experiment orchestration: latency/jitter sweeps, rendering, manifests.

A sweep evaluates every (latency, jitter) cell to one of three classes:

* ``Pass`` - the stock driver configuration survives every seeded trial;
* ``PassWithAdaptation`` - the stock configuration fails at least one
  seed but the adapted configuration survives all of them;
* ``Fail`` - even the adapted configuration fails a seed.

All randomness is pre-assigned per (cell, seed index), so evaluation
order cannot influence any verdict, and a run manifest is sufficient to
reproduce a sweep byte-for-byte.

Every module a trial or a sweep runs is imported here, at load; spectrum
scripts are replayed by `spectrum.py`.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from types import UnionType
from typing import Annotated, Sequence, get_args, get_origin

from .engine import (In, ScriptError, Seed, _fmt, check_fields, derive_seed, field_hints, hold,
                     us_from)
from .plant import FailCause, LoopConfig, TrialVerdict, validate_config_pair
from .trial import DEFAULT_SCENARIO, Scenario, run_trial

ARTIFACT_VERSION = "0.6.0"

DEFAULT_LATENCIES_MS = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
DEFAULT_JITTERS_MS = (0.05, 0.1, 0.15, 0.2, 0.3)


class CellClass(enum.Enum):
    PASS = "pass"
    PASS_WITH_ADAPTATION = "pass-with-adaptation"
    FAIL = "fail"

    @property
    def symbol(self) -> str:
        return {CellClass.PASS: "✓",
                CellClass.PASS_WITH_ADAPTATION: "(✓)",
                CellClass.FAIL: "x"}[self]


def reference_pattern() -> dict[tuple[float, float], CellClass]:
    """Known-good verdict pattern over the default axes; the calibration target.

    Operation is clean up to 3 ms latency at jitter up to 0.15 ms; the
    0.2 ms jitter row needs the adapted driver except on the fastest
    link; nothing works at 5 ms latency or 0.3 ms jitter.
    """
    pattern = {}
    for lat in DEFAULT_LATENCIES_MS:
        for jit in DEFAULT_JITTERS_MS:
            if lat >= 5.0 or jit >= 0.3:
                cls = CellClass.FAIL
            elif jit >= 0.2:
                cls = CellClass.PASS if lat <= 0.5 else CellClass.PASS_WITH_ADAPTATION
            else:
                cls = CellClass.PASS
            pattern[(lat, jit)] = cls
    return pattern


@dataclass(frozen=True)
class SweepSpec:
    latencies_ms: tuple[float, ...] = DEFAULT_LATENCIES_MS
    jitters_ms: tuple[float, ...] = DEFAULT_JITTERS_MS
    seeds_per_cell: Annotated[int, In("[1, inf)")] = 3
    trial_seconds: float = 60.0
    master_seed: Seed = 0

    def __post_init__(self):
        check_fields(self)  # True would run a 1 ms cell named True, or 1 s trials
        for name, axis in (("latencies_ms", self.latencies_ms), ("jitters_ms", self.jitters_ms)):
            if not axis:
                raise ValueError(f"{name} is empty")
            try:
                for value in axis:
                    us_from(value, "ms")  # the link a cell runs is the one it is named after
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} {axis} is not strictly increasing")
        try:
            us_from(self.trial_seconds, "s", positive=True)  # a trial runs whole µs
        except ValueError as exc:
            raise ValueError(f"trial_seconds: {exc}") from None


@dataclass(frozen=True)
class CellVerdict:
    """A cell's class and its trials' verdicts per driver, seed 0 first."""

    latency_ms: float
    jitter_ms: float
    cell_class: CellClass
    default_outcomes: tuple[TrialVerdict, ...]
    adapted_outcomes: tuple[TrialVerdict, ...]


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[CellVerdict]  # sorted ascending (latency, jitter)

    def classes(self) -> dict[tuple[float, float], CellClass]:
        return {(c.latency_ms, c.jitter_ms): c.cell_class for c in self.cells}


def _trial_seed(master_seed: int, latency_ms: float, jitter_ms: float,
                seed_index: int) -> int:
    return derive_seed(master_seed, "trial", us_from(latency_ms, "ms"),
                       us_from(jitter_ms, "ms"), seed_index)


def _cell_class(default: Sequence[TrialVerdict], adapted: Sequence[TrialVerdict],
                seeds_per_cell: int) -> CellClass | None:
    """The class of a cell whose trials had these outcomes, or None where
    `evaluate_cell` would not have run exactly these trials.

    Each driver runs the seeds in order and stops at its first failure; the
    adapted driver runs only after the stock one has failed.
    """
    def passed(outcomes) -> bool | None:
        """True if every seed passed, False if the last trial failed, None if
        these are not the trials of one driver."""
        if len(outcomes) > seeds_per_cell or any(not o.passed for o in outcomes[:-1]):
            return None
        if outcomes and not outcomes[-1].passed:
            return False
        return True if len(outcomes) == seeds_per_cell else None

    default_passed, adapted_passed = passed(default), passed(adapted)
    if default_passed and not adapted:
        return CellClass.PASS
    if default_passed is False and adapted_passed is not None:
        return CellClass.PASS_WITH_ADAPTATION if adapted_passed else CellClass.FAIL
    return None


def evaluate_cell(spec: SweepSpec, default_config: LoopConfig, adapted_config: LoopConfig,
                  latency_ms: float, jitter_ms: float,
                  scenario: Scenario = DEFAULT_SCENARIO) -> CellVerdict:
    """Classify one cell on the scenario's channels, with the seed count, trial
    length and master seed of `spec`; trials stop once the class is decided.  A
    pair that is not (default, adapted) is refused before any trial runs."""
    validate_config_pair(default_config, adapted_config)
    seeds = spec.seeds_per_cell
    length_us = us_from(spec.trial_seconds, "s")
    cmd, fb = scenario.channels_at(latency_ms, jitter_ms)
    default: list[TrialVerdict] = []
    adapted: list[TrialVerdict] = []
    for config, outcomes in ((default_config, default), (adapted_config, adapted)):
        if _cell_class(default, adapted, seeds) is not None:
            break  # the stock driver passed every seed
        for i in range(seeds):
            verdict = run_trial(config, cmd, fb, trial_length_us=length_us,
                                seed=_trial_seed(spec.master_seed, latency_ms, jitter_ms, i),
                                scenario=scenario)
            outcomes.append(verdict)
            if not verdict.passed:
                break
    return CellVerdict(latency_ms, jitter_ms, _cell_class(default, adapted, seeds),
                       tuple(default), tuple(adapted))


def run_sweep(spec: SweepSpec, default_config: LoopConfig, adapted_config: LoopConfig,
              scenario: Scenario = DEFAULT_SCENARIO,
              order: str = "severe-first") -> SweepResult:
    """Evaluate the full matrix; `order` must not (and cannot) change verdicts."""
    cells = [(lat, jit) for lat in spec.latencies_ms for jit in spec.jitters_ms]
    if order == "severe-first":
        cells.sort(key=lambda c: (-c[0], -c[1]))
    elif order == "mild-first":
        cells.sort()
    else:
        raise ValueError(f"unknown evaluation order {order!r}")

    verdicts = [evaluate_cell(spec, default_config, adapted_config, lat, jit, scenario)
                for lat, jit in cells]
    verdicts.sort(key=lambda v: (v.latency_ms, v.jitter_ms))
    return SweepResult(spec=spec, cells=verdicts)


# ---------------------------------------------------------------------------
# Rendering and parsing.


_CSV_COLUMNS = "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes"


def render_matrix(result: SweepResult, fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return _render_markdown(result)
    if fmt == "csv":
        return _render_csv(result)
    if fmt == "structured":
        return _render_structured(result)
    raise ValueError(f"unknown format {fmt!r}")


def _render_markdown(result: SweepResult) -> str:
    lats = result.spec.latencies_ms
    classes = result.classes()
    header = "| Jitter \\ Latency (ms) | " + " | ".join(_fmt(l) for l in lats) + " |"
    rule = "|" + "---|" * (len(lats) + 1)
    lines = [header, rule]
    for jit in result.spec.jitters_ms:
        row = [f"| {_fmt(jit)} |"]
        for lat in lats:
            row.append(f" {classes[(lat, jit)].symbol} |")
        lines.append("".join(row))
    return "\n".join(lines) + "\n"


def _encode_outcomes(outcomes: tuple[TrialVerdict, ...]) -> str:
    return ";".join(
        f"{i}|{'pass' if o.passed else 'fail'}|{o.fail_cause.value}"
        f"|{o.max_following_error_mm:.9f}|{o.survived_us}"
        for i, o in enumerate(outcomes))


def _decode_outcomes(text: str) -> tuple[TrialVerdict, ...]:
    if not text:
        return ()
    outcomes = []
    for i, token in enumerate(text.split(";")):
        idx, status, cause, max_fe, survived = token.split("|")
        if int(idx) != i:
            raise ValueError("trials are not seeds 0, 1, ... in order")
        if status not in ("pass", "fail"):
            raise ValueError(f"status {status!r} is neither pass nor fail")
        # an unknown cause, one the status contradicts, or a value out of range raises here
        outcomes.append(TrialVerdict(status == "pass", FailCause(cause), float(max_fe),
                                     int(survived)))
    return tuple(outcomes)


def _render_csv(result: SweepResult) -> str:
    spec = result.spec
    lines = [
        "# ringmill-matrix v1 "
        f"seeds={spec.seeds_per_cell} trial_seconds={_fmt(spec.trial_seconds)} "
        f"master_seed={spec.master_seed}",
        _CSV_COLUMNS,
    ]
    for c in result.cells:
        lines.append(
            f"{_fmt(c.latency_ms)},{_fmt(c.jitter_ms)},{c.cell_class.value},"
            f"{_encode_outcomes(c.default_outcomes)},{_encode_outcomes(c.adapted_outcomes)}")
    return "\n".join(lines) + "\n"


def _class_inconsistency(cell: CellVerdict, spec: SweepSpec) -> str | None:
    """Why `evaluate_cell` could not have given this cell, or None if it could."""
    length_us = us_from(spec.trial_seconds, "s")
    n = spec.seeds_per_cell
    default, adapted = cell.default_outcomes, cell.adapted_outcomes
    for outcomes in (default, adapted):
        if len(outcomes) > n:
            return f"{len(outcomes)} trials for {n} seeds"
        for o in outcomes:
            if o.survived_us > length_us or o.passed and o.survived_us != length_us:
                return f"a trial survived {o.survived_us} us of {length_us}"
    if _cell_class(default, adapted, n) is not cell.cell_class:
        return f"class {cell.cell_class.value} does not follow from its trials"
    return None


def parse_matrix_csv(text: str) -> SweepResult:
    """Read a `matrix.csv` back; a line that cannot be read raises a ScriptError."""
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if len(lines) < 2 or not lines[0][1].startswith("# ringmill-matrix v1"):
        raise ScriptError(lines[0][0] if lines else 1, "not a ringmill matrix CSV")
    if lines[1][1] != _CSV_COLUMNS:
        raise ScriptError(lines[1][0], f"expected the column header {_CSV_COLUMNS}")
    cells: dict[tuple[float, float], CellVerdict] = {}
    line_of: dict[tuple[float, float], int] = {}
    for number, line in lines[2:]:
        try:
            lat, jit, cls, default_enc, adapted_enc = line.split(",")
            cell = CellVerdict(float(lat), float(jit), CellClass(cls),
                               _decode_outcomes(default_enc), _decode_outcomes(adapted_enc))
            us_from(cell.latency_ms, "ms"), us_from(cell.jitter_ms, "ms")
        except ValueError as exc:
            raise ScriptError(number, f"bad matrix row: {exc}") from None
        key = (cell.latency_ms, cell.jitter_ms)
        if key in cells:
            raise ScriptError(number, f"duplicate cell {lat},{jit}")
        cells[key] = cell
        line_of[key] = number
    if not cells:
        raise ScriptError(lines[1][0], "no matrix rows")
    lats = tuple(sorted({lat for lat, _ in cells}))
    jits = tuple(sorted({jit for _, jit in cells}))
    if len(cells) != len(lats) * len(jits):
        raise ScriptError(lines[-1][0], f"{len(cells)} rows for a "
                          f"{len(lats)} x {len(jits)} latency x jitter grid")
    try:
        meta = dict(tok.split("=") for tok in lines[0][1].split()[3:])
        spec = SweepSpec(latencies_ms=lats, jitters_ms=jits,
                         seeds_per_cell=int(meta["seeds"]),
                         trial_seconds=float(meta["trial_seconds"]),
                         master_seed=int(meta["master_seed"]))
    except (ValueError, KeyError) as exc:
        raise ScriptError(lines[0][0], f"bad matrix header: {exc}") from None
    for key, cell in cells.items():
        problem = _class_inconsistency(cell, spec)
        if problem:
            raise ScriptError(line_of[key], f"cell {_fmt(key[0])},{_fmt(key[1])}: {problem}")
    return SweepResult(spec=spec, cells=[cells[key] for key in sorted(cells)])


def _trials_json(outcomes: tuple[TrialVerdict, ...]) -> list[dict]:
    return [{**asdict(o), "fail_cause": o.fail_cause.value, "seed_index": i}
            for i, o in enumerate(outcomes)]


def _render_structured(result: SweepResult) -> str:
    lines = []
    for c in result.cells:
        lines.append(json.dumps({
            "latency_ms": c.latency_ms,
            "jitter_ms": c.jitter_ms,
            "class": c.cell_class.value,
            "default": _trials_json(c.default_outcomes),
            "adapted": _trials_json(c.adapted_outcomes),
        }, sort_keys=True))
    summary = {
        "kind": "sweep-summary",
        "spec": asdict(result.spec),
        "classes": {f"{_fmt(k[0])},{_fmt(k[1])}": v.value
                    for k, v in sorted(result.classes().items())},
    }
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run manifests.


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"manifest number {token} is not finite")
    return value


class ManifestError(ValueError):
    """A value or an object that `_read` refuses: its manifest key path, "" for
    the manifest itself, and the bare reason, which the INI reader places on a line."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"manifest key {path!r}: {reason}" if path else reason)
        self.path, self.reason = path, reason


def _read(value, hint, path: str = ""):
    """The value of type `hint` that `to_json` wrote as `value` at the manifest
    key `path`.  Every object must have exactly its dataclass's keys, an enum
    field takes one of its values, and any other field what `engine.hold` takes
    for it, range included.  A value's refusal is a `ManifestError` at its path: a
    field's own, or an object's for a check that relates its fields."""
    if get_origin(hint) is UnionType:  # the member that shares a key with it
        members = get_args(hint)
        hint = next((a for a in members if isinstance(value, dict)
                     and value.keys() & field_hints(a).keys()), members[0])
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"manifest key {path!r} is not an object")
        hints = field_hints(hint)
        key = min(value.keys() ^ hints.keys(), default=None)
        if key is not None:
            raise ValueError(f"manifest key {path + '.' * bool(path) + key!r} is "
                             f"{'missing' if key in hints else 'unknown'}")
        items = {key: _read(item, hints[key], path + "." * bool(path) + key)
                 for key, item in value.items()}

    name = path.rpartition(".")[2]
    try:
        if is_dataclass(hint):
            return hint(**items)
        if not (isinstance(hint, type) and issubclass(hint, enum.Enum)):
            return hold(value, hint, name)
        if type(value) is str and value in {m.value for m in hint}:  # an enum by its value
            return hint(value)
        raise ValueError(f"{name} {value!r} is not one of {', '.join(m.value for m in hint)}")
    except ValueError as exc:
        raise ManifestError(path, str(exc)) from None


@dataclass
class RunManifest:
    """One run, from its scenario file to its artifacts: everything needed
    to reproduce a sweep bit-exactly."""

    artifact_version: str
    spec: SweepSpec
    default_config: LoopConfig
    adapted_config: LoopConfig
    scenario: Scenario
    output_paths: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def __post_init__(self):
        check_fields(self)
        validate_config_pair(self.default_config, self.adapted_config)

    @classmethod
    def for_run(cls, spec: SweepSpec, default_config: LoopConfig,
                adapted_config: LoopConfig, scenario: Scenario = DEFAULT_SCENARIO) -> "RunManifest":
        return cls(ARTIFACT_VERSION, spec, default_config, adapted_config, scenario)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        # NaN, Infinity and overflowing numbers load as floats no value may hold
        data = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
        if not isinstance(data, dict):
            raise ValueError("manifest is not a JSON object")
        if data.get("artifact_version") != ARTIFACT_VERSION:
            raise ValueError(f"manifest artifact version {data.get('artifact_version')!r}, "
                             f"expected {ARTIFACT_VERSION!r}")
        return _read(data, cls)


def run_from_manifest(manifest: RunManifest) -> tuple[SweepResult, str]:
    """Re-execute a manifest; returns the result and its verdict CSV."""
    started = time.monotonic()
    result = run_sweep(manifest.spec, manifest.default_config, manifest.adapted_config,
                       manifest.scenario)
    manifest.wall_clock_seconds = time.monotonic() - started
    return result, render_matrix(result, "csv")
