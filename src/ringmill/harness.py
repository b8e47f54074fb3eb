"""Experiment orchestration: latency/jitter sweeps, rendering, manifests.

A sweep evaluates every (latency, jitter) cell to one of three classes:

* ``Pass`` - the stock driver configuration survives every seeded trial;
* ``PassWithAdaptation`` - the stock configuration fails at least one
  seed but the adapted configuration survives all of them;
* ``Fail`` - even the adapted configuration fails a seed.

All randomness is pre-assigned per (cell, seed index), so evaluation
order cannot influence any verdict, and a run manifest is sufficient to
reproduce a sweep byte-for-byte.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .engine import SimTime, derive_seed, us_from
from .plant import (FailCause, LoopConfig, PidGains, Profile, TabulatedTrajectory,
                    TrapezoidTrajectory, TrialVerdict, validate_config_pair)
from .ring import RingConfig
from .spectrum import CoverageArea, SpectrumError, SpectrumManager, SpectrumRequest
from .trial import DEFAULT_SCENARIO, Scenario, run_trial, symmetric_profiles

ARTIFACT_VERSION = "0.4.0"

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
    seeds_per_cell: int = 3
    trial_seconds: float = 60.0
    master_seed: int = 0

    def __post_init__(self):
        for name, axis in (("latencies", self.latencies_ms), ("jitters", self.jitters_ms)):
            if not axis:
                raise ValueError(f"{name} axis is empty")
            try:
                for value in axis:
                    us_from(value, "ms")  # the link a cell runs is the one it is named after
            except ValueError as exc:
                raise ValueError(f"{name} axis: {exc}") from None
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} axis must be strictly increasing")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")
        us_from(self.trial_seconds, "s", positive=True)  # its one value in s; a trial runs whole µs


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


def evaluate_cell(default_config: LoopConfig, adapted_config: LoopConfig,
                  latency_ms: float, jitter_ms: float,
                  seeds_per_cell: int, trial_seconds: float,
                  master_seed: int, scenario: Scenario = DEFAULT_SCENARIO) -> CellVerdict:
    """Classify one cell; trials stop early once the class is decided."""
    length_us = us_from(trial_seconds, "s")
    cmd, fb = symmetric_profiles(latency_ms, jitter_ms)
    default: list[TrialVerdict] = []
    adapted: list[TrialVerdict] = []
    for config, outcomes in ((default_config, default), (adapted_config, adapted)):
        if _cell_class(default, adapted, seeds_per_cell) is not None:
            break  # the stock driver passed every seed
        for i in range(seeds_per_cell):
            verdict = run_trial(config, cmd, fb, trial_length_us=length_us,
                                seed=_trial_seed(master_seed, latency_ms, jitter_ms, i),
                                scenario=scenario)
            outcomes.append(verdict)
            if not verdict.passed:
                break
    return CellVerdict(latency_ms, jitter_ms, _cell_class(default, adapted, seeds_per_cell),
                       tuple(default), tuple(adapted))


def run_sweep(spec: SweepSpec, default_config: LoopConfig, adapted_config: LoopConfig,
              scenario: Scenario = DEFAULT_SCENARIO,
              order: str = "severe-first") -> SweepResult:
    """Evaluate the full matrix; `order` must not (and cannot) change verdicts."""
    validate_config_pair(default_config, adapted_config)
    cells = [(lat, jit) for lat in spec.latencies_ms for jit in spec.jitters_ms]
    if order == "severe-first":
        cells.sort(key=lambda c: (-c[0], -c[1]))
    elif order == "mild-first":
        cells.sort()
    else:
        raise ValueError(f"unknown evaluation order {order!r}")

    verdicts = [
        evaluate_cell(default_config, adapted_config, lat, jit,
                      spec.seeds_per_cell, spec.trial_seconds, spec.master_seed, scenario)
        for lat, jit in cells
    ]
    verdicts.sort(key=lambda v: (v.latency_ms, v.jitter_ms))
    return SweepResult(spec=spec, cells=verdicts)


# ---------------------------------------------------------------------------
# Rendering and parsing.


def _fmt(value: float) -> str:
    # every whole-µs value reads back exactly; 0.5, 2 or 60 as with `:g`
    return f"{value:.15g}"


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
        # an unknown cause, or one the status contradicts, raises here
        verdict = TrialVerdict(status == "pass", FailCause(cause), float(max_fe), int(survived))
        if not 0 <= verdict.max_following_error_mm < math.inf:
            raise ValueError(f"max following error {max_fe} mm is not finite and >= 0")
        if verdict.survived_us < 0:
            raise ValueError(f"survived {survived} us is negative")
        outcomes.append(verdict)
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


def _manifest_fields(data: dict) -> dict:
    """A manifest's fields, rebuilt from the `asdict` form that `to_json` writes."""
    def loop(values):
        return LoopConfig(**{**values, "profile": Profile(values["profile"]),
                             "gains": PidGains(**values["gains"])})

    spec, scenario = data["spec"], data["scenario"]
    ring, trajectory = scenario["control_ring"], scenario["trajectory"]
    return {
        **data,
        "spec": SweepSpec(**{**spec, "latencies_ms": tuple(spec["latencies_ms"]),
                             "jitters_ms": tuple(spec["jitters_ms"])}),
        "default_config": loop(data["default_config"]),
        "adapted_config": loop(data["adapted_config"]),
        "scenario": Scenario(
            control_ring=RingConfig(**{**ring, "nodes": tuple(ring["nodes"])}),
            trajectory=(TabulatedTrajectory(**trajectory) if "points" in trajectory
                        else TrapezoidTrajectory(**trajectory))),
    }


@dataclass
class RunManifest:
    """One run, from its scenario file to its artifacts: everything needed
    to reproduce a sweep bit-exactly."""

    artifact_version: str
    spec: SweepSpec
    eval_order: str
    default_config: LoopConfig
    adapted_config: LoopConfig
    scenario: Scenario
    output_paths: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    @classmethod
    def for_run(cls, spec: SweepSpec, default_config: LoopConfig,
                adapted_config: LoopConfig, scenario: Scenario = DEFAULT_SCENARIO,
                order: str = "severe-first") -> "RunManifest":
        return cls(ARTIFACT_VERSION, spec, order, default_config, adapted_config, scenario)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        # NaN, Infinity and overflowing numbers load as floats no value may hold
        data = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
        if data.get("artifact_version") != ARTIFACT_VERSION:
            raise ValueError(f"manifest artifact version {data.get('artifact_version')!r}, "
                             f"expected {ARTIFACT_VERSION!r}")
        return cls(**_manifest_fields(data))


def run_from_manifest(manifest: RunManifest) -> tuple[SweepResult, str]:
    """Re-execute a manifest; returns the result and its verdict CSV."""
    started = time.monotonic()
    result = run_sweep(manifest.spec, manifest.default_config, manifest.adapted_config,
                       manifest.scenario, order=manifest.eval_order)
    manifest.wall_clock_seconds = time.monotonic() - started
    return result, render_matrix(result, "csv")


# ---------------------------------------------------------------------------
# Scripted spectrum scenarios.


class ScriptError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class ScenarioResult:
    manager: SpectrumManager
    now: SimTime  # the latest time in the script, that of the last line replayed

    def occupancy_report(self) -> str:
        """The grants live at the end of the script and the occupancy at their centers."""
        active = sorted(self.manager.active_grants(self.now), key=lambda g: g.grant_id)
        lines = ["active grants:"]
        for g in active:
            lines.append(
                f"  #{g.grant_id} {g.requester}: "
                f"[{g.block.low_mhz:g}, {g.block.high_mhz:g}] MHz "
                f"at ({_fmt(g.area.x)}, {_fmt(g.area.y)}) r={_fmt(g.area.radius)} m")
        centers = sorted({(g.area.x, g.area.y) for g in active})
        lines.append("occupancy at grant centers:")
        for x, y in centers:
            _, total = self.manager.occupancy_at(x, y, self.now)
            lines.append(f"  ({_fmt(x)}, {_fmt(y)}): {total:g} MHz")
        return "\n".join(lines) + "\n"


_REQUEST_KEYS = ("x", "y", "r", "bw", "expires")


def _parse_kv(tokens: list[str], line_no: int) -> dict[str, str]:
    """A request's ``key=value`` tokens: each key one of `_REQUEST_KEYS`, once."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScriptError(line_no, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key not in _REQUEST_KEYS:
            raise ScriptError(line_no, f"unknown request key {key!r}")
        if key in out:
            raise ScriptError(line_no, f"request key {key!r} given twice")
        out[key] = value
    return out


def run_spectrum_scenario(script: str) -> ScenarioResult:
    """Replay a timed request/release script through a spectrum manager.

    Line format (times in microseconds from 0, positions in meters,
    bandwidth MHz)::

        at <t> request <requester> x=<x> y=<y> r=<radius> bw=<mhz> [expires=<t>]
        at <t> release <requester>

    A request takes no other key, and each key once.  Blank lines and
    ``#`` comments are skipped.  A line that cannot be parsed or replayed
    raises `ScriptError` with its line number.  Releases free the oldest
    active grant of a requester; a grant whose lease has ended is not
    active.
    """
    manager = SpectrumManager()
    commands = []
    for line_no, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] != "at":
            raise ScriptError(line_no, "expected: at <time_us> request|release ...")
        try:
            t = int(tokens[1])
        except ValueError:
            raise ScriptError(line_no, f"bad time {tokens[1]!r}") from None
        if t < 0:
            raise ScriptError(line_no, f"time {t} is before the script starts at 0")
        verb = tokens[2]
        if verb == "request":
            if len(tokens) < 4:
                raise ScriptError(line_no, "request needs a requester name")
            kv = _parse_kv(tokens[4:], line_no)
            try:
                request = SpectrumRequest(
                    tokens[3], CoverageArea(float(kv["x"]), float(kv["y"]), float(kv["r"])),
                    float(kv["bw"]))
                expires = int(kv["expires"]) if "expires" in kv else None
            except KeyError as missing:
                raise ScriptError(line_no, f"request missing {missing}") from None
            except ValueError as bad:  # SpectrumError included
                raise ScriptError(line_no, str(bad)) from None
            commands.append((t, line_no, tokens[3], request, expires))
        elif verb == "release":
            if len(tokens) != 4:
                raise ScriptError(line_no, "release takes exactly a requester name")
            commands.append((t, line_no, tokens[3], None, None))
        else:
            raise ScriptError(line_no, f"unknown verb {verb!r}")

    commands.sort(key=lambda c: (c[0], c[1]))
    t = 0
    for t, line_no, requester, request, expires in commands:
        if request is not None:
            try:
                manager.request_spectrum(request, now=t, expires_at=expires)
            except SpectrumError as exc:
                raise ScriptError(line_no, str(exc)) from None
        else:
            held = [g for g in manager.active_grants(t) if g.requester == requester]
            if not held:
                raise ScriptError(line_no, f"{requester!r} holds no active grant to release")
            manager.release_spectrum(held[0].grant_id, now=t)  # in id order: the oldest
        manager.check_invariants(now=t)
    return ScenarioResult(manager, t)
