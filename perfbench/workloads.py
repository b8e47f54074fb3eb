"""The three workloads: their seeded inputs, one operation each, and checks.

Every operation is one in-process call of ``ringmill.cli.main`` with its
stdout captured; results are read from that stdout and from the files the
CLI writes.  Nothing here uses a private name of ringmill.

``reference_pattern()`` is the verdict matrix that the acceptance suite pins
at master seed 0.  At other master seeds a marginal cell can flip for real
(master seed 8 turns (1.0 ms, 0.15 ms) into (✓) with an init failure at
0.55 s simulated, whatever the trial length).  So verdicts are held to the
pattern at master seed 0, and outputs at the run's own seed are checked for
determinism and internal consistency; cells off the pattern there are
reported, not failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import spectrum_script

REFERENCE_SEED = 0


@dataclass
class Op:
    """One CLI call and what it produced."""

    argv: list[str]
    wall_s: float
    code: int | None
    stdout: str
    error: str | None = None
    files: dict[str, str] = field(default_factory=dict)
    sim_s: float = 0.0
    decisions: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.code == 0


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    off_reference: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.off_reference += other.off_reference


def call_cli(argv: list[str]) -> Op:
    cli = importlib.import_module("ringmill.cli")
    out = io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return Op(argv, time.perf_counter() - start, code, out.getvalue(), error)


def _read(directory: Path, *names: str) -> dict[str, str]:
    return {n: (directory / n).read_text() for n in names if (directory / n).is_file()}


# ---------------------------------------------------------------------------
# trial: one long trial at a time, alternating two passing cells.


class TrialWorkload:
    """``ringmill trial`` at two cells that pass; per-event kernel cost only."""

    name = "trial"
    # (latency ms, jitter ms, driver): the second keeps the jitter-heavy FIFO
    # clamp in Channel.transmit and the adapted driver in the mix
    CELLS = ((0.5, 0.05, "default"), (1.0, 0.2, "adapted"))
    TRIAL_SECONDS = 10
    _LINE = re.compile(r"profile=(\w+): (PASS|FAIL \(([\w-]+)\)).*survived=([\d.]+) s")

    def prepare(self, seed: int, work: Path) -> list[list[str]]:
        return [self._argv(cell, seed) for cell in self.CELLS]

    def _argv(self, cell, seed: int) -> list[str]:
        lat, jit, profile = cell
        return ["trial", "--latency-ms", f"{lat:g}", "--jitter-ms", f"{jit:g}",
                "--profile", profile, "--seed", str(seed),
                "--trial-seconds", str(self.TRIAL_SECONDS)]

    def collect(self, op: Op) -> None:
        m = self._LINE.search(op.stdout)
        if op.ok and m:
            op.sim_s = float(m[4])
            op.decisions = 1

    def _cell(self, op: Op):
        return (float(op.argv[2]), float(op.argv[4]), op.argv[6])

    def check(self, ops: list[Op]) -> Check:
        harness = importlib.import_module("ringmill.harness")
        pattern = harness.reference_pattern()
        check = Check()
        first: dict[tuple, str] = {}
        for op in ops:
            check.attempted += 1
            cell = self._cell(op)
            m = self._LINE.search(op.stdout)
            problem = None
            if not op.ok or m is None:
                problem = f"{cell}: {op.error or f'exit {op.code}'}"
            elif op.stdout != first.setdefault(cell, op.stdout):
                problem = f"{cell}: output differs between repeats"
            elif (m[2] == "PASS" and float(m[4]) != self.TRIAL_SECONDS
                  or float(m[4]) > self.TRIAL_SECONDS):
                problem = f"{cell}: verdict {m[2]} but survived {m[4]} s"
            if problem:
                check.failed += 1
                check.problems.append(problem)
            elif (m[2] == "PASS") != expected_pass(pattern[cell[:2]], cell[2], harness):
                check.off_reference.append(f"{cell}: {m[2]} at seed {op.argv[8]}")
        return check

    def reference_check(self, run) -> Check:
        """Each cell at the reference seed must get the verdict the pattern gives it."""
        harness = importlib.import_module("ringmill.harness")
        pattern = harness.reference_pattern()
        check = Check()
        for cell in self.CELLS:
            op = run(self._argv(cell, REFERENCE_SEED))
            m = self._LINE.search(op.stdout)
            check.attempted += 1
            if not op.ok or m is None or (m[2] == "PASS") != expected_pass(
                    pattern[cell[:2]], cell[2], harness):
                check.failed += 1
                check.problems.append(f"reference {cell}: {op.error or op.stdout.strip()}")
        return check


def expected_pass(cell_class, profile: str, harness) -> bool:
    """Whether a trial of this driver passes in a cell of this class."""
    if cell_class is harness.CellClass.PASS:
        return True
    return cell_class is harness.CellClass.PASS_WITH_ADAPTATION and profile == "adapted"


# ---------------------------------------------------------------------------
# sweep: the acceptance grid with short trials.


class SweepWorkload:
    """``ringmill sweep`` over the 6 x 5 acceptance grid, 3 seeds per cell."""

    name = "sweep"
    # at master seed 0 every failing trial has failed by 1.16 s simulated, and
    # 2 s trials reproduce the pattern 30/30 there
    TRIAL_SECONDS = 2
    FILES = ("matrix.csv", "matrix.md", "matrix.ndjson", "manifest.json")

    def prepare(self, seed: int, work: Path, config: Path | None = None) -> list[list[str]]:
        self.work = work
        return [self._argv(seed, config)]

    def _argv(self, seed: int, config: Path | None = None) -> list[str]:
        argv = ["sweep", "--seed", str(seed), "--trial-seconds", str(self.TRIAL_SECONDS),
                "--output-dir", str(self.work / "sweep")]
        return argv + (["--config", str(config)] if config else [])

    def collect(self, op: Op) -> None:
        op.files = _read(self.work / "sweep", *self.FILES)
        result = self._parse(op)
        if op.ok and result is not None:
            outcomes = [o for c in result.cells
                        for o in c.default_outcomes + c.adapted_outcomes]
            op.sim_s = sum(o.survived_us for o in outcomes) / 1e6
            op.decisions = len(outcomes)

    def _parse(self, op: Op):
        harness = importlib.import_module("ringmill.harness")
        try:
            return harness.parse_matrix_csv(op.files["matrix.csv"])
        except (KeyError, ValueError):
            return None

    @staticmethod
    def _comparable(op: Op) -> tuple:
        files = dict(op.files)
        if "manifest.json" in files:
            manifest = json.loads(files["manifest.json"])
            manifest.pop("wall_clock_seconds", None)  # host time, differs every run
            files["manifest.json"] = json.dumps(manifest, sort_keys=True)
        return op.stdout, sorted(files.items())

    def check(self, ops: list[Op], against_pattern: bool = False) -> Check:
        harness = importlib.import_module("ringmill.harness")
        pattern = harness.reference_pattern()
        check = Check()
        first: dict[tuple, tuple] = {}
        for op in ops:
            result = self._parse(op)
            if not op.ok or result is None or len(op.files) != len(self.FILES):
                check.attempted += max(op.decisions, 1)
                check.failed += max(op.decisions, 1)
                check.problems.append(f"sweep {op.argv}: {op.error or f'exit {op.code}'}")
                continue
            check.attempted += op.decisions
            comparable = self._comparable(op)
            if comparable != first.setdefault(tuple(op.argv), comparable):
                check.failed += op.decisions
                check.problems.append(f"sweep {op.argv}: output differs between repeats")
                continue
            for cell in result.cells:
                trials = len(cell.default_outcomes) + len(cell.adapted_outcomes)
                where = (cell.latency_ms, cell.jitter_ms)
                problem = cell_inconsistency(cell, result.spec, harness)
                if problem is None and against_pattern and cell.cell_class is not pattern[where]:
                    problem = f"{cell.cell_class.value}, pattern says {pattern[where].value}"
                if problem:
                    check.failed += trials
                    check.problems.append(f"cell {where}: {problem}")
                elif where in pattern and cell.cell_class is not pattern[where]:
                    check.off_reference.append(
                        f"cell {where}: {cell.cell_class.value} at master seed "
                        f"{result.spec.master_seed}")
        return check

    def reference_check(self, run) -> Check:
        """The full grid at the reference seed must reproduce the pattern 30/30."""
        op = run(self._argv(REFERENCE_SEED))
        self.collect(op)
        return self.check([op], against_pattern=True)


def cell_inconsistency(cell, spec, harness) -> str | None:
    """Why a cell's class does not follow from its trials, or None if it does."""
    length = round(spec.trial_seconds * 1e6)
    for o in cell.default_outcomes + cell.adapted_outcomes:
        if o.passed and o.survived_us != length or o.survived_us > length:
            return f"trial survived {o.survived_us} us of {length}"
    for outcomes in (cell.default_outcomes, cell.adapted_outcomes):
        if any(not o.passed for o in outcomes[:-1]):
            return "trials continued after a failure"
    default, adapted = cell.default_outcomes, cell.adapted_outcomes
    n = spec.seeds_per_cell
    if len(default) == n and all(o.passed for o in default):
        want = harness.CellClass.PASS if not adapted else None
    elif not default or default[-1].passed:
        want = None
    elif len(adapted) == n and all(o.passed for o in adapted):
        want = harness.CellClass.PASS_WITH_ADAPTATION
    elif adapted and not adapted[-1].passed:
        want = harness.CellClass.FAIL
    else:
        want = None
    if want is not cell.cell_class:
        return f"class {cell.cell_class.value} does not follow from its trials"
    return None


# ---------------------------------------------------------------------------
# spectrum: a generated lease-churn script.


class SpectrumWorkload:
    """``ringmill spectrum --script`` on about 115 active grants."""

    name = "spectrum"

    def prepare(self, seed: int, work: Path) -> list[list[str]]:
        self.work = work
        self.requests = spectrum_script.generate(seed)
        script = work / "spectrum-script.txt"
        script.write_text(spectrum_script.script_text(self.requests))
        return [["spectrum", "--script", str(script), "--output-dir", str(work / "spectrum")]]

    def collect(self, op: Op) -> None:
        op.files = _read(self.work / "spectrum", "occupancy.txt")
        if op.ok:
            op.sim_s = spectrum_script.sim_seconds(self.requests)
            op.decisions = len(spectrum_script.parse_decisions(op.stdout))

    def check(self, ops: list[Op]) -> Check:
        oracle = spectrum_script.first_fit_oracle(self.requests)
        lines = len(self.requests)
        check = Check()
        first = first_wrong = None
        for op in ops:
            check.attempted += lines
            if not op.ok:
                check.failed += lines
                check.problems.append(f"spectrum: {op.error or f'exit {op.code}'}")
                continue
            output = (op.stdout, op.files.get("occupancy.txt", ""))
            if first is None:
                first = output
                first_wrong = spectrum_script.count_wrong_lines(oracle, *output)
                if first_wrong:
                    check.problems.append(
                        f"spectrum: {first_wrong} lines disagree with the oracle")
            if output == first:
                check.failed += first_wrong
            else:
                check.failed += lines
                check.problems.append("spectrum: output differs between repeats")
        return check

    def reference_check(self, run) -> Check:
        return Check()  # the oracle checks every line at every seed


WORKLOADS = {w.name: w for w in (TrialWorkload(), SweepWorkload(), SpectrumWorkload())}
