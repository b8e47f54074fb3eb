"""Mutation check: flip one comparison at a time and see whether a test fails.

    python tools/mutate.py --tests tests/test_ring.py tests/test_kernel.py -- \\
        src/ringmill/channel.py:frame_path src/ringmill/trial.py:_LoopHarness._run_ticks

Each target is a file and the dotted name of a function in it (nested
functions included).  Every comparison operator inside the target makes one
mutant: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and
``is not`` swap.  The mutant is written into a copy of the checkout's
``src/``, ``tests/`` and ``README.md``, only that operator's text
replaced, and the tests run there with pytest under
the ``ringmill-no-shrink`` Hypothesis profile (``tests/conftest.py``): the
same examples as tier-1, and a failure is not shrunk, so a test that fails
does so in the time its examples take.  A mutant is *killed* when the
tests fail, *hung* when they run past the timeout (three times the
unmutated run, plus 10 s), and *survived* when they pass.

A survivor listed in `EQUIVALENT` prints its reason: no input can tell it
from the program, or no input within the program's contract.  The exit
status is 1 when a mutant survives that is not listed, or when the
unmutated tests fail, and 0 otherwise.  Uses the standard library only;
tier-1 does not run it, since it takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">",
         ast.Eq: "!=", ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is"}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
        ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not"}

_DISTINCT = "two keys never share a number, so the numbers never compare equal"
_DRAW = "differs only on a float draw exactly equal to the loss rate"
_LAST = ("a frame that arrives with the last one has a larger number, so insort puts it "
         "last, where append does")
_AXIS = ("at equality the clamp assigns the value it has, and the axis's limits are not zero, "
         "so no zero's sign changes either")

#: Known-equivalent mutants, (file name, the comparison's source, the
#: mutant's operator) -> why no test can kill it.
EQUIVALENT = {
    # channel.frame_path: the ring stage, ring admission
    ("channel.py", "ring_draw() < ring_loss", "<="): _DRAW,
    # channel.frame_path: the channel stage, impairment
    ("channel.py", "chan_draw() < chan_loss", "<="): _DRAW,
    ("channel.py", "delay > jitter", ">="): "at delay == jitter the clamp gives the same delay",
    ("channel.py", "delay < -jitter", "<="): "at delay == -jitter the clamp gives the same delay",
    ("channel.py", "delay > 0", ">="): "at delay == 0 adding it leaves now as it is",
    ("channel.py", "now < chan_mark", "<="):
        "at now == chan_mark the clamp gives the same instant",
    # trial._LoopHarness._run_ticks
    ("trial.py", "cnc_t < fpga_t", "<="):
        "the controller ticks on whole periods and the stage half a period after, so the two "
        "never share a µs; at `never` both lose to the trial's end",
    ("trial.py", "item_s < s", "<="): _DISTINCT,
    ("trial.py", "fb_s < s", "<="): _DISTINCT,
    ("trial.py", "fb_s < probe_s", "<="): _DISTINCT,
    ("trial.py", "cnc_s < s", "<="): _DISTINCT,
    ("trial.py", "probe_s < s", "<="): _DISTINCT,
    ("trial.py", "cmd_s < s", "<="): _DISTINCT,
    ("trial.py", "abs_fe > max_fe", ">="):
        "at abs_fe == max_fe the assignment keeps the value, and the limit test under it is "
        "false, since max_fe never exceeds the limit",
    ("trial.py", "arrival < cmd_tail", "<="): _LAST,
    ("trial.py", "arrival < fb_tail", "<="): _LAST,
    ("trial.py", "dv > max_dv", ">="): _AXIS,
    ("trial.py", "dv < neg_max_dv", "<="): _AXIS,
    ("trial.py", "velocity > v_limit", ">="): _AXIS,
    ("trial.py", "velocity < neg_v_limit", "<="): _AXIS,
}


def find_function(tree: ast.AST, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next((n for n in ast.walk(node)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and n.name == part and n is not node), None)
        if node is None:
            raise SystemExit(f"no function {qualname}")
    return node


def mutants(path: Path, qualname: str):
    """(offset, operator, new operator, line, comparison source) per mutant.
    ast gives no position for an operator, so it is found in the source
    between its two operands."""
    source = path.read_text()
    # where each line starts, and the end; ast counts lines at "\n" only
    offsets = [0, *(i + 1 for i, char in enumerate(source) if char == "\n"), len(source)]

    def at(lineno, col):  # a character offset from an ast position, which counts UTF-8 bytes
        line = source[offsets[lineno - 1]:offsets[lineno]]
        return offsets[lineno - 1] + len(line.encode()[:col].decode())

    found = []
    for node in ast.walk(find_function(ast.parse(source), qualname)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) in FLIPS:
                start = at(left.end_lineno, left.end_col_offset)
                gap = source[start:at(right.lineno, right.col_offset)]
                old = TEXT[type(op)]
                found.append((start + gap.index(old), old, FLIPS[type(op)], node.lineno,
                              ast.get_source_segment(source, node)))
    return sorted(found)


def run_tests(root: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile", "ringmill-no-shrink", *tests],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "hung", time.monotonic() - started
    return ("survived" if result.returncode == 0 else "killed"), time.monotonic() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="FILE:FUNCTION, e.g. src/ringmill/channel.py:frame_path")
    parser.add_argument("--tests", nargs="+", required=True, help="the test files pytest runs")
    args = parser.parse_args(argv)

    repo = Path.cwd()
    work = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        for name in ("src", "tests"):
            shutil.copytree(repo / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(repo / "README.md", work)  # spectrum and CLI tests read its examples
        outcome, seconds = run_tests(work, args.tests, None)
        if outcome != "survived":
            print(f"the unmutated tests fail in {seconds:.0f} s: nothing to measure")
            return 1
        timeout = 3 * seconds + 10
        print(f"unmutated tests pass in {seconds:.0f} s; timeout per mutant {timeout:.0f} s")
        counts = {"killed": 0, "hung": 0, "survived": 0, "equivalent": 0}
        for target in args.targets:
            file_name, qualname = target.split(":")
            path = Path(file_name)
            source = (repo / path).read_text()
            for offset, old, new, line, segment in mutants(repo / path, qualname):
                assert source.startswith(old, offset), (path, line, old)
                (work / path).write_text(source[:offset] + new + source[offset + len(old):])
                outcome, _ = run_tests(work, args.tests, timeout)
                reason = EQUIVALENT.get((path.name, segment, new))
                if outcome == "survived" and reason:
                    outcome = "equivalent"
                counts[outcome] += 1
                note = f"  ({reason})" if outcome == "equivalent" else ""
                print(f"{outcome:10} {path}:{line}  {segment}  [{old} -> {new}]{note}", flush=True)
            (work / path).write_text(source)
        print(", ".join(f"{n} {k}" for k, n in counts.items()))
        return 1 if counts["survived"] else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
