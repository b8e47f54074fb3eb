"""Seeded mutation fuzz of ringmill's four text readers.

Each document is one that ringmill ships or writes: the README's INI
scenario, the golden `matrix.csv`, the README's spectrum script and the
`manifest.json` a sweep of the README's INI writes.  The INI and the
script are fixed copies in ``tests/fuzz/``, so an edit to README cannot
change which mutants are drawn; ``tests/test_cli.py`` loads and replays
README's own blocks.  A mutant deletes a
character, swaps one token for an edge value, or duplicates or drops a
line.  Every mutant must either read or raise its reader's own error:
`ConfigError` for the INI reader, which names the line, `ScriptError` for
the matrix and script readers, which carries it, and `ValueError` for
the manifest reader.  Anything else escaping is a bug.
"""

import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from ringmill.config import ConfigError, load_config
from ringmill.harness import RunManifest, ScriptError, parse_matrix_csv, render_matrix
from ringmill.spectrum import run_spectrum_scenario

TESTS = Path(__file__).resolve().parent
INI = (TESTS / "fuzz" / "scenario.ini").read_text()
MATRIX = (TESTS / "golden" / "matrix.csv").read_text()
SCRIPT = (TESTS / "fuzz" / "script.txt").read_text()


def sweep_manifest(ini: str) -> str:
    """The `manifest.json` that `ringmill sweep --config` writes for `ini`
    into `out/`, after a run of 1,234.5 s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(ini)
        run = load_config(path)
    run.output_paths = {f"matrix_{kind}": f"out/matrix.{kind}" for kind in ("csv", "md", "ndjson")}
    run.wall_clock_seconds = 1234.5
    return run.to_json()


MANIFEST = sweep_manifest(INI)

EDGE_VALUES = ("-1", "0", "nan", "inf", "1e400", "")
TOKEN = re.compile(r"[^\s,=|;#\[\]]+")
MUTANTS_PER_DOCUMENT = 400


def mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if kind == 1:
        token = rng.choice(list(TOKEN.finditer(text)))
        return text[:token.start()] + rng.choice(EDGE_VALUES) + text[token.end():]
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i:i + 1] = [lines[i]] * 2 if kind == 2 else []
    return "".join(lines)


def read_ini(text: str, tmp_path: Path) -> None:
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    try:
        load_config(path)
    except ConfigError as exc:
        assert "line" in str(exc), exc


def read_matrix(text: str, tmp_path: Path) -> None:
    try:
        result = parse_matrix_csv(text)
    except ScriptError as exc:
        assert exc.line_number >= 1
        return
    parse_matrix_csv(render_matrix(result, "csv"))  # what reads is written back readably


def read_script(text: str, tmp_path: Path) -> None:
    try:
        run_spectrum_scenario(text)
    except ScriptError as exc:
        assert exc.line_number >= 1


def read_manifest(text: str, tmp_path: Path) -> None:
    try:
        run = RunManifest.from_json(text)
    except ValueError:
        return
    RunManifest.from_json(run.to_json())  # what reads is written back readably


DOCUMENTS = {"readme-ini": (INI, read_ini), "golden-matrix": (MATRIX, read_matrix),
             "readme-script": (SCRIPT, read_script),
             "readme-sweep-manifest": (MANIFEST, read_manifest)}


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_every_mutant_reads_or_raises_a_located_error(name, tmp_path):
    text, read = DOCUMENTS[name]
    read(text, tmp_path)  # the document itself reads
    rng = random.Random(f"fuzz-{name}")
    for _ in range(MUTANTS_PER_DOCUMENT):
        read(mutate(text, rng), tmp_path)


def test_the_manifest_document_carries_both_channels():
    # so its mutants reach every channel field, the reorder flag's bool among them
    scenario = json.loads(MANIFEST)["scenario"]
    assert scenario["command_channel"]["reorder_allowed"] is False
    assert scenario["feedback_channel"]["mean_delay_us"] == 3_000


def test_a_second_bracket_in_a_header_is_a_located_config_error(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[sweep]\nseeds_per_cell = 1\n[loop.default] ]\n")
    with pytest.raises(ConfigError, match=r"line 3: unknown section \[loop.default\] \]"):
        load_config(path)


@pytest.mark.parametrize("outcome, message", [
    ("0|fail|watchdog|nan|-5", r"max_following_error_mm nan is not a number in \[0, inf\)"),
    ("0|fail|watchdog|inf|5", r"max_following_error_mm inf is not a number in \[0, inf\)"),
    ("0|fail|watchdog|-0.5|5", r"max_following_error_mm -0.5 is not a number in \[0, inf\)"),
    ("0|fail|watchdog|0.5|-5", r"survived_us -5 is not an integer in \[0, inf\)"),
], ids=["nan-and-negative-survival", "inf", "negative-error", "negative-survival"])
def test_an_outcome_no_trial_gives_is_refused_with_its_line(outcome, message):
    # this row read, and render wrote it back
    text = ("# ringmill-matrix v1 seeds=1 trial_seconds=1 master_seed=0\n"
            "latency_ms,jitter_ms,class,default_outcomes,adapted_outcomes\n"
            f"0.5,0.05,fail,{outcome},0|fail|watchdog|-1|0\n")
    with pytest.raises(ScriptError, match=f"line 3: bad matrix row: {message}"):
        parse_matrix_csv(text)
