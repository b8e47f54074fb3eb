"""Command-line entry points: sweep, trial, spectrum, calibrate, render.

At load this module imports only `engine`, for the flag types, the errors
that `main` maps to exit 2 and what the output lines share, so `ringmill
--version` and a bad flag load nothing else.  Each subcommand imports on
entry what it runs: `spectrum` only `spectrum.py`; `trial`, `sweep` and
`calibrate` the trial stack (`config`, `harness`, `trial`, `plant`,
`channel`, `ring`), and `render` that stack less `config`.  A trial run
from here is `harness.run_trial`, the name that a sweep's cells call too.

`sweep` and `calibrate` write their run with `harness.write_run` (calibrate's
is its validation sweep), and `--config` reads an INI file or such a run's
`manifest.json`.  A flag that names a file or a directory refuses "".
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import __version__
from .engine import US_PER_S, ConfigError, ScriptError, Seed, _fmt, hold, read_text, us_from

if TYPE_CHECKING:
    from .channel import ChannelProfile
    from .harness import RunManifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3


def time_in(unit: str, positive: bool = False) -> Callable[[str], float]:
    """The argparse type of a flag in `unit`: a number `engine.us_from` accepts."""
    def parse(raw: str) -> float:
        try:
            value = float(raw)
            us_from(value, unit, positive=positive)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def seed(raw: str) -> int:
    """The argparse type of --seed: an int in the range of `engine.Seed`."""
    try:
        return hold(int(raw), Seed, "seed")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def path(raw: str) -> str:
    """The argparse type of a flag that names a file or a directory: any path but ""."""
    if not raw:
        raise argparse.ArgumentTypeError("an empty path names no file or directory")
    return raw


def _load_run(args) -> RunManifest:
    """`load_config` of --config, with --seed and --trial-seconds applied."""
    from .config import load_config

    run = load_config(args.config)
    overrides = {"master_seed": args.seed, "trial_seconds": args.trial_seconds}
    spec = replace(run.spec, **{k: v for k, v in overrides.items() if v is not None})
    return replace(run, spec=spec)


def _output_dir(raw: str | None) -> Path | None:
    """`--output-dir`, made before anything runs, so an unwritable path fails first."""
    out_dir = Path(raw) if raw else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_sweep(args) -> int:
    from .harness import render_matrix, run_from_manifest, write_run

    run = _load_run(args)
    out_dir = _output_dir(args.output_dir)
    result, _ = run_from_manifest(run)
    paths = write_run(out_dir, run, result)
    print(render_matrix(result, "markdown"))
    print(f"wrote {', '.join(sorted(paths))} to {out_dir}")
    return EXIT_OK


def _link(profile: ChannelProfile) -> str:
    """A channel's delay, jitter and, if it loses frames, loss rate, as a trial prints them."""
    loss = f" loss={_fmt(profile.loss_rate)}" if profile.loss_rate > 0 else ""
    return (f"latency={_fmt(profile.mean_delay_us / 1000)} ms "
            f"jitter={_fmt(profile.jitter_us / 1000)} ms{loss}")


def cmd_trial(args) -> int:
    from .harness import run_trial
    from .trial import TrialTrace

    run = _load_run(args)
    config = run.default_config if args.profile == "default" else run.adapted_config
    if (args.latency_ms is None) != (args.jitter_ms is None):
        missing = "--jitter-ms" if args.jitter_ms is None else "--latency-ms"
        raise ConfigError(f"trial needs {missing} as well: the channel flags come in pairs")
    if args.latency_ms is None:
        cmd, fb = run.scenario.command_channel, run.scenario.feedback_channel
    else:
        cmd, fb = run.scenario.channels_at(args.latency_ms, args.jitter_ms)
    trace = TrialTrace() if args.trace else None
    if args.trace:  # an unwritable path fails before the trial runs
        Path(args.trace).write_text("")
    verdict = run_trial(
        config, cmd, fb, trial_length_us=us_from(run.spec.trial_seconds, "s"),
        seed=run.spec.master_seed, scenario=run.scenario, trace=trace)
    if trace is not None:
        Path(args.trace).write_text(trace.to_csv())
    outcome = "PASS" if verdict.passed else f"FAIL ({verdict.fail_cause.value})"
    link, feedback = _link(cmd), _link(fb)
    if feedback != link:
        link += f" feedback {feedback}"
    print(f"trial {link} profile={args.profile}: {outcome}  "
          f"max_following_error={verdict.max_following_error_mm:.4f} mm  "
          f"survived={verdict.survived_us / US_PER_S:.3f} s")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .spectrum import run_spectrum_scenario

    script = read_text(args.script)
    out_dir = _output_dir(args.output_dir)
    result = run_spectrum_scenario(script)
    for record in result.manager.audit_log:
        grant = f" grant=#{record.grant_id}" if record.grant_id else ""
        reason = f" ({record.reason})" if record.reason else ""
        print(f"t={record.time} {record.requester}: {record.verdict} "
              f"{record.bandwidth_mhz:g} MHz, occupied {record.occupied_mhz:g} MHz"
              f"{grant}{reason}")
    report = result.occupancy_report()
    print()
    print(report, end="")
    if out_dir is not None:
        (out_dir / "occupancy.txt").write_text(report)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from .harness import write_run
    from .trial import ADAPTED_LOOP_CONFIG, DEFAULT_LOOP_CONFIG, calibrate

    run = _load_run(args)
    if (run.default_config, run.adapted_config) != (DEFAULT_LOOP_CONFIG, ADAPTED_LOOP_CONFIG):
        raise ConfigError(f"{args.config}: calibrate searches loop pairs around the shipped "
                          "one, so it cannot run the other loop pair given here")
    out_dir = _output_dir(args.output_dir)
    started = time.monotonic()
    result = calibrate(master_seed=run.spec.master_seed,
                       screen_trial_seconds=args.screen_seconds,
                       validation_spec=run.spec, scenario=run.scenario)
    print(result.report())
    if out_dir is not None and result.matrix is not None:
        # the validation sweep is the run of the pair found, or of the best one tried
        calibrated = replace(run, default_config=result.default_config,
                             adapted_config=result.adapted_config,
                             wall_clock_seconds=time.monotonic() - started)
        write_run(out_dir, calibrated, result.matrix)
    return EXIT_OK if result.success else EXIT_CALIBRATION


def cmd_render(args) -> int:
    from .harness import parse_matrix_csv, render_matrix

    result = parse_matrix_csv(read_text(args.matrix))
    print(render_matrix(result, args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringmill",
        description="Deterministic shop-floor network and machine-tool loop simulator")
    parser.add_argument("--version", action="version", version=f"ringmill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=path, help="INI scenario file or manifest.json")
        p.add_argument("--seed", type=seed, default=None, help="master seed override")
        p.add_argument("--trial-seconds", type=time_in("s", positive=True), default=None,
                       help="simulated seconds per trial")

    p = sub.add_parser("sweep", help="run the latency x jitter feasibility sweep")
    common(p)
    p.add_argument("--output-dir", type=path, default="out", help="artifact directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trial", help="run one closed-loop trial")
    common(p)
    p.add_argument("--latency-ms", type=time_in("ms"), default=None)
    p.add_argument("--jitter-ms", type=time_in("ms"), default=None)
    p.add_argument("--profile", choices=("default", "adapted"), default="default")
    p.add_argument("--trace", type=path, help="write per-tick control trace CSV here")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("spectrum", help="replay a spectrum request/release script")
    p.add_argument("--script", type=path, required=True)
    p.add_argument("--output-dir", type=path, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("calibrate", help="grid-search loop configs against the target pattern")
    common(p)
    p.add_argument("--output-dir", type=path, default=None)
    p.add_argument("--screen-seconds", type=time_in("s", positive=True), default=12.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("render", help="re-render a matrix CSV")
    p.add_argument("--matrix", type=path, required=True)
    p.add_argument("--format", choices=("markdown", "csv", "structured"),
                   default="markdown")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScriptError, OSError) as exc:  # OSError: a file named by a flag
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
