"""Command-line entry points: sweep, trial, spectrum, calibrate, render."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import __version__
from .channel import ChannelProfile
from .config import ConfigError, load_config
from .engine import US_PER_S, us_from
from .harness import (RunManifest, ScriptError, _fmt, parse_matrix_csv, render_matrix,
                      run_from_manifest, run_spectrum_scenario)
from .trial import TrialTrace, calibrate, run_trial, symmetric_profiles

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


def _load_run(args) -> tuple[RunManifest, ChannelProfile | None, ChannelProfile | None]:
    """`load_config` of --config, with --seed and --trial-seconds applied."""
    run, command, feedback = load_config(args.config)
    overrides = {"master_seed": args.seed, "trial_seconds": args.trial_seconds}
    spec = replace(run.spec, **{k: v for k, v in overrides.items() if v is not None})
    return replace(run, spec=spec), command, feedback


def _output_dir(raw: str | None) -> Path | None:
    """`--output-dir`, made before anything runs, so an unwritable path fails first."""
    out_dir = Path(raw) if raw else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text)
    return path


def cmd_sweep(args) -> int:
    run = replace(_load_run(args)[0], eval_order=args.order)
    out_dir = _output_dir(args.output_dir)
    result, matrix_csv = run_from_manifest(run)

    paths = {
        "matrix_csv": str(_write(out_dir, "matrix.csv", matrix_csv)),
        "matrix_md": str(_write(out_dir, "matrix.md", render_matrix(result, "markdown"))),
        "matrix_ndjson": str(_write(out_dir, "matrix.ndjson",
                                    render_matrix(result, "structured"))),
    }
    run.output_paths = paths
    paths["manifest"] = str(_write(out_dir, "manifest.json", run.to_json()))
    print(render_matrix(result, "markdown"))
    print(f"wrote {', '.join(sorted(paths))} to {out_dir}")
    return EXIT_OK


def cmd_trial(args) -> int:
    run, cmd, fb = _load_run(args)
    config = run.default_config if args.profile == "default" else run.adapted_config
    if (args.latency_ms is None) != (args.jitter_ms is None):
        missing = "--jitter-ms" if args.jitter_ms is None else "--latency-ms"
        raise ConfigError(f"trial needs {missing} as well: the channel flags come in pairs")
    if args.latency_ms is not None:
        cmd, fb = symmetric_profiles(args.latency_ms, args.jitter_ms)
    elif cmd is None or fb is None:
        raise ConfigError("trial needs --latency-ms/--jitter-ms or "
                          "[channel.command]/[channel.feedback] config sections")
    trace = TrialTrace() if args.trace else None
    if args.trace:  # an unwritable path fails before the trial runs
        Path(args.trace).write_text("")
    verdict = run_trial(
        config, cmd, fb, trial_length_us=us_from(run.spec.trial_seconds, "s"),
        seed=run.spec.master_seed, scenario=run.scenario, trace=trace)
    if trace is not None:
        Path(args.trace).write_text(trace.to_csv())
    outcome = "PASS" if verdict.passed else f"FAIL ({verdict.fail_cause.value})"
    print(f"trial latency={_fmt(cmd.mean_delay_us / 1000)} ms "
          f"jitter={_fmt(cmd.jitter_us / 1000)} ms "
          f"profile={args.profile}: {outcome}  "
          f"max_following_error={verdict.max_following_error_mm:.4f} mm  "
          f"survived={verdict.survived_us / US_PER_S:.3f} s")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    script = Path(args.script).read_text()
    out_dir = _output_dir(args.output_dir)
    result = run_spectrum_scenario(script)
    for record in result.manager.audit_log:
        grant = f" grant=#{record.grant_id}" if record.grant_id else ""
        reason = f" ({record.reason})" if record.reason else ""
        print(f"t={record.time} {record.requester}: {record.verdict} "
              f"{record.bandwidth_mhz:g} MHz, occupied {record.occupied_mhz:g} MHz"
              f"{grant}{reason}")
    print()
    print(result.occupancy_report(), end="")
    if out_dir is not None:
        _write(out_dir, "occupancy.txt", result.occupancy_report())
    return EXIT_OK


def cmd_calibrate(args) -> int:
    run = _load_run(args)[0]
    out_dir = _output_dir(args.output_dir)
    result = calibrate(master_seed=run.spec.master_seed,
                       screen_trial_seconds=args.screen_seconds,
                       validation_spec=run.spec, scenario=run.scenario)
    print(result.report())
    if out_dir is not None and result.matrix is not None:
        _write(out_dir, "matrix.csv", render_matrix(result.matrix, "csv"))
        calibrated = replace(run, default_config=result.default_config,
                             adapted_config=result.adapted_config)
        _write(out_dir, "calibrated.json", calibrated.to_json())
    return EXIT_OK if result.success else EXIT_CALIBRATION


def cmd_render(args) -> int:
    result = parse_matrix_csv(Path(args.matrix).read_text())
    print(render_matrix(result, args.format), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringmill",
        description="Deterministic shop-floor network and machine-tool loop simulator")
    parser.add_argument("--version", action="version", version=f"ringmill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI scenario file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--trial-seconds", type=time_in("s", positive=True), default=None,
                       help="simulated seconds per trial")

    p = sub.add_parser("sweep", help="run the latency x jitter feasibility sweep")
    common(p)
    p.add_argument("--output-dir", default="out", help="artifact directory")
    p.add_argument("--order", choices=("severe-first", "mild-first"),
                   default="severe-first")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trial", help="run one closed-loop trial")
    common(p)
    p.add_argument("--latency-ms", type=time_in("ms"), default=None)
    p.add_argument("--jitter-ms", type=time_in("ms"), default=None)
    p.add_argument("--profile", choices=("default", "adapted"), default="default")
    p.add_argument("--trace", help="write per-tick control trace CSV here")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("spectrum", help="replay a spectrum request/release script")
    p.add_argument("--script", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("calibrate", help="grid-search loop configs against the target pattern")
    common(p)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--screen-seconds", type=time_in("s", positive=True), default=12.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("render", help="re-render a matrix CSV")
    p.add_argument("--matrix", required=True)
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
