#!/usr/bin/env python3
"""End-to-end benchmark of ringmill: ``trial``, ``sweep`` and ``spectrum``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trial --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures for ``--seconds`` seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed amount of work with
wrappers on the layer boundaries and reports the per-layer metrics (see
README.md).  Either way the last line of stdout is one JSON object, and a
run record with every sample, the host details and the host-speed probe is
written under ``.perfbench-out/``.  The benchmark pins no CPU and changes no
machine setting; host times are scaled by a host-speed probe instead.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spectrum_script
import tracing
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 11
MIN_ROUNDS = 2                 # so every input repeats and outputs can be compared
TRACE_TRIAL_ROUNDS = 2
SCALING_GRANTS = (10, 100, 1000)

# Host speed on shared machines drifts by tens of percent within a second.
# While operations are timed, a timer signal runs a short slice of a fixed
# stdlib-only probe every PROBE_INTERVAL_S; the slices' own time is taken
# out of the operation's time, and each round's host time is scaled by the
# slices run during it to a host where one full probe takes
# PROBE_REFERENCE_S (its typical time on the 2-CPU host the benchmark was
# tuned on).  Unscaled figures are kept in the run record.
PROBE_ITERATIONS = 130_000
PROBE_SLICE_ITERATIONS = 2_000
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.125

# A reduced grid for traced runs of workloads that run no sweep of their own:
# one cell of each class, one seed each, so the harness layer is still seen.
SMALL_SWEEP_INI = """\
[sweep]
latencies_ms = 1, 5
jitters_ms = 0.05, 0.2
seeds_per_cell = 1
"""


def host_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed stdlib-only mix of heap, random and closure calls."""
    rng = random.Random(20231)
    heap: list = []
    total = [0.0]

    def add(value):
        total[0] += value

    start = time.perf_counter()
    for i in range(iterations):
        heapq.heappush(heap, (rng.random(), i, add))
        if len(heap) > 64:
            _, j, fn = heapq.heappop(heap)
            fn(j)
    return time.perf_counter() - start


class HostSampler:
    """Times probe slices from a timer signal while active; no thread, no process."""

    def __init__(self):
        self.slices: list[float] = []  # seconds per slice
        self.spent = 0.0               # seconds the handler took, slices included
        self._busy = False

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        if self._busy:  # a stalled slice outlived the interval; skip, do not nest
            return
        self._busy = True
        start = time.perf_counter()
        self.slices.append(host_probe(PROBE_SLICE_ITERATIONS))
        self.spent += time.perf_counter() - start
        self._busy = False

    def mark(self) -> tuple[int, float]:
        return len(self.slices), self.spent

    def speed_since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """Host speed relative to the reference host, and handler seconds, since mark."""
        slices = self.slices[mark[0]:]
        if not slices:
            return 1.0, self.spent - mark[1]
        full_probe_s = statistics.mean(slices) * PROBE_ITERATIONS / PROBE_SLICE_ITERATIONS
        return PROBE_REFERENCE_S / full_probe_s, self.spent - mark[1]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus the largest of its children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def cpu_seconds() -> float:
    self_, children = (resource.getrusage(who) for who in
                       (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime


def import_fresh():
    """Import ringmill from the checkout's ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ringmill" or m.startswith("ringmill.")]:
        del sys.modules[name]
    cli = importlib.import_module("ringmill.cli")
    if Path(cli.__file__).resolve().parent != SRC / "ringmill":
        raise ImportError(f"ringmill imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, work: Path, sampler: HostSampler):
    """Import, argument parsing and input generation, several times over.

    Returns the unscaled and scaled seconds of each set-up and the inputs.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        mark = sampler.mark()
        start = time.perf_counter()
        cli = import_fresh()
        ops = workload.prepare(seed, work)
        parser = cli.build_parser()
        for argv in ops:
            parser.parse_args(argv)
        speed, spent = sampler.speed_since(mark)
        raw.append(time.perf_counter() - start - spent)
        scaled.append(raw[-1] * speed)
    return raw, scaled, ops


def run_op(workload, argv: list[str]) -> workloads.Op:
    op = workloads.call_cli(argv)
    workload.collect(op)
    return op


def rounds_for(workload, ops: list[list[str]], seconds: float, sampler: HostSampler):
    """Closed loop: a round runs every input once; rounds go on until time is up.

    Each operation's wall time excludes the probe slices run during it.
    Returns the rounds and each round's host speed.
    """
    rounds, speeds = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        mark = sampler.mark()
        round_ = []
        for argv in ops:
            op_mark = sampler.mark()
            op = run_op(workload, argv)
            op.wall_s -= sampler.speed_since(op_mark)[1]
            round_.append(op)
        rounds.append(round_)
        speeds.append(sampler.speed_since(mark)[0])
    return rounds, speeds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.


def timed_run(workload, seed: int, seconds: float, work: Path, record: dict):
    with HostSampler() as sampler:
        setup_times, setups, ops = setup(workload, seed, work, sampler)
        rounds, speeds = rounds_for(workload, ops, seconds, sampler)
    flat = [op for ops_ in rounds for op in ops_]
    check = workload.check(flat)
    check.add(workload.reference_check(lambda argv: run_op(workload, argv)))

    raw_ms, raw_decisions, ms, decisions = [], [], [], []
    for k, ops_ in enumerate(rounds):
        wall = sum(op.wall_s for op in ops_)
        sim = sum(op.sim_s for op in ops_)
        if sim > 0:
            raw_ms.append(wall * 1e3 / sim)
            raw_decisions.append(sum(op.decisions for op in ops_) / wall)
            ms.append(raw_ms[-1] * speeds[k])
            decisions.append(raw_decisions[-1] / speeds[k])
    metrics = {
        "host_ms_per_sim_s": metric(median(ms), "ms"),
        "decisions_per_s": metric(median(decisions), "1/s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }
    record["unscaled"] = {"host_ms_per_sim_s": median(raw_ms),
                          "decisions_per_s": median(raw_decisions),
                          "setup_s": median(setup_times)}
    record["samples"] = {"host_ms_per_sim_s": ms, "decisions_per_s": decisions,
                         "setup_s": setups, "unscaled_setup_s": setup_times,
                         "unscaled_host_ms_per_sim_s": raw_ms,
                         "unscaled_decisions_per_s": raw_decisions,
                         "host_speed": speeds, "probe_slices": len(sampler.slices),
                         "op_wall_s": [op.wall_s for op in flat]}
    return check, metrics


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def traced_section(workload, ops: list[list[str]]) -> dict:
    """Each operation untraced, then traced; the outputs of both are checked."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    plain_cpu = 0.0
    for argv in ops:
        cpu0 = cpu_seconds()
        plain.append(run_op(workload, argv))
        plain_cpu += cpu_seconds() - cpu0
        with tracer:
            traced.append(run_op(workload, argv))
    return {"tracer": tracer, "ops": plain + traced, "count": len(ops),
            "plain_wall": sum(op.wall_s for op in plain), "plain_cpu": plain_cpu,
            "traced_wall": sum(op.wall_s for op in traced)}


def spectrum_scaling_probe() -> dict[int, float]:
    """Median µs of a request plus its release with N active grants around."""
    spectrum = importlib.import_module("ringmill.spectrum")
    result = {}
    for n in SCALING_GRANTS:
        manager = spectrum.SpectrumManager()
        side = int(n ** 0.5 + 0.999)
        for i in range(n):  # discs 100 m apart with 10 m radius never meet
            area = spectrum.CoverageArea(100.0 * (i % side), 100.0 * (i // side), 10.0)
            manager.request_spectrum(spectrum.SpectrumRequest(f"pre-{i}", area, 5.0))
        probe = spectrum.SpectrumRequest("probe", spectrum.CoverageArea(0.0, 0.0, 10.0), 5.0)
        samples = []
        for _ in range(max(50, 20_000 // n)):
            start = time.perf_counter_ns()
            grant = manager.request_spectrum(probe)
            manager.release_spectrum(grant.grant_id)
            samples.append(time.perf_counter_ns() - start)
        result[n] = statistics.median(samples) / 1e3
    return result


def traced_run(workload, seed: int, work: Path, record: dict):
    work.mkdir(parents=True)
    import_fresh()
    ops = workload.prepare(seed, work)
    sweep, spectrum = WORKLOADS["sweep"], WORKLOADS["spectrum"]
    check = workloads.Check()

    rounds = TRACE_TRIAL_ROUNDS if workload.name == "trial" else 1
    own = traced_section(workload, ops * rounds)
    check.add(workload.check(own["ops"]))
    check.add(workload.reference_check(lambda argv: run_op(workload, argv)))
    sections = {workload.name: own}
    if workload.name != "sweep":
        config = work / "small-sweep.ini"
        config.write_text(SMALL_SWEEP_INI)
        sections["sweep"] = traced_section(sweep, sweep.prepare(seed, work, config))
        check.add(sweep.check(sections["sweep"]["ops"]))
    if workload.name != "spectrum":
        sections["spectrum"] = traced_section(spectrum, spectrum.prepare(seed, work))
        check.add(spectrum.check(sections["spectrum"]["ops"]))

    sim = own if workload.name in ("trial", "sweep") else sections["sweep"]
    harness, spec = sections["sweep"], sections["spectrum"]
    metrics = layer_metrics(sim, harness, spec, spectrum_scaling_probe())
    metrics["tracing.overhead_frac"] = metric(own["traced_wall"] / own["plain_wall"] - 1, "ratio")
    record["trace"] = {name: s["tracer"].record() for name, s in sections.items()}
    record["absent_targets"] = sorted({t for s in sections.values() for t in s["tracer"].absent})
    return check, metrics


def layer_metrics(sim: dict, harness: dict, spec: dict, scaling: dict[int, float]) -> dict:
    t, h, s = sim["tracer"], harness["tracer"], spec["tracer"]
    wall_ns = sim["traced_wall"] * 1e9
    run_trial = t.samples_s("trial.run_trial")
    cells = h.stats["harness.evaluate_cell"].calls
    requests = s.samples_s("spectrum.request_spectrum")
    req_calls = s.stats["spectrum.request_spectrum"].calls
    oracle = spectrum_script.first_fit_oracle(WORKLOADS["spectrum"].requests)
    out = {
        "engine.events_per_sim_s": metric(
            t.events_processed / (t.engine_clock_us / 1e6) if t.engine_clock_us else 0.0,
            "1/sim_s"),
        "engine.schedule.per_sim_s": metric(t.per_sim_s("engine.schedule"), "1/sim_s"),
        "engine.schedule.us": metric(t.stats["engine.schedule"].self_us(), "us"),
        "engine.run_until.self_share": metric(
            t.stats["engine.run_until"].self_ns / wall_ns, "ratio"),
        "ring.enqueue.per_sim_s": metric(t.per_sim_s("ring.enqueue"), "1/sim_s"),
        "ring.enqueue.us": metric(t.stats["ring.enqueue"].self_us(), "us"),
        "ring.enqueue.drop_frac": metric(t.drop_frac("ring.enqueue"), "ratio"),
        "ring.bridge_frame.per_sim_s": metric(t.per_sim_s("ring.bridge_frame"), "1/sim_s"),
        "channel.transmit.per_sim_s": metric(t.per_sim_s("channel.transmit"), "1/sim_s"),
        "channel.transmit.us": metric(t.stats["channel.transmit"].self_us(), "us"),
        "channel.transmit.drop_frac": metric(t.drop_frac("channel.transmit"), "ratio"),
        "plant.pid_tick.us": metric(t.stats["plant.pid_tick"].self_us(), "us"),
        "plant.step_axis.us": metric(t.stats["plant.step_axis"].self_us(), "us"),
        "plant.trajectory_sample.us": metric(
            t.stats["plant.trajectory_sample"].self_us(), "us"),
        "trial.sim_s": metric(t.sim_s, "sim_s"),
        "trial.run_trial.n": metric(len(run_trial), "count"),
        "trial.run_trial.s_p50": metric(tracing.quantile(run_trial, 0.5), "s"),
        "trial.run_trial.s_p90": metric(tracing.quantile(run_trial, 0.9), "s"),
        "harness.evaluate_cell.s_p50": metric(
            tracing.quantile(h.samples_s("harness.evaluate_cell"), 0.5), "s"),
        "harness.evaluate_cell.s_max": metric(
            max(h.samples_s("harness.evaluate_cell"), default=0.0), "s"),
        "harness.trials_per_cell": metric(
            h.stats["trial.run_trial"].calls / cells if cells else 0.0, "count"),
        "harness.cpu_s": metric(harness["plain_cpu"] / harness["count"], "s"),
        "spectrum.request_spectrum.us_p50": metric(
            tracing.quantile(requests, 0.5) * 1e6, "us"),
        "spectrum.request_spectrum.us_p99": metric(
            tracing.quantile(requests, 0.99) * 1e6, "us"),
        "spectrum.request_spectrum.grant_frac": metric(
            s.grants / req_calls if req_calls else 0.0, "ratio"),
        "spectrum.check_invariants.us": metric(
            s.stats["spectrum.check_invariants"].self_us(), "us"),
        "spectrum.check_invariants.self_share": metric(
            s.stats["spectrum.check_invariants"].self_ns / (spec["traced_wall"] * 1e9),
            "ratio"),
        "spectrum.active_grants_mean": metric(statistics.mean(oracle.active_before), "count"),
    }
    for n, us in scaling.items():
        out[f"spectrum.request_spectrum.us_at_{n}"] = metric(us, "us")
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trial", "sweep", "spectrum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringmill" / "cli.py").is_file():
        print(f"perfbench: no ringmill sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
                 "implementation": platform.python_implementation(),
                 "platform": platform.platform(), "loadavg_start": os.getloadavg(),
                 "note": "no CPU pinned and no machine setting changed"},
    }
    record["host"]["probe_before_s"] = host_probe()
    try:
        if args.trace:
            check, metrics = traced_run(workload, args.seed, work, record)
        else:
            check, metrics = timed_run(workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["host"]["probe_after_s"] = host_probe()
    record.update(metrics=metrics, attempted=check.attempted, failed=check.failed,
                  problems=check.problems, off_reference=check.off_reference)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in check.problems[:20]:
        print(f"problem: {line}")
    for target in record.get("absent_targets", []):
        print(f"absent trace target (its metrics read 0): {target}")
    for line in dict.fromkeys(check.off_reference):
        print(f"off the reference pattern (not counted as failed): {line}")
    print(f"run record: {path.relative_to(ROOT)}; host probe "
          f"{record['host']['probe_before_s']:.4f} s before, "
          f"{record['host']['probe_after_s']:.4f} s after")
    print(json.dumps({"correct": check.failed == 0 and check.attempted > 0,
                      "attempted": max(check.attempted, 1), "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
