"""Spans and counts at ringmill's layer boundaries, recorded from outside.

The tracer wraps public callables and patches each wrapper where its
caller looks the name up: a method on its class, a function imported by
name in the importing module (``trial.py`` imports ``step_axis``, so the
wrapper goes on ``ringmill.trial.step_axis``).  A target that no longer
exists is listed as absent; nothing else changes.  Every call is counted
and timed; self time is a span minus the spans of wrapped calls inside it.
The coarse spans (trials, cells, sweeps, spectrum requests) are kept in
memory one by one and written out with the run record.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter


class Stat:
    __slots__ = ("calls", "self_ns", "dropped", "samples")

    def __init__(self):
        self.calls = self.self_ns = self.dropped = 0
        self.samples: list[int] = []  # span lengths, kept for coarse targets only

    def self_us(self) -> float:
        return self.self_ns / self.calls / 1e3 if self.calls else 0.0


# layer name -> (where callers look it up, keep per-call spans)
TARGETS = {
    "engine.schedule": (("ringmill.engine:Simulator.schedule",), False),
    "engine.run_until": (("ringmill.engine:Simulator.run_until",), False),
    "ring.enqueue": (("ringmill.ring:TokenRing.enqueue",), False),
    "ring.bridge_frame": (("ringmill.ring:MasterNode.bridge_frame",), False),
    "channel.transmit": (("ringmill.channel:Channel.transmit",), False),
    "plant.pid_tick": (("ringmill.plant:PidController.tick",), False),
    "plant.step_axis": (("ringmill.trial:step_axis",), False),
    "plant.trajectory_sample": (("ringmill.plant:TrapezoidTrajectory.sample",), False),
    "trial.run_trial": (("ringmill.cli:run_trial", "ringmill.harness:run_trial"), True),
    "harness.evaluate_cell": (("ringmill.harness:evaluate_cell",), True),
    "harness.run_sweep": (("ringmill.cli:run_sweep",), True),
    "spectrum.run_spectrum_scenario": (("ringmill.cli:run_spectrum_scenario",), True),
    "spectrum.request_spectrum": (("ringmill.spectrum:SpectrumManager.request_spectrum",), True),
    "spectrum.check_invariants": (("ringmill.spectrum:SpectrumManager.check_invariants",), False),
}


class Tracer:
    """Patches every target on entry and restores the originals on exit.

    Counts and times add up over every time the tracer is entered.
    """

    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.event_mix: Counter[str] = Counter()
        self.absent: list[str] = []
        self.events_processed = 0
        self.engine_clock_us = 0
        self.survived_us = 0
        self.grants = 0
        self._child_ns = [0]
        self._open_spans = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.absent.clear()
        for name, (targets, keep) in TARGETS.items():
            for target in targets:
                self._patch(target, name, keep)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target: str, name: str, keep: bool) -> None:
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, keep))

    def _wrap(self, fn, name: str, keep: bool):
        stat = self.stats[name]
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        if name == "engine.schedule":
            # the hottest target (7,000 calls per simulated second): count the
            # event mix and skip the span and result bookkeeping
            mix = self.event_mix

            def traced(sim, fire_time, action, *args, **kwargs):
                mix[getattr(action, "__qualname__", "?")] += 1
                child_ns.append(0)
                start = clock()
                try:
                    return fn(sim, fire_time, action, *args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.self_ns += elapsed - child_ns.pop()
                    child_ns[-1] += elapsed
                    stat.calls += 1

            return traced

        after = self._after.get(name)
        spans, open_spans = self.spans, self._open_spans

        def traced(*args, **kwargs):
            if keep:
                open_spans.append(len(spans))
                spans.append((name, 0, 0, open_spans[-2]))
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat.self_ns += elapsed - child_ns.pop()
                child_ns[-1] += elapsed
                stat.calls += 1
                if keep:
                    stat.samples.append(elapsed)
                    index = open_spans.pop()
                    spans[index] = (name, start, end, spans[index][3])
            if after is not None:
                after(self, result)
            return result

        return traced

    # -- hooks that read what a call returned ---------------------------------

    def _run_summary(self, summary) -> None:
        self.events_processed += summary.events_processed
        self.engine_clock_us += summary.clock

    def _dropped_frame(self, position) -> None:
        if position is None:
            self.stats["ring.enqueue"].dropped += 1

    def _transmit_record(self, record) -> None:
        if record.delivered is None:
            self.stats["channel.transmit"].dropped += 1

    def _verdict(self, verdict) -> None:
        self.survived_us += verdict.survived_us

    def _decision(self, outcome) -> None:
        if hasattr(outcome, "grant_id"):
            self.grants += 1

    _after = {"engine.run_until": _run_summary,
              "ring.enqueue": _dropped_frame,
              "channel.transmit": _transmit_record,
              "trial.run_trial": _verdict,
              "spectrum.request_spectrum": _decision}

    # -- derived figures ------------------------------------------------------

    @property
    def sim_s(self) -> float:
        return self.survived_us / 1e6

    def per_sim_s(self, name: str) -> float:
        return self.stats[name].calls / self.sim_s if self.survived_us else 0.0

    def drop_frac(self, name: str) -> float:
        stat = self.stats[name]
        return stat.dropped / stat.calls if stat.calls else 0.0

    def samples_s(self, name: str) -> list[float]:
        return [ns / 1e9 for ns in self.stats[name].samples]

    def record(self) -> dict:
        """Everything the tracer saw, for the run record."""
        names = {i: span[0] for i, span in enumerate(self.spans)}
        return {
            "absent": self.absent,
            "calls": {n: s.calls for n, s in self.stats.items()},
            "self_us_per_call": {n: s.self_us() for n, s in self.stats.items()},
            "sim_s": self.sim_s,
            "event_mix_per_sim_s": {k: v / self.sim_s if self.sim_s else 0.0
                                    for k, v in sorted(self.event_mix.items())},
            "spans": [{"name": name, "start_ns": start, "end_ns": end,
                       "parent": names.get(parent)}
                      for name, start, end, parent in self.spans],
        }


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile; the value itself when there is only one."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
