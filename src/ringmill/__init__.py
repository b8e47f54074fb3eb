"""Deterministic simulator for shared-spectrum shop-floor networks and
wireless closed-loop machine-tool control."""

from .channel import (Channel, ChannelProfile, DelayStats, DeliveryRecord,
                      JitterDistribution, ZERO_IMPAIRMENT, empirical_stats)
from .engine import (CausalityError, RunSummary, SimTime, Simulator, component_rng,
                     derive_seed)
from .harness import (CellClass, CellVerdict, RunManifest, ScenarioResult,
                      ScriptError, SweepResult, SweepSpec, parse_matrix_csv,
                      reference_pattern, render_matrix, run_from_manifest,
                      run_spectrum_scenario, run_sweep)
from .plant import (AxisModel, FailCause, LoopConfig, PidController, PidGains,
                    Profile, TrapezoidTrajectory, TrialVerdict, step_axis)
from .ring import (Frame, FrameClass, MasterNode, RingConfig, TokenRing,
                   worst_case_access_latency)
from .spectrum import (Band, CoverageArea, Rejection, SpectrumBlock,
                       SpectrumGrant, SpectrumManager, SpectrumRequest)
from .trial import (ADAPTED_LOOP_CONFIG, CalibrationResult, DEFAULT_LOOP_CONFIG,
                    DEFAULT_SCENARIO, Scenario, TrialTrace, calibrate,
                    run_network_free_baseline, run_trial, symmetric_profiles)

__version__ = "0.1.0"
