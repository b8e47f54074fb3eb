"""The plant's axis step and PID tick, written plainly: every call reads the
axis or the gains.

The trial loop (`ringmill.trial._LoopHarness._run_ticks`) holds the only
copy of this arithmetic in `src/`, with the constants bound once per trial
and the state in float locals.  The heap kernel of ``test_heap_oracle.py``
runs a trial on these two, and its verdicts and traces pin the loop's copy
against them bit for bit, the sign of a zero included.
"""


def step_axis(axis, command_mm_s, dt_us):
    """Advance the axis by dt under a held velocity command (mutates and returns).

    First-order lag toward the command, with acceleration and velocity
    clamped to the axis limits, then position integration at the new
    velocity.
    """
    if dt_us <= 0:
        raise ValueError("dt must be positive")
    dt = dt_us / 1_000_000
    dv = (dt / axis.time_constant_s) * (command_mm_s - axis.velocity_mm_s)
    max_dv = axis.max_accel_mm_s2 * dt
    if dv > max_dv:
        dv = max_dv
    elif dv < -max_dv:
        dv = -max_dv
    v = axis.velocity_mm_s + dv
    limit = axis.max_velocity_mm_s
    if v > limit:
        v = limit
    elif v < -limit:
        v = -limit
    axis.velocity_mm_s = v
    axis.position_mm += v * dt
    return axis


class PidController:
    """PID on position error with anti-windup clamp and velocity feedforward."""

    def __init__(self, gains, period_us):
        self.gains = gains
        self.dt = period_us / 1_000_000
        self.integral = 0.0
        self._last_error = None

    def reset(self):
        self.integral = 0.0
        self._last_error = None

    def tick(self, setpoint_mm, feedback_mm, feedforward_mm_s=0.0):
        """One servo-period update; returns the velocity command in mm/s."""
        error = setpoint_mm - feedback_mm
        g = self.gains
        self.integral += error * self.dt
        clamp = g.integral_clamp
        if self.integral > clamp:
            self.integral = clamp
        elif self.integral < -clamp:
            self.integral = -clamp
        derivative = 0.0
        if g.kd != 0.0 and self._last_error is not None:
            derivative = (error - self._last_error) / self.dt
        self._last_error = error
        # the kd term is added when kd is 0 too: it decides the sign of a
        # zero command
        return feedforward_mm_s + g.kp * error + g.ki * self.integral + g.kd * derivative
