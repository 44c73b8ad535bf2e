"""Bidirectional numerical integration of polynomial vector fields.

Two steppers: classical fixed-step RK4 and adaptive Dormand-Prince 5(4)
(the default), both one loop on Python floats over the step that
`PolyField.compiled_step` generates from their tableaus; the first slope
and the initial step come from the field's one float evaluator,
`PolyField.compiled_slope`. Backward runs step with negative time
increments. Cubic Hermite interpolation between accepted steps gives
dense output for event location and mid-sample checks. A state-norm cap
turns finite-time escape into an error carrying the partial trajectory.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO

import numpy as np

from .polyfield import PolyField, _numpy_sum

__all__ = [
    "IntegrationOptions",
    "Trajectory",
    "IntegrationError",
    "BlowUpError",
    "MaxStepsError",
    "StepSizeError",
    "integrate",
    "integrate_with_tangent",
]

RK4_FIXED = "rk4-fixed"
RK45_ADAPTIVE = "rk45-adaptive"

# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between 5th- and 4th-order weights, for the error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# (stage rows, solution weights, their divisor, error weights) for
# PolyField.compiled_step; DP5(4)'s last row is its 5th-order solution
_DP54 = (_DP_A[1:6], _DP_A[6], 1.0, _DP_E)
_RK4 = (((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0, None)

_MIN_STEP_FACTOR = 0.2
_MAX_STEP_FACTOR = 5.0
_SAFETY = 0.9
_MAX_STEPS = 10_000_000  # step budget of one integration


class IntegrationError(RuntimeError):
    """Base class for integration failures.

    `trajectory` holds the partial trajectory up to the failure when the
    failing call records samples, else None.
    """

    def __init__(self, message: str, t: float, state: np.ndarray):
        super().__init__(message)
        self.t = t
        self.state = state
        self.trajectory: Optional["Trajectory"] = None


class BlowUpError(IntegrationError):
    """State norm exceeded the blow-up cap: finite-time escape signal."""


class MaxStepsError(IntegrationError):
    """Step budget exhausted before reaching the target time."""


class StepSizeError(IntegrationError):
    """Adaptive step size underflowed; the flow cannot be resolved further
    (typical near a finite-time singularity that outruns the norm cap)."""


@dataclass
class IntegrationOptions:
    """Stepper selection and control constants.

    `step` is rk4-fixed's fixed step (0.01 when None); rk45-adaptive
    chooses its own initial step and refuses one. `tol` is the adaptive
    stepper's absolute and relative tolerance.
    """

    method: str = RK45_ADAPTIVE
    step: Optional[float] = None
    tol: float = 1e-10
    blow_up_norm: float = 1e12

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK45_ADAPTIVE):
            raise ValueError(f"unknown method {self.method!r}")
        if self.step is not None and self.method != RK4_FIXED:
            raise ValueError(f"step applies to {RK4_FIXED} only")
        if self.step is not None and not self.step > 0:
            raise ValueError("step must be positive")
        if self.method == RK4_FIXED and self.step is None:
            self.step = 0.01
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not self.blow_up_norm > 0:
            raise ValueError("blow_up_norm must be positive")

    @property
    def tolerance(self) -> float:
        """Scalar summary used for downstream tolerance composition."""
        if self.method == RK4_FIXED:
            return 0.0
        return self.tol


class Trajectory:
    """Time-stamped state sequence from t0, forward or backward.

    `times` is strictly monotone (increasing forward, decreasing
    backward) and starts at t0. `derivs` holds the field value at each
    sample, which makes cubic Hermite interpolation local and cheap.
    """

    def __init__(self, t0: float, times: np.ndarray, states: np.ndarray,
                 derivs: np.ndarray, tol: float, variable_names):
        self.t0 = float(t0)
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        self.tol = float(tol)
        self.variable_names = tuple(variable_names)
        if self.times.size == 0 or self.times[0] != self.t0:
            raise ValueError("first sample must sit at t0")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    @property
    def is_backward(self) -> bool:
        return len(self.times) > 1 and self.times[-1] < self.times[0]

    def interpolate(self, t: float) -> np.ndarray:
        """Cubic Hermite dense output at time t inside the covered span."""
        ts = self.times
        if len(ts) < 2:
            if abs(t - self.t0) <= 1e-12:
                return self.states[0].copy()
            raise ValueError(f"single-sample trajectory covers only t={self.t0}")
        sign = -1.0 if self.is_backward else 1.0
        s = sign * ts
        st = sign * t
        if st < s[0] - 1e-12 or st > s[-1] + 1e-12:
            raise ValueError(f"t={t} outside trajectory span [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(s, st, side="right")) - 1
        i = max(0, min(i, len(ts) - 2))
        return _hermite(ts[i], self.states[i], self.derivs[i],
                        ts[i + 1], self.states[i + 1], self.derivs[i + 1], t)

    def write_csv(self, fh: TextIO) -> None:
        """CSV with header t,<var1>,...,<varn>; 17 significant digits."""
        fh.write("t," + ",".join(self.variable_names) + "\n")
        for t, row in zip(self.times, self.states):
            cells = [format(t, ".17g")] + [format(v, ".17g") for v in row]
            fh.write(",".join(cells) + "\n")


def _hermite_basis(s):
    """Cubic Hermite basis (h00, h10, h01, h11) at step fraction s."""
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def _hermite(ta, ya, fa, tb, yb, fb, t):
    """Cubic Hermite interpolant on [ta, tb] matching values and slopes."""
    h = tb - ta
    h00, h10, h01, h11 = _hermite_basis((t - ta) / h)
    return h00 * ya + (h10 * h) * fa + h01 * yb + (h11 * h) * fb


def _hermite_fraction(s, ga, gb, dga, dgb, h):
    """Elementwise cubic Hermite value at fraction s of a step of length h."""
    h00, h10, h01, h11 = _hermite_basis(s)
    return h00 * ga + h01 * gb + h * (h10 * dga + h11 * dgb)


def _rms(v, scale) -> float:
    """Root mean square of v in units of scale, rounded as np.mean of
    the squared ratios rounds."""
    u = [a / b for a, b in zip(v, scale)]
    return math.sqrt(_numpy_sum([a * a for a in u], operator.add) / len(u))


def _initial_step(slope, y0, f0, direction, tol):
    """Automatic initial step of order 5 (Hairer, Nørsett & Wanner,
    Solving ODEs I, §II.4) from the float state y0 and its slope f0."""
    scale = [tol + tol * abs(a) for a in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0:  # d1 overflowed; the stream's underflow check rejects 0
        return 0.0
    f1 = slope([a + h0 * direction * b for a, b in zip(y0, f0)])
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _step_stream(field: PolyField, system: str, y0, t0, t1,
                 opts) -> Iterator[tuple]:
    """Accepted steps of the field's generated `system` step from the
    float tuple y0 as (ta, ya, fa, tb, yb, fb), all float tuples:
    ceil(|t1 - t0| / step) equal RK4 steps, or DP5(4) steps with error
    norm at most 1, retried at a fifth of h after a non-finite stage."""
    slope = field.compiled_slope(system)
    y, f = y0, slope(y0)
    adaptive = opts.method == RK45_ADAPTIVE
    direction = 1.0 if t1 > t0 else -1.0
    if adaptive:
        if not all(map(math.isfinite, f)):
            raise BlowUpError(f"non-finite field value at t={t0:.6g}",
                              t0, np.array(y))
        h = min(_initial_step(slope, y, f, direction, opts.tol), abs(t1 - t0))
    else:
        n_steps = max(1, math.ceil(abs(t1 - t0) / opts.step))
        if n_steps > _MAX_STEPS:
            raise MaxStepsError(f"{n_steps} fixed steps needed, step budget "
                                f"{_MAX_STEPS}", t0, np.array(y))
        h = abs(t1 - t0) / n_steps
    step = field.compiled_step(system, _DP54 if adaptive else _RK4)
    # a squared norm below this is finite and under the blow-up cap
    limit = opts.blow_up_norm * opts.blow_up_norm * (1.0 - 1e-9)
    t, steps = t0, 0
    while (direction * (t1 - t) > 0) if adaptive else steps < n_steps:
        if adaptive:
            if steps >= _MAX_STEPS:
                raise MaxStepsError(
                    f"step budget of {_MAX_STEPS} exhausted at t={t:.6g}",
                    t, np.array(y))
            remaining = abs(t1 - t)
            h = min(h, remaining)
            final_step = h == remaining
            if h <= 16 * sys.float_info.epsilon * max(abs(t), 1.0):
                raise StepSizeError(
                    f"step size underflow (h={h:.3e}) at t={t:.6g}", t, np.array(y))
        else:
            final_step = steps == n_steps - 1
        hs = direction * h
        steps += 1
        # land on t1 exactly instead of leaving a 1-ulp sliver behind
        t_new = t1 if final_step else t + hs if adaptive else t0 + steps * hs
        try:
            z, g, err, ss = step(y, f, hs, opts.tol)
        except OverflowError:  # a stage before z overflowed: z is not finite
            z, g, err, ss = (math.nan,) * len(y), None, 0.0, math.nan
        if not ss < limit and not all(map(math.isfinite, z)):
            if not adaptive:
                raise BlowUpError(f"non-finite state at t={t_new:.6g}",
                                  t_new, np.array(z))
            h *= _MIN_STEP_FACTOR
            continue
        if not err <= 1.0:
            h *= max(_MIN_STEP_FACTOR, _SAFETY * err ** -0.2)
            continue
        cap = opts.blow_up_norm
        if not ss < limit and (norm := float(np.linalg.norm(z))) > cap:
            raise BlowUpError(f"state norm {norm:.3e} exceeded blow-up cap "
                              f"{cap:.3e} at t={t_new:.6g}", t_new, np.array(z))
        yield t, y, f, t_new, z, g
        t, y, f = t_new, z, g
        if adaptive:
            factor = _MAX_STEP_FACTOR if err == 0.0 else min(
                _MAX_STEP_FACTOR, _SAFETY * err ** -0.2)
            h *= max(_MIN_STEP_FACTOR, factor)


def _drive(field: PolyField, system: str, w0, t0, t1, opts, record=False):
    """Step `system` from (t0, w0) to t1; returns (final state, trajectory).

    With `record`, every accepted step goes into flat float buffers, and
    the trajectory, also attached to any IntegrationError, is a view of
    them; otherwise it is None.
    """
    w = w0 = tuple([float(a) for a in w0])  # not map(): swells the free list
    stream = _step_stream(field, system, w0, t0, t1, opts)
    if not record:
        for _ta, _wa, _fa, _tb, w, _fb in stream:
            pass
        return np.array(w), None
    f0 = field.compiled_slope(system)(w0)
    times, states, derivs = array("d", [t0]), array("d", w0), array("d", f0)

    def trajectory():
        rows = [np.frombuffer(b).reshape(len(times), -1) for b in (states, derivs)]
        return Trajectory(t0, np.frombuffer(times), *rows, opts.tolerance,
                          field.variable_names)

    try:
        for _ta, _wa, _fa, tb, w, fb in stream:
            times.append(tb)
            states.extend(w)
            derivs.extend(fb)
    except IntegrationError as exc:
        exc.trajectory = trajectory()
        raise
    return np.array(w), trajectory()


def _validate_initial(field: PolyField, x0, t0: float, t1: float) -> np.ndarray:
    y0 = np.asarray(x0, dtype=float)
    if y0.shape != (field.dimension,):
        raise ValueError(
            f"x0 has shape {y0.shape}, expected ({field.dimension},)")
    if not np.all(np.isfinite([*y0, t0, t1])):
        raise ValueError("x0, t0 and t1 must be finite")
    if t1 == t0:
        raise ValueError("t1 must differ from t0")
    return y0


def integrate(field: PolyField, x0, t0: float, t1: float,
              opts: Optional[IntegrationOptions] = None) -> Trajectory:
    """Integrate the field from (t0, x0) to t1; t1 < t0 runs backward.

    Backward integration steps the same field with negative time
    increments. Raises BlowUpError/MaxStepsError/StepSizeError with the
    partial trajectory attached when the run cannot be completed.
    """
    opts = opts or IntegrationOptions()
    y0 = _validate_initial(field, x0, t0, t1)
    return _drive(field, "rhs", y0, t0, t1, opts, record=True)[1]


def integrate_with_tangent(field: PolyField, x0, Q0, t0: float, t1: float,
                           opts: Optional[IntegrationOptions] = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Co-integrate state and tangent matrix dV/dt = J(x(t)) V.

    Returns (x(t1), V(t1)) for V(t0) = Q0, stepped as one augmented
    system so state and tangent share step sizes and error control.
    Nothing is recorded: an IntegrationError carries no trajectory.
    """
    opts = opts or IntegrationOptions()
    y0 = _validate_initial(field, x0, t0, t1)
    n = field.dimension
    Q0 = np.asarray(Q0, dtype=float)
    if Q0.shape != (n, n):
        raise ValueError(f"Q0 has shape {Q0.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(Q0)):
        raise ValueError("Q0 must be finite")
    w0 = np.concatenate([y0, Q0.ravel()])
    w, _ = _drive(field, "tangent_rhs", w0, t0, t1, opts)
    return w[:n], w[n:].reshape(n, n)
