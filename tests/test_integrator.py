import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from flowbound import (
    BlowUpError,
    IntegrationError,
    IntegrationOptions,
    MaxStepsError,
    SectionPlane,
    StepSizeError,
    find_equilibrium,
    first_crossing,
    flow_determinant,
    integrate,
    integrate_with_tangent,
    load_system,
    lyapunov_spectrum,
    parse_system,
)
from flowbound import integrator

DECAY = parse_system("dx/dt = -x")
HARMONIC = parse_system("dx/dt = y\ndy/dt = -x")
ESCAPE = parse_system("dx/dt = x^2")

TIGHT = IntegrationOptions(tol=1e-12)


class TestEndpoints:
    def test_exponential_decay(self):
        traj = integrate(DECAY, [1.0], 0.0, 1.0, IntegrationOptions())
        assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8

    def test_harmonic_full_period(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 2.0 * math.pi, opts)
        assert np.max(np.abs(traj.final_state - [1.0, 0.0])) < 1e-6

    def test_final_time_is_exact(self):
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 1.2345, IntegrationOptions())
        assert traj.final_time == 1.2345

    def test_cross_check_against_scipy(self, lorenz, lorenz_scipy_rhs):
        x0 = [1.0, 1.0, 1.0]
        mine = integrate(lorenz, x0, 0.0, 2.0, TIGHT).final_state
        ref = solve_ivp(lorenz_scipy_rhs, (0.0, 2.0), x0, method="DOP853",
                        rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.max(np.abs(mine - ref)) < 1e-7


class TestFixedStepRK4:
    def test_order_four_on_decay(self):
        def endpoint_error(h):
            opts = IntegrationOptions(method="rk4-fixed", step=h)
            traj = integrate(DECAY, [1.0], 0.0, 1.0, opts)
            return abs(traj.final_state[0] - math.exp(-1.0))

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_lands_exactly_on_non_divisible_span(self):
        opts = IntegrationOptions(method="rk4-fixed", step=0.3)
        traj = integrate(DECAY, [1.0], 0.0, 1.0, opts)
        assert traj.final_time == 1.0
        assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-4

    def test_backward_roundtrip(self):
        opts = IntegrationOptions(method="rk4-fixed", step=0.01)
        fwd = integrate(HARMONIC, [1.0, 0.0], 0.0, 3.0, opts)
        back = integrate(HARMONIC, fwd.final_state, 3.0, 0.0, opts)
        assert np.max(np.abs(back.final_state - [1.0, 0.0])) < 1e-8


class TestBackward:
    def test_times_decrease_and_anchor_at_t0(self):
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, -1.0, IntegrationOptions())
        assert traj.t0 == 0.0
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) < 0)
        assert traj.is_backward

    def test_backward_full_period(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, -2.0 * math.pi, opts)
        assert np.max(np.abs(traj.final_state - [1.0, 0.0])) < 1e-6

    @pytest.mark.parametrize("name,span", [
        ("lorenz", 0.05),
        ("closed-orbit", 1.0),
        ("stuart-landau", 1.0),
        ("equilibrium", 1.0),
    ])
    def test_time_symmetry_within_ten_tolerances(self, name, span):
        field = load_system(name)
        x0 = [1.0, 1.0, 1.0] if name == "lorenz" else [0.8, 0.3, 0.5]
        opts = IntegrationOptions(tol=1e-10)
        fwd = integrate(field, x0, 0.0, span, opts)
        back = integrate(field, fwd.final_state, span, 0.0, opts)
        assert np.max(np.abs(back.final_state - x0)) < 10 * 1e-10


class TestLocalErrorControl:
    def test_per_step_error_on_decay(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(DECAY, [1.0], 0.0, 5.0, opts)
        for i in range(len(traj) - 1):
            h = traj.times[i + 1] - traj.times[i]
            exact = traj.states[i, 0] * math.exp(-h)
            err = abs(traj.states[i + 1, 0] - exact)
            assert err <= 10 * (1e-10 + 1e-10 * abs(exact))

    def test_per_step_error_on_harmonic(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 10.0, opts)
        for i in range(len(traj) - 1):
            h = traj.times[i + 1] - traj.times[i]
            c, s = math.cos(h), math.sin(h)
            rot = np.array([[c, s], [-s, c]])
            exact = rot @ traj.states[i]
            err = np.max(np.abs(traj.states[i + 1] - exact))
            assert err <= 10 * (1e-10 + 1e-10 * np.max(np.abs(exact)))


class TestDenseOutput:
    def test_interpolation_matches_closed_form(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 6.0, opts)
        for t in np.linspace(0.05, 5.95, 37):
            exact = np.array([math.cos(t), -math.sin(t)])
            assert np.max(np.abs(traj.interpolate(t) - exact)) < 1e-8

    def test_interpolation_backward(self):
        opts = IntegrationOptions(tol=1e-10)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, -6.0, opts)
        for t in (-0.5, -3.3, -5.9):
            exact = np.array([math.cos(t), -math.sin(t)])
            assert np.max(np.abs(traj.interpolate(t) - exact)) < 1e-8

    def test_outside_span_rejected(self):
        traj = integrate(DECAY, [1.0], 0.0, 1.0, IntegrationOptions())
        with pytest.raises(ValueError):
            traj.interpolate(1.5)
        with pytest.raises(ValueError):
            traj.interpolate(-0.1)


class TestTangentFlow:
    def test_linear_field_matches_matrix_exponential(self):
        field = parse_system(
            "dx/dt = 2*x - y\ndy/dt = x + 3*y\ndz/dt = -z")
        A = np.array([[2.0, -1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, -1.0]])
        T = 1.5
        _x, M = integrate_with_tangent(
            field, [0.3, -0.2, 1.0], np.eye(3), 0.0, T, TIGHT)
        assert np.max(np.abs(M - expm(A * T))) < 1e-6

    def test_zero_field_identity_flow(self):
        field = parse_system("dx/dt = 0\ndy/dt = 0\ndz/dt = 0")
        Q0 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 5.0], [3.0, 0.0, 1.0]])
        _x, M = integrate_with_tangent(
            field, [1.0, 1.0, 1.0], Q0, 0.0, 2.0, IntegrationOptions())
        np.testing.assert_allclose(M, Q0, atol=1e-12)

    def test_initial_matrix_composes(self):
        field = parse_system("dx/dt = -y\ndy/dt = x\ndz/dt = -z")
        Q0 = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        _x1, M_with = integrate_with_tangent(
            field, [1.0, 0.0, 1.0], Q0, 0.0, 1.0, TIGHT)
        _x2, M_eye = integrate_with_tangent(
            field, [1.0, 0.0, 1.0], np.eye(3), 0.0, 1.0, TIGHT)
        assert np.max(np.abs(M_with - M_eye @ Q0)) < 1e-9

    def test_liouville_identity_on_lorenz(self, lorenz):
        _x, M = integrate_with_tangent(
            lorenz, [1.0, 1.0, 1.0], np.eye(3), 0.0, 1.0, TIGHT)
        expected = math.exp(-13.666666666666666 * 1.0)
        assert abs(np.linalg.det(M) - expected) / expected < 1e-4

    def test_liouville_identity_on_all_shipped_systems(self):
        for name in ("lorenz", "stuart-landau", "closed-orbit", "equilibrium"):
            field = load_system(name)
            x0 = [0.9, 0.4, 0.7]
            _x, M = integrate_with_tangent(field, x0, np.eye(3), 0.0, 1.0,
                                           TIGHT)
            traj = integrate(field, x0, 0.0, 1.0, TIGHT)
            div = field.divergence()
            ts = traj.times
            vals = np.array([div.evaluate(s) for s in traj.states])
            quad = np.trapezoid(vals, ts)
            expected = math.exp(quad)
            assert abs(np.linalg.det(M) - expected) / abs(expected) < 1e-4


def _reference_step(rhs, y, f, hs, tol, method):
    """One step on NumPy arrays, written out from the tableau: DP5(4)
    stage sums in `_DP_A` order and its error in `_DP_E` order, zero
    coefficients skipped; classical RK4 with its usual weights."""
    if method == "rk4-fixed":
        k2 = rhs(y + 0.5 * hs * f)
        k3 = rhs(y + 0.5 * hs * k2)
        k4 = rhs(y + hs * k3)
        z = y + (hs / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
        return z, rhs(z), 0.0
    k = [f]
    for row in integrator._DP_A[1:]:
        acc = row[0] * k[0]
        for a, kj in zip(row[1:], k[1:]):
            if a:
                acc = acc + a * kj
        z = y + hs * acc
        k.append(rhs(z))
    terms = [e * kj for e, kj in zip(integrator._DP_E, k) if e]
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    scale = tol + tol * np.maximum(np.abs(y), np.abs(z))
    return z, k[-1], float(np.sqrt(np.mean((hs * acc / scale) ** 2)))


class TestGeneratedStep:
    """`PolyField.compiled_step` is straight-line float code; it must
    reproduce the array arithmetic of the same tableau bit for bit."""

    @pytest.mark.parametrize("name, system, method, x0, hs", [
        ("lorenz", "rhs", "rk45-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "rhs", "rk45-adaptive", [1.0, 1.0, 1.0], -0.001),
        ("lorenz", "tangent_rhs", "rk45-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "tangent_rhs", "rk45-adaptive", [-3.0, 2.0, 30.0], -0.001),
        ("lorenz", "liouville_rhs", "rk45-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "rhs", "rk4-fixed", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "rhs", "rk4-fixed", [1.0, 1.0, 1.0], -0.001),
        ("lorenz", "tangent_rhs", "rk4-fixed", [1.0, 1.0, 1.0], 0.01),
        ("closed-orbit", "rhs", "rk45-adaptive", [0.3, -1.7, 0.5], 0.02),
    ])
    def test_matches_array_arithmetic(self, name, system, method, x0, hs):
        field = load_system(name)
        rhs = field._array(system)
        w = np.array(x0, dtype=float)
        if system == "tangent_rhs":
            w = np.concatenate([w, np.eye(3).ravel()])
        elif system == "liouville_rhs":
            w = np.append(w, 0.0)
        tableau = integrator._RK4 if method == "rk4-fixed" else integrator._DP54
        step = field.compiled_step(system, tableau)
        y, f = tuple(w.tolist()), tuple(rhs(w).tolist())
        for _ in range(200):
            z, g, err, _ss = step(y, f, hs, 1e-10)
            z_ref, g_ref, err_ref = _reference_step(
                rhs, np.array(y), np.array(f), hs, 1e-10, method)
            assert z == tuple(z_ref.tolist())
            assert g == tuple(g_ref.tolist())
            assert err == err_ref
            y, f = z, g

    def test_overflowing_power(self, closed_orbit):
        # a stage before z overflows: the step raises, as no slope exists
        rhs = closed_orbit.compiled_rhs()
        step = closed_orbit.compiled_step("rhs", integrator._DP54)
        y = (1e80, 0.0, 0.0)
        with pytest.raises(OverflowError):
            step(y, tuple(rhs(np.array(y)).tolist()), 1e-100, 1e-10)

    def test_overflow_at_the_new_state_keeps_the_cap_verdict(self,
                                                             closed_orbit):
        # backward RK4 overshoots: z is finite but its slope overflows,
        # so the slope is inf and the cap, checked first, reports z
        opts = IntegrationOptions(method="rk4-fixed")
        with pytest.raises(BlowUpError, match="exceeded blow-up cap") as info:
            integrate(closed_orbit, [1.0, 1.0, 1.0], 0.0, -0.5, opts)
        traj = info.value.trajectory
        step = closed_orbit.compiled_step("rhs", integrator._RK4)
        z, g, _err, _ss = step(tuple(traj.states[-1].tolist()),
                               tuple(traj.derivs[-1].tolist()), -0.01, 1e-10)
        assert all(map(math.isfinite, z)) and g == (math.inf,) * 3

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    def test_overflowing_stage_is_not_finite(self, monkeypatch, method):
        # DP5(4) retries at a fifth of the step; RK4 reports a blow-up
        calls = []
        generated = type(DECAY).compiled_step

        def first_overflows(field, system, tableau):
            step = generated(field, system, tableau)

            def wrapped(y, f, hs, tol):
                calls.append(hs)
                if len(calls) == 1:
                    raise OverflowError("stage overflow")
                return step(y, f, hs, tol)
            return wrapped

        monkeypatch.setattr(type(DECAY), "compiled_step", first_overflows)
        opts = IntegrationOptions(method=method)
        if method == "rk4-fixed":
            with pytest.raises(BlowUpError, match="non-finite state"):
                integrate(DECAY, [1.0], 0.0, 1.0, opts)
            return
        traj = integrate(DECAY, [1.0], 0.0, 1.0, opts)
        assert calls[1] == integrator._MIN_STEP_FACTOR * calls[0]
        assert traj.final_time == 1.0
        assert abs(traj.final_state[0] - math.exp(-1.0)) < 1e-8


def _reference_initial_step(rhs, y0, f0, direction, tol):
    """The starting-step rule written on NumPy arrays, the reference for
    the float `_initial_step`; returns (h, f1), f1 the slope at the trial
    point or None when d0 and d1 settle h first."""
    def rms(v, scale):
        return float(np.sqrt(np.mean((v / scale) ** 2)))

    scale = tol + tol * np.abs(y0)
    d0 = rms(y0, scale)
    d1 = rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0:
        return 0.0, None
    f1 = rhs(y0 + h0 * direction * f0)
    d2 = rms(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1), f1


_V = [1.5, 0.9, -0.6, 0.5, 1.7, -1.9, -1.4, 1.6, 1.3]
_INITIAL_STEP_CASES = [
    (system, w, direction, None)
    for system, starts in [
        ("rhs", [[1.0, 1.0, 1.0], [-3.0, 2.0, 30.0]]),
        ("liouville_rhs", [[1.0, 1.0, 1.0, 0.0], [-3.0, 2.0, 30.0, 0.5]]),
        ("tangent_rhs", [[1.0, 1.0, 1.0, *np.eye(3).ravel()], [-3.0, 2.0, 30.0, *_V]]),
    ]
    for w in starts for direction in (1.0, -1.0)
] + [
    # |f0| / scale squares past the largest float: d1 is inf
    ("rhs", [1e154, -1e154, 28.0], 1.0, "d1"),
    ("liouville_rhs", [1e154, -1e154, 28.0, 0.0], -1.0, "d1"),
    # f0 is finite, but J V overflows at the backward trial point
    ("tangent_rhs", [-3.0, 2.0, 30.0, *(9.45e306 * v for v in _V)], -1.0, "f1"),
    ("tangent_rhs", [-3.0, 2.0, 30.0, *(9.45e306 * v for v in _V)], 1.0, None),
]


class TestInitialStep:
    """`_initial_step` runs on floats; it must give the h of the NumPy
    formula in `_reference_initial_step` bit for bit, also where d1 or f1
    overflows. The 12-variable tangent system sums in NumPy's eight lanes."""

    @pytest.mark.parametrize("system, w, direction, overflow",
                             _INITIAL_STEP_CASES)
    def test_matches_numpy_formula(self, lorenz, system, w, direction,
                                   overflow):
        slope = lorenz.compiled_slope(system)
        y0 = tuple(map(float, w))
        f0 = slope(y0)
        assert all(map(math.isfinite, f0))
        with np.errstate(over="ignore", invalid="ignore"):
            h_ref, f1 = _reference_initial_step(
                lorenz._array(system), np.array(y0), np.array(f0),
                direction, 1e-10)
        h = integrator._initial_step(slope, y0, f0, direction, 1e-10)
        assert h == h_ref
        assert (f1 is None) == (overflow == "d1")
        assert (f1 is not None and not np.all(np.isfinite(f1))) == (overflow == "f1")

    def test_random_tangent_starts(self, lorenz):
        # summation order changes h on only a few of these; a plain
        # left-to-right sum fails here
        slope = lorenz.compiled_slope("tangent_rhs")
        rhs = lorenz._array("tangent_rhs")
        rng = np.random.default_rng(3)
        for w in rng.normal(size=(40, 12)) * 10.0 ** rng.uniform(-3, 3, (40, 12)):
            y0 = tuple(w.tolist())
            f0 = slope(y0)
            for direction in (1.0, -1.0):
                h_ref, _f1 = _reference_initial_step(
                    rhs, w, np.array(f0), direction, 1e-10)
                assert integrator._initial_step(
                    slope, y0, f0, direction, 1e-10) == h_ref


_OVERFLOWING_CALLS = {
    "integrate-dp54": lambda f, x: integrate(f, x, 0.0, 1.0),
    "integrate-rk4": lambda f, x: integrate(
        f, x, 0.0, 1.0, IntegrationOptions(method="rk4-fixed")),
    "integrate_with_tangent": lambda f, x: integrate_with_tangent(
        f, x, np.eye(3), 0.0, 1.0),
    "first_crossing": lambda f, x: first_crossing(
        f, SectionPlane([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], "positive"), x),
    "lyapunov_spectrum": lambda f, x: lyapunov_spectrum(f, x, 1.0, 1.0, 0.5),
    "flow_determinant": lambda f, x: flow_determinant(f, x, 1.0),
}


class TestOverflowingStart:
    """From a start whose field overflows, library calls raise a typed
    error, or find no equilibrium, and NumPy warns about nothing."""

    @pytest.mark.parametrize("x", [1e80, 1e155, 1e200])
    @pytest.mark.parametrize("call", sorted(_OVERFLOWING_CALLS))
    def test_typed_error_and_no_warning(self, closed_orbit, call, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                _OVERFLOWING_CALLS[call](closed_orbit, [x, 0.0, 0.0])

    @pytest.mark.parametrize("x", [1e80, 1e155, 1e200])
    def test_no_equilibrium_and_no_warning(self, closed_orbit, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_equilibrium(closed_orbit, [x, 0.0, 0.0]) is None


class TestRecordingMemory:
    def test_peak_stays_near_the_trajectory(self, lorenz):
        integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 1.0)  # generate the step
        tracemalloc.start()
        try:
            traj = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 200.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = traj.times.nbytes + traj.states.nbytes + traj.derivs.nbytes
        assert len(traj) > 50_000
        assert peak < 3 * kept


class TestFailureModes:
    def test_blow_up_carries_partial_trajectory(self):
        with pytest.raises(BlowUpError) as exc_info:
            integrate(ESCAPE, [1.0], 0.0, 2.0, IntegrationOptions())
        exc = exc_info.value
        assert exc.trajectory is not None
        assert len(exc.trajectory) > 1
        assert exc.trajectory.times[-1] < 1.0
        assert np.all(np.isfinite(exc.trajectory.states))
        assert abs(exc.state[0]) > 1e11

    def test_custom_blow_up_cap(self):
        opts = IntegrationOptions(blow_up_norm=1e4)
        with pytest.raises(BlowUpError):
            integrate(ESCAPE, [1.0], 0.0, 2.0, opts)

    def test_tangent_blow_up_records_no_trajectory(self):
        # the tangent run keeps only its final values, so the error
        # carries the augmented 3 + 9 state at the escape, not samples
        field = parse_system("dx/dt = x^2\ndy/dt = 0\ndz/dt = -z")
        with pytest.raises(BlowUpError) as exc_info:
            integrate_with_tangent(field, [1.0, 0.5, 1.0], np.eye(3),
                                   0.0, 2.0, IntegrationOptions())
        exc = exc_info.value
        assert exc.trajectory is None
        assert exc.t < 1.0
        assert exc.state.shape == (12,)
        assert np.linalg.norm(exc.state) > 1e12

    def test_step_underflow_near_singularity(self):
        opts = IntegrationOptions(blow_up_norm=1e300)
        with pytest.raises(StepSizeError) as exc_info:
            integrate(ESCAPE, [1.0], 0.0, 2.0, opts)
        assert exc_info.value.trajectory is not None

    def test_max_steps_budget(self, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 10)
        with pytest.raises(MaxStepsError):
            integrate(HARMONIC, [1.0, 0.0], 0.0, 100.0, IntegrationOptions())

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError):
            integrate(DECAY, [1.0], 1.0, 1.0, IntegrationOptions())

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            IntegrationOptions(method="euler")
        with pytest.raises(ValueError):
            IntegrationOptions(tol=0.0)
        with pytest.raises(ValueError):
            IntegrationOptions(method="rk4-fixed", step=-0.1)
        with pytest.raises(ValueError, match="rk4-fixed only"):
            IntegrationOptions(step=0.1)

    def test_settable_fields(self):
        names = [f.name for f in dataclasses.fields(IntegrationOptions)]
        assert names == ["method", "step", "tol", "blow_up_norm"]


class TestTrajectoryContainer:
    def test_first_sample_at_t0_and_monotone(self, lorenz):
        traj = integrate(lorenz, [1.0, 1.0, 1.0], 2.0, 5.0, IntegrationOptions())
        assert traj.t0 == 2.0
        assert traj.times[0] == 2.0
        assert np.all(np.diff(traj.times) > 0)

    def test_csv_format(self):
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 1.0, IntegrationOptions())
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        last = lines[-1].split(",")
        np.testing.assert_allclose(
            [float(v) for v in last[1:]], traj.final_state, rtol=1e-16)
