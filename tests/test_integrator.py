import dataclasses
import math
import sys
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
    SectionPoint,
    StepSizeError,
    find_equilibrium,
    first_crossing,
    first_return,
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
DOP853 = IntegrationOptions(method="dop853-adaptive", tol=1e-12)
# x = 1e154 e^t, whose square overflows once x passes sqrt(max float) at
# t = 0.293252...: trial stages of the last steps before T1 overflow
OVERFLOWING = parse_system("dx/dt = x\ndy/dt = 1e-300*x^2")
OVERFLOWING_X0, OVERFLOWING_T1 = [1e154, 0.0], 0.29325
HUGE_CAP = IntegrationOptions(blow_up_norm=1e300)


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


class TestDOP853:
    """The DOP853 tableau at tolerance 1e-12, the tolerance of `upo`."""

    @pytest.mark.parametrize("t1, bound", [(10.0, 1e-9), (20.0, 2e-7)])
    def test_lorenz_against_scipy(self, lorenz, lorenz_scipy_rhs, t1, bound):
        # Lorenz's largest exponent, 0.9, amplifies errors by e^18 over
        # [0, 20]: SciPy's own DOP853 at 1e-12 ends 9.3e-8 from its run at
        # 1e-13 there (2.6e-11 at t1 = 10), and DP5(4) at 1e-12 2.4e-6
        mine = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, t1, DOP853).final_state
        ref = solve_ivp(lorenz_scipy_rhs, (0.0, t1), [1.0, 1.0, 1.0],
                        method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
        assert np.max(np.abs(mine - ref)) < bound

    def test_a_third_of_the_slope_evaluations(self, lorenz):
        evaluations = {}
        for method in ("rk45-adaptive", "dop853-adaptive"):
            opts = IntegrationOptions(method=method, tol=1e-12)
            run = integrator._Run(lorenz, "rhs", [1.0, 1.0, 1.0], 0.0, 20.0, opts)
            run.advance()
            stages = len(integrator._TABLEAUS[method].A) + 1  # FSAL: k0 is reused
            evaluations[method] = run.point[4] * stages
        assert evaluations["rk45-adaptive"] >= 3 * evaluations["dop853-adaptive"]

    def test_options(self):
        assert DOP853.tolerance == 1e-12
        with pytest.raises(ValueError, match="step applies to rk4-fixed only"):
            IntegrationOptions(method="dop853-adaptive", step=0.1)


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
    """`integrator._hermite`, the interpolant that section crossings are
    refined on, at the midpoint of every recorded step of the harmonic
    oscillator, against its closed form (cos t, -sin t)."""

    @staticmethod
    def _largest_midpoint_error(t1):
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, t1, IntegrationOptions(tol=1e-10))
        ts, ys = traj.times, traj.states
        fs = [HARMONIC.compiled_slope("rhs")(tuple(y)) for y in ys.tolist()]
        errors = []
        for i in range(len(ts) - 1):
            t = 0.5 * (ts[i] + ts[i + 1])
            x = integrator._hermite(ts[i], ys[i], fs[i], ts[i + 1], ys[i + 1],
                                    fs[i + 1], t)
            errors.append(max(abs(x[0] - math.cos(t)), abs(x[1] + math.sin(t))))
        return max(errors)

    def test_interpolation_matches_closed_form(self):
        assert self._largest_midpoint_error(6.0) < 1e-8

    def test_interpolation_backward(self):
        assert self._largest_midpoint_error(-6.0) < 1e-8


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
            liouville = field.compiled_slope("liouville_rhs")
            ts = traj.times
            vals = np.array([liouville(list(s) + [0.0])[-1]
                             for s in traj.states.tolist()])
            quad = np.trapezoid(vals, ts)
            expected = math.exp(quad)
            assert abs(np.linalg.det(M) - expected) / abs(expected) < 1e-4


def _bits(values):
    """The floats `values` as hex strings: equal only bit for bit, so
    -0.0 differs from 0.0."""
    return [v.hex() for v in values]


def _weighted(weights, k):
    """Σ w_j k_j over the nonzero weights, summed in order."""
    terms = [w * kj for w, kj in zip(weights, k) if w]
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _reference_step(rhs, y, f, hs, tol, method):
    """One step on NumPy arrays, written out from the tableau: DP5(4)
    stage sums in `_DP_A` order and its error in `_DP_E` order, zero
    coefficients skipped; DOP853 the same way from `_DOP853`, with its
    combined error norm; classical RK4 with its usual weights."""
    if method == "rk4-fixed":
        k2 = rhs(y + 0.5 * hs * f)
        k3 = rhs(y + 0.5 * hs * k2)
        k4 = rhs(y + hs * k3)
        z = y + (hs / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
        return z, rhs(z), 0.0
    if method == "dop853-adaptive":
        dop = integrator._DOP853
        k = [f]
        for row in (*dop.A, dop.b):
            z = y + hs * _weighted(row, k)
            k.append(rhs(z))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(z))
        e5 = np.sum((_weighted(dop.e, k) / scale) ** 2)
        e3 = np.sum((_weighted(dop.e3, k) / scale) ** 2)
        den = e5 + 0.01 * e3
        err = float(abs(hs) * e5 / np.sqrt(den * len(y))) if den != 0.0 else 0.0
        return z, k[-1], err
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


class TestGeneratedSums:
    @pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 200, 300])
    def test_sum_follows_numpy_reduction_order(self, n):
        # the generated step's RMS must round exactly as np.mean does
        rng = np.random.default_rng(n)
        q = (rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)) ** 2
        expr = integrator._numpy_sum([f"q[{i}]" for i in range(n)])
        assert eval(expr, {"q": q.tolist()}) == float(np.add.reduce(q))


class TestGeneratedStep:
    """`integrator._compiled_step` is straight-line float code; it must
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
        ("lorenz", "tangent_rhs", "rk4-fixed", [-3.0, 2.0, 30.0], -0.001),
        ("closed-orbit", "rhs", "rk45-adaptive", [0.3, -1.7, 0.5], 0.02),
        ("lorenz", "rhs", "dop853-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "rhs", "dop853-adaptive", [1.0, 1.0, 1.0], -0.001),
        ("lorenz", "tangent_rhs", "dop853-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("lorenz", "tangent_rhs", "dop853-adaptive", [-3.0, 2.0, 30.0], -0.001),
        ("lorenz", "liouville_rhs", "dop853-adaptive", [1.0, 1.0, 1.0], 0.01),
        ("closed-orbit", "rhs", "dop853-adaptive", [0.3, -1.7, 0.5], 0.02),
        # signed zeros: x = y = 0 stays on the z-axis, y = -0.0 leaves it
        ("lorenz", "rhs", "rk45-adaptive", [-0.0, 0.0, 1.0], 0.01),
        ("lorenz", "rhs", "rk45-adaptive", [1.0, -0.0, 0.0], -0.001),
        ("lorenz", "rhs", "dop853-adaptive", [-0.0, 0.0, 1.0], 0.01),
        ("lorenz", "rhs", "dop853-adaptive", [1.0, -0.0, 0.0], -0.001),
        ("lorenz", "rhs", "rk4-fixed", [-0.0, 0.0, 1.0], 0.01),
        ("lorenz", "rhs", "rk4-fixed", [1.0, -0.0, 0.0], -0.001),
    ])
    def test_matches_array_arithmetic(self, name, system, method, x0, hs):
        field = load_system(name)
        rhs = field._array(system)
        w = np.array(x0, dtype=float)
        if system == "tangent_rhs":
            w = np.concatenate([w, np.eye(3).ravel()])
        elif system == "liouville_rhs":
            w = np.append(w, 0.0)
        step = integrator._compiled_step(field, system, integrator._TABLEAUS[method])
        y, f = tuple(w.tolist()), tuple(rhs(w).tolist())
        for _ in range(200):
            z, g, err = step(y, f, hs, 1e-10)
            z_ref, g_ref, err_ref = _reference_step(
                rhs, np.array(y), np.array(f), hs, 1e-10, method)
            assert _bits(z) == _bits(z_ref.tolist())
            assert _bits(g) == _bits(g_ref.tolist())
            assert err.hex() == err_ref.hex()
            y, f = z, g

    def test_overflowing_power(self, closed_orbit):
        # a stage before z overflows: as arrays would, z is not finite
        rhs = closed_orbit.compiled_rhs()
        step = integrator._compiled_step(closed_orbit, "rhs", integrator._DP54)
        y = (1e80, 0.0, 0.0)
        z, _g, _err = step(y, tuple(rhs(np.array(y)).tolist()), 1e-100, 1e-10)
        assert not all(map(math.isfinite, z))

    def test_overflow_at_the_new_state_keeps_the_cap_verdict(self,
                                                             closed_orbit):
        # backward RK4 overshoots: z is finite but its slope overflows,
        # so the slope is not finite and the cap, checked first, reports z
        opts = IntegrationOptions(method="rk4-fixed")
        with pytest.raises(BlowUpError, match="exceeded blow-up cap") as info:
            integrate(closed_orbit, [1.0, 1.0, 1.0], 0.0, -0.5, opts)
        traj = info.value.trajectory
        step = integrator._compiled_step(closed_orbit, "rhs", integrator._RK4)
        y = tuple(traj.states[-1].tolist())
        z, g, _err = step(y, closed_orbit.compiled_slope("rhs")(y), -0.01, 1e-10)
        assert all(map(math.isfinite, z)) and not all(map(math.isfinite, g))

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    def test_overflowing_stage_is_not_finite(self, method):
        # DP5(4) retries at a fifth of the step; RK4 reports a blow-up
        if method == "rk4-fixed":
            # x = 1.34e154 stays below sqrt(max float); 1.005 x does not
            opts = IntegrationOptions(method=method, blow_up_norm=1e300)
            with pytest.raises(BlowUpError, match="^non-finite state at t=0.01$") as info:
                integrate(OVERFLOWING, [1.34e154, 0.0], 0.0, 1.0, opts)
            assert not np.isfinite(info.value.state).all()
            return
        attempts = []
        for _point in _reference_stream(OVERFLOWING, "rhs", OVERFLOWING_X0, 0.0,
                                         OVERFLOWING_T1, HUGE_CAP, attempts):
            pass
        i = next(i for i, a in enumerate(attempts) if a[3] == "non-finite")
        y, f, hs, _verdict = attempts[i]
        step = integrator._compiled_step(OVERFLOWING, "rhs", integrator._DP54)
        z, _g, _err = step(y, f, hs, HUGE_CAP.tol)
        assert not all(map(math.isfinite, z))
        z, _g, _err = step(y, f, 0.2 * hs, HUGE_CAP.tol)
        assert all(map(math.isfinite, z)) and attempts[i + 1][2] == 0.2 * hs
        traj = integrate(OVERFLOWING, OVERFLOWING_X0, 0.0, OVERFLOWING_T1, HUGE_CAP)
        assert traj.final_time == OVERFLOWING_T1
        exact = 1e154 * math.exp(OVERFLOWING_T1)
        assert abs(traj.final_state[0] - exact) < 1e-8 * exact


def _reference_stream(field, system, y0, t0, t1, opts, attempts=None):
    """The stepping loop written out in Python over `_reference_step`, the
    reference for the generated loop: yields accepted points (t, y, f) as
    float tuples, the start first, and raises the loop's errors with its
    messages. `attempts`, if a list, receives (y, f, hs, verdict) for
    every trial step from (y, f), the verdict "non-finite", "rejected"
    or "accepted"."""
    rhs = field._array(system)
    y, t0 = tuple(float(a) for a in y0), float(t0)
    f = tuple(rhs(np.array(y)).tolist())
    yield t0, y, f
    adaptive = opts.method != "rk4-fixed"
    exponent = 0.125 if opts.method == "dop853-adaptive" else 0.2
    direction = 1.0 if t1 > t0 else -1.0
    if adaptive:
        if not all(map(math.isfinite, f)):
            raise BlowUpError(f"non-finite field value at t={t0:.6g}", t0, np.array(y))
        h = min(integrator._initial_step(field.compiled_slope(system), y, f,
                                         direction, opts.tol, exponent), abs(t1 - t0))
    else:
        n_steps = max(1, math.ceil(abs(t1 - t0) / opts.step))
        h = abs(t1 - t0) / n_steps
    cap, n = opts.blow_up_norm, field.dimension
    limit = cap * cap * (1.0 - 1e-9)
    t, steps = t0, 0
    while (direction * (t1 - t) > 0) if adaptive else steps < n_steps:
        if adaptive:
            if steps >= integrator._MAX_STEPS:
                raise MaxStepsError(f"step budget of {integrator._MAX_STEPS} "
                                    f"exhausted at t={t:.6g}", t, np.array(y))
            remaining = abs(t1 - t)
            h = min(h, remaining)
            final_step = h == remaining
            if h <= 16 * sys.float_info.epsilon * max(abs(t), 1.0):
                raise StepSizeError(f"step size underflow (h={h:.3e}) at t={t:.6g}",
                                    t, np.array(y))
        else:
            final_step = steps == n_steps - 1
        hs = direction * h
        steps += 1
        t_new = t1 if final_step else t + hs if adaptive else t0 + steps * hs
        with np.errstate(all="ignore"):
            z, g, err = _reference_step(rhs, np.array(y), np.array(f), hs,
                                        opts.tol, opts.method)
        z, g = tuple(z.tolist()), tuple(g.tolist())
        ss = 0.0
        for a in z:
            ss += a * a
        if not ss < limit and not all(map(math.isfinite, z)):
            if attempts is not None:
                attempts.append((y, f, hs, "non-finite"))
            if not adaptive:
                raise BlowUpError(f"non-finite state at t={t_new:.6g}",
                                  t_new, np.array(z))
            h *= 0.2
            continue
        if not err <= 1.0:
            if attempts is not None:
                attempts.append((y, f, hs, "rejected"))
            h *= max(0.2, 0.9 * err ** -exponent)
            continue
        if not ss < limit and (norm := math.hypot(*z[:n])) > cap:
            raise BlowUpError(f"state norm {norm:.3e} exceeded blow-up cap "
                              f"{cap:.3e} at t={t_new:.6g}", t_new, np.array(z))
        if attempts is not None:
            attempts.append((y, f, hs, "accepted"))
        t, y, f = t_new, z, g
        yield t, y, f
        if adaptive:
            h *= 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -exponent)


def _reference_run(field, system, y0, t0, t1, opts, attempts=None):
    """(times, states, derivs, error) of `_reference_stream`: the accepted
    points as arrays, and the error that ended the run or None."""
    points, error = [], None
    try:
        points.extend(_reference_stream(field, system, y0, t0, t1, opts, attempts))
    except IntegrationError as exc:
        error = exc
    times, states, derivs = zip(*points)
    return np.array(times), np.array(states), np.array(derivs), error


def _recorded_run(field, system, w0, t0, t1, opts):
    """(times, states, derivs, error) of one run of the generated loop
    with every accepted point recorded: by `integrate` for "rhs" (a
    failed run's points from the trajectory its error carries), else by
    one `_Run` recording rows into a list. The loop records no slopes:
    derivs is the field's `compiled_slope(system)` at each recorded
    state, which must equal the slope the step carried to it (FSAL)."""
    if system == "rhs":
        try:
            traj, error = integrate(field, w0, t0, t1, opts), None
        except IntegrationError as exc:
            traj, error = exc.trajectory, exc
        times, states = traj.times, traj.states
    else:
        rows, error = [], None
        try:
            integrator._Run(field, system, w0, t0, t1, opts, rows.append).advance()
        except IntegrationError as exc:
            error = exc
        rows = np.array(rows)
        times, states = rows[:, 0], rows[:, 1:]
    slope = field.compiled_slope(system)
    derivs = np.array([slope(tuple(y)) for y in states.tolist()])
    return times, states, derivs, error


class TestGeneratedLoop:
    """The generated stepping loop accepts the same points, bit for bit,
    and ends the same way as `_reference_stream`."""

    W = parse_system("dx/dt = 10*(y - x)\ndy/dt = x*(28 - z) - y\n"
                     "dz/dt = x*y - 2.6666666666666665*z\ndw/dt = w^2")
    RK4 = IntegrationOptions(method="rk4-fixed", step=0.01)

    @staticmethod
    def _assert_same_run(field, system, w0, t0, t1, opts, attempts=None):
        times, states, derivs, error = _reference_run(field, system, w0, t0, t1,
                                                      opts, attempts)
        *run, exc = _recorded_run(field, system, w0, t0, t1, opts)
        if exc is None:
            assert error is None, error
        else:
            assert type(exc) is type(error) and str(exc) == str(error)
            assert exc.t == error.t
            np.testing.assert_array_equal(exc.state, error.state)
        for got, expected in zip(run, (times, states, derivs)):
            np.testing.assert_array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()  # signed zeros too
        return error

    @pytest.mark.parametrize("name, system, w0, t1, rk4", [
        ("lorenz", "rhs", [1.0, 1.0, 1.0], 5.0, False),
        ("lorenz", "rhs", [1.0, 1.0, 1.0], -0.3, False),
        ("lorenz", "rhs", [1.0, 1.0, 1.0], 5.0, True),
        ("lorenz", "rhs", [1.0, 1.0, 1.0], -0.3, True),
        ("lorenz", "tangent_rhs", [1.0, 1.0, 1.0, *np.eye(3).ravel()], 2.0, False),
        ("lorenz", "tangent_rhs", [1.0, 1.0, 1.0, *np.eye(3).ravel()], 2.0, True),
        ("lorenz", "liouville_rhs", [1.0, 1.0, 1.0, 0.0], 2.0, False),
        ("closed-orbit", "rhs", [0.3, -1.7, 0.5], 3.0, False),
        ("lorenz", "rhs", [-0.0, 0.0, 1.0], 2.0, False),
        ("lorenz", "rhs", [1.0, -0.0, 0.0], -0.3, False),
    ])
    def test_completed_runs(self, name, system, w0, t1, rk4):
        opts = self.RK4 if rk4 else IntegrationOptions()
        assert self._assert_same_run(load_system(name), system, w0, 0.0, t1,
                                     opts) is None

    @pytest.mark.parametrize("rk4", [True, False])
    def test_restart_is_a_fresh_run(self, lorenz, rk4):
        # restarted from where it ended, a run starts and ends as a new
        # run from there; a start whose slope overflows is refused alike
        opts = self.RK4 if rk4 else IntegrationOptions()
        run = integrator._Run(lorenz, "tangent_rhs", (1.0, 1.0, 1.0, *np.eye(3).ravel()),
                              0.0, 0.5, opts)
        for _ in range(2):
            run.advance()
            w = run.point[1]
            fresh = integrator._Run(lorenz, "tangent_rhs", w, 0.0, 0.5, opts)
            run.restart(w)
            assert repr(run.point) == repr(fresh.point)
        fresh.advance()
        run.advance()
        assert repr(run.point) == repr(fresh.point)
        if not rk4:
            w = (1e300, 1e300, 0.0, *np.eye(3).ravel().tolist())
            with pytest.raises(BlowUpError, match="^non-finite field value at t=0$"):
                integrator._Run(lorenz, "tangent_rhs", w, 0.0, 0.5, opts)
            with pytest.raises(BlowUpError, match="^non-finite field value at t=0$"):
                run.restart(w)

    @pytest.mark.parametrize("system, w0, t1", [
        ("rhs", [1.0, 1.0, 1.0], 5.0),
        ("rhs", [1.0, 1.0, 1.0], -0.3),
        ("tangent_rhs", [1.0, 1.0, 1.0, *np.eye(3).ravel()], 2.0),
        ("liouville_rhs", [1.0, 1.0, 1.0, 0.0], 2.0),
        ("rhs", [-0.0, 0.0, 1.0], 2.0),
        ("rhs", [1.0, -0.0, 0.0], -0.3),
    ])
    def test_dop853_runs(self, lorenz, system, w0, t1):
        assert self._assert_same_run(lorenz, system, w0, 0.0, t1, DOP853) is None

    def test_dop853_retries_until_underflow(self):
        # past t = 0.293252... every step overflows a stage: the run
        # retries at a fifth of h until h underflows
        attempts = []
        opts = dataclasses.replace(HUGE_CAP, method="dop853-adaptive")
        error = self._assert_same_run(OVERFLOWING, "rhs", OVERFLOWING_X0, 0.0,
                                      0.2933, opts, attempts)
        assert isinstance(error, StepSizeError)
        retries = [(a, b) for a, b in zip(attempts, attempts[1:])
                   if a[3] == "non-finite"]
        assert len(retries) > 10
        assert all(b[0] == a[0] and b[2] == 0.2 * a[2] for a, b in retries)

    @pytest.mark.parametrize("rk4", [False, True])
    def test_one_and_four_dimensions(self, rk4):
        opts = self.RK4 if rk4 else IntegrationOptions()
        assert self._assert_same_run(DECAY, "rhs", [1.0], 0.0, 3.0, opts) is None
        # w = 1/(1 - t) escapes at t = 1
        error = self._assert_same_run(self.W, "rhs", [1.0, 1.0, 1.0, 1.0], 0.0,
                                      2.0, opts)
        assert isinstance(error, BlowUpError)

    def test_step_size_underflow(self, closed_orbit):
        # outside the unit cylinder the backward orbit escapes in finite time
        error = self._assert_same_run(closed_orbit, "rhs", [2.0, 0.0, 0.0], 0.0,
                                      -1.0, IntegrationOptions())
        assert isinstance(error, StepSizeError)

    def test_blow_up_cap(self, equilibrium):
        error = self._assert_same_run(equilibrium, "rhs", [0.5, 0.0, 0.0], 0.0,
                                      -100.0, IntegrationOptions())
        assert isinstance(error, BlowUpError) and "blow-up cap" in str(error)

    def test_rk4_non_finite_state(self, lorenz):
        w0 = [1.0, 1.0, 1.0, *(1e308 * np.eye(3)).ravel()]
        error = self._assert_same_run(lorenz, "tangent_rhs", w0, 0.0, 1.0, self.RK4)
        assert str(error) == "non-finite state at t=0.01"

    def test_step_budget(self, monkeypatch, lorenz):
        monkeypatch.setattr(integrator, "_MAX_STEPS", 50)
        error = self._assert_same_run(lorenz, "rhs", [1.0, 1.0, 1.0], 0.0, 5.0,
                                      IntegrationOptions())
        assert isinstance(error, MaxStepsError)

    def test_non_finite_retry(self):
        attempts = []
        assert self._assert_same_run(OVERFLOWING, "rhs", OVERFLOWING_X0, 0.0,
                                     OVERFLOWING_T1, HUGE_CAP, attempts) is None
        retries = [(a, b) for a, b in zip(attempts, attempts[1:])
                   if a[3] == "non-finite"]
        assert retries and all(b[2] == 0.2 * a[2] for a, b in retries)


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
    ("lorenz", system, w, direction, 1e-10, None)
    for system, starts in [
        ("rhs", [[1.0, 1.0, 1.0], [-3.0, 2.0, 30.0]]),
        ("liouville_rhs", [[1.0, 1.0, 1.0, 0.0], [-3.0, 2.0, 30.0, 0.5]]),
        ("tangent_rhs", [[1.0, 1.0, 1.0, *np.eye(3).ravel()], [-3.0, 2.0, 30.0, *_V]]),
    ]
    for w in starts for direction in (1.0, -1.0)
] + [
    # |f0| / scale squares past the largest float: d1 is inf
    ("lorenz", "rhs", [1e154, -1e154, 28.0], 1.0, 1e-10, "d1"),
    ("lorenz", "liouville_rhs", [1e154, -1e154, 28.0, 0.0], -1.0, 1e-10, "d1"),
    # f0 is finite, but J V overflows at the backward trial point
    ("lorenz", "tangent_rhs", [-3.0, 2.0, 30.0, *(9.45e306 * v for v in _V)], -1.0,
     1e-10, "f1"),
    ("lorenz", "tangent_rhs", [-3.0, 2.0, 30.0, *(9.45e306 * v for v in _V)], 1.0,
     1e-10, None),
    # x^3 is finite at the start, but not at the trial point x - 1e-6 x^3,
    # nor is x^2 in J, so J V adds inf and -inf: f1 holds nan. At tol
    # 1e-10, d1 of such a start would overflow first, hence tol 1e90
    ("closed-orbit", "tangent_rhs", [5.6e102, 0.0, 0.0, *_V], 1.0, 1e90, "nan"),
]
# system-w<row>-direction-overflow, led by the field's name where it is
# not Lorenz; the tolerance is 1e-10 where the id does not lead with one
_INITIAL_STEP_IDS = [
    f"{'' if name == 'lorenz' else name + '-'}{system}-w{i}-{direction}-{overflow}"
    for i, (name, system, _w, direction, _tol, overflow) in enumerate(_INITIAL_STEP_CASES)]


class TestInitialStep:
    """`_initial_step` runs on floats; it must give the h of the NumPy
    formula in `_reference_initial_step` bit for bit, also where d1 or f1
    overflows. The 12-variable tangent system sums in NumPy's eight lanes."""

    @pytest.mark.parametrize("name, system, w, direction, tol, overflow",
                             _INITIAL_STEP_CASES, ids=_INITIAL_STEP_IDS)
    def test_matches_numpy_formula(self, name, system, w, direction, tol,
                                   overflow):
        field = load_system(name)
        slope = field.compiled_slope(system)
        y0 = tuple(map(float, w))
        f0 = slope(y0)
        assert all(map(math.isfinite, f0))
        with np.errstate(over="ignore", invalid="ignore"):
            h_ref, f1 = _reference_initial_step(
                field._array(system), np.array(y0), np.array(f0),
                direction, tol)
        h = integrator._initial_step(slope, y0, f0, direction, tol)
        assert h == h_ref
        assert (f1 is None) == (overflow == "d1")
        assert (f1 is not None and not np.all(np.isfinite(f1))) == (overflow in ("f1", "nan"))
        assert (f1 is not None and np.isnan(f1).any()) == (overflow == "nan")

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


_Y0 = SectionPlane([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], "positive")
_NAN = [math.nan, 0.0, 0.0]
_BAD_STARTS = {
    "first_crossing-nan": lambda f: first_crossing(f, _Y0, _NAN),
    "first_crossing-2vector": lambda f: first_crossing(f, _Y0, [1.0, 0.0]),
    "first_crossing-t0-nan": lambda f: first_crossing(
        f, _Y0, [1.0, 0.0, 0.0], math.nan),
    "first_return-nan": lambda f: first_return(
        f, _Y0, SectionPoint([0.0, 0.0], _NAN, 0.0)),
    "flow_determinant-nan": lambda f: flow_determinant(f, _NAN, 1.0),
    "flow_determinant-2vector": lambda f: flow_determinant(f, [1.0, 0.0], 1.0),
    "lyapunov_spectrum-nan": lambda f: lyapunov_spectrum(f, _NAN, 1.0, 1.0, 0.5),
    "lyapunov_spectrum-2vector": lambda f: lyapunov_spectrum(
        f, [1.0, 0.0], 1.0, 1.0, 0.5),
    "integrate_with_tangent-Q0-nan": lambda f: integrate_with_tangent(
        f, [1.0, 0.0, 0.0], np.full((3, 3), math.nan), 0.0, 1.0),
}


class TestBadStart:
    """A start that is not finite, or has the wrong length, is refused
    with ValueError before any step, never with an integration error."""

    @pytest.mark.parametrize("call", sorted(_BAD_STARTS))
    def test_value_error(self, closed_orbit, call):
        with pytest.raises(ValueError, match="shape" if "2vector" in call
                           else "finite"):
            _BAD_STARTS[call](closed_orbit)


class TestRecordingMemory:
    def test_peak_stays_near_the_trajectory(self, lorenz):
        integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 1.0)  # generate the step
        tracemalloc.start()
        try:
            traj = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 200.0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = traj.times.nbytes + traj.states.nbytes  # the (t, state) rows
        assert len(traj) > 50_000
        assert peak < 3 * kept


def _per_value_csv(names, table):
    """CSV text as written one value at a time before the block writer."""
    lines = [",".join(names)]
    lines += [",".join(format(v, ".17g") for v in row) for row in table]
    return "\n".join(lines) + "\n"


_BLOCK = integrator._CSV_BLOCK


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      3 * _BLOCK + 7])
    def test_matches_per_value_formatting(self, rows):
        rng = np.random.default_rng(rows)
        table = rng.normal(size=(rows, 6)) * 10.0 ** rng.uniform(-300, 300, (rows, 6))
        special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
        table[-1] = special
        table[rng.integers(0, rows, 6), range(6)] = rng.permutation(special)
        names = ("t", "a", "b", "c", "d", "e")
        blocks = list(integrator._csv_blocks(names, table.ravel().tolist()))
        assert len(blocks) == 1 + math.ceil(rows / _BLOCK)
        assert "".join(blocks) == _per_value_csv(names, table)

    def test_iterate_column_prints_integers(self):
        # section.csv numbers its rows with the iterate index
        rows = [0, 0.5, 1, -0.0, 2, 2.0]
        text = "".join(integrator._csv_blocks(("iterate", "u"), rows))
        assert text == "iterate,u\n0,0.5\n1,-0\n2,2\n"

    def test_trajectory_csv(self):
        opts = IntegrationOptions(method="rk4-fixed", step=0.001)
        traj = integrate(HARMONIC, [1.0, 0.0], 0.0, 5.0, opts)
        assert len(traj) > _BLOCK
        table = np.column_stack([traj.times, traj.states])
        assert "".join(traj.csv_blocks()) == _per_value_csv(("t", "x", "y"), table)


class TestRk4Span:
    """An RK4 run is sized up front, so its span must be finite and fit
    the step budget."""

    PLANE = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
    OPTS = IntegrationOptions(method="rk4-fixed")

    def test_infinite_span_is_refused(self, lorenz):
        with pytest.raises(ValueError, match="rk4-fixed needs a finite time span"):
            first_crossing(lorenz, self.PLANE, [1.0, 1.0, 1.0], opts=self.OPTS,
                           max_time=math.inf)

    def test_huge_span_reports_a_short_step_count(self, lorenz):
        with pytest.raises(MaxStepsError) as info:
            first_crossing(lorenz, self.PLANE, [1.0, 1.0, 1.0], opts=self.OPTS,
                           max_time=1e300)
        assert str(info.value) == ("1e+302 fixed steps needed, step budget "
                                   f"{integrator._MAX_STEPS}")


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

    def test_tangent_run_state_escape_trips_the_cap(self):
        with pytest.raises(BlowUpError, match="exceeded blow-up cap") as exc_info:
            integrate_with_tangent(ESCAPE, [1.0], np.eye(1), 0.0, 2.0)
        assert exc_info.value.state[0] > 1e12

    def test_non_finite_tangent_entry_is_a_blow_up(self, lorenz):
        with pytest.raises(BlowUpError, match=r"^non-finite state at t=0.01$"):
            integrate_with_tangent(lorenz, [1.0, 1.0, 1.0], 1e308 * np.eye(3),
                                   0.0, 1.0, IntegrationOptions(method="rk4-fixed"))

    @pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
    def test_tangent_entries_whose_sum_overflows(self, method):
        # every entry of V is finite, but the frame's sum, which the loop
        # takes as its cheap finiteness test, overflows: the full test
        # runs and passes, and the zero field leaves V as it is
        field = parse_system("dx/dt = 0\ndy/dt = 0\ndz/dt = 0\ndw/dt = 0")
        V0 = 2.0 ** 1022 * np.eye(4)
        x, V = integrate_with_tangent(field, [1.0, 2.0, 3.0, 4.0], V0, 0.0, 1.0,
                                      IntegrationOptions(method=method))
        assert x.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert V.tobytes() == V0.tobytes()

    def test_cap_norm_does_not_overflow(self):
        # x = 1e154 e^t: x*x overflows from t = 0.2933 on, but the state
        # norm that the cap tests stays finite, far under 1e300
        traj = integrate(parse_system("dx/dt = x"), [1e154], 0.0, 1.0, HUGE_CAP)
        exact = 1e154 * math.e
        assert traj.final_time == 1.0
        assert abs(traj.final_state[0] - exact) < 1e-8 * exact

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
        lines = "".join(traj.csv_blocks()).strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        last = lines[-1].split(",")
        np.testing.assert_allclose(
            [float(v) for v in last[1:]], traj.final_state, rtol=1e-16)
