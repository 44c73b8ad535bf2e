import math
from pathlib import Path

import numpy as np
import pytest

from flowbound import (
    VERDICT_FALSIFIED,
    VERDICT_NO_COUNTEREXAMPLE,
    VERDICT_PROVED_UNBOUNDED,
    BoundCertificate,
    IntegrationError,
    IntegrationOptions,
    PolyField,
    bound_line,
    combine_reports,
    find_equilibrium,
    integrate,
    load_system,
    parse_system,
    refute_nonexistence,
    verify_bounds,
)
from flowbound import boundlaw
from flowbound.boundlaw import (
    _EQUILIBRIUM_MAX_ITER,
    _EQUILIBRIUM_TOL,
    certified_components,
)

CUBIC_ESCAPE = parse_system("dx/dt = 1\ndy/dt = 0\ndz/dt = x^2")
SQUARE = parse_system("dx/dt = x^2")
CONSTANT_Z = parse_system("dx/dt = -y\ndy/dt = x\ndz/dt = -0.5")
LORENZ_ESCAPE = parse_system((Path(__file__).resolve().parents[1] / "tools"
                              / "parity-systems" / "lorenz-escape.sys").read_text())

REFUTATION_KEYS = ["verdict", "bounded", "equilibrium", "witnessed_bound",
                   "horizon", "bound_report"]


def assert_one_outcome(report):
    """verdict, bounded and equilibrium tell one story, and refutation.json
    keeps its keys in order (the equilibrium adds its state and residual)."""
    assert report.verdict == (VERDICT_FALSIFIED if report.bounded
                              else VERDICT_NO_COUNTEREXAMPLE)
    assert report.bounded or not report.equilibrium
    assert (report.equilibrium_state is not None) == report.equilibrium
    assert (report.equilibrium_residual is not None) == report.equilibrium
    extra = ["equilibrium_state", "equilibrium_residual"]
    doc = report.to_json_dict()
    assert list(doc) == REFUTATION_KEYS + (extra if report.equilibrium else [])
    assert list(doc["bound_report"]) == [
        "forward_holds", "backward_holds", "naive_backward_violated",
        "margins", "samples_checked", "tolerance"]


class TestBoundLine:
    def test_negative_slope(self):
        assert bound_line(-1.0, 0.0, 2.0, 3.0) == -1.0

    def test_anchor_time_returns_anchor_value(self):
        assert bound_line(-3.7, 1.5, 42.0, 1.5) == 42.0

    def test_backward_of_anchor(self):
        assert bound_line(-10.0, 1.0, 0.0, 0.0) == 10.0


class TestCertificates:
    def test_certified_factory(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        assert cert.component_index == 3
        assert cert.alpha == 0.0
        assert cert.source == "certified"

    def test_certified_rejects_unbounded_component(self, equilibrium):
        with pytest.raises(ValueError):
            BoundCertificate.certified(equilibrium, 1)

    def test_index_bounds(self, equilibrium):
        with pytest.raises(ValueError):
            BoundCertificate.certified(equilibrium, 4)
        with pytest.raises(ValueError):
            BoundCertificate(0, -1.0)

    def test_shipped_certifiable_components(self, lorenz, stuart_landau,
                                            closed_orbit, equilibrium):
        assert [(c.component_index, c.alpha)
                for c in certified_components(equilibrium)] == [(3, 0.0)]
        assert [(c.component_index, c.alpha)
                for c in certified_components(closed_orbit)] == [(3, -1.0)]
        assert certified_components(lorenz) == []
        assert certified_components(stuart_landau) == []


class TestVerifyBounds:
    def test_equilibrium_held_both_directions(self, equilibrium):
        cert = BoundCertificate(3, -1.0)
        opts = IntegrationOptions()
        fwd = integrate(equilibrium, [0.0, 0.0, 0.0], 0.0, 50.0, opts)
        back = integrate(equilibrium, [0.0, 0.0, 0.0], 0.0, -50.0, opts)
        report = combine_reports(verify_bounds(fwd, cert),
                                 verify_bounds(back, cert))
        assert report.forward_holds and report.backward_holds
        # even the resting orbit witnesses the sign error: z = 0 sits
        # below the naive backward line -(t - t0), which rises as |t|
        assert report.naive_backward_violated

    def test_linear_flow_holds_on_both_sides(self):
        field = parse_system("dx/dt = 1")
        cert = BoundCertificate(1, -1.0)
        opts = IntegrationOptions()
        fwd = integrate(field, [0.0], 0.0, 50.0, opts)
        back = integrate(field, [0.0], 0.0, -50.0, opts)
        r_fwd = verify_bounds(fwd, cert)
        r_back = verify_bounds(back, cert)
        assert r_fwd.forward_holds
        assert r_back.backward_holds
        # x(t) = t drops below the t >= t0 line for t < t0: the naive
        # backward application of the forward bound fails, the corrected
        # one does not
        assert r_back.naive_backward_violated
        assert r_back.backward_margin >= 0.0

    def test_invariant_circle_example(self, closed_orbit):
        cert = BoundCertificate.certified(closed_orbit, 3)
        assert cert.alpha == -1.0
        opts = IntegrationOptions(tol=1e-10)
        span = 20.0 * math.pi
        fwd = integrate(closed_orbit, [1.0, 0.0, 0.0], 0.0, span, opts)
        back = integrate(closed_orbit, [1.0, 0.0, 0.0], 0.0, -span, opts)
        r_fwd = verify_bounds(fwd, cert)
        r_back = verify_bounds(back, cert)
        assert r_fwd.forward_holds and r_fwd.backward_holds
        assert r_back.forward_holds and r_back.backward_holds
        # the unit circle is invariant with a vanishing third component,
        # so the forward leg keeps |z| tiny and closes after each 2*pi
        assert np.max(np.abs(fwd.states[:, 2])) < 1e-6
        assert np.max(np.abs(fwd.final_state - [1.0, 0.0, 0.0])) < 1e-6

    def test_forward_only_trajectory_has_vacuous_backward_side(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        traj = integrate(equilibrium, [0.5, 0.5, 0.5], 0.0, 10.0,
                         IntegrationOptions())
        report = verify_bounds(traj, cert)
        assert report.forward_holds
        assert report.backward_holds
        assert math.isinf(report.backward_margin)
        assert report.samples_checked == 2 * len(traj) - 1

    def test_tolerance_composition(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        traj = integrate(equilibrium, [0.5, 0.5, 0.5], 0.0, 1.0,
                         IntegrationOptions(tol=1e-8))
        report = verify_bounds(traj, cert, tol=1e-6)
        assert report.tolerance == pytest.approx(1e-6 + 10 * 1e-8)

    def test_false_assertion_is_caught(self, equilibrium):
        cert = BoundCertificate(3, 1.0)
        traj = integrate(equilibrium, [0.5, 0.0, 0.0], 0.0, 10.0,
                         IntegrationOptions())
        report = verify_bounds(traj, cert)
        assert not report.forward_holds
        assert report.forward_margin < 0.0

    def test_component_index_out_of_range(self, equilibrium):
        traj = integrate(equilibrium, [0.5, 0.5, 0.5], 0.0, 1.0,
                         IntegrationOptions())
        with pytest.raises(ValueError):
            verify_bounds(traj, BoundCertificate(4, 0.0))

    def test_json_keys_are_stable(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        traj = integrate(equilibrium, [0.5, 0.5, 0.5], 0.0, 1.0,
                         IntegrationOptions())
        doc = verify_bounds(traj, cert).to_json_dict()
        assert set(doc) == {"forward_holds", "backward_holds",
                            "naive_backward_violated", "margins",
                            "samples_checked", "tolerance"}
        assert set(doc["margins"]) == {"forward", "backward"}


def _recorded(field, x0, t1, opts):
    """The trajectory of a run from t = 0, or the part its error carries."""
    try:
        return integrate(field, x0, 0.0, t1, opts)
    except IntegrationError as exc:
        return exc.trajectory


class TestSlopesFromTheField:
    """A trajectory stores no slopes: `verify_bounds` runs the field's
    generated slope on the recorded state columns. Those slopes must be the ones the
    generated step carried to each state (FSAL), `compiled_slope("rhs")`
    there, bit for bit."""

    @pytest.mark.parametrize("direction", [1.0, -1.0])
    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed",
                                        "dop853-adaptive"])
    @pytest.mark.parametrize("name, x0, span", [
        ("lorenz", [1.0, 1.0, 1.0], 0.5),  # escapes backward past the cap by RK4
        ("closed-orbit", [0.5, 0.0, 0.0], 2.0),
        ("stuart-landau", [1.3, -0.2, 0.5], 2.0),  # escapes backward
        ("equilibrium", [0.5, 0.0, 0.0], 2.0),
        # x^2 overflows: the run stops at once, on slopes that are not finite
        ("closed-orbit", [1e155, 0.0, 0.0], 2.0),
        # a constant certified component: its slope is one float, broadcast
        (CONSTANT_Z, [1.0, 0.0, 0.0], 2.0),
    ], ids=["lorenz", "closed-orbit", "stuart-landau", "equilibrium",
            "closed-orbit-1e155", "constant-z"])
    def test_equal_to_compiled_slope(self, name, x0, span, method, direction):
        field = name if isinstance(name, PolyField) else load_system(name)
        traj = _recorded(field, x0, direction * span, IntegrationOptions(method=method))
        slope = field.compiled_slope("rhs")
        columns = [boundlaw._component_slopes(traj, j) for j in range(3)]
        for i, y in enumerate(traj.states.tolist()):
            assert ([float(c[i]).hex() for c in columns]
                    == [v.hex() for v in slope(tuple(y))])
        finite = bool(np.isfinite(np.column_stack(columns)[-1]).all())
        assert finite == (x0[0] < 1e155)
        assert (len(traj) > 1) == finite
        for cert in certified_components(field):
            verify_bounds(traj, cert)  # a RuntimeWarning would fail the test


class TestCombineReports:
    def test_merges_sides(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        opts = IntegrationOptions()
        fwd = verify_bounds(
            integrate(equilibrium, [0.5, 0.0, 0.0], 0.0, 10.0, opts), cert)
        back = verify_bounds(
            integrate(equilibrium, [0.5, 0.0, 0.0], 0.0, -10.0, opts), cert)
        merged = combine_reports(fwd, back)
        assert merged.forward_holds and merged.backward_holds
        assert merged.naive_backward_violated == back.naive_backward_violated
        assert merged.samples_checked == fwd.samples_checked + back.samples_checked
        assert merged.backward_margin == back.backward_margin

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            combine_reports()


class TestFindEquilibrium:
    def test_newton_converges_onto_axis(self, equilibrium):
        # every point of the z axis is an equilibrium, so the Jacobian is
        # singular everywhere; least-squares steps still land on the axis
        found = find_equilibrium(equilibrium, [0.3, -0.2, 0.1])
        assert found is not None
        x_star, residual = found
        assert np.max(np.abs(x_star[:2])) < 1e-8
        assert residual < 1e-12
        assert np.max(np.abs(equilibrium.evaluate(x_star))) < 1e-12

    def test_exact_seed_accepted_immediately(self, equilibrium):
        found = find_equilibrium(equilibrium, [0.0, 0.0, 0.7])
        assert found is not None
        x_star, residual = found
        assert np.allclose(x_star, [0.0, 0.0, 0.7])
        assert residual == 0.0

    def test_no_equilibrium_returns_none(self, closed_orbit):
        assert find_equilibrium(closed_orbit, [1.0, 0.0, 0.0]) is None

    def test_rootless_field_returns_none(self):
        field = parse_system("dx/dt = x^2 + 1")
        assert find_equilibrium(field, [1.0]) is None

    def test_residual_is_tested_after_the_last_step(self):
        # Newton halves x exactly on dx/dt = x^2: from 30 the residual
        # first drops below 1e-12 after the 25th and last step
        x_star, residual = find_equilibrium(SQUARE, [30.0])
        assert x_star[0] == 30.0 / 2**25 == 8.940696716308594e-07
        assert residual == 7.993605777301127e-13
        assert find_equilibrium(SQUARE, [34.0]) is None


def _numpy_find_equilibrium(field, x0):
    """The NumPy loop that `find_equilibrium` replaced, kept word for word
    as the reference its float loop must match bit for bit."""
    x = np.asarray(x0, dtype=float)
    for steps in range(_EQUILIBRIUM_MAX_ITER + 1):
        fx = field.evaluate(x)
        residual = float(np.max(np.abs(fx)))
        if residual < _EQUILIBRIUM_TOL:
            return x, residual
        if steps == _EQUILIBRIUM_MAX_ITER:
            return None
        J = field.jacobian(x)
        if not (np.all(np.isfinite(fx)) and np.all(np.isfinite(J))):
            return None  # LAPACK can spin on non-finite input
        dx, *_ = np.linalg.lstsq(J, -fx, rcond=None)
        if not np.all(np.isfinite(dx)) or not np.any(dx):
            return None
        x = x + dx


def _bits(found):
    if found is None:
        return None
    x_star, residual = found
    return [float(v).hex() for v in x_star], residual.hex()


class TestFloatGaussNewton:
    """`find_equilibrium` on Python floats gives what the NumPy loop gave,
    bit for bit, on every kind of path: converged, exact, stalled,
    overflowing, one-dimensional and four-dimensional."""

    @pytest.mark.parametrize("name, x0", [
        ("equilibrium", (0.3, -0.2, 0.1)),
        ("equilibrium", (0.0, 0.0, 0.7)),  # exact: accepted with no step
        ("equilibrium", (2.0, -1.0, 0.5)),
        ("equilibrium", (0.1, 0.2, -0.3)),
        ("closed-orbit", (0.5, 0.0, 0.0)),  # inside the circle
        ("closed-orbit", (0.3, 0.4, -2.0)),
        ("closed-orbit", (2.0, 0.0, 0.0)),  # outside
        ("closed-orbit", (1.1, 0.0, 0.0)),
        ("closed-orbit", (1e80, 0.0, 0.0)),
        ("closed-orbit", (1e155, 0.0, 0.0)),
        ("closed-orbit", (1e200, 0.0, 0.0)),
        ("lorenz", (-5.0, 3.0, 20.0)),  # to C+
        ("lorenz", (-5.0, -5.0, 20.0)),  # to C-
        ("lorenz", (1.0, 1.0, 1.0)),  # to the origin
        ("lorenz", (0.5, 0.5, 0.5)),
    ])
    def test_shipped_systems(self, name, x0):
        field = load_system(name)
        expected = _numpy_find_equilibrium(field, x0)
        assert _bits(find_equilibrium(field, x0)) == _bits(expected)

    @pytest.mark.parametrize("field, x0, converges", [
        (SQUARE, (30.0,), True),  # the 25th and last step converges
        (SQUARE, (34.0,), False),
        (parse_system("dx/dt = x^2 + 1"), (1.0,), False),
        # 20 steps in 4-D to w = 9.5e-7, the other components near 1e-267
        (LORENZ_ESCAPE, (1.0, 1.0, 1.0, 1.0), True),
    ])
    def test_other_dimensions(self, field, x0, converges):
        expected = _numpy_find_equilibrium(field, x0)
        found = find_equilibrium(field, x0)
        assert (found is not None) == converges
        assert _bits(found) == _bits(expected)

    def test_nan_component_is_no_equilibrium(self):
        # f = (0.0, nan): Python's max((0.0, nan)) is 0.0 and would accept
        field = parse_system("dx/dt = x\ndy/dt = x*y^2 - y*x^2")
        fx = field.compiled_slope("rhs")([0.0, 1e200])
        assert fx[0] == 0.0 and math.isnan(fx[1])
        assert _numpy_find_equilibrium(field, [0.0, 1e200]) is None
        assert find_equilibrium(field, [0.0, 1e200]) is None

    def test_returns_a_fresh_float_array(self):
        x0 = np.array([0.0, 0.0, 0.7])
        x_star, residual = find_equilibrium(load_system("equilibrium"), x0)
        assert x_star.dtype == np.float64 and x_star is not x0
        assert type(residual) is float


class TestRefuteNonexistence:
    def test_equilibrium_witness(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        report = refute_nonexistence(equilibrium, cert, [0.0, 0.0, 0.0], 100.0)
        assert report.verdict == VERDICT_FALSIFIED
        assert report.bounded
        assert report.equilibrium
        assert report.equilibrium_residual < 1e-12
        assert_one_outcome(report)
        assert report.witnessed_bound == 0.0
        assert report.bound_report.forward_holds
        assert report.bound_report.backward_holds

    def test_closed_orbit_witness(self, closed_orbit):
        cert = BoundCertificate.certified(closed_orbit, 3)
        report = refute_nonexistence(closed_orbit, cert, [1.0, 0.0, 0.0], 100.0)
        assert report.verdict == VERDICT_FALSIFIED
        assert report.bounded
        assert not report.equilibrium
        assert report.witnessed_bound < 1e3
        assert report.horizon == 100.0
        assert_one_outcome(report)
        assert report.bound_report.backward_holds

    def test_cubic_escape_is_no_counterexample(self):
        cert = BoundCertificate.certified(CUBIC_ESCAPE, 3)
        assert cert.alpha == 0.0
        opts = IntegrationOptions(blow_up_norm=1e4)
        report = refute_nonexistence(CUBIC_ESCAPE, cert, [0.0, 0.0, 5.0],
                                     100.0, opts)
        assert report.verdict == VERDICT_NO_COUNTEREXAMPLE
        assert not report.bounded
        # z(t) = 5 + t^3/3 crosses the 1e4 cap near |t| = 31; the step
        # that trips it may land anywhere between there and the clamped
        # horizon, since steps grow fast on this polynomially exact field
        assert 31.0 < report.horizon <= 100.0
        assert report.witnessed_bound > 1e4
        assert_one_outcome(report)
        assert report.bound_report is not None
        assert report.bound_report.backward_holds

    @pytest.mark.parametrize("x0", [[1.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
    def test_escape_by_step_underflow(self, closed_orbit, x0):
        # outside the unit cylinder r^2 = e^(2t) / (e^(2t) + q) reaches
        # infinity at t = -ln(r0^2 / (r0^2 - 1)) / 2; the step size
        # underflows there before the norm cap trips
        cert = BoundCertificate.certified(closed_orbit, 3)
        report = refute_nonexistence(closed_orbit, cert, x0, 100.0)
        r2 = x0[0] ** 2 + x0[1] ** 2
        assert report.verdict == VERDICT_NO_COUNTEREXAMPLE
        assert not report.bounded
        assert abs(report.horizon - 0.5 * math.log(r2 / (r2 - 1.0))) < 1e-6
        assert_one_outcome(report)
        assert report.bound_report.backward_holds

    def test_cubic_escape_closed_form(self):
        traj = integrate(CUBIC_ESCAPE, [0.0, 0.0, 5.0], 0.0, -10.0,
                         IntegrationOptions(tol=1e-12))
        assert abs(traj.final_state[2] - (5.0 - 1000.0 / 3.0)) < 1e-8

    def test_positive_alpha_proves_escape(self):
        # dx/dt = 1: x(t) <= t + x(0) backward, so no run is needed
        cert = BoundCertificate.certified(CUBIC_ESCAPE, 1)
        report = refute_nonexistence(CUBIC_ESCAPE, cert, [3.0, 0.0, 4.0], 100.0)
        assert report.verdict == VERDICT_PROVED_UNBOUNDED
        assert not report.bounded and not report.equilibrium
        assert report.proof == "bound-line"
        assert (report.horizon, report.witnessed_bound) == (0.0, 5.0)
        assert report.bound_report.samples_checked == 1
        assert report.bound_report.forward_margin == 0.0
        doc = report.to_json_dict()
        assert list(doc) == REFUTATION_KEYS + ["proof"]

    def test_user_asserted_alpha_is_not_a_proof(self, equilibrium):
        # an unchecked claim gathers evidence: here, the equilibrium
        report = refute_nonexistence(equilibrium, BoundCertificate(3, 1.0),
                                     [0.0, 0.0, 0.0], 100.0)
        assert report.proof is None and report.equilibrium
        assert_one_outcome(report)

    def test_positive_horizon_required(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        with pytest.raises(ValueError):
            refute_nonexistence(equilibrium, cert, [0.0, 0.0, 0.0], 0.0)

    def test_verdict_serializes(self, equilibrium):
        cert = BoundCertificate.certified(equilibrium, 3)
        doc = refute_nonexistence(
            equilibrium, cert, [0.0, 0.0, 0.0], 10.0).to_json_dict()
        assert doc["verdict"] == VERDICT_FALSIFIED
        assert "falsified" in doc["verdict"]
        assert doc["equilibrium_state"] == [0.0, 0.0, 0.0]
        assert set(doc["bound_report"]) >= {"forward_holds", "backward_holds",
                                            "naive_backward_violated"}
