"""Section-plane geometry and return-map drivers.

The oscillator fixtures rotate at exactly unit angular speed
(x*dy/dt - y*dx/dt = x^2 + y^2), so the return time to the half-plane
y = 0, x > 0 is exactly 2*pi from any radius. That gives closed-form
return times and fixed points to test against.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flowbound import (
    CrossingRefinementError,
    IntegrationError,
    IntegrationOptions,
    NonReturningOrbitError,
    SectionPlane,
    SectionPoint,
    first_crossing,
    first_return,
    integrate,
    parse_system,
    return_map_iterates,
)
from flowbound import poincare
from flowbound.upo import SHOOT_INTEGRATION

from conftest import assert_close

TWO_PI = 2.0 * math.pi


def y0_plane(direction="positive"):
    return SectionPlane([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], direction)


class TestPlaneGeometry:
    def test_normal_is_normalized(self):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 2.0], "negative")
        assert np.allclose(plane.normal, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("normal, unit", [
        ((1e200, 1e200, 0.0), (0.5 ** 0.5, 0.5 ** 0.5, 0.0)),  # squares overflow
        ((1e-200, 1e-200, 0.0), (0.5 ** 0.5, 0.5 ** 0.5, 0.0)),  # squares vanish
        ((3e-162, 0.0, 4e-162), (0.6, 0.0, 0.8)),  # squares are subnormal
    ])
    def test_extreme_normal_is_normalized(self, normal, unit):
        # a RuntimeWarning from the norm fails the test (pyproject.toml)
        plane = SectionPlane([0.0, 0.0, 27.0], normal, "both")
        assert np.max(np.abs(np.subtract(plane.normal, unit))) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SectionPlane([0.0, 0.0], [0.0, 0.0, 1.0], "both")
        with pytest.raises(ValueError):
            SectionPlane([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "both")
        with pytest.raises(ValueError):
            SectionPlane([0.0, 0.0, 0.0], [0.0, 0.0, np.nan], "both")
        with pytest.raises(ValueError):
            SectionPlane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], "upward")

    def test_chart_basis_is_orthonormal_right_handed(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            normal = rng.normal(size=3)
            plane = SectionPlane(rng.normal(size=3), normal, "both")
            e1, e2 = plane.chart_basis()
            assert abs(np.dot(e1, e2)) < 1e-12
            assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(e2) - 1.0) < 1e-12
            assert abs(np.dot(e1, plane.normal)) < 1e-12
            assert abs(np.dot(e2, plane.normal)) < 1e-12
            assert abs(np.dot(np.cross(e1, e2), plane.normal) - 1.0) < 1e-12

    @pytest.mark.parametrize("normal", [[3.0, 1.0, -2.0], [1.0, 1.0, 1.0],
                                        [0.0, 0.0, 1.0], [-0.2, 5.0, 0.1]])
    def test_chart_basis_is_built_once_and_read_only(self, normal):
        # the frame is built on Python floats, each norm the square root of
        # a sum of squares taken left to right (no BLAS dot, no fused
        # multiply-add), and stored as float tuples
        plane = SectionPlane([1.0, -2.0, 0.5], normal, "both")

        def unit(v):
            norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            return [c / norm for c in v]

        n = unit(normal)
        k = [abs(c) for c in n].index(min(abs(c) for c in n))
        e1 = [-n[k] * c for c in n]
        e1[k] += 1.0
        e1 = unit(e1)
        e2 = [n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2],
              n[0] * e1[1] - n[1] * e1[0]]
        b1, b2 = plane.chart_basis()
        for got, want in ((plane.normal, n), (b1, e1), (b2, e2)):
            assert isinstance(got, tuple)
            assert [v.hex() for v in got] == [v.hex() for v in want]
        assert plane.chart_basis()[0] is b1
        for e in (b1, b2):
            with pytest.raises(TypeError):
                e[0] = 0.0

    def test_canonical_charts(self):
        z27 = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        assert np.allclose(z27.to_chart([3.0, -4.0, 27.0]), [3.0, -4.0])
        x0 = SectionPlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], "both")
        assert np.allclose(x0.to_chart([0.0, 5.0, 6.0]), [5.0, 6.0])
        y0 = y0_plane("both")
        assert np.allclose(y0.to_chart([2.0, 0.0, 3.0]), [2.0, -3.0])

    def test_chart_roundtrip(self):
        plane = SectionPlane([1.0, -2.0, 0.5], [3.0, 1.0, -2.0], "both")
        rng = np.random.default_rng(11)
        for _ in range(20):
            coords = rng.normal(size=2)
            state = plane.from_chart(coords)
            assert abs(plane.signed_distance(state)) < 1e-12
            assert_close(plane.to_chart(state), coords, 1e-12, "chart")

    def test_signed_distance_sign(self):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        assert plane.signed_distance([0.0, 0.0, 30.0]) == pytest.approx(3.0)
        assert plane.signed_distance([0.0, 0.0, 20.0]) == pytest.approx(-7.0)

    def test_section_point_enforces_on_plane(self):
        plane = y0_plane("both")
        pt = plane.section_point([1.0, 0.0, 2.0], time=3.5)
        assert np.allclose(pt.coords2, [1.0, -2.0])
        assert np.allclose(pt.state3, [1.0, 0.0, 2.0])
        assert pt.time == 3.5
        with pytest.raises(ValueError):
            plane.section_point([1.0, 1e-6, 2.0], time=0.0)

    def test_section_point_shape_validation(self):
        with pytest.raises(ValueError):
            SectionPoint([1.0], [1.0, 0.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            SectionPoint([1.0, 2.0], [1.0, 0.0], 0.0)


class TestFirstReturn:
    def test_unit_circle_period(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        pt, rt = first_return(closed_orbit, plane, start)
        assert abs(rt - TWO_PI) < 1e-7
        assert_close(pt.state3, [1.0, 0.0, 0.0], 1e-7, "return state")
        assert abs(plane.signed_distance(pt.state3)) < 1e-9
        assert pt.time == pytest.approx(rt)

    def test_unit_speed_from_larger_radius(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([2.0, 0.0, 0.0], time=0.0)
        pt, rt = first_return(closed_orbit, plane, start)
        assert abs(rt - TWO_PI) < 1e-6
        assert 1.0 < pt.state3[0] < 2.0
        assert abs(pt.state3[1]) < 1e-9

    def test_stuart_landau_period(self, stuart_landau):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        pt, rt = first_return(stuart_landau, plane, start)
        assert abs(rt - TWO_PI) < 1e-7
        assert_close(pt.state3, [1.0, 0.0, 0.0], 1e-7, "return state")

    def test_direction_filter(self, rotation):
        start_state = [1.0, 0.0, 0.0]
        # the orbit crosses y = 0 at x = -1 (going down) after half a
        # turn and at x = +1 (going up) after a full turn
        for direction, period, x_hit in (("negative", math.pi, -1.0),
                                         ("both", math.pi, -1.0),
                                         ("positive", TWO_PI, 1.0)):
            plane = y0_plane(direction)
            start = plane.section_point(start_state, time=0.0)
            pt, rt = first_return(rotation, plane, start)
            assert abs(rt - period) < 1e-7, direction
            assert abs(pt.state3[0] - x_hit) < 1e-7, direction

    def test_crossing_velocity_matches_orientation(self, lorenz):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
        pt, _ = first_crossing(lorenz, plane, [1.0, 1.0, 1.0])
        fdot = np.dot(lorenz.evaluate(pt.state3), plane.normal)
        assert fdot < 0.0

    def test_off_plane_start_rejected(self, closed_orbit):
        plane = y0_plane()
        bad = SectionPoint([0.0, 0.0], [1.0, 0.5, 0.0], 0.0)
        with pytest.raises(ValueError):
            first_return(closed_orbit, plane, bad)

    @pytest.mark.parametrize("max_time", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("call", ["first_crossing", "first_return"])
    def test_max_time_must_be_positive(self, closed_orbit, call, max_time):
        plane = y0_plane()
        with pytest.raises(ValueError, match="max_time must be positive"):
            if call == "first_crossing":
                first_crossing(closed_orbit, plane, [1.0, 0.5, 0.0], max_time=max_time)
            else:
                first_return(closed_orbit, plane, SectionPoint(
                    [1.0, 0.0], [1.0, 0.0, 0.0], 0.0), max_time=max_time)

    def test_needs_three_dimensions(self):
        field = parse_system("dx/dt = 1")
        plane = y0_plane()
        with pytest.raises(ValueError):
            first_crossing(field, plane, [0.0])

    def test_non_returning_orbit(self):
        drift = parse_system("dx/dt = 1\ndy/dt = 0\ndz/dt = 0")
        plane = SectionPlane([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], "both")
        with pytest.raises(NonReturningOrbitError) as info:
            first_crossing(drift, plane, [0.0, 0.0, 0.0], max_time=10.0)
        assert isinstance(info.value, IntegrationError)
        assert info.value.elapsed >= 10.0
        assert info.value.t == info.value.elapsed
        assert info.value.state[0] == pytest.approx(10.0, abs=1e-6)

    def test_stalled_refinement_is_typed(self, closed_orbit, monkeypatch):
        monkeypatch.setattr(poincare, "_REFINE_TOL", 0.0)
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        with pytest.raises(CrossingRefinementError) as info:
            first_return(closed_orbit, plane, start)
        assert isinstance(info.value, IntegrationError)
        assert info.value.t == pytest.approx(TWO_PI, abs=1e-6)
        assert info.value.state.shape == (3,)

    def test_refinement_never_returns_a_crossing_off_the_step(self):
        # z: -1 -> 3 over [0, 1] with endpoint slopes 5000, but a field
        # whose normal slope is 1e-9: Newton steps would leave the step
        ya, yb = (0.0, 0.0, -1.0), (0.0, 0.0, 3.0)
        fa = fb = (0.0, 0.0, 5000.0)
        plane = SectionPlane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], "positive")
        creep = parse_system("dx/dt = 0\ndy/dt = 0\ndz/dt = 1e-9")
        ga, gb, dga, dgb = (plane.signed_distance(ya), plane.signed_distance(yb),
                            plane.rate(fa), plane.rate(fb))
        samples = (ga, *(poincare._hermite_fraction(s, ga, gb, dga, dgb, 1.0)
                         for s in poincare._SUB_S), gb)
        step = (0.0, ya, fa, 1.0, yb, fb, dga, dgb, samples)
        try:
            tau, _x = poincare._step_crossing(step, plane, creep.compiled_slope("rhs"),
                                              0.0, 0.0)
        except CrossingRefinementError:
            return
        assert math.isfinite(tau) and 0.0 <= tau <= 1.0

    def test_start_time_offsets_crossing_time(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=5.0)
        pt, rt = first_return(closed_orbit, plane, start)
        assert pt.time == pytest.approx(5.0 + rt)


def _lorenz_variational(_t, u):
    x, y, z = u[:3]
    J = np.array([[-10.0, 10.0, 0.0], [28.0 - z, -1.0, -x],
                  [y, x, -2.6666666666666665]])
    return np.concatenate([[10.0 * (y - x), x * (28.0 - z) - y,
                            x * y - 2.6666666666666665 * z],
                           (J @ u[3:].reshape(3, 3)).ravel()])


class TestExactLanding:
    """A DOP853 run (a shoot leg) lands its crossings by exact steps."""

    def test_tangent_crossings_against_scipy(self, lorenz):
        # 30 successive legs on z = 27, each from the last crossing with
        # V = I, against SciPy DOP853 at 1e-13 with an event on the plane
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
        x0 = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 10.0).final_state
        start, _ = first_crossing(lorenz, plane, x0)

        def event(_t, u):
            return u[2] - 27.0
        event.direction = -1

        w, t = np.concatenate([start.state3, np.eye(3).ravel()]), 0.0
        for _ in range(30):
            tn, wn = poincare._next_crossing(lorenz, "tangent_rhs", plane, w, t,
                                             SHOOT_INTEGRATION, 50.0,
                                             poincare._REFRACTORY)
            ref = solve_ivp(_lorenz_variational, (0.0, 1.5), w, method="DOP853",
                            rtol=1e-13, atol=1e-13, events=event)
            later = ref.t_events[0] > poincare._REFRACTORY
            t_ref, w_ref = ref.t_events[0][later][0], ref.y_events[0][later][0]
            assert abs((tn - t) - t_ref) < 1e-10
            assert np.max(np.abs(wn[:3] - w_ref[:3])) < 1e-10
            assert np.max(np.abs(wn[3:] - w_ref[3:])) < 1e-10 * np.max(np.abs(w_ref[3:]))
            assert abs(wn[2] - 27.0) < 1e-13
            w, t = np.concatenate([wn[:3], np.eye(3).ravel()]), tn


class TestFirstCrossing:
    def test_lands_on_plane(self, lorenz):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        pt, elapsed = first_crossing(lorenz, plane, [1.0, 1.0, 1.0])
        assert elapsed > 0.0
        assert abs(pt.state3[2] - 27.0) < 1e-9
        assert np.allclose(pt.coords2, pt.state3[:2])

    def test_counts_immediate_approach(self, rotation):
        plane = y0_plane("positive")
        # just below the plane and moving up: the crossing is imminent
        pt, elapsed = first_crossing(rotation, plane, [1.0, -1e-3, 0.0])
        assert 0.0 < elapsed < 2e-3
        assert abs(pt.state3[0] - 1.0) < 1e-5


def _digest(points):
    """The first 16 hex digits of the SHA-256 of each point's time, state
    and chart coordinates as `float.hex`: equal only bit for bit."""
    text = "\n".join(" ".join(v.hex() for v in (p.time, *p.state3.tolist(),
                                               *p.coords2.tolist()))
                     for p in points)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestLoopExits:
    """The generated loop leaves only at a step whose samples bracket a
    counted crossing: per return, at most the departure and the return
    itself. The section points are pinned as digests of the points from
    before that rule, when every step that the slack test could not rule
    out left the loop (4.15, 3.79 and 2.39 exits per Lorenz return)."""

    @pytest.mark.parametrize("name, z, x0, returns, direction, digest", [
        ("lorenz", 27.0, (1.0, 1.0, 1.0), 100, "negative", "53837c683793496e"),
        ("lorenz", 27.0, (1.0, 1.0, 1.0), 100, "positive", "94b1edb0f926c642"),
        ("lorenz", 27.0, (1.0, 1.0, 1.0), 100, "both", "dc1ac1625804ac56"),
        # y = 0, crossed both ways every period
        ("stuart_landau", None, (1.3, -0.2, 0.5), 20, "negative", "c585143b33c74150"),
        ("stuart_landau", None, (1.3, -0.2, 0.5), 20, "both", "dd7c10be6dc12554"),
        ("rotation", None, (1.0, 0.0, 0.5), 20, "both", "b64c01b5f43d1251"),
    ])
    def test_exits_per_return(self, request, monkeypatch, name, z, x0, returns,
                              direction, digest):
        field = request.getfixturevalue(name)
        if z is None:
            plane = y0_plane(direction)
        else:
            plane = SectionPlane([0.0, 0.0, z], [0.0, 0.0, 1.0], direction)
        start, _ = first_crossing(field, plane, x0, max_time=100.0)
        exits, real = [], poincare._step_crossing
        monkeypatch.setattr(poincare, "_step_crossing",
                            lambda *args: exits.append(1) or real(*args))
        points = return_map_iterates(field, plane, start, returns)
        assert len(exits) <= 2 * returns
        assert _digest(points) == digest


class TestReturnMapIterates:
    def test_zero_iterates(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        assert return_map_iterates(closed_orbit, plane, start, 0) == []

    @pytest.mark.parametrize("call", [
        lambda plane, start, field: plane.section_point([math.nan, 0.0, 27.0], 0.0),
        lambda plane, start, field: plane.section_point([1.0, 27.0], 0.0),
        lambda plane, start, field: return_map_iterates(field, plane, start, 2.5),
    ], ids=["nan-state", "two-components", "fractional-k"])
    def test_typed_refusals(self, closed_orbit, call):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        start = plane.section_point([1.0, 0.0, 27.0], time=0.0)
        with pytest.raises(ValueError):
            call(plane, start, closed_orbit)

    def test_negative_count_rejected(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        with pytest.raises(ValueError):
            return_map_iterates(closed_orbit, plane, start, -1)

    def test_circle_iterates_advance_by_period(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        points = return_map_iterates(closed_orbit, plane, start, 5)
        assert len(points) == 5
        for i, pt in enumerate(points, start=1):
            assert_close(pt.state3, [1.0, 0.0, 0.0], 1e-6, f"iterate {i}")
            assert abs(pt.time - i * TWO_PI) < 1e-5
        times = [pt.time for pt in points]
        assert times == sorted(times)

    def test_composition_is_exact(self, closed_orbit):
        plane = y0_plane()
        start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
        direct = return_map_iterates(closed_orbit, plane, start, 3)
        mid = return_map_iterates(closed_orbit, plane, start, 1)[0]
        rest = return_map_iterates(closed_orbit, plane, mid, 2)
        assert_close(rest[-1].state3, direct[-1].state3, 1e-9, "composition")
        assert abs(rest[-1].time - direct[-1].time) < 1e-9

    def test_lorenz_composition(self, lorenz):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
        settled, _ = first_crossing(lorenz, plane, [1.0, 1.0, 1.0],
                                    max_time=100.0)
        direct = return_map_iterates(lorenz, plane, settled, 3)
        mid = return_map_iterates(lorenz, plane, settled, 1)[0]
        rest = return_map_iterates(lorenz, plane, mid, 2)
        assert_close(rest[-1].state3, direct[-1].state3, 1e-9, "composition")

    def test_failure_reports_iterate_index(self):
        drift = parse_system("dx/dt = 1\ndy/dt = 0\ndz/dt = 0")
        plane = SectionPlane([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], "positive")
        start, _ = first_crossing(drift, plane, [0.0, 0.0, 0.0])
        with pytest.raises(NonReturningOrbitError) as info:
            return_map_iterates(drift, plane, start, 2, max_time=5.0)
        assert info.value.iterate_index == 0


class TestLorenzSection:
    def test_section_stays_in_attractor_box(self, lorenz):
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        opts = IntegrationOptions(tol=1e-9)
        settled, _ = first_crossing(lorenz, plane, [1.0, 1.0, 1.0],
                                    opts=opts, max_time=100.0)
        points = return_map_iterates(lorenz, plane, settled, 300, opts)
        assert len(points) == 300
        for pt in points:
            assert abs(plane.signed_distance(pt.state3)) < 1e-9
            assert abs(pt.state3[0]) < 25.0
            assert abs(pt.state3[1]) < 35.0
        times = np.array([pt.time for pt in points])
        gaps = np.diff(times)
        assert np.all(gaps > 1e-6)
        # both wings of the attractor get visited
        xs = np.array([pt.state3[0] for pt in points])
        assert np.any(xs > 1.0) and np.any(xs < -1.0)


def _float_dot(a, b):
    """⟨a, b⟩ on 3-vectors as a plain float sum, left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class TestPortableCharts:
    def test_matches_float_reference(self, lorenz):
        """Section points on an oblique plane carry chart coordinates and
        signed distances equal, bit for bit, to left-to-right float sums
        over the plane's own tuples: no dot product runs through BLAS,
        whose kernels may fuse multiply and add."""
        plane = SectionPlane([0.0, 0.0, 20.0], [1.0, 1.0, 1.0], "both")
        start, _ = first_crossing(lorenz, plane, [1.0, 1.0, 1.0])
        e1, e2 = plane.chart_basis()
        for pt in return_map_iterates(lorenz, plane, start, 50):
            x = pt.state3.tolist()
            rel = [a - p for a, p in zip(x, plane.point)]
            want = [_float_dot(rel, e1), _float_dot(rel, e2)]
            assert [c.hex() for c in pt.coords2.tolist()] == [c.hex() for c in want]
            distance = _float_dot(x, plane.normal) - plane.offset
            assert plane.signed_distance(x).hex() == distance.hex()

    def test_loop_reads_the_plane_tuple(self, lorenz, monkeypatch):
        plane = SectionPlane([1.0, 2.0, 25.0], [0.3, -0.2, 1.0], "positive")
        assert plane.offset.hex() == _float_dot(plane.point, plane.normal).hex()
        handed, real_run = [], poincare._Run

        def run(*args, plane):
            handed.append(plane)
            return real_run(*args, plane=plane)
        monkeypatch.setattr(poincare, "_Run", run)
        first_crossing(lorenz, plane, [1.0, 1.0, 1.0])
        assert handed == [(*plane.normal, plane.offset, poincare._SLACK, True, False)]
