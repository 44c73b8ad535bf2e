"""Recurrence scanning, Newton shooting, and orbit classification.

Closed-form anchors: the oscillator fixtures have period 2*pi with
Floquet multipliers {1, exp(-2*pi), exp(-4*pi)} (isolated cycle) or
{1, 1, exp(-4*pi)} (one cycle per height z, a degenerate family).
The Lorenz numbers are frozen from independent high-accuracy runs:
the shortest orbit has T = 1.558652 and leading multiplier 4.71295,
and its fixed point on the x = 0 upward section is
(y, z) = (1.74572460, 21.90093830).
"""

import math

import numpy as np
import pytest

from flowbound import (
    IntegrationOptions,
    NewtonConvergenceError,
    PeriodicOrbit,
    RecurrenceSeed,
    SectionPlane,
    census,
    first_crossing,
    first_return,
    flow_determinant,
    integrate,
    monodromy,
    newton_shoot,
    scan_close_recurrences,
)

from flowbound import upo

from conftest import assert_close

TWO_PI = 2.0 * math.pi
LORENZ_T = 1.558652
LORENZ_MULT = 4.71295
LORENZ_FP = (1.74572460, 21.90093830)
LORENZ_DIV = -13.666666666666666


def circle_plane(direction="positive"):
    return SectionPlane([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], direction)


def circle_start(plane):
    return plane.section_point([1.0, 0.0, 0.0], time=0.0)


def x0_plane():
    return SectionPlane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], "positive")


def chart_seed(plane, coords, k, period_estimate):
    point = plane.section_point(plane.from_chart(coords), time=0.0)
    return RecurrenceSeed(point, k, 0.0, period_estimate)


class TestContainers:
    def test_seed_validation(self, closed_orbit):
        plane = circle_plane()
        pt = circle_start(plane)
        with pytest.raises(ValueError):
            RecurrenceSeed(pt, 0, 0.1, 6.3)
        with pytest.raises(ValueError):
            RecurrenceSeed(pt, 1, -0.1, 6.3)
        with pytest.raises(ValueError):
            RecurrenceSeed(pt, 1, math.nan, 6.3)

    def test_orbit_validation(self):
        plane = circle_plane()
        pt = circle_start(plane)
        good = dict(section_fixed_point=pt, k=1, period=TWO_PI,
                    floquet_multipliers=(1.0, 0.1, 0.01),
                    stability="stable", residual=1e-12)
        PeriodicOrbit(**good)
        for key, bad in (("k", 0), ("period", 0.0), ("residual", 1e-7),
                         ("stability", "wobbly")):
            with pytest.raises(ValueError):
                PeriodicOrbit(**{**good, key: bad})


class TestScan:
    def test_circle_recurs_at_every_lag(self, closed_orbit):
        plane = circle_plane()
        seeds = scan_close_recurrences(closed_orbit, plane,
                                       circle_start(plane),
                                       n_iterates=6, k_max=3,
                                       threshold=1e-3)
        assert [s.k for s in seeds] == [1, 2, 3]
        for s in seeds:
            assert s.distance < 1e-6
            assert abs(s.period_estimate - s.k * TWO_PI) < 1e-4

    def test_zero_threshold_gives_nothing(self, closed_orbit):
        plane = circle_plane()
        seeds = scan_close_recurrences(closed_orbit, plane,
                                       circle_start(plane),
                                       n_iterates=4, k_max=2,
                                       threshold=0.0)
        assert seeds == []

    def test_argument_validation(self, closed_orbit):
        plane = circle_plane()
        start = circle_start(plane)
        with pytest.raises(ValueError):
            scan_close_recurrences(closed_orbit, plane, start, 2, 3, 0.1)
        with pytest.raises(ValueError):
            scan_close_recurrences(closed_orbit, plane, start, 4, 0, 0.1)
        with pytest.raises(ValueError):
            scan_close_recurrences(closed_orbit, plane, start, 4, 2, -0.1)

    def test_lorenz_two_sided_scan_recurs_only_at_k4(self, lorenz):
        # on a both-direction plane, crossings alternate up/down, so odd
        # lags map a crossing to the geometrically distant other branch
        # and lag 2 still swaps lobes; only lag 4 gets close. The
        # shortest orbit crosses z = 27 four times per period.
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "both")
        opts = IntegrationOptions(tol=1e-9)
        settled = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 50.0, opts)
        start, _ = first_crossing(lorenz, plane, settled.final_state,
                                  opts=opts, max_time=100.0)
        seeds = scan_close_recurrences(lorenz, plane, start,
                                       n_iterates=2000, k_max=4,
                                       threshold=0.05, opts=opts)
        assert seeds
        assert {s.k for s in seeds} == {4}
        assert seeds[0].distance < 0.05
        assert 1.2 < seeds[0].period_estimate < 2.0


class TestNewtonShoot:
    def test_isolated_cycle(self, stuart_landau):
        plane = circle_plane()
        seed = chart_seed(plane, [1.2, 0.0], 1, TWO_PI)
        orbit = newton_shoot(stuart_landau, plane, seed)
        assert orbit.k == 1
        assert abs(orbit.period - TWO_PI) < 1e-6
        assert_close(orbit.section_fixed_point.coords2, [1.0, 0.0],
                     1e-6, "fixed point")
        assert orbit.residual < 1e-10
        assert orbit.stability == "stable"
        mods = [abs(m) for m in orbit.floquet_multipliers]
        assert mods == sorted(mods, reverse=True)
        expected = [1.0, math.exp(-TWO_PI), math.exp(-2 * TWO_PI)]
        assert_close(mods, expected, 1e-4, "multipliers")
        assert len(orbit.cycle_points) == 1

    def test_lorenz_shortest_orbit(self, lorenz):
        plane = x0_plane()
        seed = chart_seed(plane, [1.7, 22.0], 1, 1.56)
        orbit = newton_shoot(lorenz, plane, seed)
        assert orbit.k == 1
        assert abs(orbit.period - LORENZ_T) < 1e-5
        assert_close(orbit.section_fixed_point.coords2, LORENZ_FP,
                     1e-5, "fixed point")
        assert orbit.stability == "unstable"
        mods = sorted((abs(m) for m in orbit.floquet_multipliers),
                      reverse=True)
        assert abs(mods[0] - LORENZ_MULT) < 1e-3
        assert abs(mods[1] - 1.0) < 1e-6
        assert mods[2] < 1e-8
        assert orbit.residual < 1e-10

    def test_period_matches_seed_estimate(self, lorenz):
        plane = x0_plane()
        seed = chart_seed(plane, [1.7, 22.0], 1, 1.56)
        orbit = newton_shoot(lorenz, plane, seed)
        assert abs(orbit.period - seed.period_estimate) < 1e-2

    def test_hopeless_seed_raises(self, lorenz):
        plane = x0_plane()
        seed = chart_seed(plane, [30.0, 30.0], 1, 1.0)
        with pytest.raises(NewtonConvergenceError):
            newton_shoot(lorenz, plane, seed)

    def test_shooting_makes_no_probe_calls(self, lorenz, monkeypatch):
        # each Newton iterate or step halving integrates its legs once,
        # tangent matrix included: no central-difference probes and no
        # second pass through `monodromy`
        legs = []

        def counted(*args, **kwargs):
            legs.append(1)
            return next_crossing(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("shooting re-integrated with monodromy")

        next_crossing = upo._next_crossing
        monkeypatch.setattr(upo, "_next_crossing", counted)
        monkeypatch.setattr(upo, "monodromy", forbidden)
        plane = x0_plane()
        orbit = newton_shoot(lorenz, plane, chart_seed(plane, [1.7, 22.0],
                                                       1, 1.56))
        assert abs(orbit.period - LORENZ_T) < 1e-5
        assert len(legs) <= 6

    @pytest.mark.parametrize("plane, coords, k, tol", [
        (SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative"),
         (-2.529, 1.555), 3, 1e-6),
        (x0_plane(), (1.7, 22.0), 1, 1e-8),
    ], ids=["z27-k3", "x0-k1"])
    def test_contracting_multiplier_obeys_liouville(self, lorenz, plane,
                                                    coords, k, tol):
        # det M = exp(div T) with Lorenz's constant divergence; M's own
        # smallest eigenvalue is round-off once it drops ~16 orders
        # below the leading one, as on the k = 3 orbit (T = 2.306)
        orbit = newton_shoot(lorenz, plane, chart_seed(plane, coords, k, 1.0))
        l1, l2, l3 = (m.real for m in orbit.floquet_multipliers)
        assert all(m.imag == 0.0 for m in orbit.floquet_multipliers)
        expected = math.exp(LORENZ_DIV * orbit.period) / (l1 * l2)
        assert abs(l3 / expected - 1.0) < tol

    @pytest.mark.parametrize("coords", [LORENZ_FP, [1.7, 22.0],
                                        [3.0, 20.0]])
    def test_chart_jacobian_matches_central_differences(self, lorenz,
                                                         coords):
        plane = x0_plane()
        opts = IntegrationOptions(tol=1e-12)

        def G(u):
            p = plane.section_point(plane.from_chart(u), 0.0)
            return first_return(lorenz, plane, p, opts)[0].coords2 - u

        u = np.asarray(coords, dtype=float)
        start = plane.section_point(plane.from_chart(u), 0.0)
        end, T = first_return(lorenz, plane, start, opts)
        M, _ = monodromy(lorenz, start.state3, T)
        J = upo._chart_jacobian(lorenz, plane, M, end.state3)
        h = 1e-6
        fd = np.column_stack([(G(u + h * e) - G(u - h * e)) / (2 * h)
                              for e in np.eye(2)])
        assert np.linalg.norm(J - fd) / np.linalg.norm(fd) < 1e-4

    @pytest.mark.parametrize("coords", [[-8.3, -8.6], [8.3, 8.6]])
    def test_rest_point_on_plane_is_not_an_orbit(self, lorenz, coords):
        # C+ and C- = (+-sqrt(72), +-sqrt(72), 27) lie on z = 27, where
        # R(p) - p -> 0 without any multiplier near 1
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
        with pytest.raises(NewtonConvergenceError, match="multiplier"):
            newton_shoot(lorenz, plane, chart_seed(plane, coords, 1, 0.6))

    def test_degenerate_family_needs_on_cycle_seed(self, closed_orbit):
        # dz/dt never depends on z, so the shooting Jacobian has a zero
        # column everywhere; off the cycle the residual cannot shrink
        plane = circle_plane()
        with pytest.raises(NewtonConvergenceError):
            newton_shoot(closed_orbit, plane,
                         chart_seed(plane, [1.05, 0.3], 1, TWO_PI))
        orbit = newton_shoot(closed_orbit, plane,
                             chart_seed(plane, [1.0, 0.3], 1, TWO_PI))
        assert orbit.stability == "neutral-degenerate"
        assert abs(orbit.period - TWO_PI) < 1e-6

    def test_prime_period_reduction(self, stuart_landau):
        plane = circle_plane()
        seed = chart_seed(plane, [1.2, 0.0], 2, 2 * TWO_PI)
        orbit = newton_shoot(stuart_landau, plane, seed)
        assert orbit.k == 1
        assert abs(orbit.period - TWO_PI) < 1e-6


class TestMonodromy:
    def test_isolated_cycle_multipliers(self, stuart_landau):
        M, eigs = monodromy(stuart_landau, [1.0, 0.0, 0.0], TWO_PI)
        assert M.shape == (3, 3)
        mods = sorted((abs(e) for e in eigs), reverse=True)
        expected = [1.0, math.exp(-TWO_PI), math.exp(-2 * TWO_PI)]
        assert_close(mods, expected, 1e-8, "multipliers")

    def test_determinant_matches_divergence_integral(self, stuart_landau,
                                                     monkeypatch):
        # trace of the Jacobian on the cycle is -3, so det M = e^(-6 pi)
        M, _ = monodromy(stuart_landau, [1.0, 0.0, 0.0], TWO_PI)
        expected = math.exp(-3.0 * TWO_PI)
        assert abs(np.linalg.det(M) / expected - 1.0) < 1e-4

        compiled = type(stuart_landau)._compiled

        def refuse_tangent(field, key):
            # key is a system name, or (name, tableau) for a generated step
            if (key[0] if isinstance(key, tuple) else key) == "tangent_rhs":
                raise AssertionError("flow_determinant built the tangent RHS")
            return compiled(field, key)

        # Liouville's formula needs the divergence, not the tangent matrix
        monkeypatch.setattr(type(stuart_landau), "_compiled", refuse_tangent)
        det = flow_determinant(stuart_landau, [1.0, 0.0, 0.0], TWO_PI)
        assert abs(det / expected - 1.0) < 1e-6

    def test_lorenz_liouville(self, lorenz):
        # Lorenz's divergence is constant, so det M = exp(div T) holds
        # to round-off along any orbit segment
        x0 = [0.0, LORENZ_FP[0], LORENZ_FP[1]]
        for T in (LORENZ_T, 3.0843, 10.0):
            det = flow_determinant(lorenz, x0, T)
            assert abs(det / math.exp(LORENZ_DIV * T) - 1.0) < 1e-12

    def test_argument_validation(self, stuart_landau):
        with pytest.raises(ValueError):
            monodromy(stuart_landau, [1.0, 0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            flow_determinant(stuart_landau, [1.0, 0.0, 0.0], -1.0)


class TestCensus:
    def test_degenerate_circle_family(self, closed_orbit):
        # the family has one cycle per height, so the census may refine
        # seeds onto nearby distinct members; every hit must look like a
        # unit circle at some small height
        plane = circle_plane()
        orbits = census(closed_orbit, plane, circle_start(plane),
                        n_iterates=4, k_max=2, threshold=1e-3)
        assert 1 <= len(orbits) <= 2
        for orbit in orbits:
            assert orbit.k == 1
            assert abs(orbit.period - TWO_PI) < 1e-6
            assert orbit.stability == "neutral-degenerate"
            u, v = orbit.section_fixed_point.coords2
            assert abs(u - 1.0) < 1e-6
            assert abs(v) < 1e-3
            mods = sorted((abs(m) for m in orbit.floquet_multipliers),
                          reverse=True)
            assert_close(mods[:2], [1.0, 1.0], 1e-6, "unit pair")
            assert abs(mods[2] - math.exp(-2 * TWO_PI)) < 1e-8

    def test_zero_iterates_empty(self, closed_orbit):
        plane = circle_plane()
        assert census(closed_orbit, plane, circle_start(plane),
                      n_iterates=0, k_max=2) == []

    def test_isolated_cycle_census_is_deterministic(self, stuart_landau):
        plane = circle_plane()
        runs = [census(stuart_landau, plane, circle_start(plane),
                       n_iterates=4, k_max=2, threshold=1e-3)
                for _ in range(2)]
        assert len(runs[0]) == len(runs[1]) == 1
        a, b = runs[0][0], runs[1][0]
        assert a.period == b.period
        assert np.array_equal(a.section_fixed_point.coords2,
                              b.section_fixed_point.coords2)
        assert a.floquet_multipliers == b.floquet_multipliers

    def test_reintegration_closes_orbit(self, stuart_landau):
        plane = circle_plane()
        orbit = census(stuart_landau, plane, circle_start(plane),
                       n_iterates=4, k_max=2, threshold=1e-3)[0]
        opts = IntegrationOptions(tol=1e-12)
        x0 = orbit.section_fixed_point.state3
        traj = integrate(stuart_landau, x0, 0.0, orbit.period, opts)
        assert_close(traj.final_state, x0, 1e-6, "closure")
