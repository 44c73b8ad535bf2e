"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints `[criterion N] PASS/FAIL — details` before asserting,
so the full scoreboard is visible in the output even when a criterion
fails. Criterion 7 checks that backward integration inverts forward
integration along the Lorenz orbit from (1,1,1) over 10 time units,
leg by leg: each 0.5-unit forward leg is integrated back from its own
endpoint and must land within 1e-5 of the leg's start. A single
10-unit backward leg is ill-posed, because backward in time Lorenz's
contracting exponent of -14.57 becomes an expanding one of 14.57, so a
rounding error of 1e-16 grows to O(1) within about 2.5 time units.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flowbound import (
    IntegrationError,
    IntegrationOptions,
    SectionPlane,
    certified_components,
    first_crossing,
    first_return,
    flow_determinant,
    integrate,
    lyapunov_spectrum,
    monodromy,
    parse_system,
    refute_nonexistence,
    verify_bounds,
)
from flowbound.boundlaw import VERDICT_FALSIFIED
from flowbound.cli import main as cli_main
from flowbound.upo import census

TWO_PI = 2.0 * math.pi
LORENZ_DIV = -13.666666666666666

N_SEEDS = 20
HORIZON = 50.0


def _seeds():
    rng = np.random.default_rng(0)
    return rng.uniform(-5.0, 5.0, size=(N_SEEDS, 3))


def _mirror_match(orbit, orbits):
    """How far the (x, y, z) -> (-x, -y, z) image of the orbit's fixed
    point lies from the nearest cycle point of a census orbit with the
    same k (max-norm), and how far that orbit's period is from this one."""
    image = orbit.section_fixed_point.state3 * [-1.0, -1.0, 1.0]
    return min((float(np.max(np.abs(p.state3 - image))),
                abs(other.period - orbit.period))
               for other in orbits if other.k == orbit.k
               for p in other.cycle_points)


def _verdict(n, ok, details):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {details}")


def _bound_reports(field, sign):
    """One report per (certificate, seed) over the signed horizon,
    verified on the partial trajectory when the orbit escapes."""
    (cert,) = certified_components(field)
    opts = IntegrationOptions()
    reports = []
    for x0 in _seeds():
        try:
            traj = integrate(field, x0, 0.0, sign * HORIZON, opts)
        except IntegrationError as exc:
            traj = exc.trajectory
            assert traj is not None and len(traj) >= 2
        reports.append(verify_bounds(traj, cert))
    return reports


class TestCriteria:
    def test_criterion_1(self, equilibrium, closed_orbit, lorenz):
        t0 = time.perf_counter()
        lorenz_skipped = certified_components(lorenz) == []
        results = {name: _bound_reports(field, +1.0)
                   for name, field in (("equilibrium", equilibrium),
                                       ("closed-orbit", closed_orbit))}
        elapsed = time.perf_counter() - t0
        holds = {name: sum(r.forward_holds for r in reps)
                 for name, reps in results.items()}
        ok = (lorenz_skipped and elapsed < 30.0
              and all(n == N_SEEDS for n in holds.values()))
        _verdict(1, ok, f"forward bound held {holds['equilibrium']}/20 "
                 f"(equilibrium) and {holds['closed-orbit']}/20 "
                 f"(closed-orbit); lorenz skipped (no certificate); "
                 f"{elapsed:.1f}s")
        assert lorenz_skipped
        for name, reps in results.items():
            assert all(r.forward_holds for r in reps), name
        assert elapsed < 30.0

    def test_criterion_2(self, equilibrium, closed_orbit):
        t0 = time.perf_counter()
        results = {name: _bound_reports(field, -1.0)
                   for name, field in (("equilibrium", equilibrium),
                                       ("closed-orbit", closed_orbit))}
        elapsed = time.perf_counter() - t0
        holds = {name: sum(r.backward_holds for r in reps)
                 for name, reps in results.items()}
        naive = {name: sum(r.naive_backward_violated for r in reps)
                 for name, reps in results.items()}
        ok = (all(n == N_SEEDS for n in holds.values())
              and all(n >= 1 for n in naive.values()))
        _verdict(2, ok, "backward bound held "
                 f"{holds['equilibrium']}+{holds['closed-orbit']}/40; "
                 f"naive form violated in {naive['equilibrium']} and "
                 f"{naive['closed-orbit']} runs; {elapsed:.1f}s")
        for name, reps in results.items():
            assert all(r.backward_holds for r in reps), name
            assert any(r.naive_backward_violated for r in reps), name

    def test_criterion_3(self, equilibrium, closed_orbit):
        t0 = time.perf_counter()
        reports = {}
        for name, field, x0 in (("equilibrium", equilibrium, [0.0, 0.0, 0.0]),
                                ("closed-orbit", closed_orbit,
                                 [1.0, 0.0, 0.0])):
            (cert,) = certified_components(field)
            reports[name] = refute_nonexistence(field, cert, x0, 100.0)
        elapsed = time.perf_counter() - t0
        eq, co = reports["equilibrium"], reports["closed-orbit"]
        ok = (eq.verdict == VERDICT_FALSIFIED
              and co.verdict == VERDICT_FALSIFIED
              and eq.equilibrium and eq.equilibrium_residual < 1e-12
              and elapsed < 10.0)
        _verdict(3, ok, "both witnesses falsify the claim; equilibrium "
                 f"residual {eq.equilibrium_residual:.1e}, orbit stayed "
                 f"below {co.witnessed_bound:.3g} over the backward "
                 f"horizon; {elapsed:.1f}s")
        assert eq.verdict == VERDICT_FALSIFIED
        assert co.verdict == VERDICT_FALSIFIED
        assert eq.equilibrium and eq.equilibrium_residual < 1e-12
        assert co.bounded
        assert elapsed < 10.0

    def test_criterion_4(self, closed_orbit, stuart_landau):
        t0 = time.perf_counter()
        plane = SectionPlane([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], "positive")
        periods = {}
        for name, field in (("closed-orbit", closed_orbit),
                            ("stuart-landau", stuart_landau)):
            start = plane.section_point([1.0, 0.0, 0.0], time=0.0)
            _pt, rt = first_return(field, plane, start)
            periods[name] = rt
        _M, eigs = monodromy(stuart_landau, [1.0, 0.0, 0.0],
                             periods["stuart-landau"])
        mods = sorted((abs(e) for e in eigs), reverse=True)
        expected = [1.0, math.exp(-TWO_PI), math.exp(-2 * TWO_PI)]
        rel_errs = [abs(m - e) / e for m, e in zip(mods, expected)]
        elapsed = time.perf_counter() - t0
        period_errs = {n: abs(p - TWO_PI) for n, p in periods.items()}
        ok = (max(period_errs.values()) < 1e-6 and max(rel_errs) < 1e-4
              and elapsed < 5.0)
        _verdict(4, ok, "periods within "
                 f"{max(period_errs.values()):.1e} of 2*pi; multiplier "
                 f"relative errors {max(rel_errs):.1e}; {elapsed:.1f}s")
        for name, err in period_errs.items():
            assert err < 1e-6, name
        assert max(rel_errs) < 1e-4
        assert elapsed < 5.0

    def test_criterion_5(self, lorenz):
        t0 = time.perf_counter()
        opts = IntegrationOptions(method="rk4-fixed", step=0.015)
        result = lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=100.0,
                                   total_time=5000.0, renorm_interval=0.5,
                                   opts=opts)
        elapsed = time.perf_counter() - t0
        l1, l2, _l3 = result.exponents
        total = sum(result.exponents)
        ok = (abs(l1 - 0.906) < 0.02 and abs(l2) < 0.01
              and abs(total + 13.667) < 0.07 and elapsed < 60.0)
        _verdict(5, ok, f"lambda1={l1:.4f} (0.906±0.02), "
                 f"lambda2={l2:.4f} (0±0.01), sum={total:.4f} "
                 f"(-13.667±0.07); {elapsed:.1f}s")
        assert abs(l1 - 0.906) < 0.02
        assert abs(l2) < 0.01
        assert abs(total + 13.667) < 0.07
        assert elapsed < 60.0

    def test_criterion_6(self, lorenz, lorenz_scipy_rhs):
        t0 = time.perf_counter()
        plane = SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
        scan_opts = IntegrationOptions()
        settled = integrate(lorenz, [1.0, 1.0, 1.0], 0.0, 50.0, scan_opts)
        start, _ = first_crossing(lorenz, plane, settled.final_state,
                                  opts=scan_opts, max_time=100.0)
        orbits = census(lorenz, plane, start, n_iterates=2000, k_max=4,
                        threshold=0.1, scan_opts=scan_opts)
        unit_errs, det_errs, closures, scipy_closures = [], [], [], []
        mirrors = [_mirror_match(orbit, orbits) for orbit in orbits]
        for orbit in orbits:
            unit_errs.append(min(abs(m - 1.0)
                                 for m in orbit.floquet_multipliers))
            det = flow_determinant(lorenz,
                                   orbit.section_fixed_point.state3,
                                   orbit.period)
            expected = math.exp(LORENZ_DIV * orbit.period)
            det_errs.append(abs(det / expected - 1.0))
            shoot = IntegrationOptions(tol=1e-12)
            loop = integrate(lorenz, orbit.section_fixed_point.state3,
                             0.0, orbit.period, shoot)
            closures.append(float(np.max(np.abs(
                loop.final_state - orbit.section_fixed_point.state3))))
            # the same closure by an integrator that shares no code with ours
            ref = solve_ivp(lorenz_scipy_rhs, (0.0, orbit.period),
                            orbit.section_fixed_point.state3, method="DOP853",
                            rtol=1e-12, atol=1e-12)
            scipy_closures.append(float(np.max(np.abs(
                ref.y[:, -1] - orbit.section_fixed_point.state3))))
        elapsed = time.perf_counter() - t0
        all_unstable = all(o.stability == "unstable" for o in orbits)
        mirror = max(m for m, _tie in mirrors)
        tie = max(t for _m, t in mirrors)
        ok = (len(orbits) >= 3 and all_unstable
              and max(unit_errs) < 1e-3 and max(det_errs) < 1e-3
              and max(closures) < 1e-6 and mirror < 1e-7 and tie < 1e-9
              and max(scipy_closures) < 1e-6 and elapsed < 120.0)
        periods = ", ".join(f"{o.period:.4f}" for o in orbits)
        _verdict(6, ok, f"{len(orbits)} distinct unstable orbits "
                 f"(T = {periods}); unit multiplier within "
                 f"{max(unit_errs):.1e}; volume-contraction identity "
                 f"within {max(det_errs):.1e} relative; mirror image "
                 f"within {mirror:.1e} of a cycle point, period tie "
                 f"{tie:.1e}; SciPy DOP853 closure "
                 f"{max(scipy_closures):.1e}; {elapsed:.1f}s")
        assert len(orbits) >= 3
        assert all_unstable
        assert max(unit_errs) < 1e-3
        assert max(det_errs) < 1e-3
        assert max(closures) < 1e-6
        assert mirror < 1e-7
        assert tie < 1e-9
        assert max(scipy_closures) < 1e-6
        assert elapsed < 120.0

    def test_criterion_7(self, lorenz):
        t0 = time.perf_counter()
        decay = parse_system("dx/dt = -x")
        traj = integrate(decay, [1.0], 0.0, 1.0, IntegrationOptions())
        decay_err = abs(traj.final_state[0] - math.exp(-1.0))

        harmonic = parse_system("dx/dt = -y\ndy/dt = x")
        errs = []
        for h in (0.1, 0.05):
            opts = IntegrationOptions(method="rk4-fixed", step=h)
            end = integrate(harmonic, [1.0, 0.0], 0.0, TWO_PI, opts)
            errs.append(float(np.max(np.abs(end.final_state - [1.0, 0.0]))))
        ratio = errs[0] / errs[1]

        tight = IntegrationOptions(tol=1e-12)
        start = np.array([1.0, 1.0, 1.0])
        roundtrip = 0.0
        for leg in range(20):
            ta, tb = 0.5 * leg, 0.5 * (leg + 1)
            end = integrate(lorenz, start, ta, tb, tight).final_state
            back = integrate(lorenz, end, tb, ta, tight).final_state
            roundtrip = max(roundtrip,
                            float(np.max(np.abs(back - start))))
            start = end
        elapsed = time.perf_counter() - t0

        ok = (decay_err < 1e-8 and 12.0 <= ratio <= 20.0
              and roundtrip < 1e-5 and elapsed < 5.0)
        _verdict(7, ok, f"decay endpoint {decay_err:.1e}; step-halving "
                 f"ratio {ratio:.1f}; largest leg round-trip error "
                 f"{roundtrip:.3g} over 20 legs of 0.5 on [0, 10] vs "
                 f"1e-5 bound; {elapsed:.1f}s")
        assert decay_err < 1e-8
        assert 12.0 <= ratio <= 20.0
        assert elapsed < 5.0
        assert roundtrip < 1e-5

    def test_criterion_8(self, tmp_path, equilibrium):
        from flowbound import system_path
        commands = [
            ["simulate", "--system", str(system_path("lorenz")),
             "--x0", "1,1,1", "--t1", "20", "--project", "x,z"],
            ["bounds-check", "--system", str(system_path("equilibrium")),
             "--x0", "0.5,0,0"],
            ["refute", "--system", str(system_path("closed-orbit")),
             "--x0", "1,0,0"],
            ["section", "--system", str(system_path("closed-orbit")),
             "--x0", "1,-0.1,0", "--plane", "0,0,0/0,1,0/positive",
             "--iterates", "5"],
            ["upo", "--system", str(system_path("stuart-landau")),
             "--x0", "1.3,-0.2,0", "--plane", "0,0,0/0,1,0/positive",
             "--iterates", "4", "--k-max", "2", "--threshold", "1e-3"],
            ["lyapunov", "--system", str(system_path("stuart-landau")),
             "--x0", "1,0,0", "--transient", "5", "--total", "50",
             "--interval", "0.5", "--history"],
        ]
        t0 = time.perf_counter()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            for i, cmd in enumerate(commands):
                code = cli_main(cmd + ["--seed", "0", "--out",
                                       str(out / str(i))])
                assert code == 0, cmd[0]
        mismatched = []
        n_files = 0
        for path_a in sorted(outs[0].rglob("*")):
            if not path_a.is_file():
                continue
            n_files += 1
            path_b = outs[1] / path_a.relative_to(outs[0])
            if path_a.read_bytes() != path_b.read_bytes():
                mismatched.append(str(path_a.relative_to(outs[0])))
        elapsed = time.perf_counter() - t0
        ok = n_files >= 9 and not mismatched
        _verdict(8, ok, f"{n_files} artifacts byte-identical across "
                 f"repeated runs" + (f"; MISMATCH: {mismatched}"
                                     if mismatched else "")
                 + f"; {elapsed:.1f}s")
        assert n_files >= 9
        assert not mismatched
