"""Shows that the benchmark's output checks can fail.

    python3 bench/selftest.py

Makes a few small, correct flowbound results, then feeds each checker
of `checks.py` the correct result, which it must accept, and one made
wrong on purpose, which it must reject. Exits 1 if any checker accepts
a wrong result or rejects a right one. Takes about 15 seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import flowbound as fb  # noqa: E402
import flowbound.cli  # noqa: E402,F401
import checks  # noqa: E402
from workloads import on_attractor  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"


def cli(*argv):
    out = OUT / f"{argv[0]}-{len(list(OUT.glob(argv[0] + '-*')))}"
    with contextlib.redirect_stderr(io.StringIO()):
        code = fb.cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"flowbound {' '.join(argv)} exited {code}")
    return out


def x0_arg(x):
    return "--x0=" + ",".join(repr(float(v)) for v in x)


def cases():
    """(name, checker, correct input, wrong input) for every checker."""
    eq_x0, co_x0 = (0.5, -0.3, 0.2), (0.5, 0.2, 0.1)
    eq_sys, co_sys = str(fb.system_path("equilibrium")), str(fb.system_path("closed-orbit"))
    bounds = json.loads((cli("bounds-check", "--system", eq_sys, x0_arg(eq_x0))
                         / "bounds.json").read_text())
    flipped = copy.deepcopy(bounds)
    flipped["components"][0]["report"]["backward_holds"] = False
    yield ("bounds.json with backward_holds flipped",
           lambda d: checks.check_bounds(d, "equilibrium", eq_x0, 50.0, 50.0),
           bounds, flipped)
    co_bounds = json.loads((cli("bounds-check", "--system", co_sys, x0_arg(co_x0))
                            / "bounds.json").read_text())
    naive = copy.deepcopy(co_bounds)
    naive["components"][0]["report"]["naive_backward_violated"] = False
    yield ("bounds.json with the naive violation hidden",
           lambda d: checks.check_bounds(d, "closed-orbit", co_x0, 50.0, 50.0),
           co_bounds, naive)

    eq_ref = json.loads((cli("refute", "--system", eq_sys, x0_arg(eq_x0))
                         / "refutation.json").read_text())
    off = copy.deepcopy(eq_ref)
    off["equilibrium_state"][0] = 1e-6
    yield ("equilibrium 1e-6 off the line x=y=0",
           lambda d: checks.check_refute_equilibrium(d, eq_x0), eq_ref, off)
    co_ref = json.loads((cli("refute", "--system", co_sys, x0_arg(co_x0))
                         / "refutation.json").read_text())
    bigger = copy.deepcopy(co_ref)
    bigger["witnessed_bound"] *= 1.0 + 1e-4
    yield ("witnessed bound 1e-4 too large",
           lambda d: checks.check_refute_closed_orbit(d, co_x0, 100.0), co_ref, bigger)

    sim_x0 = on_attractor(np.random.default_rng(0), 1)[0]
    sim = cli("simulate", "--system", str(fb.system_path("lorenz")), x0_arg(sim_x0),
              "--t1=5.0", "--project", "x,z")
    csv = (sim / "trajectory.csv").read_text()
    lines = csv.splitlines()
    row = lines[100].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    moved = "\n".join(lines[:100] + [",".join(row)] + lines[101:]) + "\n"
    yield ("CSV row 99 moved by 1e-6",
           lambda t: checks.check_trajectory_csv(t, sim_x0, 5.0, [98]), csv, moved)
    yield ("CSV ending short of t1",
           lambda t: checks.check_trajectory_csv(t, sim_x0, 5.0, []),
           csv, "\n".join(lines[:-1]) + "\n")
    svg = (sim / "projection.svg").read_text()
    yield ("truncated SVG", checks.check_svg, svg, svg[:-20])

    lorenz = fb.load_system("lorenz")
    plane = fb.SectionPlane(np.array([0.0, 0.0, 27.0]), np.array([0.0, 0.0, 1.0]),
                            "negative")
    start, _ = fb.first_crossing(lorenz, plane, sim_x0)
    nxt, rt = fb.first_return(lorenz, plane, start)
    yield ("section point 1e-6 off the plane", checks.check_section_points,
           [nxt.state3], [nxt.state3 + [0.0, 0.0, 1e-6]])
    yield ("return time off by 1e-6",
           lambda t: checks.check_return(start.state3, nxt.state3, t), rt, rt + 1e-6)

    # the LR orbit, shot from a rough guess of its section point
    guess = plane.section_point(plane.from_chart([2.1, -2.1]), 0.0)
    orbit = fb.newton_shoot(lorenz, plane, fb.RecurrenceSeed(guess, 2, 0.1, 1.56))
    state = orbit.section_fixed_point.state3
    mults = [(m.real, m.imag) for m in orbit.floquet_multipliers]
    yield ("orbit start moved by 1e-4",
           lambda s: checks.check_orbit(s, orbit.period, orbit.k, mults),
           state, state + [1e-4, 0.0, 0.0])
    wrong = [(1.001 * re, 1.001 * im) for re, im in mults[:1]] + mults[1:]
    yield ("leading multiplier 0.1% too large",
           lambda m: checks.check_orbit(state, orbit.period, orbit.k, m), mults, wrong)
    cycle = [p.state3 for p in orbit.cycle_points]
    yield ("one orbit listed twice", checks.check_distinct, [cycle], [cycle, cycle[::-1]])

    spec = fb.lyapunov_spectrum(lorenz, np.array([1.0, 1.0, 1.0]), 10.0, 1000.0, 0.5,
                                fb.IntegrationOptions(method="rk4-fixed", step=0.015))
    ex = list(spec.exponents)
    yield ("Lyapunov sum off by 0.01",
           lambda e: checks.check_spectrum(e, "rk4-fixed", 1000.0, True),
           ex, ex[:2] + [ex[2] + 0.01])
    yield ("lambda1 off by 0.03 (sum kept)",
           lambda e: checks.check_spectrum(e, "rk4-fixed", 1000.0, True),
           ex, [ex[0] + 0.03, ex[1], ex[2] - 0.03])


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    bad = 0
    for name, checker, right, wrong in cases():
        accepted = checker(right)
        rejected = checker(wrong)
        ok = not accepted and bool(rejected)
        bad += not ok
        why = rejected[0] if rejected else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {name}: {why}"
              + (f" (correct input rejected: {accepted[0]})" if accepted else ""))
    print(f"{'all checks reject their wrong input' if not bad else f'{bad} checks failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
