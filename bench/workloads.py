"""The benchmark's three workloads.

Each workload turns the seed into inputs once. `once` makes the calls
made a single time per run (the census, the converged Lyapunov
spectra); `round` runs one round of operations, the same operations on
the same inputs every time. Both take a `speed.Stopwatch` and report,
in reference seconds, the time of every successful unit operation, of
the long call, and of all their timed calls together, with how many
operations they attempted and how many failed. `check` runs the checks
of `checks.py` on the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

SIGMA, RHO, BETA = checks.SIGMA, checks.RHO, checks.BETA


@dataclass
class Round:
    op_ms: list = field(default_factory=list)   # successful unit operations
    long_s: list = field(default_factory=list)  # long calls
    wall_s: float = 0.0                         # every timed call
    attempted: int = 0
    failed: int = 0


class Workload:
    """Defaults: nothing to do once per run or after a round."""

    def once(self, sw, tracer=None):
        return Round()

    def after_round(self):
        pass


def on_attractor(rng, n, settle=20.0, h=0.005):
    """n Lorenz states on the attractor: seeded box points carried
    `settle` time units by a vectorised classical RK4 of the benchmark's
    own, so flowbound only ever sees the resulting states."""
    p = np.vstack([rng.uniform(-15, 15, n), rng.uniform(-20, 20, n),
                   rng.uniform(5, 45, n)])

    def f(s):
        x, y, z = s
        return np.array([SIGMA * (y - x), x * (RHO - z) - y, x * y - BETA * z])

    for _ in range(int(settle / h)):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p.T.copy()


def _x0_arg(x):
    return "--x0=" + ",".join(repr(float(v)) for v in x)


def _cylinder_points(rng, n, r_lo, r_hi):
    r = rng.uniform(r_lo, r_hi, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta),
                            rng.uniform(-2.0, 2.0, n)])


class WitnessCli(Workload):
    """In-process `flowbound bounds-check` and `refute` on the shipped
    witnesses, plus three Lorenz `simulate --project x,z`, the long calls.

    The counts per command kind put the median inside the equilibrium
    bounds-check cluster and p90 inside the cluster of closed-orbit
    bounds-checks from outside the cylinder, so neither percentile sits
    on a gap between kinds.
    """

    name = "witness-cli"
    systems = ("equilibrium", "closed-orbit", "lorenz")
    T_SPAN = 50.0      # bounds-check --t-fwd and --t-back (CLI defaults)
    HORIZON = 100.0    # refute --horizon (CLI default)
    T1 = 100.0         # simulate span: about 2 MB of CSV
    # refutes from outside the cylinder that fail on every run: refute
    # lets StepSizeError escape instead of reporting the escape
    FAILING = ((1.1, 0.0, 0.0), (2.0, 0.0, 0.0))

    def __init__(self, fb, seed, out_dir):
        self.fb = fb
        self.out = out_dir
        rng = np.random.default_rng(seed)
        cmds = []  # (kind, system, x0)
        cmds += [("refute", "equilibrium", x) for x in rng.uniform(-2, 2, (10, 3))]
        cmds += [("refute", "closed-orbit", x) for x in _cylinder_points(rng, 8, 0.2, 0.95)]
        cmds += [("bounds-check", "equilibrium", x) for x in rng.uniform(-2, 2, (15, 3))]
        cmds += [("bounds-check", "closed-orbit", x) for x in _cylinder_points(rng, 7, 0.2, 0.95)]
        cmds += [("bounds-check", "closed-orbit", x) for x in _cylinder_points(rng, 10, 1.05, 2.5)]
        cmds += [("refute", "closed-orbit", np.array(x)) for x in self.FAILING]
        self.cmds = cmds
        self.argv = [[kind, "--system", str(fb.system_path(system)), _x0_arg(x),
                      "--out", str(out_dir / f"cmd-{i:03d}")]
                     for i, (kind, system, x) in enumerate(cmds)]
        self.sim_x0 = on_attractor(rng, 3)
        self.sim_argv = [["simulate", "--system", str(fb.system_path("lorenz")),
                          _x0_arg(x), f"--t1={self.T1!r}", "--project", "x,z",
                          "--out", str(out_dir / f"simulate-{k}")]
                         for k, x in enumerate(self.sim_x0)]
        self.row_picks = rng.integers(0, 2**31, 20)
        self.codes = []
        self.digests = set()

    def _main(self, sw, argv, tracer):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, seconds = sw.time(self.fb.cli.main, argv)
        if tracer is not None:
            tracer.counts["artifact_bytes"] += sum(
                p.stat().st_size for p in Path(argv[-1]).iterdir())
        return code, seconds, err.getvalue()

    def round(self, sw, tracer=None):
        r = Round()
        self.codes = []
        for argv in self.argv:
            code, seconds, err = self._main(sw, argv, tracer)
            self.codes.append((code, err))
            r.wall_s += seconds
            if code == 0:
                r.op_ms.append(1e3 * seconds)
        for argv in self.sim_argv:
            code, seconds, err = self._main(sw, argv, tracer)
            self.codes.append((code, err))
            r.wall_s += seconds
            r.long_s.append(seconds)
        r.attempted = len(self.codes)
        r.failed = sum(1 for code, _ in self.codes if code not in (0, 3))
        return r

    def after_round(self):
        """Digest of every artifact: rounds must write identical bytes."""
        h = hashlib.sha256()
        for p in sorted(self.out.rglob("*")):
            if p.is_file():
                h.update(p.name.encode() + p.read_bytes())
        self.digests.add(h.hexdigest())

    def check(self):
        problems = []
        if len(self.digests) != 1:
            problems.append("rounds wrote different artifact bytes")
        naive = {"equilibrium": 0, "closed-orbit": 0}
        for i, ((kind, system, x0), (code, err)) in enumerate(zip(self.cmds, self.codes)):
            where = f"{kind} {system} {_x0_arg(x0)}"
            if code == 3:
                problems.append(f"{where}: exit 3, bound reported violated")
                continue
            if code != 0:
                if not (tuple(x0) in self.FAILING and code == 2
                        and "integration failed" in err):
                    problems.append(f"{where}: unexpected exit {code}: {err.strip()[-200:]}")
                continue
            doc_name = "bounds.json" if kind == "bounds-check" else "refutation.json"
            doc = json.loads((self.out / f"cmd-{i:03d}" / doc_name).read_text())
            if kind == "bounds-check":
                found = checks.check_bounds(doc, system, x0, self.T_SPAN, self.T_SPAN)
                naive[system] += doc["components"][0]["report"]["naive_backward_violated"]
            elif system == "equilibrium":
                found = checks.check_refute_equilibrium(doc, x0)
            else:
                found = checks.check_refute_closed_orbit(doc, x0, self.HORIZON)
            problems += [f"{where}: {p}" for p in found]
        for system, n in naive.items():
            if n == 0:
                problems.append(f"naive backward form never reported violated on {system}")
        for k, (code, err) in enumerate(self.codes[len(self.cmds):]):
            if code != 0:
                problems.append(f"simulate exit {code}: {err.strip()[-200:]}")
                continue
            sim = self.out / f"simulate-{k}"
            problems += checks.check_trajectory_csv(
                (sim / "trajectory.csv").read_text(), self.sim_x0[k], self.T1,
                self.row_picks)
            problems += checks.check_svg((sim / "projection.svg").read_text())
        return problems


class LorenzUpo(Workload):
    """A section phase of timed `first_return` calls on z = 27 (downward),
    100 from each of three seeded starts, and one `census` per run as the
    long call.

    The census starts where acceptance criterion 6 starts (the first
    crossing after 50 time units from (1,1,1)), not from the seeded
    start: its cost follows the number of recurrence seeds, which varies
    threefold between seeded starts over 300 returns, too much for any
    bound. From this start it shoots 4 seeds, 2 of them duplicates, and
    keeps orbits with k = 2 and k = 3.
    """

    name = "lorenz-upo"
    systems = ("lorenz",)
    STARTS = 3
    RETURNS = 100  # per start
    CHECKED = 25   # returns per run checked against SciPy
    CENSUS = dict(n_iterates=300, k_max=3, threshold=0.3)

    def __init__(self, fb, seed, out_dir):
        self.fb = fb
        rng = np.random.default_rng(seed)
        self.field = fb.load_system("lorenz")
        self.plane = fb.SectionPlane(np.array([0.0, 0.0, 27.0]),
                                     np.array([0.0, 0.0, 1.0]), "negative")
        self.opts = fb.IntegrationOptions()
        self.starts = [fb.first_crossing(self.field, self.plane, x, 0.0, self.opts)[0]
                       for x in on_attractor(rng, self.STARTS)]
        settled = fb.integrate(self.field, [1.0, 1.0, 1.0], 0.0, 50.0, self.opts)
        self.census_start, _ = fb.first_crossing(
            self.field, self.plane, settled.final_state, 0.0, self.opts, max_time=100.0)
        self.picks = sorted(rng.choice(self.STARTS * self.RETURNS, self.CHECKED,
                                       replace=False))
        self.points = []
        self.orbits = []

    def once(self, sw, tracer=None):
        self.orbits, seconds = sw.time(
            self.fb.upo.census, self.field, self.plane, self.census_start,
            scan_opts=self.opts, **self.CENSUS)
        return Round(long_s=[seconds], wall_s=seconds, attempted=1)

    def round(self, sw, tracer=None):
        first_return = self.fb.poincare.first_return
        r = Round()
        self.points = []
        for current in self.starts:
            for _ in range(self.RETURNS):
                (nxt, rt), seconds = sw.time(first_return, self.field, self.plane,
                                             current, self.opts)
                r.op_ms.append(1e3 * seconds)
                r.wall_s += seconds
                self.points.append((current.state3, nxt.state3, rt))
                current = nxt
        r.attempted = len(self.points)
        return r

    def check(self):
        problems = checks.check_section_points([p[1] for p in self.points])
        for i in self.picks:
            prev, state, rt = self.points[i]
            problems += [f"return {i}: {p}" for p in checks.check_return(prev, state, rt)]
        if not self.orbits:
            problems.append("census found no orbit")
        for j, orbit in enumerate(self.orbits):
            mults = [(m.real, m.imag) for m in orbit.floquet_multipliers]
            problems += [f"orbit {j} (k={orbit.k}): {p}" for p in checks.check_orbit(
                orbit.section_fixed_point.state3, orbit.period, orbit.k, mults)]
        problems += checks.check_distinct(
            [[p.state3 for p in o.cycle_points] for o in self.orbits])
        return problems


class LorenzLyapunov(Workload):
    """Lyapunov spectra of Lorenz. A unit operation is one RK4 (step
    0.015) spectrum over a window of 10 or 20 time units, a finite-time
    exponent, from a seeded state on the attractor; the long call is one
    10-unit window with the adaptive DP5(4). Once per run, untimed, the
    converged spectra from (1,1,1) that the checks need: 1000 time units
    with RK4 and 100 with DP5(4).

    Four windows in twenty are 20 units long, so p90 lies inside their
    cluster rather than in the noise at the top of one uniform cluster.
    """

    name = "lorenz-lyapunov"
    systems = ("lorenz",)
    WINDOWS = (10.0,) * 16 + (20.0,) * 4
    RK4_SPAN = 1000.0
    DP5_SPAN = 100.0
    TRANSIENT = 10.0
    INTERVAL = 0.5

    def __init__(self, fb, seed, out_dir):
        self.fb = fb
        rng = np.random.default_rng(seed)
        self.field = fb.load_system("lorenz")
        self.starts = on_attractor(rng, len(self.WINDOWS) + 1)
        self.rk4 = fb.IntegrationOptions(method="rk4-fixed", step=0.015)
        self.dp5 = fb.IntegrationOptions()
        self.results = {}

    def _spectrum(self, x0, transient, span, opts):
        return self.fb.lyapunov.lyapunov_spectrum(
            self.field, x0, transient, span, self.INTERVAL, opts).exponents

    def once(self, sw, tracer=None):
        one = np.array([1.0, 1.0, 1.0])
        self.results["rk4"] = self._spectrum(one, self.TRANSIENT, self.RK4_SPAN, self.rk4)
        self.results["dp5"] = self._spectrum(one, self.TRANSIENT, self.DP5_SPAN, self.dp5)
        return Round(attempted=2)

    def round(self, sw, tracer=None):
        r = Round()
        windows = []
        for x0, span in zip(self.starts, self.WINDOWS):
            ex, seconds = sw.time(self._spectrum, x0, 0.0, span, self.rk4)
            windows.append(ex)
            r.op_ms.append(1e3 * seconds)
            r.wall_s += seconds
        self.results["dp5-window"], seconds = sw.time(
            self._spectrum, self.starts[-1], 0.0, self.WINDOWS[0], self.dp5)
        r.long_s.append(seconds)
        r.wall_s += seconds
        self.results["windows"] = windows
        r.attempted = len(self.WINDOWS) + 1
        return r

    def check(self):
        problems = []
        for i, (ex, span) in enumerate(zip(self.results["windows"], self.WINDOWS)):
            problems += [f"window {i}: {p}" for p in
                         checks.check_spectrum(ex, "rk4-fixed", span, False)]
        problems += checks.check_ftle_mean([ex[0] for ex in self.results["windows"]])
        problems += checks.check_spectrum(self.results["dp5-window"], "rk45-adaptive",
                                          self.WINDOWS[0], False)
        problems += checks.check_spectrum(self.results["rk4"], "rk4-fixed",
                                          self.RK4_SPAN, True)
        problems += checks.check_spectrum(self.results["dp5"], "rk45-adaptive",
                                          self.DP5_SPAN, True)
        return problems


WORKLOADS = {w.name: w for w in (WitnessCli, LorenzUpo, LorenzLyapunov)}
