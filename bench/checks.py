"""Checks of flowbound's outputs against computations made apart from it.

Every checker takes plain data (parsed JSON, CSV text, arrays, numbers)
and returns a list of problems; an empty list means the output passed.
The references are closed-form solutions of the two witness systems,
SciPy integrations at tight tolerance, Lorenz's constant divergence and
the published leading Lyapunov exponent. None of them is a stored copy
of flowbound's own output.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

SIGMA, RHO, BETA = 10.0, 28.0, 8.0 / 3.0
LORENZ_DIV = -(SIGMA + 1.0 + BETA)  # trace of the Jacobian, constant
# Sprott, "Chaos and Time-Series Analysis" (Oxford 2003), Lorenz at the
# standard parameters: 0.9056, 0, -14.5723.
LAMBDA1 = 0.9056
PLANE_Z = 27.0

VERDICT_BOUNDED = "bounded backward orbit found"
VERDICT_ESCAPED = "orbit escaped backward"

# Tolerances, each with its source; "seen" is the largest error the
# tolerance met on correct output, on seeds 3 and 5-7.
SCIPY_TOL = 1e-13          # rtol = atol of the SciPy DOP853 references
ROW_FACTOR = 10.0          # one step at tol errs ~tol*(1+|y|); seen 0.02 of it
ON_PLANE = 1e-9            # flowbound's own on-plane invariant
RETURN_TIME_TOL = 1e-7     # tol 1e-10 over one return; seen 4e-9
RETURN_STATE_TOL = 1e-6    # seen 1.9e-7
CLOSURE_TOL = 1e-6
UNIT_MULTIPLIER_TOL = 1e-3
MULTIPLIER_REL_TOL = 1e-4  # both monodromies at 1e-12
SAME_ORBIT = 1e-6
EQ_RESIDUAL = 1e-12
ANALYTIC_REL = 1e-6        # tol 1e-10 over <= 100 time units; seen 2e-12
LYAP_SUM_TOL = {"rk4-fixed": 2e-3, "rk45-adaptive": 1e-6}  # seen 5.4e-4, 1e-8
LAMBDA1_TOL = 0.02
LAMBDA2_TOL = 0.01
# 10-unit windows start from an unaligned frame (a bias near -0.03) and
# scatter by 0.15, so 20 windows average to 0.9056 within 0.2
FTLE_MEAN_TOL = 0.2


def lorenz(_t, s):
    x, y, z = s
    return [SIGMA * (y - x), x * (RHO - z) - y, x * y - BETA * z]


def lorenz_variational(_t, w):
    x, y, z = w[:3]
    jac = np.array([[-SIGMA, SIGMA, 0.0],
                    [RHO - z, -1.0, -x],
                    [y, x, -BETA]])
    return np.concatenate([lorenz(0.0, w[:3]), (jac @ w[3:].reshape(3, 3)).ravel()])


def _solve(fun, t_span, y0, **kw):
    from scipy.integrate import solve_ivp
    return solve_ivp(fun, t_span, np.asarray(y0, dtype=float), method="DOP853",
                     rtol=SCIPY_TOL, atol=SCIPY_TOL, **kw)


# -- witness closed forms -------------------------------------------------

def equilibrium_state(x0, t):
    """dx/dt=-x, dy/dt=-y, dz/dt=x^2 from x0 at time 0."""
    a, b, c = x0
    e = math.exp(-t)
    return np.array([a * e, b * e, c + 0.5 * a * a * (1.0 - e * e)])


def closed_orbit_state(x0, t):
    """dx/dt=x-y-x r^2, dy/dt=x+y-y r^2, dz/dt=r^2-1 from x0 at time 0.

    In polar form r'=r(1-r^2), theta'=1, so r^2 = e^{2t}/(e^{2t}+q)
    with q = 1/r0^2 - 1, and z = z0 - t + ln(r0^2 (e^{2t}+q))/2.
    """
    x, y, z0 = x0
    r0sq = x * x + y * y
    q = 1.0 / r0sq - 1.0
    e2 = math.exp(2.0 * t)
    rsq = e2 / (e2 + q)
    theta = math.atan2(y, x) + t
    r = math.sqrt(rsq)
    return np.array([r * math.cos(theta), r * math.sin(theta),
                     z0 - t + 0.5 * math.log(r0sq * (e2 + q))])


def closed_orbit_escape_time(x0):
    """Backward escape time of a state outside the unit cylinder."""
    r0sq = x0[0] ** 2 + x0[1] ** 2
    return 0.5 * math.log(r0sq / (r0sq - 1.0))


def equilibrium_cap_time(x0, cap):
    """Backward time at which the equilibrium witness's norm reaches cap."""
    lo, hi = 0.0, 1.0
    while np.linalg.norm(equilibrium_state(x0, -hi)) < cap:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(equilibrium_state(x0, -mid)) < cap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- witness-cli ----------------------------------------------------------

def check_bounds(doc, system, x0, t_fwd, t_back, cap=1e12):
    """bounds.json of one bounds-check on a witness system.

    The certified component is z, bounded below by 0 (equilibrium) or -1
    (closed-orbit); both bound lines must hold; each leg must end where
    the closed form says (the full span, the blow-up cap, or the finite
    backward escape time); and the naive backward form must be reported
    violated when the closed form violates it by a clear margin.
    """
    problems = []
    alpha = 0.0 if system == "equilibrium" else -1.0
    comps = doc.get("components", [])
    if len(comps) != 1 or comps[0].get("component") != 3:
        return [f"expected exactly component 3 certified, got {comps!r:.200}"]
    entry = comps[0]
    report = entry["report"]
    if entry["alpha"] != alpha:
        problems.append(f"alpha {entry['alpha']} != closed-form infimum {alpha}")
    if report["forward_holds"] is not True:
        problems.append("forward bound line reported violated")
    if report["backward_holds"] is not True:
        problems.append("backward bound line reported violated")
    back, fwd = entry["time_reached"]
    if fwd != t_fwd:
        problems.append(f"forward leg ended at {fwd}, not {t_fwd}")
    if system == "equilibrium":
        t_end = equilibrium_cap_time(x0, cap)
        if not 0.0 <= t_end + back < 0.1:
            problems.append(f"backward leg ended at {back}, closed-form "
                            f"blow-up at {-t_end:.9g}")
        state = equilibrium_state
    else:
        if x0[0] ** 2 + x0[1] ** 2 > 1.0:
            t_end = closed_orbit_escape_time(x0)
            if abs(back + t_end) > 1e-6:
                problems.append(f"backward leg ended at {back}, closed-form "
                                f"escape at {-t_end:.12g}")
        elif back != -t_back:
            problems.append(f"backward leg ended at {back}, not {-t_back}")
        state = closed_orbit_state
    # the naive form x_j(t) >= alpha (t - t0) + x_j(t0) for t < t0, in
    # closed form half way along the backward leg
    t_mid = 0.5 * back
    naive_gap = alpha * t_mid + x0[2] - state(x0, t_mid)[2]
    if naive_gap > 1e-3 and report["naive_backward_violated"] is not True:
        problems.append(f"naive backward form violated by {naive_gap:.3g} "
                        "in closed form but not reported")
    if report["samples_checked"] < 3:
        problems.append("fewer than 3 samples checked")
    return problems


def check_refute_equilibrium(doc, x0):
    """Refutation on the equilibrium witness: the rest points are exactly
    the line x = y = 0, where f = (-x, -y, x^2) vanishes."""
    problems = []
    if not doc["verdict"].startswith(VERDICT_BOUNDED):
        problems.append(f"verdict {doc['verdict']!r}")
    if doc["bounded"] is not True or doc["equilibrium"] is not True:
        problems.append("equilibrium witness not reported as a bounded equilibrium")
        return problems
    x, y, z = doc["equilibrium_state"]
    residual = max(abs(x), abs(y), x * x)
    if not residual < EQ_RESIDUAL:
        problems.append(f"equilibrium ({x:.3g}, {y:.3g}) off x=y=0: residual {residual:.3g}")
    if not doc["equilibrium_residual"] < EQ_RESIDUAL:
        problems.append(f"reported residual {doc['equilibrium_residual']}")
    if doc["horizon"] <= 0:
        problems.append("non-positive horizon")
    return problems


def check_refute_closed_orbit(doc, x0, horizon):
    """Refutation on the closed-orbit witness from inside the cylinder
    (bounded: the largest state norm over the backward horizon matches
    the closed form) or outside (escapes at the closed-form time)."""
    problems = []
    outside = x0[0] ** 2 + x0[1] ** 2 > 1.0
    if outside:
        t_end = closed_orbit_escape_time(x0)
        if not doc["verdict"].startswith(VERDICT_ESCAPED) or doc["bounded"]:
            problems.append(f"outside seed not reported escaped: {doc['verdict']!r}")
        elif abs(doc["horizon"] - t_end) > 1e-6:
            problems.append(f"escape at {doc['horizon']}, closed form {t_end:.12g}")
        return problems
    if not doc["verdict"].startswith(VERDICT_BOUNDED) or doc["bounded"] is not True:
        problems.append(f"inside seed not reported bounded: {doc['verdict']!r}")
        return problems
    if doc["equilibrium"]:
        problems.append("closed-orbit witness has no equilibrium, one was reported")
    ts = np.linspace(-horizon, 0.0, 2001)
    expected = max(float(np.linalg.norm(closed_orbit_state(x0, t))) for t in ts)
    if abs(doc["witnessed_bound"] - expected) > ANALYTIC_REL * max(1.0, expected):
        problems.append(f"witnessed bound {doc['witnessed_bound']!r} vs closed "
                        f"form {expected!r}")
    return problems


def check_trajectory_csv(text, x0, t1, row_picks, tol=1e-10):
    """simulate's trajectory.csv: header, exact start and end, strictly
    increasing times, and sampled rows that match SciPy DOP853 run leg by
    leg from the previous row."""
    lines = text.splitlines()
    if not lines or lines[0] != "t,x,y,z":
        return [f"header {lines[:1]!r}"]
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != 4 or len(data) < 2:
        return [f"malformed rows, shape {data.shape}"]
    problems = []
    ts, ys = data[:, 0], data[:, 1:]
    if ts[0] != 0.0 or not np.array_equal(ys[0], np.asarray(x0, dtype=float)):
        problems.append("first row is not (0, x0)")
    if not np.all(np.diff(ts) > 0):
        problems.append("times not strictly increasing")
    if ts[-1] != t1:
        problems.append(f"last time {float(ts[-1])!r} != t1 {t1!r}")
    for i in row_picks:
        i = 1 + int(i) % (len(ts) - 1)
        sol = _solve(lorenz, (ts[i - 1], ts[i]), ys[i - 1])
        ref = sol.y[:, -1]
        limit = ROW_FACTOR * tol * (1.0 + np.abs(ref))
        if not np.all(np.abs(ys[i] - ref) <= limit):
            problems.append(f"row {i} differs from DOP853 by "
                            f"{np.max(np.abs(ys[i] - ref)):.3g}")
    return problems


def check_svg(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"root element {root.tag!r}"]
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != 1 or len(lines[0].get("points", "").split()) < 2:
        return ["SVG has no polyline with at least two points"]
    return []


# -- lorenz-upo -----------------------------------------------------------

def check_section_points(states):
    """Every section point lies on z = 27 and crosses it downward."""
    problems = []
    for i, (x, y, z) in enumerate(np.asarray(states, dtype=float)):
        if abs(z - PLANE_Z) > ON_PLANE:
            problems.append(f"point {i} lies {z - PLANE_Z:.3g} off the plane")
        if not x * y - BETA * z < 0.0:
            problems.append(f"point {i} does not cross downward")
    return problems


def _plane_event(terminal):
    """Downward crossing of z = 27, armed 1e-3 after the start, which
    itself lies on the plane."""
    def event(t, s):
        return s[2] - PLANE_Z if t > 1e-3 else -1.0
    event.terminal = terminal
    event.direction = -1.0
    return event


def check_return(prev_state, state, return_time):
    """One first return against a SciPy DOP853 event-located return."""
    sol = _solve(lorenz, (0.0, 100.0), prev_state, events=_plane_event(True))
    if not sol.t_events[0].size:
        return ["SciPy found no return"]
    t_ref = float(sol.t_events[0][0])
    x_ref = sol.y_events[0][0]
    problems = []
    if abs(return_time - t_ref) > RETURN_TIME_TOL:
        problems.append(f"return time {return_time!r} vs SciPy {t_ref!r}")
    if np.max(np.abs(np.asarray(state) - x_ref)) > RETURN_STATE_TOL:
        problems.append(f"return state off SciPy by "
                        f"{np.max(np.abs(np.asarray(state) - x_ref)):.3g}")
    return problems


def check_orbit(state, period, k, multipliers):
    """A census orbit: on the plane, closes under DOP853 over its period,
    crosses the plane downward k times per period, has a unit multiplier,
    and its leading multiplier matches a SciPy variational integration."""
    problems = check_section_points([state])
    state = np.asarray(state, dtype=float)
    sol = _solve(lorenz, (0.0, period), state, events=_plane_event(False))
    gap = float(np.max(np.abs(sol.y[:, -1] - state)))
    if gap > CLOSURE_TOL:
        problems.append(f"orbit does not close: gap {gap:.3g}")
    hits = [t for t in sol.t_events[0] if t < period - 1e-6]
    if len(hits) != k - 1:
        problems.append(f"{len(hits) + 1} downward crossings per period, k={k}")
    mults = [complex(re, im) for re, im in multipliers]
    if min(abs(m - 1.0) for m in mults) > UNIT_MULTIPLIER_TOL:
        problems.append(f"no multiplier within {UNIT_MULTIPLIER_TOL} of 1: "
                        f"{[round(abs(m), 6) for m in mults]}")
    var = _solve(lorenz_variational, (0.0, period),
                 np.concatenate([state, np.eye(3).ravel()]))
    ref = max(abs(np.linalg.eigvals(var.y[3:, -1].reshape(3, 3))))
    lead = max(abs(m) for m in mults)
    if abs(lead - ref) > MULTIPLIER_REL_TOL * ref:
        problems.append(f"leading multiplier {lead!r} vs SciPy {float(ref)!r}")
    return problems


def check_distinct(cycles):
    """No two orbits share a point: each item is an orbit's cycle states,
    first the fixed point."""
    problems = []
    for a in range(len(cycles)):
        for b in range(len(cycles)):
            if a == b:
                continue
            d = min(np.max(np.abs(np.asarray(cycles[a][0]) - np.asarray(p)))
                    for p in cycles[b])
            if d < SAME_ORBIT:
                problems.append(f"orbits {a} and {b} are the same orbit")
    return problems


# -- lorenz-lyapunov ------------------------------------------------------

def check_spectrum(exponents, method, span, converged):
    """A Lyapunov spectrum of Lorenz. The sum is the time average of the
    divergence, exact for any span up to the method's error. A converged
    run must also show the published lambda1 and a zero lambda2, whose
    finite-span error decays like 1/span."""
    problems = []
    total = float(sum(exponents))
    if abs(total - LORENZ_DIV) > LYAP_SUM_TOL[method]:
        problems.append(f"{method} sum {total!r} vs {LORENZ_DIV!r}")
    if list(exponents) != sorted(exponents, reverse=True):
        problems.append("exponents not sorted descending")
    if converged:
        l1, l2 = exponents[0], exponents[1]
        if abs(l1 - LAMBDA1) > LAMBDA1_TOL:
            problems.append(f"{method} lambda1 {float(l1)!r} vs {LAMBDA1}")
        if abs(l2) > max(LAMBDA2_TOL, 2.0 / span):
            problems.append(f"{method} lambda2 {float(l2)!r} over {span} time units")
    return problems


def check_ftle_mean(lambda1s):
    mean = float(np.mean(lambda1s))
    if abs(mean - LAMBDA1) > FTLE_MEAN_TOL:
        return [f"mean finite-time lambda1 {mean!r} vs {LAMBDA1}"]
    return []
