"""Oriented planar sections and first-return maps for 3D flows.

A section is a plane with a unit normal and a crossing direction
(sign of d/dt of the signed distance at a counted crossing). Crossing
detection runs on the integrator's accepted steps: the signed distance
is linear in the state, so on each step it is interpolated by the cubic
Hermite polynomial of its endpoint values and slopes. The generated
stepping loop samples it at the quarter points of each step that its
slack test cannot rule out, and returns only where two adjacent samples
bracket a sign change in a counted direction, narrowed by bisection.

How the bracketed crossing is refined depends on the run's tableau.
DP5(4) and RK4 runs polish it by Newton against the vector field along
the cubic Hermite interpolant of the step's endpoint states and slopes,
which also gives the crossing state. That interpolant is not a dense
output of DP5(4): its error is O(h^4), not the integrator's local error.
DOP853 runs, whose steps are too long for that interpolant, land
exactly (Hénon, Physica D 5, 1982): Newton on the crossing time, each
iterate one generated DOP853 step from the step's start, its slope the
step's FSAL slope, so the crossing state (and a tangent matrix riding
along) carries the integrator's own accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .integrator import (
    _DOP853,
    _SUB_S,
    DOP853_ADAPTIVE,
    IntegrationError,
    IntegrationOptions,
    _compiled_step,
    _hermite,
    _hermite_fraction,
    _Run,
)
from .polyfield import PolyField

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SectionPlane",
    "SectionPoint",
    "NonReturningOrbitError",
    "CrossingRefinementError",
    "first_return",
    "first_crossing",
    "return_map_iterates",
]

DIRECTIONS = ("positive", "negative", "both")

_ON_PLANE_TOL = 1e-9
_REFINE_TOL = 1e-10
_BRACKET_WIDTH = 1e-12
_REFRACTORY = 1e-6  # a return ignores crossings this soon after departure
# at the fractions _SUB_S of the loop's sub-samples, h00 + h01 = 1 and
# |h10|, |h11| <= 0.140625, so no sample of a step whose ends keep this
# many |h| (|g'(ta)| + |g'(tb)|) from the plane, on one side, leaves that side
_SLACK = 0.15


class NonReturningOrbitError(IntegrationError):
    """No section crossing occurred within the allowed integration time;
    `t` and `state` are where the search stopped, `elapsed` its length."""

    def __init__(self, message: str, t: float, state, elapsed: float):
        super().__init__(message, t, state)
        self.elapsed = elapsed


class CrossingRefinementError(IntegrationError):
    """Crossing refinement stalled; `t` and `state` are where it stopped."""


def _unit(v: list[float]) -> tuple[float, float, float]:
    """v over its norm, the square root of its squares summed left to right."""
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / norm, v[1] / norm, v[2] / norm)


@dataclass(frozen=True, eq=False)
class SectionPlane:
    """Oriented plane: base point, unit normal, counted crossing direction.

    `direction` is "positive", "negative", or "both": the required sign
    of d/dt ⟨x(t), normal⟩ at a counted crossing. The point and normal
    may be any 3-sequences; the plane stores them, and its chart frame,
    as float tuples, the normal normalized, and `offset` = ⟨point,
    normal⟩. The plane owns its arithmetic: every signed distance and
    rate, and the chart, is a float sum taken left to right.
    """

    point: tuple[float, float, float]
    normal: tuple[float, float, float]
    direction: str = "both"

    def __post_init__(self):
        import numpy as np
        point = np.asarray(self.point, dtype=float)
        normal = np.asarray(self.normal, dtype=float)
        if point.shape != (3,) or normal.shape != (3,):
            raise ValueError("plane point and normal must be 3-vectors")
        if not (np.all(np.isfinite(point)) and np.all(np.isfinite(normal))):
            raise ValueError("plane point and normal must be finite")
        big = np.max(np.abs(normal))
        if big == 0.0:
            raise ValueError("plane normal must be nonzero")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        # an exact power-of-two rescaling: the norm's squares cannot overflow or vanish
        scale = -math.frexp(big)[1]
        n = _unit([math.ldexp(c, scale) for c in normal.tolist()])
        k = min(range(3), key=lambda i: abs(n[i]))  # the first on ties
        e1 = [-n[k] * c for c in n]
        e1[k] += 1.0
        e1 = _unit(e1)
        e2 = (n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2],
              n[0] * e1[1] - n[1] * e1[0])  # normal × e1
        object.__setattr__(self, "point", tuple(point.tolist()))
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", self.rate(self.point))
        object.__setattr__(self, "_basis", (e1, e2))

    def chart_basis(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Deterministic orthonormal in-plane basis (e1, e2), computed
        once at construction.

        e1 is the Gram-Schmidt projection of the coordinate axis least
        aligned with the normal (ties break toward the lowest index);
        e2 = normal × e1 completes a right-handed frame. The chart is a
        pure function of the plane, so coordinates are reproducible.
        """
        return self._basis

    def rate(self, v) -> float:
        """⟨v[:3], normal⟩: the signed distance's rate along a slope v."""
        n0, n1, n2 = self.normal
        return v[0] * n0 + v[1] * n1 + v[2] * n2

    def signed_distance(self, state) -> float:
        """⟨state[:3], normal⟩ − offset: zero on the plane, sign by side."""
        return self.rate(state) - self.offset

    def to_chart(self, state) -> np.ndarray:
        """In-plane chart coordinates (u, v) of a state's projection."""
        import numpy as np
        r0, r1, r2 = (a - p for a, p in zip(state, self.point))
        return np.array([r0 * a0 + r1 * a1 + r2 * a2
                         for a0, a1, a2 in self._basis])

    def from_chart(self, coords2) -> np.ndarray:
        """3D state on the plane with the given chart coordinates."""
        import numpy as np
        u, v = (float(c) for c in coords2)
        return np.array([p + u * a + v * b
                         for p, a, b in zip(self.point, *self._basis)])

    def section_point(self, state, time: float) -> "SectionPoint":
        """SectionPoint of a 3-vector within 1e-9 of the plane, else ValueError."""
        import numpy as np
        state3 = np.array(state, dtype=float)
        if state3.shape != (3,):
            raise ValueError("a section point's state must be a 3-vector")
        x = state3.tolist()
        s = self.signed_distance(x)
        if not abs(s) < _ON_PLANE_TOL:
            raise ValueError(
                f"state lies {s:.3e} off the plane (limit {_ON_PLANE_TOL})")
        return SectionPoint(self.to_chart(x), state3, time)


@dataclass(frozen=True, eq=False)
class SectionPoint:
    """A plane crossing: chart coordinates, full state, crossing time."""

    coords2: np.ndarray
    state3: np.ndarray
    time: float

    def __post_init__(self):
        import numpy as np
        coords2 = np.asarray(self.coords2, dtype=float)
        state3 = np.asarray(self.state3, dtype=float)
        if coords2.shape != (2,) or state3.shape != (3,):
            raise ValueError("coords2 must be a 2-vector, state3 a 3-vector")
        object.__setattr__(self, "coords2", coords2)
        object.__setattr__(self, "state3", state3)
        object.__setattr__(self, "time", float(self.time))


def _require_3d(field: PolyField) -> None:
    if field.dimension != 3:
        raise ValueError(
            f"section machinery needs a 3D field, got n={field.dimension}")


def _refine_crossing(step, below, above, plane, slope, land, near):
    """Refine a bracketed sign change of the signed distance, negative at
    the step fraction `below` and not at `above`.

    Bisection on the scalar Hermite interpolant of the signed distance
    down to a bracket width of 1e-12 in time; None as soon as the
    bracket's far end lies below the step fraction `near`. Then, with
    `land` (a DOP853 run), `_land`; without, up to five Newton steps
    along the interpolant using the true slope s'(t) = `plane.rate` of
    the 3-D field's `slope` until |s| < 1e-10, stopping before an iterate
    that leaves [ta, tb]. Returns (crossing time, state, residual).
    """
    ta, ya, fa, tb, yb, fb, dga, dgb, (ga, *_, gb) = step
    h = tb - ta
    while abs(above - below) * abs(h) > _BRACKET_WIDTH:
        if max(below, above) < near:
            return None
        sm = 0.5 * (below + above)
        gm = _hermite_fraction(sm, ga, gb, dga, dgb, h)
        if gm == 0.0:
            below = above = sm
            break
        if gm < 0.0:
            below = sm
        else:
            above = sm
    s = 0.5 * (below + above)
    if land is not None:
        return _land(land, plane, ta, ya, fa, h, s * h)
    tau = ta + s * h
    x = _hermite(ta, ya, fa, tb, yb, fb, tau)
    g = plane.signed_distance(x)
    for _ in range(5):
        if abs(g) <= _REFINE_TOL:
            break
        ds = plane.rate(slope(x[:3]))
        if ds == 0.0:
            break
        tau_next = tau - g / ds
        if not min(ta, tb) <= tau_next <= max(ta, tb):
            break
        tau = tau_next
        x = _hermite(ta, ya, fa, tb, yb, fb, tau)
        g = plane.signed_distance(x)
    return tau, x, g


def _land(land, plane, ta, ya, fa, h, s):
    """Newton on the crossing's offset s from the step's start ta, from
    the given s, along exact steps: the state at ta + s is one step
    `land(ya, fa, s)` -> (x, f(x)) from the accepted step's start, and
    the signed distance's slope is `plane.rate(f(x))` there. Iterating on
    s, not on ta + s, keeps the state's resolution that of s. Stops after
    an update below 1e-8 of the step h, at most five updates, or before
    an iterate that leaves the step. Returns (crossing time, state,
    residual)."""
    x, fx = land(ya, fa, s)
    g = plane.signed_distance(x)
    for _ in range(5):
        ds = plane.rate(fx)
        if ds == 0.0:
            break
        step = g / ds
        if not min(0.0, h) <= s - step <= max(0.0, h):
            break
        s -= step
        x, fx = land(ya, fa, s)
        g = plane.signed_distance(x)
        if abs(step) <= 1e-8 * abs(h):
            break
    return ta + s, x, g


def _step_crossing(step, plane, slope, t0, min_elapsed, land=None):
    """The first counted plane crossing in one accepted step (ta, ya, fa,
    tb, yb, fb, dga, dgb, samples) of the loop (see `_Run.advance`) that
    lies at least `min_elapsed` from t0, refined (`_refine_crossing`,
    with `land` None or the run's exact step), as (tau, x); None if
    there is none.

    Each sign change in the plane's direction that the samples, at the
    fractions 0, `_SUB_S` and 1, bracket is refined in time order. A
    bracket at the start of a run's first step is dropped, unrefined,
    once bisection puts it within min_elapsed / 2 of t0: that is the
    departure crossing. Raises CrossingRefinementError when a
    refinement stalls.
    """
    ta, tb, samples = step[0], step[3], step[-1]
    h = tb - ta
    s = (0.0, *_SUB_S, 1.0)
    for sa, sb, gi, gj in zip(s, s[1:], samples, samples[1:]):
        if gi < 0.0 <= gj:
            side, below, above = "positive", sa, sb
        elif gi > 0.0 >= gj:
            side, below, above = "negative", sb, sa
        else:
            continue
        if plane.direction not in ("both", side):
            continue
        near = 0.5 * min_elapsed / abs(h) if ta == t0 and sa == 0.0 else 0.0
        crossing = _refine_crossing(step, below, above, plane, slope, land, near)
        if crossing is None:
            continue
        tau, x, g = crossing
        if abs(tau - t0) < min_elapsed:
            continue
        if not abs(g) <= _REFINE_TOL:  # NaN fails this too
            raise CrossingRefinementError(
                f"crossing refinement stalled at |s|={abs(g):.3e} "
                f"(t={tau:.6g})", tau, x)
        import numpy as np
        return tau, np.array(x)
    return None


def _next_crossing(field, system, plane, state, t0, opts, max_time,
                   min_elapsed):
    """March the field's `system` from (t0, state) to the next counted
    plane crossing.

    The generated loop returns only at steps whose signed-distance
    samples bracket a counted crossing; `_step_crossing` refines those,
    and lands a DOP853 run's crossings by its exact step. Only the first three
    components decide a crossing; any others (a tangent matrix) ride
    along and come back in the returned state.
    """
    if not max_time > 0:
        raise ValueError("max_time must be positive")
    slope = field.compiled_slope("rhs")
    run = _Run(field, system, state, t0, t0 + max_time, opts,
               plane=(*plane.normal, plane.offset, _SLACK,
                      plane.direction != "negative", plane.direction != "positive"))
    land = None
    if opts.method == DOP853_ADAPTIVE:
        exact, tol = _compiled_step(field, system, _DOP853), opts.tol

        def land(y, f, hs):
            return exact(y, f, hs, tol)[:2]
    while run.advance():
        crossing = _step_crossing(run.step, plane, slope, t0, min_elapsed, land)
        if crossing is not None:
            return crossing
    tb, yb = run.point[:2]
    raise NonReturningOrbitError(
        f"no counted section crossing within {max_time} time units",
        tb, yb, abs(tb - t0))


def first_return(field: PolyField, plane: SectionPlane, start: SectionPoint,
                 opts: Optional[IntegrationOptions] = None, *,
                 max_time: float = 1000.0) -> tuple[SectionPoint, float]:
    """First return of the flow through `start` to the oriented plane.

    Integrates forward from `start` (which must lie on the plane),
    detects the first signed-distance sign change consistent with the
    plane's direction, ignoring crossings within 1e-6 time of
    departure, and refines it to |signed distance| < 1e-10. Returns the
    refined section point and the elapsed return time.

    Raises NonReturningOrbitError when `max_time` passes without a
    counted crossing and CrossingRefinementError when the refinement
    stalls; integrator errors (blow-up, step underflow) propagate.
    """
    opts = opts or IntegrationOptions()
    _require_3d(field)
    s0 = plane.signed_distance(start.state3)
    if abs(s0) >= _ON_PLANE_TOL:
        raise ValueError(
            f"start point lies {s0:.3e} off the plane (limit {_ON_PLANE_TOL})")
    tau, x = _next_crossing(field, "rhs", plane, start.state3, start.time,
                            opts, max_time, _REFRACTORY)
    return plane.section_point(x, tau), tau - start.time


def first_crossing(field: PolyField, plane: SectionPlane, x0, t0: float = 0.0,
                   opts: Optional[IntegrationOptions] = None, *,
                   max_time: float = 1000.0) -> tuple[SectionPoint, float]:
    """First counted plane crossing from an arbitrary state.

    Unlike first_return, `x0` need not lie on the plane; this seeds a
    section sequence from generic initial data. Returns the crossing
    point and elapsed time.
    """
    opts = opts or IntegrationOptions()
    _require_3d(field)
    field._check_state(x0)
    tau, x = _next_crossing(field, "rhs", plane, x0, t0, opts, max_time,
                            0.0)
    return plane.section_point(x, tau), tau - t0


def return_map_iterates(field: PolyField, plane: SectionPlane,
                        start: SectionPoint, k: int,
                        opts: Optional[IntegrationOptions] = None, *,
                        max_time: float = 1000.0) -> list[SectionPoint]:
    """k successive first returns from `start` (k = 0 gives [], a k that
    is not a nonnegative integer a ValueError).

    Each iterate restarts exactly from the previous refined section
    point. Errors propagate with the index of the failing iterate
    attached as `iterate_index`.
    """
    if not hasattr(k, "__index__") or k < 0:  # what range() takes
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    points: list[SectionPoint] = []
    current = start
    for i in range(k):
        try:
            current, _rt = first_return(field, plane, current, opts,
                                        max_time=max_time)
        except IntegrationError as exc:
            exc.iterate_index = i
            raise
        points.append(current)
    return points
