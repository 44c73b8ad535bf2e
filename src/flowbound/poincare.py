"""Oriented planar sections and first-return maps for 3D flows.

A section is a plane with a unit normal and a crossing direction
(sign of d/dt of the signed distance at a counted crossing). Crossing
detection runs on the integrator's accepted steps: the signed distance
is linear in the state, so its cubic Hermite interpolant between step
endpoints is exact relative to the dense output, and sign changes are
located on cheap scalar sub-samples, then refined by bisection plus a
Newton polish against the vector field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import (
    IntegrationError,
    IntegrationOptions,
    _hermite,
    _hermite_fraction,
    _step_stream,
)
from .polyfield import PolyField

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
# interior dense-output checkpoints per accepted step, as step fractions
_SUB_S = (0.25, 0.5, 0.75)


class NonReturningOrbitError(RuntimeError):
    """No section crossing occurred within the allowed integration time."""

    def __init__(self, message: str, elapsed: float, state: np.ndarray):
        super().__init__(message)
        self.elapsed = elapsed
        self.state = state


class CrossingRefinementError(IntegrationError):
    """Crossing refinement stalled; `t` and `state` are where it stopped."""


@dataclass(frozen=True, eq=False)
class SectionPlane:
    """Oriented plane: base point, unit normal, counted crossing direction.

    `direction` is "positive", "negative", or "both": the required sign
    of d/dt ⟨x(t) − point, normal⟩ at a counted crossing. The normal is
    normalized at construction.
    """

    point: np.ndarray
    normal: np.ndarray
    direction: str = "both"

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        normal = np.asarray(self.normal, dtype=float)
        if point.shape != (3,) or normal.shape != (3,):
            raise ValueError("plane point and normal must be 3-vectors")
        if not (np.all(np.isfinite(point)) and np.all(np.isfinite(normal))):
            raise ValueError("plane point and normal must be finite")
        length = float(np.linalg.norm(normal))
        if length == 0.0:
            raise ValueError("plane normal must be nonzero")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "normal", normal / length)

    def chart_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic orthonormal in-plane basis (e1, e2).

        e1 is the Gram-Schmidt projection of the coordinate axis least
        aligned with the normal (ties break toward the lowest index);
        e2 = normal × e1 completes a right-handed frame. The chart is a
        pure function of the plane, so coordinates are reproducible.
        """
        k = int(np.argmin(np.abs(self.normal)))
        e1 = -self.normal[k] * self.normal
        e1[k] += 1.0
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(self.normal, e1)
        return e1, e2

    def signed_distance(self, state) -> float:
        """⟨state − point, normal⟩: zero on the plane, sign by side."""
        rel = np.asarray(state, dtype=float) - self.point
        return float(np.dot(rel, self.normal))

    def to_chart(self, state) -> np.ndarray:
        """In-plane chart coordinates (u, v) of a state's projection."""
        e1, e2 = self.chart_basis()
        rel = np.asarray(state, dtype=float) - self.point
        return np.array([np.dot(rel, e1), np.dot(rel, e2)])

    def from_chart(self, coords2) -> np.ndarray:
        """3D state on the plane with the given chart coordinates."""
        u, v = (float(c) for c in coords2)
        e1, e2 = self.chart_basis()
        return self.point + u * e1 + v * e2

    def section_point(self, state, time: float) -> "SectionPoint":
        """Build a SectionPoint, enforcing the on-plane invariant."""
        state = np.asarray(state, dtype=float)
        s = self.signed_distance(state)
        if abs(s) >= _ON_PLANE_TOL:
            raise ValueError(
                f"state lies {s:.3e} off the plane (limit {_ON_PLANE_TOL})")
        return SectionPoint(self.to_chart(state), state.copy(), float(time))


@dataclass(frozen=True, eq=False)
class SectionPoint:
    """A plane crossing: chart coordinates, full state, crossing time."""

    coords2: np.ndarray
    state3: np.ndarray
    time: float

    def __post_init__(self):
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


def _refine_crossing(step, sa, sb, rising, slope, normal, offset):
    """Refine a bracketed sign change of the signed distance.

    Bisection on the scalar Hermite interpolant of the signed distance
    down to a bracket width of 1e-12 in time, then up to five Newton
    steps using the true slope s'(t) = ⟨slope(x), normal⟩ of the 3-D
    field until |s| < 1e-10, stopping before an iterate that leaves
    [ta, tb]. Returns (crossing time, interpolated state, residual).
    """
    ta, ya, fa, tb, yb, fb, ga, gb, dga, dgb = step
    ya, fa, yb, fb = (np.asarray(v, dtype=float) for v in (ya, fa, yb, fb))
    h = tb - ta
    while (sb - sa) * abs(h) > _BRACKET_WIDTH:
        sm = 0.5 * (sa + sb)
        gm = _hermite_fraction(sm, ga, gb, dga, dgb, h)
        if gm == 0.0:
            sa = sb = sm
            break
        if (gm < 0.0) == rising:
            sa = sm
        else:
            sb = sm
    tau = ta + 0.5 * (sa + sb) * h
    x = _hermite(ta, ya, fa, tb, yb, fb, tau)
    g = float(np.dot(x[:3], normal)) - offset
    for _ in range(5):
        if abs(g) <= _REFINE_TOL:
            break
        ds = float(np.dot(slope(x[:3].tolist()), normal))
        if ds == 0.0:
            break
        tau_next = tau - g / ds
        if not min(ta, tb) <= tau_next <= max(ta, tb):
            break
        tau = tau_next
        x = _hermite(ta, ya, fa, tb, yb, fb, tau)
        g = float(np.dot(x[:3], normal)) - offset
    return tau, x, g


def _next_crossing(field, system, plane, state, t0, opts, max_time,
                   min_elapsed):
    """March the field's `system` from (t0, state) to the next counted
    plane crossing.

    Only the first three components decide a crossing; any others (a
    tangent matrix) ride along and come back in the returned state.
    """
    if not max_time > 0:
        raise ValueError("max_time must be positive")
    slope = field.compiled_slope("rhs")
    n0, n1, n2 = plane.normal.tolist()
    offset = float(np.dot(plane.point, plane.normal))
    count_up = plane.direction in ("positive", "both")
    count_down = plane.direction in ("negative", "both")
    t1 = t0 + max_time
    state = tuple([float(a) for a in state])
    t_last, y_last = t0, state
    for ta, ya, fa, tb, yb, fb in _step_stream(field, system, state, t0, t1, opts):
        t_last, y_last = tb, yb
        ga = ya[0] * n0 + ya[1] * n1 + ya[2] * n2 - offset
        gb = yb[0] * n0 + yb[1] * n1 + yb[2] * n2 - offset
        dga = fa[0] * n0 + fa[1] * n1 + fa[2] * n2
        dgb = fb[0] * n0 + fb[1] * n1 + fb[2] * n2
        h = tb - ta
        # at the fractions _SUB_S, h00 + h01 = 1 and |h10|, |h11| <= 0.140625,
        # so no sample of a step passing this test leaves the side of ga and gb
        if ga * gb > 0.0 and (min(abs(ga), abs(gb))
                              > 0.15 * abs(h) * (abs(dga) + abs(dgb)) + 1e-300):
            continue
        samples = [(0.0, ga)]
        samples += [(s, _hermite_fraction(s, ga, gb, dga, dgb, h))
                    for s in _SUB_S]
        samples.append((1.0, gb))
        step = (ta, ya, fa, tb, yb, fb, ga, gb, dga, dgb)
        for (sa, gi), (sb, gj) in zip(samples, samples[1:]):
            if gi < 0.0 <= gj:
                rising = True
            elif gi > 0.0 >= gj:
                rising = False
            else:
                continue
            if not (count_up if rising else count_down):
                continue
            tau, x, g = _refine_crossing(step, sa, sb, rising, slope,
                                         plane.normal, offset)
            if abs(tau - t0) < min_elapsed:
                continue
            if not abs(g) <= _REFINE_TOL:  # NaN fails this too
                raise CrossingRefinementError(
                    f"crossing refinement stalled at |s|={abs(g):.3e} "
                    f"(t={tau:.6g})", tau, x)
            return tau, x
    raise NonReturningOrbitError(
        f"no counted section crossing within {max_time} time units",
        abs(t_last - t0), np.asarray(y_last, dtype=float))


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
    tau, x = _next_crossing(field, "rhs", plane, x0, t0, opts, max_time,
                            0.0)
    return plane.section_point(x, tau), tau - t0


def return_map_iterates(field: PolyField, plane: SectionPlane,
                        start: SectionPoint, k: int,
                        opts: Optional[IntegrationOptions] = None, *,
                        max_time: float = 1000.0) -> list[SectionPoint]:
    """k successive first returns from `start` (k = 0 gives []).

    Each iterate restarts exactly from the previous refined section
    point. Errors propagate with the index of the failing iterate
    attached as `iterate_index`.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    points: list[SectionPoint] = []
    current = start
    for i in range(k):
        try:
            current, _rt = first_return(field, plane, current, opts,
                                        max_time=max_time)
        except RuntimeError as exc:
            exc.iterate_index = i
            raise
        points.append(current)
    return points
