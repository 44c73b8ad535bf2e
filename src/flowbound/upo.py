"""Periodic-orbit detection and Floquet classification for 3D flows.

Pipeline: scan return-map iterates for close recurrences, refine each
recurrence seed by Newton shooting on the k-th return map in chart
coordinates, then classify the refined orbit by the eigenvalues of its
monodromy matrix (the tangent flow over one period). Each Newton
iterate integrates its k legs once with the tangent matrix alongside;
the legs' matrices multiply to the monodromy, which is also the
shooting Jacobian (the variational Jacobian of ChaosBook, "Fixed points,
and how to get them"). The contracting multiplier, which M's own
eigenvalues lose to round-off on long orbits, comes from Liouville's
formula det M = exp(∫ div f dt), with the integral carried as one extra
component of the orbit's integration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import (
    IntegrationError,
    IntegrationOptions,
    _drive,
    integrate_with_tangent,
)
from .poincare import (
    _REFRACTORY,
    NonReturningOrbitError,
    SectionPlane,
    SectionPoint,
    _next_crossing,
    _require_3d,
    first_return,  # not called here; bench/tracing.py wraps upo.first_return
    return_map_iterates,
)
from .polyfield import PolyField

__all__ = [
    "RecurrenceSeed",
    "PeriodicOrbit",
    "NewtonConvergenceError",
    "scan_close_recurrences",
    "newton_shoot",
    "monodromy",
    "flow_determinant",
    "census",
]

_LOG = logging.getLogger(__name__)

STABLE = "stable"
UNSTABLE = "unstable"
NEUTRAL_DEGENERATE = "neutral-degenerate"

_RESIDUAL_LIMIT = 1e-8
_DEDUP_TOL = 1e-5
_INSTABILITY_MARGIN = 1e-6
_UNIT_MULTIPLIER_TOL = 1e-3  # an orbit's flow-direction multiplier
_MAX_ITER = 8
_CONVERGE_TOL = 1e-10
_TRUST_RADIUS = 0.5
_MAX_HALVINGS = 8
_SINGULAR_TOL = 1e-12
_MAX_RETURN_TIME = 50.0
# tighter than the general default: Newton accepts at |G| < 1e-10,
# so return-map noise must sit well below that
SHOOT_INTEGRATION = IntegrationOptions(tol=1e-12)


class NewtonConvergenceError(RuntimeError):
    """Newton shooting failed: no convergence, singular Jacobian away
    from an orbit, or the iteration left the seed's basin."""


@dataclass(frozen=True, eq=False)
class RecurrenceSeed:
    """A near-recurrence of the return map: candidate periodic point.

    `point` is the section point at iterate i, `k` the recurrence lag,
    `distance` the chart distance |point(i+k) − point(i)|, and
    `period_estimate` the summed return time of the k legs, useful as a
    cross-check against the refined period.
    """

    point: SectionPoint
    k: int
    distance: float
    period_estimate: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise ValueError("distance must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class PeriodicOrbit:
    """A refined periodic orbit anchored to a section fixed point.

    `k` is the number of section returns per period, `cycle_points` the
    k-cycle on the section starting at the fixed point, `residual` the
    chart norm |R^k(p) − p| at acceptance. Multipliers are sorted by
    modulus, descending; one of them is always ≈ 1 (the flow direction).
    """

    section_fixed_point: SectionPoint
    k: int
    period: float
    floquet_multipliers: tuple[complex, ...]
    stability: str
    residual: float
    cycle_points: tuple[SectionPoint, ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not self.period > 0:
            raise ValueError("period must be positive")
        if self.residual >= _RESIDUAL_LIMIT:
            raise ValueError(
                f"residual {self.residual:.3e} exceeds {_RESIDUAL_LIMIT}")
        if self.stability not in (STABLE, UNSTABLE, NEUTRAL_DEGENERATE):
            raise ValueError(f"unknown stability {self.stability!r}")


def scan_close_recurrences(field: PolyField, plane: SectionPlane,
                           start: SectionPoint, n_iterates: int, k_max: int,
                           threshold: float,
                           opts: Optional[IntegrationOptions] = None, *,
                           max_time: float = 1000.0) -> list[RecurrenceSeed]:
    """Find near-recurrences |point(i+k) − point(i)| < threshold.

    Iterates the return map n_iterates times from `start` and emits one
    seed per (rounded chart cell, k), keeping the smallest distance per
    cell so each neighborhood is represented once. Seeds come back
    sorted by (k, distance). A zero threshold yields no seeds.
    """
    if not (n_iterates >= k_max >= 1):
        raise ValueError("need n_iterates >= k_max >= 1")
    if not 0 <= threshold < math.inf:
        raise ValueError("threshold must be finite and nonnegative")
    points = [start]
    points += return_map_iterates(field, plane, start, n_iterates, opts,
                                  max_time=max_time)
    coords = np.array([p.coords2 for p in points])
    best: dict[tuple[int, int, int], tuple[float, int]] = {}
    for k in range(1, k_max + 1):
        gaps = coords[k:] - coords[:-k]
        dists = np.hypot(gaps[:, 0], gaps[:, 1])
        for i in np.flatnonzero(dists < threshold):
            cell = (k, round(coords[i, 0] / threshold),
                    round(coords[i, 1] / threshold))
            d = float(dists[i])
            if cell not in best or d < best[cell][0]:
                best[cell] = (d, int(i))
    seeds = [
        RecurrenceSeed(points[i], k, d,
                       points[i + k].time - points[i].time)
        for (k, _cu, _cv), (d, i) in best.items()]
    seeds.sort(key=lambda s: (s.k, s.distance))
    return seeds


def _classify(multipliers) -> str:
    """Stability from multipliers, ignoring the flow-direction unit one.

    Unstable when any modulus exceeds 1 + 1e-6. Otherwise drop the
    multiplier closest to 1 (the flow direction) and call the orbit
    stable when everything left has modulus below 1 − 1e-6; any further
    near-unit multiplier marks a neutral or degenerate family.
    """
    mods = [abs(m) for m in multipliers]
    if max(mods) > 1.0 + _INSTABILITY_MARGIN:
        return UNSTABLE
    rest = list(mods)
    del rest[int(np.argmin([abs(m - 1.0) for m in multipliers]))]
    if all(m < 1.0 - _INSTABILITY_MARGIN for m in rest):
        return STABLE
    return NEUTRAL_DEGENERATE


def _sorted_multipliers(eigvals) -> tuple[complex, ...]:
    order = sorted(range(len(eigvals)),
                   key=lambda i: (-abs(eigvals[i]), eigvals[i].real,
                                  eigvals[i].imag))
    return tuple(complex(eigvals[i]) for i in order)


def _floquet_multipliers(field: PolyField, M: np.ndarray, x,
                         T: float) -> tuple[complex, ...]:
    """Eigenvalues of the monodromy M, sorted by modulus descending.

    When all three are real, the contracting one can sit below M's
    round-off, so it is det M / (λ1 λ2) instead, with det M =
    exp(∫ div f dt) from `flow_determinant` (Liouville's formula).
    """
    eigvals = np.linalg.eigvals(M)
    if np.all(eigvals.imag == 0):
        lam = sorted(eigvals.real, key=abs, reverse=True)
        lam[2] = flow_determinant(field, x, T) / (lam[0] * lam[1])
        eigvals = np.array(lam)
    return _sorted_multipliers(eigvals)


def monodromy(field: PolyField, orbit_start,
              T: float) -> tuple[np.ndarray, np.ndarray]:
    """Tangent flow over one period and its eigenvalues.

    Integrates dV/dt = J(x(t))·V with V(0) = I along the orbit through
    `orbit_start` for time T at `SHOOT_INTEGRATION` and returns (matrix,
    eigenvalues); the eigenvalues are the Floquet multipliers, one of
    which is ≈ 1 along the flow direction for any true periodic orbit.
    """
    if not T > 0:
        raise ValueError("period must be positive")
    _x1, M = integrate_with_tangent(field, orbit_start,
                                    np.eye(field.dimension), 0.0, float(T),
                                    SHOOT_INTEGRATION)
    return M, np.linalg.eigvals(M)


def flow_determinant(field: PolyField, x0, T: float) -> float:
    """Determinant of the tangent flow over [0, T] by Liouville's formula.

    det M = exp(s(T)), where s integrates ds/dt = div f(x(t)) from 0
    with the state in one pass at `SHOOT_INTEGRATION`. No tangent matrix
    is formed, so the result stays accurate when M's singular values
    span more orders of magnitude than double precision resolves.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    w0 = np.append(np.asarray(x0, dtype=float), 0.0)
    w, _ = _drive(field, "liouville_rhs", w0, 0.0, float(T),
                  SHOOT_INTEGRATION)
    return float(np.exp(w[-1]))


def _prime_shift(cycle_coords: np.ndarray, k: int) -> Optional[int]:
    """Smallest divisor d < k with the k-cycle invariant under shift d."""
    for d in range(1, k):
        if k % d:
            continue
        if np.max(np.abs(np.roll(cycle_coords, -d, axis=0)
                         - cycle_coords)) < _DEDUP_TOL:
            return d
    return None


def newton_shoot(field: PolyField, plane: SectionPlane,
                 seed: RecurrenceSeed) -> PeriodicOrbit:
    """Refine a recurrence seed into a periodic orbit by Newton shooting.

    Solves G(p) = R^k(p) − p = 0 in the 2D chart, with a trust radius on
    steps and halving on non-decreasing residual. Each evaluation of G
    integrates the k legs once with the tangent matrix alongside, so it
    also yields the monodromy M = M_k···M_1 over the legs. The Jacobian
    is variational: that M, projected onto the chart with the
    return-time correction (see `_chart_jacobian`). A singular Jacobian
    at an already-tiny residual marks a non-isolated family and is
    accepted as neutral-degenerate; anything else that blocks progress,
    or no convergence within 8 Newton steps, raises
    NewtonConvergenceError. Converged orbits are reduced to their prime
    period (a k-cycle that is d-shift invariant re-shoots at k = d) and
    classified by their Floquet multipliers: the eigenvalues of the
    converged point's M, except that when all three are real the
    smallest is det / (λ1 λ2), with det the `flow_determinant` over the
    period (Liouville), since M's own smallest eigenvalue is round-off
    once it falls below about 1e-16 of the largest. A rest point, with
    no multiplier within 1e-3 of 1, raises NewtonConvergenceError.
    """
    return _shoot_chart(field, plane, np.asarray(seed.point.coords2, float),
                        seed.k)


def _chart_jacobian(field: PolyField, plane: SectionPlane, M: np.ndarray,
                    end) -> np.ndarray:
    """Chart Jacobian of G = R^k − id from the k-leg monodromy M.

    A displacement M·δx at the end state x_T leaves the plane; sliding
    it along f(x_T) back onto the plane (the change in return time)
    projects it by I − f nᵀ/⟨n, f⟩. With E = [e1 e2] the chart basis,
    J = Eᵀ (I − f nᵀ/⟨n, f⟩) M E − I.
    """
    E = np.column_stack(plane.chart_basis())
    f = field.evaluate(end)
    n = plane.normal
    P = np.eye(3) - np.outer(f, n) / float(np.dot(n, f))
    return E.T @ P @ M @ E - np.eye(2)


def _shoot_chart(field, plane, u0, k) -> PeriodicOrbit:
    def evaluate(u):
        # one tangent-augmented pass per leg; by the chain rule the
        # product of the legs' matrices is the full-period monodromy
        state, t, M, cycle = plane.from_chart(u), 0.0, np.eye(3), []
        for _ in range(k):
            w0 = np.concatenate([state, np.eye(3).ravel()])
            t, w = _next_crossing(field, "tangent_rhs", plane, w0, t,
                                  SHOOT_INTEGRATION, _MAX_RETURN_TIME,
                                  _REFRACTORY)
            state, M = w[:3], w[3:].reshape(3, 3) @ M
            cycle.append(plane.section_point(state, t))
        return cycle[-1].coords2 - u, cycle, M

    u = np.asarray(u0, dtype=float)
    degenerate = False
    try:
        _require_3d(field)
        G, cycle, M = evaluate(u)
        for _ in range(_MAX_ITER):
            residual = float(np.linalg.norm(G))
            if residual < _CONVERGE_TOL:
                break
            J = _chart_jacobian(field, plane, M, cycle[-1].state3)
            if abs(float(np.linalg.det(J))) < _SINGULAR_TOL:
                if residual < _RESIDUAL_LIMIT:
                    degenerate = True
                    break
                raise NewtonConvergenceError(
                    f"singular shooting Jacobian at residual "
                    f"{residual:.3e} (k={k})")
            du = np.linalg.solve(J, -G)
            step_norm = float(np.linalg.norm(du))
            if step_norm > _TRUST_RADIUS:
                du *= _TRUST_RADIUS / step_norm
            for _halving in range(_MAX_HALVINGS + 1):
                G_new, cycle_new, M_new = evaluate(u + du)
                if float(np.linalg.norm(G_new)) < residual:
                    u, G, cycle, M = u + du, G_new, cycle_new, M_new
                    break
                du *= 0.5
            else:
                raise NewtonConvergenceError(
                    f"Newton stalled at residual {residual:.3e} after step "
                    f"halving (k={k}): iteration left the seed's basin")
        else:
            raise NewtonConvergenceError(
                f"no convergence within {_MAX_ITER} Newton steps (k={k}), "
                f"residual {float(np.linalg.norm(G)):.3e}")
        coords = np.vstack([u] + [p.coords2 for p in cycle[:-1]])
        d = _prime_shift(coords, k)
        if d is not None:
            return _shoot_chart(field, plane, u, d)
        fixed_point = plane.section_point(plane.from_chart(u), 0.0)
        multipliers = _floquet_multipliers(field, M, fixed_point.state3,
                                           cycle[-1].time)
    except (IntegrationError, NonReturningOrbitError, ValueError,
            np.linalg.LinAlgError) as exc:
        raise NewtonConvergenceError(
            f"return map failed during shooting (k={k}): {exc}") from exc

    if min(abs(m - 1.0) for m in multipliers) > _UNIT_MULTIPLIER_TOL:
        raise NewtonConvergenceError(
            f"no Floquet multiplier near 1 (k={k}): a rest point, not an orbit")
    stability = NEUTRAL_DEGENERATE if degenerate else _classify(multipliers)
    return PeriodicOrbit(
        section_fixed_point=fixed_point,
        k=k,
        period=cycle[-1].time,
        floquet_multipliers=multipliers,
        stability=stability,
        residual=residual,
        cycle_points=(fixed_point, *cycle[:-1]),
    )


def _same_orbit(a: PeriodicOrbit, b: PeriodicOrbit) -> bool:
    if a.k != b.k:
        return False
    ua = a.section_fixed_point.coords2
    return any(float(np.linalg.norm(ua - p.coords2)) < _DEDUP_TOL
               for p in b.cycle_points)


def census(field: PolyField, plane: SectionPlane, start: SectionPoint,
           n_iterates: int, k_max: int, threshold: float = 0.1,
           scan_opts: Optional[IntegrationOptions] = None, *,
           max_time: float = 1000.0) -> list[PeriodicOrbit]:
    """Scan, shoot every seed, deduplicate, and sort orbits by period.

    Two orbits are the same when they share k and their section fixed
    points coincide within 1e-5 up to a cyclic shift of the k-cycle.
    Per-seed failures are logged and skipped, never fatal. Seeds are
    processed in sorted order so identical inputs give identical output.
    An n_iterates of 0 returns an empty census.
    """
    if n_iterates == 0:
        return []
    seeds = scan_close_recurrences(field, plane, start, n_iterates, k_max,
                                   threshold, scan_opts, max_time=max_time)
    orbits: list[PeriodicOrbit] = []
    for seed in seeds:
        try:
            orbit = newton_shoot(field, plane, seed)
        except NewtonConvergenceError as exc:
            _LOG.info("seed k=%d distance=%.3g did not refine: %s",
                      seed.k, seed.distance, exc)
            continue
        if not any(_same_orbit(orbit, kept) for kept in orbits):
            orbits.append(orbit)
    orbits.sort(key=lambda o: (o.period, o.k,
                               float(o.section_fixed_point.coords2[0]),
                               float(o.section_fixed_point.coords2[1])))
    return orbits
