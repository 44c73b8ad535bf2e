"""Trajectory bound laws for fields with a lower-bounded component.

If component j of the field satisfies f_j(x) >= alpha everywhere, then
along any orbit

    x_j(t) >= alpha*(t - t0) + x_j(t0)   for t >= t0   (forward bound)
    x_j(t) <= alpha*(t - t0) + x_j(t0)   for t <  t0   (backward bound)

The backward inequality is the sign-corrected one; applying the forward
inequality for t < t0 is wrong, and `naive_backward_violated` witnesses
that concretely. Since alpha*(t - t0) + x_j(t0) is bounded on bounded
time intervals, neither inequality forces divergence backward in time:
equilibria and closed orbits satisfying the hypothesis are exhibited by
`refute_nonexistence`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .integrator import (
    BlowUpError,
    IntegrationOptions,
    StepSizeError,
    Trajectory,
    _hermite_fraction,
    integrate,
)
from .polyfield import PolyField, certify_lower_bound

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundCertificate",
    "BoundReport",
    "RefutationReport",
    "bound_line",
    "certified_components",
    "verify_bounds",
    "combine_reports",
    "refute_nonexistence",
    "find_equilibrium",
    "VERDICT_FALSIFIED",
    "VERDICT_NO_COUNTEREXAMPLE",
    "VERDICT_PROVED_UNBOUNDED",
]

VERDICT_FALSIFIED = "bounded backward orbit found — original Theorem 1 claim falsified"
VERDICT_NO_COUNTEREXAMPLE = "orbit escaped backward — no counterexample from this seed"
VERDICT_PROVED_UNBOUNDED = ("every backward orbit is unbounded — a certified "
                            "component has alpha > 0, so no counterexample exists")

CERTIFIED = "certified"
USER_ASSERTED = "user-asserted"

_EQUILIBRIUM_TOL = 1e-12  # max |f_j| at an accepted equilibrium
_EQUILIBRIUM_MAX_ITER = 25


@dataclass(frozen=True)
class BoundCertificate:
    """Claim that component j (1-based) of a field is bounded below by alpha."""

    component_index: int
    alpha: float
    source: str = USER_ASSERTED

    def __post_init__(self):
        if self.component_index < 1:
            raise ValueError("component_index is 1-based and must be >= 1")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.source not in (CERTIFIED, USER_ASSERTED):
            raise ValueError(f"unknown source {self.source!r}")

    @classmethod
    def certified(cls, field: PolyField, component_index: int) -> "BoundCertificate":
        """Build a certificate via the syntactic certifier; None alpha fails."""
        j = component_index
        if not 1 <= j <= field.dimension:
            raise ValueError(f"component index {j} out of range 1..{field.dimension}")
        alpha = certify_lower_bound(field.components[j - 1])
        if alpha is None:
            raise ValueError(
                f"component {j} could not be certified as bounded below")
        return cls(j, alpha, CERTIFIED)


def certified_components(field: PolyField) -> list[BoundCertificate]:
    """All components the syntactic certifier can bound below."""
    out = []
    for j in range(1, field.dimension + 1):
        alpha = certify_lower_bound(field.components[j - 1])
        if alpha is not None:
            out.append(BoundCertificate(j, alpha, CERTIFIED))
    return out


@dataclass
class BoundReport:
    """Sampled verification of the forward and backward bound lines.

    Margins are minima of the signed slack on each side (math.inf when a
    side has no samples); `naive_backward_violated` is True when some
    backward sample falls below the line, which the corrected backward
    bound permits but the forward bound applied backward forbids.
    """

    forward_holds: bool
    forward_margin: float
    backward_holds: bool
    backward_margin: float
    naive_backward_violated: bool
    samples_checked: int
    tolerance: float

    def to_json_dict(self) -> dict:
        def _num(v):
            return None if not math.isfinite(v) else v

        return {
            "forward_holds": self.forward_holds,
            "backward_holds": self.backward_holds,
            "naive_backward_violated": self.naive_backward_violated,
            "margins": {
                "forward": _num(self.forward_margin),
                "backward": _num(self.backward_margin),
            },
            "samples_checked": self.samples_checked,
            "tolerance": self.tolerance,
        }


def bound_line(alpha: float, t0: float, xj0: float, t: float) -> float:
    """The bound line alpha*(t - t0) + xj0, one multiply and one add."""
    return alpha * (t - t0) + xj0


def check_bound_tol(tol: float) -> None:
    """Refuse a bound tolerance that is not positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def _component_slopes(traj: Trajectory, j: int) -> np.ndarray:
    """Component j (0-based) of `compiled_slope("rhs")` run on the state
    columns of `traj`: inf or nan, without a warning, where one overflows."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        fj = traj.field.compiled_slope("rhs")(list(traj.states.T))[j]
    return np.broadcast_to(fj, traj.times.shape)  # a constant component is a float


def verify_bounds(traj: Trajectory, cert: BoundCertificate,
                  tol: float = 1e-6) -> BoundReport:
    """Check the forward and backward bound lines on trajectory samples
    plus every step's Hermite midpoint, on slopes taken from the field.

    The effective tolerance is `tol` plus 10x the integrator tolerance
    the trajectory was produced with, separating mathematical violations
    from numerical noise.
    """
    import numpy as np
    check_bound_tol(tol)
    if len(traj) < 1:
        raise ValueError("empty trajectory")
    j = cert.component_index - 1
    if not 0 <= j < traj.dimension:
        raise ValueError(
            f"component index {cert.component_index} out of range "
            f"1..{traj.dimension}")

    ts, xs, fs = traj.times, traj.states[:, j], _component_slopes(traj, j)
    # samples plus the Hermite midpoint of every step (none for one sample)
    all_t = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])])
    all_x = np.concatenate([xs, _hermite_fraction(
        0.5, xs[:-1], xs[1:], fs[:-1], fs[1:], ts[1:] - ts[:-1])])

    xj0 = xs[0]
    line = bound_line(cert.alpha, traj.t0, xj0, all_t)
    slack = all_x - line
    forward = all_t >= traj.t0
    backward = ~forward

    tol_eff = tol + 10.0 * traj.tol
    forward_margin = float(slack[forward].min()) if forward.any() else math.inf
    backward_margin = float((-slack[backward]).min()) if backward.any() else math.inf
    return BoundReport(
        forward_holds=forward_margin >= -tol_eff,
        forward_margin=forward_margin,
        backward_holds=backward_margin >= -tol_eff,
        backward_margin=backward_margin,
        naive_backward_violated=bool((slack[backward] < -tol_eff).any()),
        samples_checked=int(all_t.size),
        tolerance=tol_eff,
    )


def combine_reports(*reports: BoundReport) -> BoundReport:
    """Merge reports from runs of the same certificate (e.g. a forward and
    a backward leg sharing t0)."""
    if not reports:
        raise ValueError("need at least one report")
    return BoundReport(
        forward_holds=all(r.forward_holds for r in reports),
        forward_margin=min(r.forward_margin for r in reports),
        backward_holds=all(r.backward_holds for r in reports),
        backward_margin=min(r.backward_margin for r in reports),
        naive_backward_violated=any(r.naive_backward_violated for r in reports),
        samples_checked=sum(r.samples_checked for r in reports),
        tolerance=max(r.tolerance for r in reports),
    )


def find_equilibrium(field: PolyField, x0: Sequence[float],
                     ) -> Optional[tuple[np.ndarray, float]]:
    """Least-squares Gauss–Newton on f(x) = 0 from x0, on Python floats
    with one LAPACK `lstsq` per step: (x_star, max |f_j(x_star)|) of the
    compiled floating-point field, or None when 25 steps fail to reach
    1e-12. Minimum-norm steps let fields whose equilibria form a manifold
    (singular Jacobian everywhere) still converge onto the nearest point
    of it when the geometry allows.
    """
    import numpy as np
    rhs, jac = field.compiled_slope("rhs"), field.compiled_slope("jacobian")
    x = list(field._check_state(x0))
    for steps in range(_EQUILIBRIUM_MAX_ITER + 1):
        fx = rhs(x)
        if not all(map(math.isfinite, fx)):
            return None  # Python's max can drop a nan that np.max keeps
        residual = max(map(abs, fx))
        if residual < _EQUILIBRIUM_TOL:
            return np.array(x), residual
        if steps == _EQUILIBRIUM_MAX_ITER:
            return None
        J = jac(x)
        if not all(map(math.isfinite, J)):
            return None  # LAPACK can spin on non-finite input
        dx = np.linalg.lstsq(np.array(J).reshape(len(fx), -1), [-v for v in fx],
                             rcond=None)[0].tolist()
        if not all(map(math.isfinite, dx)) or not any(dx):
            return None
        x = [a + b for a, b in zip(x, dx)]


@dataclass
class RefutationReport:
    """Outcome of the backward-orbit existence demo.

    Evidence-based: "bounded" means the computed orbit stayed below the
    norm cap over the requested horizon, not a proof about t -> -inf.
    `bound_report` checks the equilibrium, the backward run or its escape.
    `proof` names the argument behind a verdict that needs no run:
    "bound-line" when the certificate's alpha > 0 (see
    `refute_nonexistence`), else None.
    """

    verdict: str
    bounded: bool
    equilibrium: bool
    witnessed_bound: float
    horizon: float
    bound_report: BoundReport
    equilibrium_state: Optional[np.ndarray] = None
    equilibrium_residual: Optional[float] = None
    proof: Optional[str] = None

    def to_json_dict(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "bounded": self.bounded,
            "equilibrium": self.equilibrium,
            "witnessed_bound": self.witnessed_bound,
            "horizon": self.horizon,
            "bound_report": self.bound_report.to_json_dict(),
        }
        if self.equilibrium:
            doc["equilibrium_state"] = [float(v) for v in self.equilibrium_state]
            doc["equilibrium_residual"] = self.equilibrium_residual
        if self.proof is not None:
            doc["proof"] = self.proof
        return doc


def refute_nonexistence(field: PolyField, cert: BoundCertificate,
                        x0: Sequence[float], horizon: float,
                        opts: Optional[IntegrationOptions] = None,
                        ) -> RefutationReport:
    """Search for a backward-bounded orbit under the certificate's
    hypothesis, the direct counterexample to claimed backward divergence.

    Tries equilibrium detection first (Newton on f(x) = 0 from the seed,
    accepted when the compiled floating-point field's residual is below
    1e-12); otherwise integrates backward over the horizon. A finite-time
    escape (blow-up or step-size underflow) is a valid non-counterexample
    outcome, reported with the escape verdict.

    A certified (not user-asserted) component with alpha > 0 settles the
    question with no run: the backward bound line x_j(t) <= alpha*t +
    x_j(0) for t < 0 sends x_j to -inf, so every backward orbit is
    unbounded and no equilibrium or closed orbit exists. The report then
    says so (`proof` "bound-line", horizon 0: nothing was integrated),
    its bound report checks the one sample (0, x0) and its witnessed
    bound is |x0|.
    """
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    opts = opts or IntegrationOptions()
    if cert.alpha > 0 and cert.source == CERTIFIED:
        y0 = field._check_state(x0)
        traj = Trajectory(array("d", (0.0, *y0)), opts.tolerance, field)
        return RefutationReport(
            verdict=VERDICT_PROVED_UNBOUNDED, bounded=False, equilibrium=False,
            witnessed_bound=math.hypot(*y0), horizon=0.0,
            bound_report=verify_bounds(traj, cert), proof="bound-line")

    x_star, residual = find_equilibrium(field, x0) or (None, None)
    bounded, reached = True, horizon
    if x_star is not None:
        import numpy as np
        rows = [v for t in np.linspace(0.0, -horizon, 11).tolist() for v in (t, *x_star)]
        traj = Trajectory(array("d", rows), opts.tolerance, field)
        witnessed = math.hypot(*x_star)
    else:
        try:
            traj = integrate(field, x0, 0.0, -horizon, opts)
            witnessed = max(map(math.hypot, *traj.states.T.tolist()))
        except (BlowUpError, StepSizeError) as exc:
            # integrate records the start before anything can fail
            traj, bounded, reached = exc.trajectory, False, float(abs(exc.t))
            witnessed = math.hypot(*exc.state)  # 1e200, not inf, at (1e200, 0, 0)

    return RefutationReport(
        verdict=VERDICT_FALSIFIED if bounded else VERDICT_NO_COUNTEREXAMPLE,
        bounded=bounded,
        equilibrium=x_star is not None,
        witnessed_bound=witnessed,
        horizon=reached,
        bound_report=verify_bounds(traj, cert),
        equilibrium_state=x_star,
        equilibrium_residual=residual,
    )
