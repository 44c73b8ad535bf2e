"""Lyapunov spectrum estimation by tangent-flow QR reorthonormalization.

Benettin-style: co-integrate n tangent vectors with the flow, re-
orthonormalize them every fixed interval by modified Gram-Schmidt, and
accumulate the logs of the diagonal stretching factors. The time
averages of those logs are the Lyapunov exponents; a positive leading
exponent is the operational chaos certificate.

Each interval is one run of the field's generated tangent loop. Between
runs the state and the frame stay Python floats, and the renormalization
is plain IEEE double arithmetic, every sum taken left to right: the
spectrum does not depend on a BLAS kernel or on whether the CPU fuses
multiply and add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .integrator import IntegrationOptions, _drive, _Run
from .polyfield import PolyField

__all__ = [
    "LyapunovResult",
    "TangentCollapseError",
    "lyapunov_spectrum",
]

_HISTORY_EVERY = 100  # renormalizations between convergence-history samples
_COLLAPSE = 1e-12  # smallest share of its norm a column may keep in QR


class TangentCollapseError(RuntimeError):
    """Tangent vectors became numerically dependent between two
    renormalizations; the renormalization interval is too large."""


@dataclass(frozen=True)
class LyapunovResult:
    """Estimated spectrum with the run's averaging bookkeeping.

    `exponents` are sorted descending, in units of 1/time.
    `convergence_history` holds (elapsed time, running exponent
    estimates) snapshots taken every 100 renormalizations, so
    stabilization can be checked rather than trusted.
    """

    exponents: tuple[float, ...]
    transient_skipped: float
    total_time: float
    renorm_interval: float
    convergence_history: tuple[tuple[float, tuple[float, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "transient_skipped": self.transient_skipped,
            "total_time": self.total_time,
            "renorm_interval": self.renorm_interval,
            "convergence_history": [
                {"time": t, "exponents": list(ex)}
                for t, ex in self.convergence_history],
        }


def _mgs_qr(columns) -> tuple[list[list[float]], list[float]]:
    """Modified Gram-Schmidt QR of the matrix with the given float
    `columns`; returns the columns of Q and R's positive diagonal.

    Every dot product and norm is a left-to-right sum of rounded
    products in Python floats, so the result is the same on any CPU and
    with any BLAS kernel (a fused multiply-add would round otherwise).
    Refuses a column that projection leaves with less than 1e-12 of its
    norm: its direction, and so its exponent, is then round-off. The
    column's squared norm before projection is R[j,j]² plus `above`,
    the sum of its squared projections R[i,j]², so the test
    R[j,j] < 1e-12 sqrt(above) is, to double precision, R[j,j] < 1e-12
    of that norm.
    """
    q, diag = [], []
    for j, v in enumerate(columns):
        above = 0.0
        for u in q:
            r = 0.0
            for a, b in zip(u, v):
                r += a * b
            above += r * r
            v = [b - r * a for a, b in zip(u, v)]
        square = 0.0
        for b in v:
            square += b * b
        d = math.sqrt(square)
        if not math.isfinite(d) or d <= 0.0 or d < _COLLAPSE * math.sqrt(above):
            raise TangentCollapseError(
                f"tangent vector {j} collapsed during renormalization "
                f"(column norm {d:.3g} of {math.hypot(d, math.sqrt(above)):.3g} "
                f"before projection); shrink renorm_interval")
        q.append([b / d for b in v])
        diag.append(d)
    return q, diag


def lyapunov_spectrum(field: PolyField, x0, transient: float,
                      total_time: float, renorm_interval: float,
                      opts: Optional[IntegrationOptions] = None,
                      ) -> LyapunovResult:
    """Estimate the Lyapunov spectrum along the orbit through x0.

    Flows x0 for `transient` time units first (discarded), then
    accumulates stretching statistics over `total_time` with QR
    renormalization every `renorm_interval`. Integrator errors
    propagate (blow-up for escaping orbits); TangentCollapseError
    signals a renormalization interval too large for the dynamics.
    """
    if not renorm_interval > 0:
        raise ValueError("renorm_interval must be positive")
    if not renorm_interval <= total_time < math.inf:
        raise ValueError("total_time must be finite and cover an interval")
    if not 0 <= transient < math.inf:
        raise ValueError("transient must be finite and nonnegative")
    opts = opts or IntegrationOptions()
    n = field.dimension
    x = field._check_state(x0)
    if transient > 0:
        x, _ = _drive(field, "rhs", x, 0.0, transient, opts)
    x = x.tolist()
    q = [[float(i == j) for i in range(n)] for j in range(n)]
    logs = [0.0] * n
    n_chunks = max(1, math.ceil(total_time / renorm_interval - 1e-9))
    history = []
    elapsed = 0.0
    for i in range(n_chunks):
        dt = min(renorm_interval, total_time - i * renorm_interval)
        # the tangent system's state is x, then the frame row by row
        run = _Run(field, "tangent_rhs", x + [c[k] for k in range(n) for c in q],
                   0.0, dt, opts)
        run.advance()
        w = run.point[1]
        x = list(w[:n])
        q, diag = _mgs_qr([w[n + j::n] for j in range(n)])
        logs = [a + math.log(d) for a, d in zip(logs, diag)]
        elapsed += dt
        if (i + 1) % _HISTORY_EVERY == 0:
            history.append((elapsed, tuple(sorted(
                [a / elapsed for a in logs], reverse=True))))
    exponents = tuple(sorted([a / elapsed for a in logs], reverse=True))
    return LyapunovResult(
        exponents=exponents,
        transient_skipped=float(transient),
        total_time=float(elapsed),
        renorm_interval=float(renorm_interval),
        convergence_history=tuple(history),
    )
