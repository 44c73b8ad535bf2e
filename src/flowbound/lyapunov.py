"""Lyapunov spectrum estimation by tangent-flow QR reorthonormalization.

Benettin-style: co-integrate n tangent vectors with the flow, re-
orthonormalize them every fixed interval by modified Gram-Schmidt, and
accumulate the logs of the diagonal stretching factors. The time
averages of those logs are the Lyapunov exponents; a positive leading
exponent is the operational chaos certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import IntegrationOptions, _drive, integrate_with_tangent
from .polyfield import PolyField

__all__ = [
    "LyapunovResult",
    "TangentCollapseError",
    "lyapunov_spectrum",
]

_HISTORY_EVERY = 100  # renormalizations between convergence-history samples


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


def _mgs_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt QR with positive diagonal of R."""
    n = A.shape[1]
    Q = np.array(A, dtype=float)
    R = np.zeros((n, n))
    for j in range(n):
        for i in range(j):
            R[i, j] = float(np.dot(Q[:, i], Q[:, j]))
            Q[:, j] -= R[i, j] * Q[:, i]
        diag = float(np.linalg.norm(Q[:, j]))
        if not math.isfinite(diag) or diag <= 0.0:
            raise TangentCollapseError(
                f"tangent vector {j} collapsed during renormalization "
                f"(column norm {diag}); shrink renorm_interval")
        R[j, j] = diag
        Q[:, j] /= diag
    return Q, R


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
    x = np.asarray(x0, dtype=float)
    if transient > 0:
        x, _ = _drive(field, "rhs", x, 0.0, transient, opts)
    Q = np.eye(n)
    logs = np.zeros(n)
    n_chunks = max(1, math.ceil(total_time / renorm_interval - 1e-9))
    history = []
    elapsed = 0.0
    for i in range(n_chunks):
        dt = min(renorm_interval, total_time - i * renorm_interval)
        x, V = integrate_with_tangent(field, x, Q, 0.0, dt, opts)
        Q, R = _mgs_qr(V)
        logs += np.log(np.diag(R))
        elapsed += dt
        if (i + 1) % _HISTORY_EVERY == 0:
            history.append((elapsed,
                            tuple(sorted(logs / elapsed, reverse=True))))
    exponents = tuple(sorted(logs / elapsed, reverse=True))
    return LyapunovResult(
        exponents=exponents,
        transient_skipped=float(transient),
        total_time=float(elapsed),
        renorm_interval=float(renorm_interval),
        convergence_history=tuple(history),
    )
