"""Lyapunov spectrum estimation by tangent-flow QR reorthonormalization.

Benettin-style: co-integrate n tangent vectors with the flow, re-
orthonormalize them every fixed interval by modified Gram-Schmidt, and
accumulate the logs of the diagonal stretching factors. The time
averages of those logs are the Lyapunov exponents; a positive leading
exponent is the operational chaos certificate.

Each interval is a run of the field's generated tangent loop, one `_Run`
per interval length. Between runs the state and the frame stay one flat
tuple of floats, and the renormalization is one generated straight-line
function per dimension, built on first use, in plain IEEE double
arithmetic with every sum taken left to right: the spectrum depends on
no BLAS kernel and on no fused multiply-add. A run asking for more
intervals than the step budget is refused before its first step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .integrator import _MAX_STEPS, IntegrationError, IntegrationOptions, MaxStepsError, _Run
from .polyfield import PolyField, _define, _names

__all__ = [
    "LyapunovResult",
    "TangentCollapseError",
    "lyapunov_spectrum",
]

_HISTORY_EVERY = 100  # renormalizations between convergence-history samples
_COLLAPSE = 1e-12  # smallest share of its norm a column may keep in QR


class TangentCollapseError(IntegrationError):
    """Tangent vectors became numerically dependent between two
    renormalizations; the renormalization interval is too large. `t` is
    the time along the orbit, transient included, at the end of the
    interval, and `state` that interval's final state, x then the frame."""


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


@functools.cache
def _renormalizer(n: int) -> Callable:
    """The generated renormalization of an n-dimensional tangent state,
    built on first use: `_renorm(w)` takes an interval's final state w,
    x followed by the frame V row by row, and returns the next
    interval's start, x followed by Q row by row, and R's positive
    diagonal, for V = QR by modified Gram-Schmidt.

    Straight-line code in plain IEEE double arithmetic: every dot
    product and norm is a left-to-right sum from 0.0, the projection
    v - r q and the division v / d, so the result is the same on any
    CPU and with any BLAS kernel (a fused multiply-add would round
    otherwise). A column that projection leaves with less than 1e-12 of
    its norm is refused: its direction, and so its exponent, is then
    round-off. The column's squared norm before projection is R[j,j]²
    plus `above`, the sum of its squared projections R[i,j]², so the
    test R[j,j] < 1e-12 sqrt(above) is, to double precision, R[j,j] <
    1e-12 of that norm. A refused column j returns ((j, R[j,j], its
    norm before projection), None).
    """
    frame = ", ".join(f"v{i}_{j}" for i in range(n) for j in range(n))  # V[i][j]
    lines = [f"{_names('x', n)} {frame}, = w"]
    for j in range(n):
        for i in range(j):  # project column j off column i of Q
            lines.append(f"r{i} = 0.0 + " + " + ".join(
                f"q{k}_{i}*v{k}_{j}" for k in range(n)))
            lines += [f"v{k}_{j} = v{k}_{j} - r{i}*q{k}_{i}" for k in range(n)]
        d = f"d{j}"
        lines += [f"{d} = _sqrt(0.0 + " + " + ".join(
                      f"v{k}_{j}*v{k}_{j}" for k in range(n)) + ")",
                  "above = 0.0" + "".join(f" + r{i}*r{i}" for i in range(j)),
                  f"if not {d} > 0.0 or not _isfinite({d}) "
                  f"or {d} < {_COLLAPSE!r}*_sqrt(above):",
                  f"    return ({j}, {d}, _hypot({d}, _sqrt(above))), None",
                  *(f"q{k}_{j} = v{k}_{j} / {d}" for k in range(n))]
    q = ", ".join(f"q{i}_{j}" for i in range(n) for j in range(n))  # Q[i][j]
    lines.append(f"return ({_names('x', n)} {q},), ({_names('d', n)})")
    return _define("_renorm(w)", lines)


def lyapunov_spectrum(field: PolyField, x0, transient: float,
                      total_time: float, renorm_interval: float,
                      opts: Optional[IntegrationOptions] = None,
                      ) -> LyapunovResult:
    """Estimate the Lyapunov spectrum along the orbit through x0.

    Flows x0 for `transient` time units first (discarded), then accumulates
    stretching statistics over `total_time` with QR renormalization every
    `renorm_interval`, restarting one run for each interval of one length.
    Integrator errors propagate (blow-up for escaping orbits);
    TangentCollapseError signals an interval too large for the dynamics,
    and MaxStepsError, before any integration, more intervals than the step
    budget (each takes at least one step).
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
    count = total_time / renorm_interval
    if count > _MAX_STEPS:  # each interval's run takes at least one step
        raise MaxStepsError(f"{count:.3g} renormalization intervals needed, "
                            f"step budget {_MAX_STEPS}", 0.0, x)
    if transient > 0:
        run = _Run(field, "rhs", x, 0.0, transient, opts)
        run.advance()
        x = run.point[1]
    renorm = _renormalizer(n)
    # the tangent system's state is x, then the frame row by row
    w = list(x) + [float(i == j) for i in range(n) for j in range(n)]
    logs = [0.0] * n
    n_chunks = max(1, math.ceil(count - 1e-9))
    history, run, span = [], None, None
    elapsed = 0.0
    for i in range(n_chunks):
        dt = min(renorm_interval, total_time - i * renorm_interval)
        if dt == span:  # w is finite floats, its state under the cap
            run.restart(w)
        else:
            run, span = _Run(field, "tangent_rhs", w, 0.0, dt, opts), dt
        run.advance()
        w, diag = renorm(run.point[1])
        if diag is None:
            j, d, norm = w
            raise TangentCollapseError(
                f"tangent vector {j} collapsed during renormalization "
                f"(column norm {d:.3g} of {norm:.3g} before projection); "
                f"shrink renorm_interval", transient + elapsed + dt, run.point[1])
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
