"""Bidirectional numerical integration of polynomial vector fields.

Three tableaus: classical fixed-step RK4, adaptive Dormand-Prince 5(4)
(the default), and adaptive DOP853 (Dormand-Prince 8(5,3), Hairer,
Nørsett & Wanner, Solving ODEs I, §II.10), which the tolerance-1e-12
runs of `upo` use: at that tolerance it takes about a quarter of
DP5(4)'s slope evaluations. Each run is one call of a stepping loop
generated here for the field's system and the stepper's tableau, around
the same straight-line step text as `_compiled_step`: step-size control,
the non-finite retry, the step budget, the blow-up cap, the exact landing
on t1, recording and a section's bracket test all run there, on local
floats. Python keeps the run start (`_Run`: the
start converted to floats and checked, the first slope from
`PolyField.compiled_slope` and the initial step) and turns the loop's
exit codes into errors. Backward runs step with negative time
increments. The step's arithmetic (powers as products, no `**`) cannot
raise: an overflowing stage leaves inf or nan in the new state, which
the loop's non-finite test catches. A state-norm cap (`math.hypot`, finite
for a finite state) turns finite-time escape into an error carrying the
partial trajectory.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .polyfield import PolyField, _define, _names, _scaled, _signed_sum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegrationOptions",
    "Trajectory",
    "IntegrationError",
    "BlowUpError",
    "MaxStepsError",
    "StepSizeError",
    "integrate",
    "integrate_with_tangent",
]

RK4_FIXED = "rk4-fixed"
RK45_ADAPTIVE = "rk45-adaptive"
DOP853_ADAPTIVE = "dop853-adaptive"


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta tableau of the generated step.

    The method `name`, its generated code's key; stage rows `A`; the new
    state z = y + (hs/d) Σ b_j k_j, whose slope g is the next first stage
    (FSAL); error weights `e` (None: no estimate, fixed steps); `e3`, for
    DOP853's combined error norm, the weights of its 3rd-order estimate
    (None: the RMS norm of e alone); and the controller exponent 1/(q+1), q
    the order of the error estimate, which also sizes the initial step.
    """

    name: str
    A: tuple
    b: tuple
    d: float = 1.0
    e: Optional[tuple] = None
    e3: Optional[tuple] = None
    exponent: float = 0.2


# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between 5th- and 4th-order weights, for the error estimate
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# the tableaus of the generated step and loop; DP5(4)'s last row is its
# 5th-order solution
_DP54 = _Tableau(RK45_ADAPTIVE, _DP_A[1:6], _DP_A[6], e=_DP_E)
_RK4 = _Tableau(RK4_FIXED, ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0)
# Dormand-Prince 8(5,3) (Hairer, Nørsett & Wanner, Solving ODEs I,
# §II.10), the coefficients of SciPy's dop853_coefficients.py as floats:
# 12 stages, the 8th-order solution, and the 5th- and 3rd-order error
# weights of its combined error norm
_DOP853 = _Tableau(
    DOP853_ADAPTIVE,
    A=(
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    ),
    b=(0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, 0.3111643669578199,
       -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    e=(0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294),
    e3=(-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, -0.4226823213237919,
        -0.1521609496625161, 0.20136540080403034, 0.02265179219836082),
    exponent=0.125,
)
_TABLEAUS = {t.name: t for t in (_RK4, _DP54, _DOP853)}

_MAX_STEPS = 10_000_000  # step budget of one integration
_CSV_BLOCK = 512  # rows that `_csv_blocks` formats at once
# step-size control of the generated adaptive loop
_MIN_STEP_FACTOR = 0.2
_MAX_STEP_FACTOR = 5.0
_SAFETY = 0.9
_UNDERFLOW = 16 * sys.float_info.epsilon  # smallest step, relative to max(|t|, 1)
_SUB_S = (0.25, 0.5, 0.75)  # a section's interior Hermite samples of a step, as fractions


class IntegrationError(RuntimeError):
    """Base class of every run failure: blow-up, step budget, step-size
    underflow, a stalled crossing refinement, a section search that never
    returns, a collapsed tangent frame. `t` and `state` are where the run
    stopped, `state` converted here to a float array. `trajectory` holds
    the partial trajectory when the failing call records samples, else None.
    """

    def __init__(self, message: str, t: float, state):
        import numpy as np
        super().__init__(message)
        self.t = t
        self.state = np.array(state, dtype=float)
        self.trajectory: Optional["Trajectory"] = None


class BlowUpError(IntegrationError):
    """State norm exceeded the blow-up cap: finite-time escape signal."""


class MaxStepsError(IntegrationError):
    """Step budget exhausted before reaching the target time."""


class StepSizeError(IntegrationError):
    """Adaptive step size underflowed; the flow cannot be resolved further
    (typical near a finite-time singularity that outruns the norm cap)."""


@dataclass
class IntegrationOptions:
    """Stepper selection and control constants.

    `method` is rk45-adaptive (DP5(4)), dop853-adaptive (DOP853, for
    tight tolerances) or rk4-fixed. `step` is rk4-fixed's fixed step
    (0.01 when None); the adaptive methods choose their own initial step
    and refuse one. `tol` is the adaptive steppers' absolute and relative
    tolerance.
    """

    method: str = RK45_ADAPTIVE
    step: Optional[float] = None
    tol: float = 1e-10
    blow_up_norm: float = 1e12

    def __post_init__(self):
        if self.method not in _TABLEAUS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.step is not None and self.method != RK4_FIXED:
            raise ValueError(f"step applies to {RK4_FIXED} only")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.method == RK4_FIXED and self.step is None:
            self.step = 0.01
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not self.blow_up_norm > 0:
            raise ValueError("blow_up_norm must be positive")

    @property
    def tolerance(self) -> float:
        """Scalar summary used for downstream tolerance composition."""
        if self.method == RK4_FIXED:
            return 0.0
        return self.tol


class Trajectory:
    """Time-stamped state sequence of a field from t0, forward or backward.

    `rows`, the one store, is a flat `array("d")` of (t, x_1, ..., x_n)
    rows, t strictly monotone from t0; `times` and `states` are ndarray
    views of it, built on first use. `field` gives each sample's slope.
    """

    def __init__(self, rows: array, tol: float, field: PolyField):
        self.rows = rows
        self.t0 = rows[0]
        self.tol = float(tol)
        self.field = field

    def __len__(self) -> int:
        return len(self.rows) // (1 + self.dimension)

    @property
    def dimension(self) -> int:
        return self.field.dimension

    @property
    def final_time(self) -> float:
        return self.rows[-1 - self.dimension]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    @functools.cached_property
    def times(self) -> np.ndarray:
        import numpy as np
        return np.frombuffer(self.rows).reshape(-1, 1 + self.dimension)[:, 0]

    @functools.cached_property
    def states(self) -> np.ndarray:
        import numpy as np
        return np.frombuffer(self.rows).reshape(-1, 1 + self.dimension)[:, 1:]

    def csv_blocks(self) -> Iterator[str]:
        """CSV text in blocks: header t,<var1>,...,<varn>; 17 digits."""
        return _csv_blocks(("t", *self.field.variable_names), self.rows)


def _csv_blocks(names, rows) -> Iterator[str]:
    """CSV text in blocks: the header `names`, then the flat sequence `rows`,
    len(names) values a row in "%.17g", a block of rows to one `%`."""
    row, size = ",".join(["%.17g"] * len(names)) + "\n", len(names) * _CSV_BLOCK
    yield ",".join(names) + "\n"
    for a in range(0, len(rows), size):
        block = tuple(rows[a:a + size])
        yield (row * (len(block) // len(names))) % block


def _hermite_basis(s):
    """Cubic Hermite basis (h00, h10, h01, h11) at step fraction s."""
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def _hermite(ta, ya, fa, tb, yb, fb, t):
    """Cubic Hermite interpolant on [ta, tb] matching values and slopes,
    as a list of floats."""
    h = tb - ta
    h00, h10, h01, h11 = _hermite_basis((t - ta) / h)
    h10, h11 = h10 * h, h11 * h
    return [h00 * a + h10 * b + h01 * c + h11 * d
            for a, b, c, d in zip(ya, fa, yb, fb)]


def _hermite_fraction(s, ga, gb, dga, dgb, h):
    """Elementwise cubic Hermite value at fraction s of a step of length h."""
    h00, h10, h01, h11 = _hermite_basis(s)
    return h00 * ga + h01 * gb + h * (h10 * dga + h11 * dgb)


def _numpy_sum(terms: list, add: Callable = lambda a, b: f"({a} + {b})"):
    """Sum of `terms` in the order of NumPy's pairwise `add.reduce`;
    `add` joins two partial sums: code strings by default, or floats
    with `operator.add`."""
    n, rest = len(terms), len(terms) - len(terms) % 8
    if n > 128:
        half = n // 2 - n // 2 % 8
        return add(_numpy_sum(terms[:half], add), _numpy_sum(terms[half:], add))
    if n >= 8:  # eight running sums, added pairwise, then the rest in turn
        r = [functools.reduce(add, terms[j:rest:8]) for j in range(8)]
        while len(r) > 1:
            r = [add(a, b) for a, b in zip(r[::2], r[1::2])]
        terms = r + terms[rest:]
    return functools.reduce(add, terms)


def _rms(v, scale) -> float:
    """Root mean square of v in units of scale, rounded as np.mean of
    the squared ratios rounds."""
    u = [a / b for a, b in zip(v, scale)]
    return math.sqrt(_numpy_sum([a * a for a in u], operator.add) / len(u))


def _initial_step(slope, y0, f0, direction, tol, exponent=0.2):
    """Automatic initial step (Hairer, Nørsett & Wanner, Solving ODEs I,
    §II.4) from the float state y0 and its slope f0; `exponent` is
    1/(q+1) for an error estimate of order q: 1/5 for DP5(4), 1/8 for
    DOP853."""
    scale = [tol + tol * abs(a) for a in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0:  # d1 overflowed; the loop's underflow check rejects 0
        return 0.0
    f1 = slope([a + h0 * direction * b for a, b in zip(y0, f0)])
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** exponent
    return min(100 * h0, h1)


def _compiled_step(field: PolyField, system: str, tableau: _Tableau) -> Callable:
    """The generated step of the field's `system` ("rhs", "tangent_rhs"
    or "liouville_rhs") for a tableau, built on first use."""
    return field._compiled((system, tableau.name), lambda: _compile_step(field, system, tableau))


def _compiled_loop(field: PolyField, system: str, tableau: _Tableau) -> Callable:
    """The generated stepping loop of the field's `system` for a tableau,
    built on first use around the same step text."""
    return field._compiled((system, tableau.name, "loop"),
                           lambda: _compile_loop(field, system, tableau))


def _step_text(field: PolyField, system: str, tableau: _Tableau) -> tuple:
    """(size, step lines, err expression, f and g names) of one explicit
    Runge-Kutta step of the field's `system` (`PolyField._system`) as
    straight-line float code, from y and its slope f, the locals y0,
    y1, ..., k0_0, k0_1, ... and p_i = |y_i|, the step hs and h = |hs|.

    Zero coefficients are skipped, negative ones subtract (`_signed_sum`)
    and sums run in NumPy's order, so the step equals the same array
    arithmetic bit for bit. A trial stage assigns only the state components
    its slope reads; one whose one weight is a power of two c ≠ ±1 (RK4's
    0.5) adds hc k_i, hc = hs c, equal to hs (c k_i) unless hs c or c k_i
    rounds: for 0.5, a step or slope under 2**-1021 in magnitude. The lines
    call no `abs` and leave z in z0, z1, ..., g in the `g` names and q_i =
    |z_i| (a zero may keep its sign: tol + tol·(±0) is tol); err is None
    without error weights, else, with the scale tol + tol max(|y|, |z|), the
    RMS of hs Σ e_j k_j in units of it, or with `e3` DOP853's |hs| ‖e5‖² /
    √((‖e5‖² + 0.01 ‖e3‖²) m) over e5 = Σ e_j k_j and e3 = Σ e3_j k_j in its
    units (0 when both vanish). The lines cannot raise: a stage that
    overflows leaves inf or nan in the components it reaches, as arrays
    would.
    """
    _name, A, b, d, e, e3, _exponent = tableau
    m = field._system(system, "y")[0]
    k = [f"k{s}_" for s in range(len(A) + 2)]  # k[0] is f, k[-1] is g

    def combo(weights, i):
        return _signed_sum([_scaled(c, f"{k[j]}{i}") for j, c in enumerate(weights) if c])

    step, hc = ["hb = hs" if d == 1.0 else f"hb = hs / {d!r}"], None  # the weight in hc
    for s, row in enumerate([*A, b], start=1):
        v, h = ("z", "hb") if s > len(A) else ("a", "hs")
        w = [c for c in row if c]
        if v == "a" and len(w) == 1 and abs(w[0]) != 1.0 and abs(math.frexp(w[0])[0]) == 0.5:
            step += [f"hc = hs*{w[0]!r}"] if hc != w[0] else []
            row, h, hc = [c / w[0] for c in row], "hc", w[0]
        _size, body, out = field._system(system, v)
        reads = set(re.findall(rf"\b{v}(\d+)\b", "\n".join([*body, *out])))
        step += [f"{v}{i} = y{i} + {h}*({combo(row, i)})" for i in range(m)
                 if v == "z" or str(i) in reads]
        step += [*body, *(f"{k[s]}{i} = {o}" for i, o in enumerate(out))]
    err = None
    scale = "q{i} = z{i} if z{i} >= 0.0 else -z{i}; sc = tol + tol*(p{i} if p{i} >= q{i} else q{i})"
    if e is not None and e3 is None:
        step += [f"{scale.format(i=i)}; u{i} = hs*({combo(e, i)}) / sc" for i in range(m)]
        err = f"_sqrt({_numpy_sum([f'u{i}*u{i}' for i in range(m)])} / {m})"
    elif e is not None:
        step += [f"{scale.format(i=i)}; u{i} = ({combo(e, i)}) / sc; "
                 f"w{i} = ({combo(e3, i)}) / sc" for i in range(m)]
        step += [f"eu = {_numpy_sum([f'u{i}*u{i}' for i in range(m)])}",
                 f"ed = eu + 0.01*{_numpy_sum([f'w{i}*w{i}' for i in range(m)])}"]
        err = f"(h*eu / _sqrt(ed*{m}) if ed != 0.0 else 0.0)"
    return m, step, err, k[0], k[-1]


def _compile_step(field: PolyField, system: str, tableau: _Tableau) -> Callable:
    """Generate `def _step(y, f, hs, tol)`: the step of `_step_text`,
    returning (z, g, err), err 0.0 without an estimate."""
    m, step, err, f, g = _step_text(field, system, tableau)
    return _define("_step(y, f, hs, tol)", [
        f"{_names('y', m)} = y", f"{_names(f, m)} = f",
        "h = abs(hs); " + "; ".join(f"p{i} = abs(y{i})" for i in range(m)), *step,
        f"return ({_names('z', m)}), ({_names(g, m)}), {err or '0.0'}"])


def _compile_loop(field: PolyField, system: str, tableau: _Tableau) -> Callable:
    """Generate `def _loop(t, y, f, h, steps, t0, t1, direction, tol,
    cap, budget, rec, plane)`: the stepping loop of a whole run around
    the step of `_step_text` (see `_loop_lines`)."""
    m, step, err, f, g = _step_text(field, system, tableau)
    return _define(
        "_loop(t, y, f, h, steps, t0, t1, direction, tol, cap, budget, rec, plane)",
        [f"{_names('y', m)} = y", f"{_names(f, m)} = f",
         *_loop_lines(step, err, tableau.exponent, m, field.dimension, f, g)])


def _indent(lines: Sequence[str]) -> list[str]:
    return [f"    {x}" for x in lines]


def _loop_lines(step: list[str], err: Optional[str], exponent: float, m: int,
                n: int, f: str, g: str) -> list[str]:
    """Body of the generated `_loop`: the run of accepted steps from (t, y)
    with slope f, step size h and `steps` steps taken, on to t1.

    The same checks in the same order as Hairer, Nørsett & Wanner's
    DOPRI5 main loop (Solving ODEs I, §II.4), on local floats. With an error
    estimate `err` (adaptive): stop at t1, after `budget` steps taken,
    or once a step short of t1 is below 16 ulp of t (the span, not the
    controller, sizes the step onto t1); clip h to land on t1 exactly;
    retry a step whose new state is not finite at a fifth of h, and a
    step whose error norm exceeds 1 at h·max(0.2, 0.9 err^-x); grow h
    by min(5, 0.9 err^-x) after an accepted step, x the tableau's
    `exponent` (1/5 for DP5(4), 1/8 for DOP853). Without one: the
    `budget` equal steps of size h from t0, the k-th landing at t0 + k
    hs and the last on t1; a state that is not finite ends the run. A
    stage that overflows shows only there, as a new state that is not
    finite: the step's arithmetic cannot raise. A new state whose first
    n components have a norm (`math.hypot`, finite for finite
    components) above `cap` ends either; the loop runs these two tests
    only if ss = Σ z_i² over the n reaches `limit` or the sum sv of the
    rest (tangent, divergence) is not finite. `rec`, if not None, takes each
    accepted point as one row (t, z0, ..., z{m-1}). An accepted step
    calls no `abs`: |y_i|, |g| and |g'| carry over from the step before.
    `plane`, if not None, is (n0, n1, n2, offset, slack, rising,
    falling): on each accepted step of length h whose ends are not on
    one side of the plane, both farther than slack |h| (|g'(ta)| +
    |g'(tb)|), the signed distance g = z0 n0 + z1 n1 + z2 n2 - offset
    is sampled at the fractions `_SUB_S` of its cubic Hermite
    interpolant (weights from `_hermite_basis`), and the loop returns
    where two adjacent samples bracket a sign change up (g < 0 <= next)
    with `rising` or down (g > 0 >= next) with `falling`; it is resumed
    by calling it again with the returned point.

    Returns (code, t, y, f, h, steps, step): the point it stopped at
    and its step size and count, and, for the code "crossing", the step
    (t, y, f, tn, z, g, dga, dgb, samples): its ends with their slopes,
    g' at both ends and g at the fractions 0, `_SUB_S` and 1. The other
    codes are "done" (t = t1), "budget", "underflow" (y at t),
    "non-finite" and "cap" (the refused new state and its time).
    """
    ys, fs = f"({_names('y', m)})", f"({_names(f, m)})"
    zs, gs = f"({_names('z', m)})", f"({_names(g, m)})"
    finite = " and ".join(f"_isfinite(z{i})" for i in range(m))
    # ss below `limit` is z[:n] finite and under the cap; sv finite, the rest finite
    lines = ["limit = cap * cap * (1.0 - 1e-9)"]
    fast = "(ss < limit and sv - sv == 0.0)" if m > n else "ss < limit"
    section = m >= 3
    if section:
        lines += ["if plane is not None:", "    n0, n1, n2, offset, slack, rising, falling = plane",
                  "    ga = y0*n0 + y1*n1 + y2*n2 - offset",
                  f"    dga = {f}0*n0 + {f}1*n1 + {f}2*n2; ma = abs(ga); mda = abs(dga)"]
    if err is not None:
        lines += [
            "; ".join(f"p{i} = abs(y{i})" for i in range(m)),
            "while (remaining := direction * (t1 - t)) > 0:",
            "    if steps >= budget:",
            f"        return 'budget', t, {ys}, {fs}, h, steps, None",
            "    if remaining < h:",
            "        h = remaining",
            "    final = h == remaining",
            f"    if not final and h <= {_UNDERFLOW!r} * (t if t > 1.0 else -t if t < -1.0 else 1.0):",
            f"        return 'underflow', t, {ys}, {fs}, h, steps, None",
            "    hs = direction * h",
            "    steps += 1",
            "    tn = t1 if final else t + hs"]
        refuse = [f"    h *= {_MIN_STEP_FACTOR!r}", "    continue"]
    else:
        lines += [
            "hs = direction * h; last = budget - 1",
            "while steps < budget:",
            "    final = steps == last",
            "    steps += 1",
            "    tn = t1 if final else t0 + steps * hs"]
        refuse = [f"    return 'non-finite', tn, {zs}, None, h, steps, None"]
    lines += [
        *_indent(step),
        "    ss = " + " + ".join(f"z{i}*z{i}" for i in range(n))
        + (f"; sv = {' + '.join(f'z{i}' for i in range(n, m))}" if m > n else ""),
        f"    if not {fast} and not ({finite}):", *_indent(refuse)]
    if err is not None:
        lines += [
            f"    err = {err}",
            "    if not err <= 1.0:",
            f"        c = {_SAFETY!r} * err ** -{exponent!r}",
            f"        h *= c if c > {_MIN_STEP_FACTOR!r} else {_MIN_STEP_FACTOR!r}",
            "        continue"]
    lines += [
        f"    if not {fast} and _hypot({_names('z', n)}) > cap:",
        f"        return 'cap', tn, {zs}, None, h, steps, None"]
    if err is not None:  # err <= 1 makes the growth factor at least 0.9
        lines += [
            "    if err == 0.0:",
            f"        h *= {_MAX_STEP_FACTOR!r}",
            "    else:",
            f"        c = {_SAFETY!r} * err ** -{exponent!r}",
            f"        h *= c if c < {_MAX_STEP_FACTOR!r} else {_MAX_STEP_FACTOR!r}"]
    lines += ["    if rec is not None:",
              f"        rec((tn, {_names('z', m)}))"]
    if section:
        samples = ["ga", *(f"g{j}" for j in range(1, len(_SUB_S) + 1)), "gb"]
        pairs = list(zip(samples, samples[1:]))
        lines += [
            "    if plane is not None:",
            "        gb = z0*n0 + z1*n1 + z2*n2 - offset",
            f"        dgb = {g}0*n0 + {g}1*n1 + {g}2*n2",
            "        mb = gb if gb >= 0.0 else -gb; mdb = dgb if dgb >= 0.0 else -dgb",
            "        if not (ga * gb > 0.0 and (mb if mb < ma else ma)",
            "                > slack * (direction * (tn - t)) * (mda + mdb) + 1e-300):",
            "            ht = tn - t",
            *(f"            {q} = {h00!r}*ga + {h01!r}*gb + ht*({h10!r}*dga + {h11!r}*dgb)"
              for q, (h00, h10, h01, h11) in zip(samples[1:], map(_hermite_basis, _SUB_S))),
            "            if rising and (" + " or ".join(f"{a} < 0.0 <= {b}" for a, b in pairs)
            + ") or falling and (" + " or ".join(f"{a} > 0.0 >= {b}" for a, b in pairs) + "):",
            f"                return 'crossing', tn, {zs}, {gs}, h, steps,"
            f" (t, {ys}, {fs}, tn, {zs}, {gs}, dga, dgb, ({', '.join(samples)}))",
            "        ga = gb; dga = dgb; ma = mb; mda = mdb"]
    carry = "; p{i} = q{i}" if err is not None else ""
    lines += ["    t = tn",  # one assignment per component: no tuple built
              *(f"    y{i} = z{i}; {f}{i} = {g}{i}" + carry.format(i=i) for i in range(m)),
              f"return 'done', t, {ys}, {fs}, h, steps, None"]
    return lines


class _Run:
    """One run of the field's generated `system` loop from (t0, y0) to t1.

    Construction is the run start: it converts the start to floats,
    refuses a start state or t0 that is not finite (ValueError), records
    the row (t0, *y0) through `rec`, takes the first slope, refuses an
    adaptive start slope that is not finite, then a start whose first n
    components exceed the blow-up cap in norm, and sizes the first step:
    the adaptive tableau's automatic initial step, or ceil(|t1 - t0| /
    step) equal RK4 steps, refusing a span that is not finite
    (ValueError) or exceeds the step budget.
    """

    def __init__(self, field: PolyField, system: str, y0, t0, t1, opts,
                 rec=None, plane=None):
        y, t0 = tuple([float(a) for a in y0]), float(t0)  # not map(): swells the free list
        if not (all(map(math.isfinite, y)) and math.isfinite(t0)):
            raise ValueError("start state and t0 must be finite")
        if rec is not None:
            rec((t0, *y))
        tableau = _TABLEAUS[opts.method]
        self._slope = field.compiled_slope(system)
        self._exponent = tableau.exponent if tableau.e is not None else None
        self._run = [t0, t1, 1.0 if t1 > t0 else -1.0, opts.tol, opts.blow_up_norm,
                     _MAX_STEPS, rec, plane]
        if tableau.e is not None:  # its slope test comes before the cap's
            self.restart(y)
        if (norm := math.hypot(*y[:field.dimension])) > opts.blow_up_norm:
            raise BlowUpError(f"start state norm {norm:.3e} exceeds blow-up cap "
                              f"{opts.blow_up_norm:.3e} at t={t0:.6g}", t0, y)
        if tableau.e is None:
            span = abs(t1 - t0)
            if not math.isfinite(span):
                raise ValueError(f"{RK4_FIXED} needs a finite time span")
            if span / opts.step > _MAX_STEPS:
                raise MaxStepsError(f"{span / opts.step:.3g} fixed steps needed, "
                                    f"step budget {_MAX_STEPS}", t0, y)
            self._run[5] = max(1, math.ceil(span / opts.step))  # the budget
            self.restart(y)
        self._loop = _compiled_loop(field, system, tableau)
        self._n, self._cap = field.dimension, opts.blow_up_norm
        self.step = None

    def restart(self, y) -> None:
        """Start again at t0 from y, finite floats with the state under the
        cap, as a new run from y would, less its `rec` row and checks of y."""
        t0, t1, direction, tol, _cap, budget = self._run[:6]
        f = self._slope(y)
        if self._exponent is not None and not all(map(math.isfinite, f)):
            raise BlowUpError(f"non-finite field value at t={t0:.6g}", t0, y)
        h = abs(t1 - t0) / budget if self._exponent is None else min(
            _initial_step(self._slope, y, f, direction, tol, self._exponent), abs(t1 - t0))
        self.point = (t0, y, f, h, 0)  # t, y, its slope, next h, steps taken

    def advance(self) -> bool:
        """Run the loop on, to t1 (False, `point` is the end) or to the
        next accepted step whose samples bracket a counted crossing (True,
        `step` is its (ta, ya, fa, tb, yb, fb, dga, dgb, samples), the
        plane's g' at the ends and g at the fractions 0, `_SUB_S` and 1,
        as the loop computed them); the loop's failures raise their
        IntegrationError."""
        code, *point, step = self._loop(*self.point, *self._run)
        self.point = tuple(point)
        t, y, f, h, _steps = point
        if code == "crossing":
            self.step = step
            return True
        if code == "done":
            return False
        if code == "budget":
            raise MaxStepsError(f"step budget of {_MAX_STEPS} exhausted at t={t:.6g}",
                                t, y)
        if code == "underflow":
            raise StepSizeError(f"step size underflow (h={h:.3e}) at t={t:.6g}", t, y)
        if code == "non-finite":
            raise BlowUpError(f"non-finite state at t={t:.6g}", t, y)
        norm = math.hypot(*y[:self._n])
        raise BlowUpError(f"state norm {norm:.3e} exceeded blow-up cap "
                          f"{self._cap:.3e} at t={t:.6g}", t, y)


def _validate_initial(field: PolyField, x0, t0: float, t1: float) -> tuple[float, ...]:
    y0 = field._check_state(x0)
    if not math.isfinite(t1):
        raise ValueError("t1 must be finite")
    if t1 == t0:
        raise ValueError("t1 must differ from t0")
    return y0


def integrate(field: PolyField, x0, t0: float, t1: float,
              opts: Optional[IntegrationOptions] = None) -> Trajectory:
    """Integrate the field from (t0, x0) to t1; t1 < t0 runs backward.

    Backward integration steps the same field with negative time
    increments. Raises BlowUpError/MaxStepsError/StepSizeError with the
    partial trajectory attached when the run cannot be completed.
    """
    opts = opts or IntegrationOptions()
    y0 = _validate_initial(field, x0, t0, t1)
    rows = array("d")  # one row (t, x_1, ..., x_n) per accepted point
    try:
        _Run(field, "rhs", y0, t0, t1, opts, rows.extend).advance()
    except IntegrationError as exc:
        exc.trajectory = Trajectory(rows, opts.tolerance, field)
        raise
    return Trajectory(rows, opts.tolerance, field)


def integrate_with_tangent(field: PolyField, x0, Q0, t0: float, t1: float,
                           opts: Optional[IntegrationOptions] = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Co-integrate state and tangent matrix dV/dt = J(x(t)) V.

    Returns (x(t1), V(t1)) for V(t0) = Q0, stepped as one augmented
    system so state and tangent share step sizes and error control.
    Nothing is recorded: an IntegrationError carries no trajectory.
    """
    import numpy as np
    opts = opts or IntegrationOptions()
    y0 = _validate_initial(field, x0, t0, t1)
    n = field.dimension
    Q0 = np.asarray(Q0, dtype=float)
    if Q0.shape != (n, n):
        raise ValueError(f"Q0 has shape {Q0.shape}, expected ({n}, {n})")
    run = _Run(field, "tangent_rhs", (*y0, *Q0.ravel().tolist()), t0, t1, opts)
    run.advance()
    w = np.array(run.point[1])
    return w[:n], w[n:].reshape(n, n)
