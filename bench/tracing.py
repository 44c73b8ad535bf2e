"""Spans and counts at flowbound's module boundaries, from outside.

`Tracer.install` replaces public functions with timing wrappers at the
names their callers look them up (`flowbound.cli.integrate` is the one
`cli` calls, `flowbound.boundlaw.integrate` the one `boundlaw` calls),
and makes `PolyField.compiled_rhs` / `compiled_tangent_rhs` hand out
counting wrappers. Nothing under `src/` changes. `uninstall` puts every
original back. Spans stay in memory and are written out by `dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

import numpy as np

SAME_ORBIT = 1e-6  # fixed points closer than this belong to one orbit


class Tracer:
    def __init__(self):
        # each span: [name, parent index, start, end, rhs calls at start,
        # at end, tangent rhs calls at start, at end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shot_cycles: list[list[np.ndarray]] = []
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None,
                           self.counts["rhs"], None,
                           self.counts["tangent_rhs"], None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[5] = self.counts["rhs"]
        span[7] = self.counts["tangent_rhs"]
        self.stack.pop()

    def _wrap(self, owner, attr, name, on_result=None, on_error=None):
        """`name` is a span name, or a function of the call's arguments
        that returns one."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            index = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                tracer.end(index)
            if on_result:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def _count_calls(self, owner, attr, key):
        orig = getattr(owner, attr)
        counts = self.counts

        def compiled(field):
            fn = orig(field)

            def counted(y):
                counts[key] += 1
                return fn(y)
            return counted

        setattr(owner, attr, compiled)
        self._undo.append((owner, attr, orig))

    # -- wrappers --------------------------------------------------------

    def install(self, fb) -> None:
        """Wrap the public functions of the flowbound package `fb`."""
        from flowbound import boundlaw, cli, integrator, lyapunov, poincare, upo

        def recorded(_a, _k, traj):
            self.counts["recorded_samples"] += len(traj)

        def recorded_partial(exc):
            if isinstance(exc, integrator.IntegrationError) and exc.trajectory is not None:
                self.counts["recorded_samples"] += len(exc.trajectory)

        def seeds(_a, _k, found):
            self.counts["seeds"] += len(found)

        def shot(_a, _k, orbit):
            cycle = [p.state3 for p in orbit.cycle_points]
            if any(np.max(np.abs(orbit.section_fixed_point.state3 - p)) < SAME_ORBIT
                   for earlier in self.shot_cycles for p in earlier):
                self.counts["duplicate_shoots"] += 1
            self.shot_cycles.append(cycle)

        def lyapunov_time(_a, _k, result):
            self.counts["lyapunov_tu"] += result.total_time

        def lyapunov_method(args, kwargs):
            opts = args[5] if len(args) > 5 else kwargs["opts"]
            return "lyapunov.rk4" if opts.method == "rk4-fixed" else "lyapunov.dp5"

        self._count_calls(fb.PolyField, "compiled_rhs", "rhs")
        self._count_calls(fb.PolyField, "compiled_tangent_rhs", "tangent_rhs")
        for owner in (cli, fb):
            self._wrap(owner, "parse_system", "polyfield.parse_system")
        for owner in (cli, boundlaw):
            self._wrap(owner, "integrate", "integrator.integrate",
                       recorded, recorded_partial)
            self._wrap(owner, "verify_bounds", "boundlaw.verify_bounds")
        self._wrap(cli, "refute_nonexistence", "boundlaw.refute_nonexistence")
        self._wrap(boundlaw, "find_equilibrium", "boundlaw.find_equilibrium")
        self._wrap(cli, "main", "cli.main")
        for owner in (poincare, upo):
            self._wrap(owner, "first_return", "poincare.first_return")
        self._wrap(upo, "scan_close_recurrences", "upo.scan", seeds)
        self._wrap(upo, "newton_shoot", "upo.newton_shoot", shot)
        self._wrap(upo, "monodromy", "upo.monodromy")
        self._wrap(upo, "census", "upo.census")
        self._wrap(lyapunov, "lyapunov_spectrum", lyapunov_method, lyapunov_time)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def _spans(self, name):
        return [s for s in self.spans if s[0] == name]

    def total(self, name) -> float:
        return sum(s[3] - s[2] for s in self._spans(name))

    def calls(self, name) -> int:
        return len(self._spans(name))

    def _inside(self, index, name) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def layer_values(self) -> dict:
        """Per-layer totals of the traced work, by metric name."""
        returns = [i for i, s in enumerate(self.spans)
                   if s[0] == "poincare.first_return"]
        child_time = Counter()
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[3] - s[2]
        mains = [i for i, s in enumerate(self.spans) if s[0] == "cli.main"]
        rhs_in_returns = sum(self.spans[i][5] - self.spans[i][4] for i in returns)
        tangent_in_lyapunov = sum(s[7] - s[6] for s in self.spans
                                  if s[0].startswith("lyapunov."))
        tu = self.counts["lyapunov_tu"]
        return {
            "polyfield.parse_calls": self.calls("polyfield.parse_system"),
            "polyfield.rhs_calls": self.counts["rhs"],
            "polyfield.tangent_rhs_calls": self.counts["tangent_rhs"],
            "integrator.integrate_s": self.total("integrator.integrate"),
            "integrator.integrate_calls": self.calls("integrator.integrate"),
            "integrator.recorded_samples": self.counts["recorded_samples"],
            "poincare.first_return_s": self.total("poincare.first_return"),
            "poincare.first_return_calls": len(returns),
            "poincare.rhs_calls_per_return":
                rhs_in_returns / len(returns) if returns else 0.0,
            "upo.scan_s": self.total("upo.scan"),
            "upo.seeds": self.counts["seeds"],
            "upo.shoot_s": self.total("upo.newton_shoot"),
            "upo.shoot_calls": self.calls("upo.newton_shoot"),
            "upo.duplicate_shoots": self.counts["duplicate_shoots"],
            "upo.returns_in_shoot":
                sum(1 for i in returns if self._inside(i, "upo.newton_shoot")),
            "upo.monodromy_s": self.total("upo.monodromy"),
            "upo.monodromy_calls": self.calls("upo.monodromy"),
            "lyapunov.rk4_s": self.total("lyapunov.rk4"),
            "lyapunov.dp5_s": self.total("lyapunov.dp5"),
            "lyapunov.tangent_rhs_per_tu": tangent_in_lyapunov / tu if tu else 0.0,
            "boundlaw.verify_bounds_s": self.total("boundlaw.verify_bounds"),
            "boundlaw.verify_bounds_calls": self.calls("boundlaw.verify_bounds"),
            "boundlaw.refute_s": self.total("boundlaw.refute_nonexistence"),
            "boundlaw.find_equilibrium_s": self.total("boundlaw.find_equilibrium"),
            "cli.main_s": self.total("cli.main"),
            "cli.self_s": sum(self.spans[i][3] - self.spans[i][2] - child_time[i]
                              for i in mains),
        }

    def dump(self, path) -> None:
        doc = {
            "spans": [{"name": n, "parent": p, "start": a, "end": b,
                       "rhs_calls": r1 - r0, "tangent_rhs_calls": g1 - g0}
                      for n, p, a, b, r0, r1, g0, g1 in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _per_call(sw, fn, repeats, number):
    """Median over `repeats` batches of the reference time of one call."""
    def batch():
        for _ in range(number):
            fn()
    return statistics.median(sw.time(batch)[1] / number for _ in range(repeats))


def kernel_values(sw, fb, state) -> dict:
    """Per-call costs of the hot kernels on Lorenz, tracing off, in
    reference time: one parse, one RHS, one tangent RHS, one accepted
    DP5(4) and RK4 step (an integration over a fixed span divided by
    its steps)."""
    text = fb.system_path("lorenz").read_text(encoding="utf-8")
    lorenz = fb.parse_system(text)
    rhs = lorenz.compiled_rhs()
    tangent = lorenz.compiled_tangent_rhs()
    w = np.concatenate([state, np.eye(3).ravel()])

    def per_step(opts, span):
        steps = len(fb.integrate(lorenz, state, 0.0, span, opts)) - 1
        return _per_call(sw, lambda: fb.integrate(lorenz, state, 0.0, span, opts),
                         3, 1) / steps

    return {
        "polyfield.parse_ms": 1e3 * _per_call(sw, lambda: fb.parse_system(text), 5, 20),
        "polyfield.rhs_us": 1e6 * _per_call(sw, lambda: rhs(state), 5, 20000),
        "polyfield.tangent_rhs_us": 1e6 * _per_call(sw, lambda: tangent(w), 5, 5000),
        "integrator.dp54_step_us": 1e6 * per_step(fb.IntegrationOptions(), 5.0),
        "integrator.rk4_step_us":
            1e6 * per_step(fb.IntegrationOptions(method="rk4-fixed", step=0.015), 7.5),
    }
