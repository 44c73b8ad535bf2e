"""Spectrum estimation against flows with known exponents.

Diagonal linear fields have exponents equal to their rates; a pure
rotation with uniform z-decay has spectrum (0, 0, -1) and its tangent
frame stays orthogonal, so the QR bookkeeping contributes no error of
its own. The Lorenz sum rule is exact at any averaging length because
the divergence is constant: the exponent sum is the time average of
the flow divergence.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowbound
from flowbound import (
    IntegrationError,
    IntegrationOptions,
    MaxStepsError,
    TangentCollapseError,
    integrate_with_tangent,
    lyapunov,
    lyapunov_spectrum,
    parse_system,
)
from flowbound.cli import main
from flowbound.integrator import _MAX_STEPS

from conftest import assert_close

DIAG = parse_system(
    "dx/dt = -x\n"
    "dy/dt = -2*y\n"
    "dz/dt = -3*z\n")

STRONG_DECAY = parse_system(
    "dx/dt = -3*x\n"
    "dy/dt = -3*y\n"
    "dz/dt = -3*z\n")

LOGISTIC = parse_system("dx/dt = x - x^3\n")

# Lorenz plus dw/dt = w^2: from w = 0, w stays 0
LORENZ_W = parse_system(
    "dx/dt = 10*(y - x)\n"
    "dy/dt = x*(28 - z) - y\n"
    "dz/dt = x*y - 2.6666666666666665*z\n"
    "dw/dt = w^2\n")


class TestKnownSpectra:
    def test_diagonal_rates(self):
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0],
                                   transient=1.0, total_time=20.0,
                                   renorm_interval=0.5)
        assert_close(result.exponents, [-1.0, -2.0, -3.0], 1e-6, "rates")

    def test_exponents_sorted_descending(self):
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0],
                                   transient=0.0, total_time=10.0,
                                   renorm_interval=0.5)
        assert list(result.exponents) == sorted(result.exponents,
                                                reverse=True)

    def test_rotation_with_decay(self, rotation):
        result = lyapunov_spectrum(rotation, [1.0, 0.0, 0.5],
                                   transient=2.0, total_time=40.0,
                                   renorm_interval=0.5)
        assert abs(result.exponents[0]) < 1e-8
        assert abs(result.exponents[1]) < 1e-8
        assert abs(result.exponents[2] + 1.0) < 1e-8

    def test_fixed_step_method_agrees(self, rotation):
        opts = IntegrationOptions(method="rk4-fixed", step=0.01)
        result = lyapunov_spectrum(rotation, [1.0, 0.0, 0.5],
                                   transient=2.0, total_time=40.0,
                                   renorm_interval=0.5, opts=opts)
        assert_close(result.exponents, [0.0, 0.0, -1.0], 1e-5, "rk4")

    def test_lorenz_sum_rule(self, lorenz):
        opts = IntegrationOptions(tol=1e-9)
        result = lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0],
                                   transient=20.0, total_time=100.0,
                                   renorm_interval=0.5, opts=opts)
        assert abs(sum(result.exponents) + 13.666666666666666) < 0.01
        assert 0.5 < result.exponents[0] < 1.3
        assert abs(result.exponents[1]) < 0.1

    def test_renorm_interval_invariance(self):
        runs = [lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                                  total_time=12.0, renorm_interval=h)
                for h in (0.5, 0.25)]
        assert_close(runs[0].exponents, runs[1].exponents, 1e-9,
                     "interval halving")


class TestBookkeeping:
    def test_history_sampled_every_hundred_renorms(self, rotation):
        result = lyapunov_spectrum(rotation, [1.0, 0.0, 0.5],
                                   transient=0.0, total_time=25.0,
                                   renorm_interval=0.1)
        assert len(result.convergence_history) == 2
        times = [t for t, _ in result.convergence_history]
        assert_close(times, [10.0, 20.0], 1e-9, "sample times")
        for _, estimate in result.convergence_history:
            assert len(estimate) == 3
            assert list(estimate) == sorted(estimate, reverse=True)
        assert_close(result.convergence_history[-1][1], result.exponents,
                     1e-3, "late history near final")

    def test_short_run_has_empty_history(self):
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                                   total_time=10.0, renorm_interval=0.5)
        assert result.convergence_history == ()

    def test_result_metadata(self):
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=3.0,
                                   total_time=10.0, renorm_interval=0.5)
        assert result.transient_skipped == 3.0
        assert result.total_time == pytest.approx(10.0)
        assert result.renorm_interval == 0.5

    def test_json_document(self):
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                                   total_time=10.0, renorm_interval=0.5)
        doc = result.to_json_dict()
        assert set(doc) == {"exponents", "transient_skipped", "total_time",
                            "renorm_interval", "convergence_history"}
        json.dumps(doc)
        assert doc["exponents"] == list(result.exponents)


class TestFailureModes:
    def test_collapse_on_oversized_interval(self):
        # fixed steps shrink the tangent by a constant factor per step,
        # so a long enough chunk underflows it to exactly zero
        opts = IntegrationOptions(method="rk4-fixed", step=0.5)
        with pytest.raises(TangentCollapseError):
            lyapunov_spectrum(STRONG_DECAY, [1.0, 1.0, 1.0],
                              transient=0.0, total_time=800.0,
                              renorm_interval=800.0, opts=opts)

    @pytest.mark.parametrize("interval", [2.0, 5.0])
    def test_aligned_tangents_are_refused(self, lorenz, interval):
        # over 2 or 5 time units the weaker tangent vectors align with the
        # strongest; projection leaves the third under 1e-14 of its norm,
        # and its exponent would be round-off (-6.46 instead of -14.5 at 5)
        with pytest.raises(TangentCollapseError, match="tangent vector 2") as info:
            lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=10.0,
                              total_time=60.0, renorm_interval=interval)
        # it stops at the end of the refused interval, transient included,
        # with that interval's final state, x then the frame
        exc = info.value
        assert isinstance(exc, IntegrationError)
        assert exc.t > 10.0 and (exc.t - 10.0) % interval == 0.0
        assert exc.state.shape == (12,)
        assert lyapunov._renormalizer(3)(tuple(exc.state.tolist()))[1] is None

    @pytest.mark.parametrize("interval", [0.5, 1.0])
    def test_short_intervals_keep_the_sum_rule(self, lorenz, interval):
        result = lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=10.0,
                                   total_time=60.0, renorm_interval=interval)
        assert abs(sum(result.exponents) + 13.666666666666666) < 1e-6

    @pytest.mark.parametrize("interval, total", [(5e-324, 1.0), (1e-9, 1000.0)])
    def test_interval_count_over_the_step_budget_is_refused(self, interval, total):
        # 1 / 5e-324 overflows to inf; 1000 / 1e-9 would take 1e12 runs.
        # Both are refused before the transient, which alone would run
        # for a long time.
        with pytest.raises(MaxStepsError, match="renormalization intervals"):
            lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=1e9,
                              total_time=total, renorm_interval=interval)

    def test_interval_count_at_the_step_budget_is_kept(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "_MAX_STEPS", 4)
        result = lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                                   total_time=2.0, renorm_interval=0.5)
        assert result.total_time == 2.0
        with pytest.raises(MaxStepsError):
            lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                              total_time=2.5, renorm_interval=0.5)

    @pytest.mark.parametrize("interval, total", [("5e-324", "1"), ("1e-9", "1000")])
    def test_cli_refuses_interval_count_in_one_line(self, tmp_path, capsys,
                                                    interval, total):
        lorenz_sys = str(flowbound.system_path("lorenz"))
        code = main(["lyapunov", "--system", lorenz_sys, "--x0", "1,1,1",
                     "--transient", "0", "--total", total, "--interval", interval,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("integration failed: ")
        assert f"step budget {_MAX_STEPS}" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "lyapunov.json").exists()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                              total_time=10.0, renorm_interval=0.0)
        with pytest.raises(ValueError):
            lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=0.0,
                              total_time=0.4, renorm_interval=0.5)
        with pytest.raises(ValueError):
            lyapunov_spectrum(DIAG, [1.0, 1.0, 1.0], transient=-1.0,
                              total_time=10.0, renorm_interval=0.5)


def _float_gram_schmidt(columns):
    """Modified Gram-Schmidt in Python floats, sums taken left to right:
    the columns of Q and R's diagonal."""
    q, diag = [], []
    for v in columns:
        for u in q:
            r = 0.0
            for k in range(len(v)):
                r = r + u[k] * v[k]
            v = [v[k] - r * u[k] for k in range(len(v))]
        square = 0.0
        for k in range(len(v)):
            square = square + v[k] * v[k]
        d = math.sqrt(square)
        q.append([a / d for a in v])
        diag.append(d)
    return q, diag


def _renormalize(columns):
    """Q's columns and R's diagonal of the matrix with the given float
    `columns`, by the generated renormalizer of their dimension, or the
    index of the column it refuses."""
    n = len(columns)
    w = [0.0] * n + [c[i] for i in range(n) for c in columns]
    start, diag = lyapunov._renormalizer(n)(w)
    if diag is None:
        return start[0]
    assert start[:n] == tuple(w[:n])
    return [list(start[n + j::n]) for j in range(n)], list(diag)


class TestGramSchmidt:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_numpy_qr(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            A = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            q, diag = _renormalize(A.T.tolist())
            Q, R = np.linalg.qr(A)
            signs = np.sign(np.diag(R))
            assert_close(np.array(q).T, Q * signs, 1e-13, "Q")
            assert_close(diag, np.abs(np.diag(R)), 1e-13 * np.abs(R).max(), "diag R")
            assert all(isinstance(d, float) and d > 0.0 for d in diag)

    def test_zero_column_is_refused(self):
        assert _renormalize([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]]) == 1

    @pytest.mark.parametrize("share, refused", [(1e-13, True), (1e-11, False)])
    def test_aligned_column_is_refused(self, share, refused):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0])
        off = np.cross(a, b)
        c = a + share * np.linalg.norm(a) * off / np.linalg.norm(off)
        columns = [a.tolist(), b.tolist(), c.tolist()]
        if refused:
            assert _renormalize(columns) == 2
        else:
            _q, diag = _renormalize(columns)
            assert diag[2] == pytest.approx(share * np.linalg.norm(a), rel=1e-3)

    def test_refusal_reports_the_column_and_its_norms(self):
        start, diag = lyapunov._renormalizer(2)([0.0, 0.0, 3.0, 6.0, 4.0, 8.0])
        assert diag is None
        assert start == (1, 0.0, 10.0)

    def test_built_on_first_use_once_per_dimension(self, generated_sources):
        lyapunov._renormalizer.cache_clear()
        for field in (DIAG, DIAG, LOGISTIC, DIAG, LOGISTIC):
            lyapunov_spectrum(field, [1.0] * field.dimension, transient=0.0,
                              total_time=1.0, renorm_interval=0.5)
        assert sum(src.startswith("def _renorm(w):") for src in generated_sources) == 2
        assert lyapunov._renormalizer.cache_info().currsize == 2

    def test_not_built_at_import(self):
        src = str(Path(flowbound.__file__).resolve().parents[1])
        code = ("import flowbound, flowbound.cli, flowbound.lyapunov as L; "
                "print(L._renormalizer.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out == "0\n"


def _reference_spectrum(field, x0, opts, legs, interval):
    """The spectrum of `legs` integrate_with_tangent legs renormalized by
    the left-to-right float Gram-Schmidt above."""
    n = field.dimension
    x, Q = np.array(x0), np.eye(n)
    logs, elapsed = [0.0] * n, 0.0
    for _ in range(legs):
        x, V = integrate_with_tangent(field, x, Q, 0.0, interval, opts)
        q, diag = _float_gram_schmidt(V.T.tolist())
        logs = [a + math.log(d) for a, d in zip(logs, diag)]
        Q = np.array(q).T
        elapsed += interval
    return sorted([a / elapsed for a in logs], reverse=True)


RK4 = IntegrationOptions(method="rk4-fixed", step=0.015)


class TestPortableRenormalization:
    @pytest.mark.parametrize("field, x0, opts", [
        ("lorenz", [-5.0, 3.0, 20.0], RK4),
        ("lorenz", [-5.0, 3.0, 20.0], IntegrationOptions()),
        (LOGISTIC, [0.1], IntegrationOptions()),
        (LORENZ_W, [-5.0, 3.0, 20.0, 0.0], RK4),
    ], ids=["rk4", "dp5", "1-d", "4-d"])
    def test_matches_float_reference(self, lorenz, field, x0, opts):
        """A 10-unit window equals, bit for bit, integrate_with_tangent
        legs renormalized by the left-to-right float Gram-Schmidt above:
        no dot product runs through BLAS, whose kernels may fuse
        multiply and add."""
        field = lorenz if field == "lorenz" else field
        result = lyapunov_spectrum(field, x0, transient=0.0, total_time=10.0,
                                   renorm_interval=0.5, opts=opts)
        expected = _reference_spectrum(field, x0, opts, 20, 0.5)
        assert [e.hex() for e in result.exponents] == [e.hex() for e in expected]

    @pytest.mark.parametrize("opts, exponents", [
        (RK4, ["0x1.44d678a2010a9p-5", "-0x1.42da9dfcebd7cp-3", "-0x1.b18c4a73efd3bp+3"]),
        (IntegrationOptions(),
         ["0x1.459a1cb498c4fp-5", "-0x1.430fc45ea094bp-3", "-0x1.b18eb05d054c5p+3"]),
    ], ids=["rk4", "dp5"])
    def test_frozen_spectra_with_a_short_last_interval(self, lorenz, opts, exponents):
        """Twenty 0.5-unit intervals, which restart one run, then one of
        0.2, which builds its own: the spectra of fresh runs for every
        interval, frozen as float.hex."""
        result = lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=0.0,
                                   total_time=10.2, renorm_interval=0.5, opts=opts)
        assert [e.hex() for e in result.exponents] == exponents
