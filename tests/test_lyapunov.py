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

import numpy as np
import pytest

from flowbound import (
    IntegrationOptions,
    TangentCollapseError,
    lyapunov_spectrum,
    parse_system,
)

from conftest import assert_close

DIAG = parse_system(
    "dx/dt = -x\n"
    "dy/dt = -2*y\n"
    "dz/dt = -3*z\n")

STRONG_DECAY = parse_system(
    "dx/dt = -3*x\n"
    "dy/dt = -3*y\n"
    "dz/dt = -3*z\n")


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

    def test_aligned_tangents_are_refused(self, lorenz):
        # over 5 time units the weaker tangent vectors align with the
        # strongest; projection leaves the third under 1e-14 of its norm,
        # and its exponent would be round-off (-6.46 instead of -14.5)
        with pytest.raises(TangentCollapseError, match="tangent vector 2"):
            lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=10.0,
                              total_time=60.0, renorm_interval=5.0)

    def test_interval_one_keeps_the_sum_rule(self, lorenz):
        result = lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], transient=10.0,
                                   total_time=60.0, renorm_interval=1.0)
        assert abs(sum(result.exponents) + 13.666666666666666) < 1e-6

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
