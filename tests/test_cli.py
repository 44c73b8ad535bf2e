"""Command-line interface: artifacts, exit codes, and error routing.

Exit codes: 0 success, 1 usage or config problems, 2 integration
failures, 3 a bound check that does not hold. Commands are run
in-process through main(argv); subprocess tests cover the module entry
point, --stdout passthrough, and start states that must fail without a
traceback or a hang.
"""

import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest

import flowbound
from flowbound import __version__, cli, integrator, poincare, polyfield, system_path
from flowbound.cli import main

TWO_PI = 2.0 * math.pi

EQUILIBRIUM = str(system_path("equilibrium"))
CLOSED_ORBIT = str(system_path("closed-orbit"))
STUART_LANDAU = str(system_path("stuart-landau"))
LORENZ = str(system_path("lorenz"))

CIRCLE_PLANE = "0,0,0/0,1,0/positive"


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _svg(xs, ys):
    """The SVG of points (xs, ys), from rows of two values."""
    rows = array("d", np.column_stack([xs, ys]).ravel().tolist())
    return "".join(cli._svg_polyline(rows, 2, 0, 1, "x", "y"))


def run_cli(argv, timeout=None):
    """`python -m flowbound.cli argv` against the package under test."""
    src = str(Path(flowbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "flowbound.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.fixture()
def escape_system(tmp_path):
    path = tmp_path / "escape.sys"
    path.write_text("dx/dt = 1\ndy/dt = 0\ndz/dt = x^2\n")
    return str(path)


class TestSimulate:
    def test_writes_trajectory(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,0,0",
                     "--t1", "1", "--out", str(out)])
        assert code == 0
        data = read_csv(out / "trajectory.csv")
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,y,z"
        assert data["t"][0] == 0.0
        assert data["t"][-1] == 1.0
        assert abs(data["x"][-1] - math.exp(-1.0)) < 1e-8
        assert abs(data["z"][-1] - 0.5 * (1.0 - math.exp(-2.0))) < 1e-8

    @pytest.mark.parametrize("project, bound", [([], 1.5), (["--project", "x,z"], 2)],
                             ids=["csv", "csv-svg"])
    def test_peak_memory_stays_near_the_trajectory(self, tmp_path, monkeypatch,
                                                   project, bound):
        # the CSV and the SVG are streamed in blocks, never held whole next
        # to the arrays; the step is generated before tracing starts, because
        # code generated under tracemalloc runs about ten times slower
        field = flowbound.load_system("lorenz")
        flowbound.integrate(field, [1.0, 1.0, 1.0], 0.0, 1.0)
        monkeypatch.setattr(cli, "_field", lambda _text: field)
        out = tmp_path / "run"
        tracemalloc.start()
        try:
            code = main(["simulate", "--system", LORENZ, "--x0", "1,1,1",
                         "--t1", "200", *project, "--out", str(out)])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        with (out / "trajectory.csv").open() as fh:
            samples = sum(1 for _line in fh) - 1
        rows = samples * (1 + 3) * 8  # one (t, x, y, z) row per sample
        assert samples > 50_000
        assert peak < bound * rows

    @pytest.mark.parametrize("n", [1, 20_000, 30_001, 40_002, 50_912])
    def test_svg_keeps_every_strideth_sample_and_the_last(self, n):
        rng = np.random.default_rng(n)
        xs, ys = rng.normal(size=(2, n)).cumsum(axis=1)
        stride = math.ceil(n / 20_000)
        keep = np.unique(np.append(np.arange(0, n, stride), n - 1))
        assert _svg(xs, ys) == _svg(xs[keep], ys[keep])

    def test_projection_svg(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--system", LORENZ, "--x0", "1,1,1",
                     "--t1", "20", "--project", "x,z", "--out", str(out)])
        assert code == 0
        svg = (out / "projection.svg").read_text()
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert 'viewBox="0 0 800 600"' in svg
        assert svg.count("<polyline") == 1
        assert svg.rstrip().endswith("</svg>")
        assert not re.search(r"date|time(stamp)?", svg, re.IGNORECASE)
        data = read_csv(out / "trajectory.csv")
        assert np.max(np.abs(data["x"])) < 25.0
        assert np.min(data["z"]) >= 0.0 and np.max(data["z"]) <= 50.0

    def test_svg_point_budget(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,0,0",
                     "--t1", "15", "--method", "rk4-fixed",
                     "--step", "0.0005", "--project", "x,z",
                     "--out", str(out)])
        assert code == 0
        assert len(read_csv(out / "trajectory.csv")) == 30001
        svg = (out / "projection.svg").read_text()
        points = re.search(r'points="([^"]*)"', svg).group(1)
        assert len(points.split()) <= 20000

    def test_unknown_projection_variable(self, tmp_path):
        # a usage error, found before anything is integrated or written
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,0,0",
                     "--t1", "1", "--project", "x,w",
                     "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "trajectory.csv").exists()

    def test_step_needs_rk4(self, tmp_path):
        # --step is rk4-fixed's fixed step; the adaptive stepper refuses it
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,0,0",
                     "--t1", "1", "--step", "0.1", "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "trajectory.csv").exists()
        code = main(["lyapunov", "--system", EQUILIBRIUM, "--x0", "1,0,0",
                     "--step", "0.1", "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "lyapunov.json").exists()

    def test_blow_up_exits_2(self, tmp_path, escape_system):
        blow = tmp_path / "blow.sys"
        blow.write_text("dx/dt = x^2\n")
        out = tmp_path / "run"
        code = main(["simulate", "--system", str(blow), "--x0", "1",
                     "--t1", "2", "--out", str(out)])
        assert code == 2
        assert not (out / "trajectory.csv").exists()


class TestUsageErrors:
    def test_missing_system_file(self, tmp_path):
        code = main(["simulate", "--system", str(tmp_path / "nope.sys"),
                     "--x0", "1,0,0", "--t1", "1", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("content", [
        b"dx/dt = x +\n",
        b"dx/dt = x \xff\n",  # not UTF-8
        b"dx/dt = " + b"(" * 300 + b"x" + b")" * 300 + b"\n",
    ], ids=["syntax", "not-utf8", "deep-nesting"])
    def test_unparseable_system_file(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.sys"
        bad.write_bytes(content)
        code = main(["simulate", "--system", str(bad), "--x0", "1",
                     "--t1", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("cannot")
        assert "Traceback" not in err

    def test_wrong_x0_arity(self, tmp_path):
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,2",
                     "--t1", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,0,0"])
        assert info.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 1

    def test_negative_x0_as_separate_argument(self, tmp_path):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert main(["bounds-check", "--system", EQUILIBRIUM,
                     "--x0", "-0.5,0,0", "--out", str(spaced)]) == 0
        assert main(["bounds-check", "--system", EQUILIBRIUM,
                     "--x0=-0.5,0,0", "--out", str(joined)]) == 0
        assert ((spaced / "bounds.json").read_bytes()
                == (joined / "bounds.json").read_bytes())

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1=inf",
         "--method", "rk4-fixed"],
        ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1=nan"],
        ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "1",
         "--tol=inf"],
        ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "1",
         "--method", "rk4-fixed", "--step=inf"],
        ["lyapunov", "--system", LORENZ, "--x0", "1,1,1", "--total=inf"],
        ["lyapunov", "--system", LORENZ, "--x0", "1,1,1",
         "--method", "rk4-fixed", "--step=inf"],
        ["lyapunov", "--system", LORENZ, "--x0", "1,1,1", "--transient=inf"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
         "--t-fwd=nan"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
         "--t-fwd=-1"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
         "--t-back=-1"],
        # no span to check, on a system with a certified component and
        # on one without
        ["bounds-check", "--system", EQUILIBRIUM, "--x0", "1,0,0",
         "--t-fwd=0", "--t-back=0"],
        ["bounds-check", "--system", LORENZ, "--x0", "1,1,1",
         "--t-fwd=0", "--t-back=0"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
         "--bound-tol=nan"],
        ["bounds-check", "--system", LORENZ, "--x0", "1,1,1",
         "--bound-tol=nan"],
        ["refute", "--system", CLOSED_ORBIT, "--x0", "0.5,0,0",
         "--horizon=nan"],
        ["refute", "--system", EQUILIBRIUM, "--x0", "0.1,0,0",
         "--horizon=inf"],
        ["upo", "--system", STUART_LANDAU, "--x0", "1.3,-0.2,0",
         "--plane", CIRCLE_PLANE, "--iterates", "4", "--k-max", "2",
         "--threshold=nan"],
    ], ids=lambda a: f"{a[0]}-{Path(a[2]).stem}"
                     f"{a[-1] if '=' in a[-1] else a[-3]}")
    def test_non_finite_argument(self, tmp_path, capsys, argv):
        # refused where the value enters, before anything is written
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 1
        assert not any(out.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--plane", "sideways", "--plane must look like px,py,pz/nx,ny,nz/dir"),
        ("--plane", "0,0/0,1,0/positive",
         "--plane point and normal need three components each"),
        ("--plane", "0,0,0/0,1,0/sideways",
         "--plane direction must be one of ('positive', 'negative', 'both')"),
        ("--x0", "nan,0,0", "--x0 components must be finite"),
    ], ids=["plane-shape", "plane-point-arity", "plane-direction", "x0-nan"])
    def test_malformed_plane_or_start(self, tmp_path, capsys, flag, value, message):
        argv = {"--plane": CIRCLE_PLANE, "--x0": "1,0,0", flag: value}
        out = tmp_path / "run"
        assert main(["section", "--system", CLOSED_ORBIT,
                     *(f"{k}={v}" for k, v in argv.items()), "--out", str(out)]) == 1
        assert not any(out.iterdir())
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unbounded_section_time_still_runs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["section", "--system", CLOSED_ORBIT, "--x0", "1,-0.1,0",
                     "--plane", CIRCLE_PLANE, "--iterates", "3",
                     "--max-time=inf", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out / "section.csv")) == 3


class TestBoundsCheck:
    def test_equilibrium_passes(self, tmp_path):
        out = tmp_path / "run"
        code = main(["bounds-check", "--system", EQUILIBRIUM,
                     "--x0", "0.5,0,0", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["t_fwd"] == 50.0 and doc["t_back"] == 50.0
        (entry,) = doc["components"]
        assert entry["component"] == 3
        assert entry["alpha"] == 0.0
        report = entry["report"]
        assert report["forward_holds"] and report["backward_holds"]
        # the third component decays below its start going backward, so
        # the uncorrected backward reading of the forward bound fails
        assert report["naive_backward_violated"]

    def test_leg_failing_at_its_start_exits_2(self, tmp_path, capsys):
        # the forward leg stops before its first step, with no samples to
        # check: the failure itself is reported, and nothing is written
        out = tmp_path / "run"
        code = main(["bounds-check", "--system", CLOSED_ORBIT,
                     "--x0=1e200,0,0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "integration failed: non-finite field value at t=0\n")
        assert not (out / "bounds.json").exists()

    def test_explicit_component_flag(self, tmp_path):
        code = main(["bounds-check", "--system", EQUILIBRIUM,
                     "--x0", "0.5,0,0", "--j", "3", "--out", str(tmp_path)])
        assert code == 0

    def test_uncertifiable_component_flag(self, tmp_path):
        code = main(["bounds-check", "--system", LORENZ, "--x0", "1,1,1",
                     "--j", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_no_certified_components(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["bounds-check", "--system", LORENZ, "--x0", "1,1,1",
                     "--out", str(out)])
        assert code == 0
        assert "no component has a certifiable lower bound" \
            in capsys.readouterr().err
        doc = json.loads((out / "bounds.json").read_text())
        assert doc["components"] == []

    @pytest.mark.parametrize("system, legs", [("escape", 2), (LORENZ, 0)])
    def test_each_leg_integrated_once(self, tmp_path, monkeypatch,
                                      escape_system, system, legs):
        # the legs do not depend on the certificate, and a system without
        # one has nothing to check
        system = escape_system if system == "escape" else system
        argv = ["bounds-check", "--system", system, "--x0", "0,0,5"]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        calls = []
        integrate = cli.integrate

        def counted(*a, **k):
            calls.append(a)
            return integrate(*a, **k)
        monkeypatch.setattr(cli, "integrate", counted)
        assert main([*argv, "--out", str(tmp_path / "counted")]) == 0
        assert len(calls) == legs
        assert ((tmp_path / "counted" / "bounds.json").read_bytes()
                == (tmp_path / "plain" / "bounds.json").read_bytes())

    def test_shared_legs_match_single_certificates(self, tmp_path,
                                                   escape_system):
        argv = ["bounds-check", "--system", escape_system, "--x0", "0,0,5"]
        assert main([*argv, "--out", str(tmp_path / "all")]) == 0
        singles = []
        for j in (1, 2, 3):
            out = tmp_path / f"j{j}"
            assert main([*argv, "--j", str(j), "--out", str(out)]) == 0
            singles += json.loads((out / "bounds.json").read_text())[
                "components"]
        doc = json.loads((tmp_path / "all" / "bounds.json").read_text())
        assert doc["components"] == singles


class TestRefute:
    def test_equilibrium_witness(self, tmp_path):
        out = tmp_path / "run"
        code = main(["refute", "--system", EQUILIBRIUM, "--x0", "0,0,0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert "falsified" in doc["verdict"]
        assert doc["bounded"] and doc["equilibrium"]
        assert doc["equilibrium_residual"] == 0.0
        assert doc["witnessed_bound"] == 0.0

    def test_closed_orbit_witness(self, tmp_path):
        out = tmp_path / "run"
        code = main(["refute", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert "falsified" in doc["verdict"]
        assert doc["bounded"] and not doc["equilibrium"]
        assert doc["witnessed_bound"] < 1e3

    def test_escape_is_no_counterexample(self, tmp_path):
        # escape.sys's run from (0, 0, 5), x = t, with no equilibrium, but
        # dx/dt = 1 - y + y^2 is not certified: the components that are
        # have alpha = 0, and the backward run decides
        system = tmp_path / "escape-zero-alpha.sys"
        system.write_text("dx/dt = 1 - y + y^2\ndy/dt = 0\ndz/dt = x^2\n")
        out = tmp_path / "run"
        code = main(["refute", "--system", str(system), "--x0", "0,0,5",
                     "--cap", "1e4", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert "escaped backward" in doc["verdict"]
        assert not doc["bounded"] and "proof" not in doc
        assert 0.0 < doc["horizon"] <= 100.0

    def test_positive_alpha_proves_escape_without_a_run(self, tmp_path):
        # Lorenz plus dw/dt = 1 + x^2: the backward run never ends in
        # practice, while alpha = 1 on w settles it
        system = tmp_path / "lorenz-w.sys"
        system.write_text(Path(LORENZ).read_text() + "dw/dt = 1 + x^2\n")
        out = tmp_path / "run"
        start = time.perf_counter()
        code = main(["refute", "--system", str(system), "--x0", "1,1,1,0",
                     "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert doc["verdict"] == flowbound.VERDICT_PROVED_UNBOUNDED
        assert (doc["component"], doc["alpha"]) == (4, 1.0)
        assert not doc["bounded"] and not doc["equilibrium"]
        assert doc["proof"] == "bound-line"
        assert doc["horizon"] == 0.0 and doc["bound_report"]["samples_checked"] == 1

    def test_prefers_the_positive_alpha_component(self, tmp_path):
        system = tmp_path / "second.sys"
        system.write_text("dx/dt = y^2\ndy/dt = 2 + x^2\ndz/dt = -z\n")
        out = tmp_path / "run"
        assert main(["refute", "--system", str(system), "--x0", "1,1,1",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert (doc["component"], doc["alpha"]) == (2, 2.0)
        assert doc["proof"] == "bound-line"

    @pytest.mark.parametrize("system", [EQUILIBRIUM, CLOSED_ORBIT],
                             ids=["equilibrium", "closed-orbit"])
    def test_huge_bounded_witness_is_strict_json(self, tmp_path, system):
        # (0, 0, 1e200) is an equilibrium of one and drifts by 10 in z on
        # the other: both bounds are 1e200, whose square overflows
        out = tmp_path / "run"
        code = main(["refute", "--system", system, "--x0=0,0,1e200",
                     "--cap", "1e300", "--horizon", "10", "--out", str(out)])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads((out / "refutation.json").read_text(),
                         parse_constant=reject)
        assert "falsified" in doc["verdict"] and doc["bounded"]
        assert doc["witnessed_bound"] == 1e200

    def test_needs_certificate(self, tmp_path):
        out = tmp_path / "run"
        code = main(["refute", "--system", LORENZ, "--x0", "1,1,1",
                     "--out", str(out)])
        assert code == 1
        assert not (out / "refutation.json").exists()


class TestSection:
    def test_circle_section_rows(self, tmp_path):
        out = tmp_path / "run"
        code = main(["section", "--system", CLOSED_ORBIT,
                     "--x0", "1,-0.1,0", "--plane", CIRCLE_PLANE,
                     "--iterates", "5", "--out", str(out)])
        assert code == 0
        lines = (out / "section.csv").read_text().splitlines()
        assert lines[0] == "iterate,u,v,t"
        assert len(lines) == 6
        data = read_csv(out / "section.csv")
        assert list(data["iterate"]) == [0.0, 1.0, 2.0, 3.0, 4.0]
        # the seed starts slightly off the unit circle; later returns
        # have contracted onto it
        assert abs(data["u"][0] - 1.0) < 1e-2
        assert np.max(np.abs(data["u"][1:] - 1.0)) < 1e-6
        gaps = np.diff(data["t"])
        assert np.max(np.abs(gaps - TWO_PI)) < 1e-6

    def test_stalled_refinement_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(poincare, "_REFINE_TOL", 0.0)
        code = main(["section", "--system", CLOSED_ORBIT,
                     "--x0", "1,-0.1,0", "--plane", CIRCLE_PLANE,
                     "--iterates", "5", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "integration failed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("iterates", ["0", "-3"])
    def test_iterates_below_one_is_usage_error(self, tmp_path, iterates):
        out = tmp_path / "run"
        code = main(["section", "--system", CLOSED_ORBIT,
                     "--x0", "1,-0.1,0", "--plane", CIRCLE_PLANE,
                     "--iterates", iterates, "--out", str(out)])
        assert code == 1
        assert not (out / "section.csv").exists()


class TestUpo:
    def test_census_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["upo", "--system", STUART_LANDAU, "--x0", "1.3,-0.2,0",
                     "--plane", CIRCLE_PLANE, "--iterates", "4",
                     "--k-max", "2", "--threshold", "1e-3",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "census.json").read_text())
        assert doc["k_max"] == 2 and doc["threshold"] == 1e-3
        (orbit,) = doc["orbits"]
        assert orbit["k"] == 1
        assert abs(orbit["period"] - TWO_PI) < 1e-6
        assert orbit["stability"] == "stable"
        mods = sorted((math.hypot(re_, im_)
                       for re_, im_ in orbit["multipliers"]), reverse=True)
        assert abs(mods[0] - 1.0) < 1e-6
        cycle = read_csv(out / "orbit-001.csv")
        first = np.array([cycle["x"][0], cycle["y"][0], cycle["z"][0]])
        last = np.array([cycle["x"][-1], cycle["y"][-1], cycle["z"][-1]])
        assert np.max(np.abs(first - last)) < 1e-6

    UPO = ["upo", "--system", STUART_LANDAU, "--x0", "1.3,-0.2,0",
           "--plane", CIRCLE_PLANE, "--iterates", "0"]

    @pytest.mark.parametrize("flags, message", [
        (["--threshold=nan"], "threshold must be finite and nonnegative"),
        (["--k-max", "-5"], "need n_iterates >= k_max >= 1"),
    ], ids=["threshold-nan", "k-max-negative"])
    def test_zero_iterates_still_checks_arguments(self, tmp_path, capsys,
                                                  flags, message):
        out = tmp_path / "run"
        assert main([*self.UPO, *flags, "--out", str(out)]) == 1
        assert not any(out.iterdir())
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_iterates_empty_census(self, tmp_path):
        assert main([*self.UPO, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "census.json").read_text())
        assert doc["k_max"] == 4 and doc["orbits"] == []


class TestLyapunov:
    def test_spectrum_and_history(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", STUART_LANDAU, "--x0", "1,0,0",
                     "--transient", "5", "--total", "50",
                     "--interval", "0.5", "--history", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "lyapunov.json").read_text())
        exps = doc["exponents"]
        assert abs(exps[0]) < 1e-2
        assert abs(exps[1] + 1.0) < 1e-2
        assert abs(exps[2] + 2.0) < 1e-2
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "time,lambda1,lambda2,lambda3"
        assert len(lines) == 2  # 100 renormalizations fit once in 50 tu

    def test_history_without_samples_is_its_header(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", STUART_LANDAU, "--x0", "1,0,0",
                     "--transient", "1", "--total", "10",
                     "--interval", "0.5", "--history", "--out", str(out)])
        assert code == 0
        text = (out / "convergence.csv").read_text()
        assert text == "time,lambda1,lambda2,lambda3\n"

    def test_no_history_flag_no_file(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", STUART_LANDAU, "--x0", "1,0,0",
                     "--transient", "1", "--total", "10",
                     "--interval", "0.5", "--out", str(out)])
        assert code == 0
        assert not (out / "convergence.csv").exists()


    def test_aligned_tangents_exit_2(self, tmp_path, capsys):
        code = main(["lyapunov", "--system", LORENZ, "--x0", "1,1,1",
                     "--transient", "10", "--total", "60", "--interval", "5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "tangent vector 2 collapsed" in capsys.readouterr().err
        assert not (tmp_path / "lyapunov.json").exists()


class TestStdoutPassthrough:
    @pytest.mark.parametrize("argv, primary, summary", [
        (["section", "--system", CLOSED_ORBIT, "--x0", "1,-0.1,0",
          "--plane", CIRCLE_PLANE, "--iterates", "3"],
         "section.csv", "section points"),
        (["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "2",
          "--project", "x,z"], "trajectory.csv", "projection.svg"),
        (["upo", "--system", STUART_LANDAU, "--x0", "1.3,-0.2,0",
          "--plane", CIRCLE_PLANE, "--iterates", "4", "--k-max", "2",
          "--threshold", "1e-3"], "census.json", "distinct orbits"),
        (["lyapunov", "--system", STUART_LANDAU, "--x0", "1,0,0",
          "--transient", "1", "--total", "10", "--history"],
         "lyapunov.json", "exponents"),
        # about 10,000 rows: the CSV is written in several blocks
        (["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "40"],
         "trajectory.csv", "samples"),
    ], ids=["section", "simulate-project", "upo", "lyapunov-history",
            "simulate-blocks"])
    def test_stdout_mirrors_file(self, tmp_path, argv, primary, summary):
        # secondary artifacts (SVG, orbit CSVs, convergence.csv) are
        # written but never streamed
        out = tmp_path / "run"
        proc = run_cli([*argv, "--out", str(out), "--stdout"])
        assert proc.returncode == 0
        assert proc.stdout == (out / primary).read_text()
        assert summary in proc.stderr


class TestRepeatedCalls:
    """`main` reuses one parser and the field of each system text it has
    parsed, with the code generated for it; none of them carries
    anything from one call into the next, a changed or malformed text is
    parsed again, and a text the cache evicts frees its field and code."""

    BOUNDS = ["bounds-check", "--system", EQUILIBRIUM, "--x0", "0.5,0.2,-0.3"]
    SIMULATE = ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "2"]

    def test_repeated_command_generates_no_code(self, tmp_path, monkeypatch):
        argv = [*self.BOUNDS, "--out", str(tmp_path)]
        assert main(argv) == 0
        calls = []
        for module, name, real in ((polyfield, "_compile", polyfield._compile),
                                   (integrator, "_compile_step", integrator._compile_step),
                                   (integrator, "_compile_loop", integrator._compile_loop),
                                   (polyfield, "exec", exec)):
            # exec, a builtin, is the one name the module does not define
            monkeypatch.setattr(module, name, lambda *a, name=name, real=real: (
                calls.append(name), real(*a))[1], raising=name != "exec")
        assert main(argv) == 0
        assert not calls
        assert cli.build_parser() is cli.build_parser()

    def test_evicted_text_frees_its_code(self, tmp_path):
        # the field cache is the one owner of a text's field, and a field
        # the one owner of its generated code
        cli._field.cache_clear()
        texts = [f"dx/dt = -{k + 1}*x\ndy/dt = -y\ndz/dt = 1 + x^2\n"
                 for k in range(cli._FIELD_CACHE_SIZE + 1)]
        for k, text in enumerate(texts):
            system = tmp_path / f"{k}.sys"
            system.write_text(text)
            assert main(["simulate", "--system", str(system), "--x0", "1,0,0",
                         "--t1", "0.1", "--out", str(tmp_path / str(k))]) == 0
            if k == 0:
                slope = weakref.ref(cli._field(text).compiled_slope("rhs"))
        gc.collect()
        assert slope() is None

    def test_one_parse_per_text(self, tmp_path, monkeypatch):
        cli._field.cache_clear()
        texts = []
        monkeypatch.setattr(cli, "parse_system", lambda text: (
            texts.append(text), polyfield.parse_system(text))[1])
        assert main([*self.BOUNDS, "--out", str(tmp_path / "a")]) == 0
        assert main(["refute", "--system", EQUILIBRIUM, "--x0", "0.5,0,0",
                     "--out", str(tmp_path / "b")]) == 0
        assert len(texts) == 1

    def test_edited_file_is_parsed_again(self, tmp_path):
        system = tmp_path / "drift.sys"
        argv = ["bounds-check", "--system", str(system), "--x0", "1,0,0",
                "--t-fwd", "1", "--t-back", "1"]
        alphas = []
        for rate in (1, 2):
            system.write_text(f"dx/dt = -x\ndy/dt = -y\ndz/dt = {rate} + x^2\n")
            assert main([*argv, "--out", str(tmp_path / str(rate))]) == 0
            doc = json.loads((tmp_path / str(rate) / "bounds.json").read_text())
            alphas.append(doc["components"][0]["alpha"])
        assert alphas == [1.0, 2.0]

    def test_malformed_file_fails_every_time(self, tmp_path, capsys):
        system = tmp_path / "bad.sys"
        system.write_text("dx/dt = x +\ndy/dt = 0\ndz/dt = 0\n")
        errors = []
        for _ in range(2):
            assert main(["simulate", "--system", str(system), "--x0", "1,0,0",
                         "--t1", "1", "--out", str(tmp_path)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("cannot parse system file:")
        assert errors[1] == errors[0]

    def test_no_stdout_after_stdout(self, tmp_path, capsys):
        assert main([*self.BOUNDS, "--out", str(tmp_path / "a"), "--stdout"]) == 0
        assert capsys.readouterr().out == (tmp_path / "a" / "bounds.json").read_text()
        assert main([*self.BOUNDS, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == ""

    def test_default_tol_after_another(self, tmp_path):
        fresh, loose, again = (tmp_path / d / "trajectory.csv"
                               for d in ("fresh", "loose", "again"))
        assert run_cli([*self.SIMULATE, "--out", str(fresh.parent)]).returncode == 0
        assert main([*self.SIMULATE, "--tol", "1e-6", "--out", str(loose.parent)]) == 0
        assert main([*self.SIMULATE, "--out", str(again.parent)]) == 0
        assert loose.read_bytes() != fresh.read_bytes()
        assert again.read_bytes() == fresh.read_bytes()

    def test_usage_error_between_identical_commands(self, tmp_path):
        refute = ["refute", "--system", CLOSED_ORBIT, "--x0", "1,0,0"]
        assert main([*refute, "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as info:  # --cap parsed, then the error
            main([*refute, "--cap", "10", "--out", str(tmp_path / "x"), "--horizon"])
        assert info.value.code == 1
        assert main([*refute, "--out", str(tmp_path / "b")]) == 0
        assert not (tmp_path / "x").exists()
        assert ((tmp_path / "a" / "refutation.json").read_bytes()
                == (tmp_path / "b" / "refutation.json").read_bytes())


class TestOverflowingStart:
    """A start state whose field overflows is an integration failure
    (exit 2), or the escape verdict for refute; never a traceback or a
    spin."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--system", CLOSED_ORBIT, "--x0=1e80,0,0", "--t1", "1"],
        ["simulate", "--system", CLOSED_ORBIT, "--x0=1e103,0,0", "--t1", "1"],
        ["simulate", "--system", CLOSED_ORBIT, "--x0=1e155,0,0", "--t1", "1"],
        ["simulate", "--system", EQUILIBRIUM, "--x0=1e155,0,0", "--t1", "1"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0=1e200,0,0"],
        ["lyapunov", "--system", LORENZ, "--x0=1e160,0,0"],
        ["section", "--system", LORENZ, "--x0=1e160,1,1",
         "--plane", "0,0,27/0,0,1/negative"],
    ], ids=lambda a: f"{a[0]}-{Path(a[2]).stem}-{a[3][5:]}")
    def test_integration_failure(self, tmp_path, argv):
        proc = run_cli([*argv, "--out", str(tmp_path)], timeout=30)
        assert proc.returncode == 2
        assert "integration failed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "OverflowError" not in proc.stderr

    def test_cap_verdict_names_the_finite_norm(self, tmp_path):
        # RK4 overshoots to a state whose squared norm overflows: its
        # norm is still finite, and no NumPy warning reaches stderr
        proc = run_cli(["simulate", "--system", CLOSED_ORBIT, "--x0", "2,0,0",
                        "--t1", "-1", "--method", "rk4-fixed", "--step", "0.007",
                        "--out", str(tmp_path)], timeout=30)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert re.fullmatch(r"integration failed: state norm \d\.\d{3}e\+\d+ exceeded "
                            r"blow-up cap 1\.000e\+12 at t=-0\.153846\n", proc.stderr)

    @pytest.mark.parametrize("x0", ["1e155,0,0", "1e200,0,0"])
    def test_refute_reports_escape(self, tmp_path, x0):
        proc = run_cli(["refute", "--system", CLOSED_ORBIT, f"--x0={x0}",
                        "--out", str(tmp_path)], timeout=30)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "OverflowError" not in proc.stderr
        assert proc.stderr.endswith("verdict: orbit escaped backward — no "
                                    "counterexample from this seed\n")

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads((tmp_path / "refutation.json").read_text(),
                         parse_constant=reject)
        assert "escaped backward" in doc["verdict"]
        assert not doc["bounded"]
        assert doc["witnessed_bound"] == float(x0.split(",")[0])


class TestSpanBelowTheSmallestStep:
    """A span shorter than the 16-ulp step the controller may not go
    below still runs: its one step lands on t1, forced by the span."""

    def test_refute_short_horizon_is_bounded(self, tmp_path):
        code = main(["refute", "--system", CLOSED_ORBIT, "--x0", "0.5,0,0",
                     "--horizon", "1e-15", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "refutation.json").read_text())
        assert doc["bounded"] and "falsified" in doc["verdict"]
        assert doc["horizon"] == 1e-15

    def test_simulate_lands_on_t1(self, tmp_path, capsys):
        code = main(["simulate", "--system", LORENZ, "--x0", "1,1,1",
                     "--t0", "99.99999999999999", "--t1", "100",
                     "--out", str(tmp_path)])
        assert code == 0
        data = read_csv(tmp_path / "trajectory.csv")
        assert list(data["t"]) == [99.99999999999999, 100.0]
        # the summary tells the two ends apart
        assert "t=99.99999999999999..100.0)" in capsys.readouterr().err

    def test_bounds_check_subnormal_span(self, tmp_path):
        code = main(["bounds-check", "--system", CLOSED_ORBIT, "--x0", "0.5,0,0",
                     "--t-fwd", "1e-320", "--t-back", "0", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["components"][0]["time_reached"] == [1e-320]


class TestStartBeyondTheCap:
    """A start whose norm already exceeds the blow-up cap is a blow-up at
    t0, with either stepper; refute keeps its escape verdict."""

    MESSAGE = ("integration failed: start state norm 1.000e+13 exceeds "
               "blow-up cap 1.000e+12 at t=0\n")

    @pytest.mark.parametrize("method", ["rk45-adaptive", "rk4-fixed"])
    def test_simulate_exits_2(self, tmp_path, capsys, method):
        code = main(["simulate", "--system", LORENZ, "--x0", "1e13,1,1",
                     "--t1", "1", "--method", method, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == self.MESSAGE
        assert not (tmp_path / "trajectory.csv").exists()

    def test_refute_reports_escape(self, tmp_path):
        code = main(["refute", "--system", CLOSED_ORBIT, "--x0", "1e13,0,0",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "refutation.json").read_text())
        assert not doc["bounded"] and "escaped backward" in doc["verdict"]
        assert doc["horizon"] == 0.0 and doc["witnessed_bound"] == 1e13


class TestRunFailureFamily:
    """Every run failure is an IntegrationError that says where the run
    stopped, and the CLI maps that one class to exit 2 and its message."""

    STEEP = {"square.sys": "dx/dt = x^2\n", "ninth.sys": "dx/dt = x^9\n"}

    @pytest.mark.parametrize("error, argv, message", [
        (flowbound.BlowUpError,
         ["simulate", "--system", "square.sys", "--x0", "1", "--t1", "2"],
         "state norm 1.021e+12 exceeded blow-up cap 1.000e+12 at t=1"),
        (flowbound.MaxStepsError,
         ["simulate", "--system", LORENZ, "--x0", "1,1,1", "--t1", "1e6",
          "--method", "rk4-fixed", "--step", "1e-9"],
         f"1e+15 fixed steps needed, step budget {integrator._MAX_STEPS}"),
        # the singularity of x^9 outruns the blow-up cap
        (flowbound.StepSizeError,
         ["simulate", "--system", "ninth.sys", "--x0", "1", "--t1", "1"],
         "step size underflow (h=3.495e-15) at t=0.125"),
        (flowbound.CrossingRefinementError,
         ["section", "--system", CLOSED_ORBIT, "--x0", "1,-0.1,0",
          "--plane", CIRCLE_PLANE, "--iterates", "5"],
         "crossing refinement stalled at |s|=5.204e-18 (t=0.0996687)"),
        (flowbound.NonReturningOrbitError,
         ["section", "--system", LORENZ, "--x0", "1,1,1",
          "--plane", "0,0,27/0,0,1/negative", "--max-time", "0.01"],
         "no counted section crossing within 0.01 time units"),
        (flowbound.TangentCollapseError,
         ["lyapunov", "--system", LORENZ, "--x0", "1,1,1", "--transient", "10",
          "--total", "60", "--interval", "2"],
         "tangent vector 2 collapsed during renormalization (column norm "
         "3.48e-14 of 20.1 before projection); shrink renorm_interval"),
    ], ids=["blow-up", "max-steps", "step-size", "crossing-refinement",
            "non-returning", "tangent-collapse"])
    def test_failure_is_an_integration_error_exiting_2(
            self, tmp_path, monkeypatch, capsys, error, argv, message):
        if error is flowbound.CrossingRefinementError:
            monkeypatch.setattr(poincare, "_REFINE_TOL", 0.0)
        for name, text in self.STEEP.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "run"
        argv = [str(tmp_path / a) if a in self.STEEP else a for a in argv]
        argv += ["--out", str(out)]
        args = cli.build_parser().parse_args(argv)
        out.mkdir()
        field = polyfield.parse_system(args.system.read_text())
        with pytest.raises(error) as info:
            cli._HANDLERS[args.command][0](
                field, cli._parse_vector(args.x0, field.dimension), args)
        exc = info.value
        assert isinstance(exc, flowbound.IntegrationError)
        assert math.isfinite(exc.t)
        assert isinstance(exc.state, np.ndarray) and exc.state.dtype == np.float64
        assert str(exc) == message
        assert main(argv) == 2
        assert capsys.readouterr().err == f"integration failed: {message}\n"
        assert not any(out.iterdir())
