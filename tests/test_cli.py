"""Command-line interface: artifacts, exit codes, and error routing.

Exit codes: 0 success, 1 usage or config problems, 2 integration
failures, 3 a bound check that does not hold. Commands are run
in-process through main(argv); subprocess tests cover the module entry
point, --stdout passthrough, and start states that must fail without a
traceback or a hang.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowbound
from flowbound import __version__, cli, poincare, system_path
from flowbound.cli import main

TWO_PI = 2.0 * math.pi

EQUILIBRIUM = str(system_path("equilibrium"))
CLOSED_ORBIT = str(system_path("closed-orbit"))
STUART_LANDAU = str(system_path("stuart-landau"))
LORENZ = str(system_path("lorenz"))

CIRCLE_PLANE = "0,0,0/0,1,0/positive"


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


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

    def test_unparseable_system_file(self, tmp_path):
        bad = tmp_path / "bad.sys"
        bad.write_text("dx/dt = x +\n")
        code = main(["simulate", "--system", str(bad), "--x0", "1",
                     "--t1", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_wrong_x0_arity(self, tmp_path):
        code = main(["simulate", "--system", EQUILIBRIUM, "--x0", "1,2",
                     "--t1", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_bad_plane_spec(self, tmp_path):
        code = main(["section", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
                     "--plane", "sideways", "--out", str(tmp_path)])
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
        ["lyapunov", "--system", LORENZ, "--x0", "1,1,1", "--total=inf"],
        ["lyapunov", "--system", LORENZ, "--x0", "1,1,1", "--transient=inf"],
        ["bounds-check", "--system", CLOSED_ORBIT, "--x0", "1,0,0",
         "--t-fwd=nan"],
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

    def test_escape_is_no_counterexample(self, tmp_path, escape_system):
        out = tmp_path / "run"
        code = main(["refute", "--system", escape_system, "--x0", "0,0,5",
                     "--cap", "1e4", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "refutation.json").read_text())
        assert "escaped backward" in doc["verdict"]
        assert not doc["bounded"]
        assert 0.0 < doc["horizon"] <= 100.0

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

    def test_no_history_flag_no_file(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lyapunov", "--system", STUART_LANDAU, "--x0", "1,0,0",
                     "--transient", "1", "--total", "10",
                     "--interval", "0.5", "--out", str(out)])
        assert code == 0
        assert not (out / "convergence.csv").exists()


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
    ], ids=["section", "simulate-project", "upo", "lyapunov-history"])
    def test_stdout_mirrors_file(self, tmp_path, argv, primary, summary):
        # secondary artifacts (SVG, orbit CSVs, convergence.csv) are
        # written but never streamed
        out = tmp_path / "run"
        proc = run_cli([*argv, "--out", str(out), "--stdout"])
        assert proc.returncode == 0
        assert proc.stdout == (out / primary).read_text()
        assert summary in proc.stderr


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
        # generated steps run on floats, whose powers raise OverflowError
        assert "OverflowError" not in proc.stderr

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
