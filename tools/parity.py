"""Compare the CLI's behaviour in two checkouts over a fixed command matrix.

    python tools/parity.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each command of the matrix runs once per checkout, each in a fresh Python
process with that checkout's `src/` on `PYTHONPATH`, in an empty working
directory, writing its artifacts to `out/` there. Every artifact, stdout,
stderr and the exit code are compared; the path of this `tools/`
directory and each checkout's own path (which `--system` carries into
every JSON artifact) are first replaced by the placeholders `<TOOLS>` and
`<CHECKOUT>`.

Then each checkout runs the whole matrix again in one interpreter,
calling `flowbound.cli.main` row after row, each row in an empty working
directory of its own with stdout and stderr captured, `SystemExit`
taken as the exit code and any other exception as exit 1 with its
traceback. Every row must give what its fresh process gave, a traceback
compared by its last line, so no state (a reused parser, a cached field
and its generated code) leaks from one command into the next.

Prints one line per differing command and exits 1 if any command differs
in either pass, else 0. Runs two processes at a time.
"""

from __future__ import annotations

import io
import os
import pickle
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PLACEHOLDER = b"<CHECKOUT>"
TOOLS = Path(__file__).resolve().parent
TOOLS_PLACEHOLDER = b"<TOOLS>"
TRACEBACK = b"Traceback (most recent call last):\n"
WORKERS = 2

LORENZ_Z27 = "0,0,27/0,0,1/negative"
Y0_PLANE = "0,0,0/0,1,0/positive"
STARTS = {
    "lorenz": ("1,1,1", "-5,3,20", "0.1,0,0"),
    "closed-orbit": ("0.5,0,0", "1,0,0", "2,0,0"),
    "stuart-landau": ("1.3,-0.2,0.5", "0.5,0,0", "1,0,0"),
    "equilibrium": ("0.5,0,0", "0,0,0", "0.1,0.2,-0.3"),
}


def _matrix() -> list[tuple[str, ...]]:
    """(command, system, arguments...) rows; the system is a shipped name,
    or a `.sys` file under this `tools/` directory, which both checkouts
    read from the same path."""
    rows = []
    for system, starts in STARTS.items():
        x0 = starts[0]
        rows += [
            ("simulate", system, "--x0", x0, "--t1", "5", "--project", "x,z",
             "--stdout"),
            ("simulate", system, "--x0", x0, "--t1", "5",
             "--method", "rk4-fixed", "--step", "0.01"),
            ("simulate", system, "--x0", x0, "--t0", "0.25", "--t1", "-0.25"),
        ]
        rows += [("bounds-check", system, "--x0", x, "--t-fwd", "20",
                  "--t-back", "20", "--stdout") for x in starts]
    # no span to check: refused before anything is integrated
    rows.append(("bounds-check", "equilibrium", "--x0", "1,0,0", "--t-fwd", "0",
                 "--t-back", "0"))
    rows += [("refute", "closed-orbit", "--x0", x, "--stdout")
             for x in ("0.5,0,0", "1,0,0", "1.1,0,0", "2,0,0")]
    rows += [
        ("refute", "closed-orbit", "--x0", "1.1,0,0", "--cap", "1e3"),
        ("refute", "equilibrium", "--x0", "0.1,0,0"),
        # every refute outcome: a Newton path of several steps, an exact
        # equilibrium, no certifiable component, long bounded backward
        # runs, and a cap passed before the step underflows
        ("refute", "equilibrium", "--x0", "2,-1,0.5", "--stdout"),
        ("refute", "equilibrium", "--x0", "0,0,0"),
        ("refute", "stuart-landau", "--x0", "1,0,0"),
        ("refute", "closed-orbit", "--x0", "0.5,0,0", "--horizon", "1000"),
        ("refute", "closed-orbit", "--x0", "2,0,0", "--cap", "10"),
        ("refute", "closed-orbit", "--x0", "0.3,0.4,-2", "--horizon", "50"),
    ]
    # bounded witnesses whose norm squared overflows
    rows += [("refute", system, "--x0=0,0,1e200", "--cap", "1e300", "--horizon", "10")
             for system in ("closed-orbit", "equilibrium")]
    rows += [("section", "lorenz", "--x0", "1,1,1", "--plane", plane,
              "--iterates", "50", "--stdout")
             for plane in (LORENZ_Z27, Y0_PLANE, "0,0,20/1,1,1/both",
                           "1,2,25/0.3,-0.5,1/positive")]
    # a plane that the orbit crosses both ways every period
    rows += [("section", "stuart-landau", "--x0", "1.3,-0.2,0.5", "--plane",
              f"0,0,0/0,1,0/{direction}", "--iterates", "50", "--stdout")
             for direction in ("negative", "both")]
    # CSVs of several blocks of rows, and a decimated SVG
    rows += [
        ("simulate", "lorenz", "--x0", "1,1,1", "--t1", "100",
         "--project", "x,z", "--stdout"),
        ("simulate", "lorenz", "--x0", "1,1,1", "--t1", "30",
         "--method", "rk4-fixed", "--step", "0.005", "--stdout"),
        ("section", "lorenz", "--x0", "1,1,1", "--plane", LORENZ_Z27,
         "--iterates", "300", "--stdout"),
        # crossings that the DP5(4) Hermite Newton polish moves
        ("section", "lorenz", "--x0", "1,1,1", "--plane", "0,0,27/0,0,1/both",
         "--iterates", "300", "--tol", "1e-9", "--stdout"),
    ]
    # normals whose squares overflow or are subnormal
    rows += [("section", "lorenz", "--x0", "1,1,1", "--plane", f"0,0,27/{normal}/both",
              "--iterates", "50", "--stdout")
             for normal in ("1e200,1e200,0", "3e-162,0,4e-162")]
    rows += [
        ("upo", "stuart-landau", "--x0", "1.3,-0.2,0", "--plane", Y0_PLANE,
         "--iterates", "4", "--k-max", "2", "--stdout"),
        ("upo", "lorenz", "--x0", "1,1,1", "--plane", LORENZ_Z27,
         "--iterates", "300"),
        # pairs that repeat exactly, scanned on cells whose size is subnormal
        ("upo", "stuart-landau", "--x0", "1,0,0", "--plane", Y0_PLANE,
         "--iterates", "100", "--k-max", "1", "--threshold", "1e-320"),
        # no iterates: the other arguments are still checked
        ("upo", "stuart-landau", "--x0", "1,0,0", "--plane", Y0_PLANE,
         "--iterates", "0", "--threshold=nan"),
        ("upo", "stuart-landau", "--x0", "1,0,0", "--plane", Y0_PLANE,
         "--iterates", "0", "--k-max", "-5"),
        ("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "10",
         "--total", "100", "--interval", "0.5", "--history"),
        ("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "10",
         "--total", "100", "--interval", "0.5", "--history",
         "--method", "rk4-fixed", "--step", "0.01"),
    ]
    # twenty intervals that restart one run and a shorter last one
    rows += [("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "0", "--total",
              "10.2", "--interval", "0.5", *method)
             for method in (("--method", "rk4-fixed", "--step", "0.015"), ())]
    # the collapse test's verdicts: interval 2 refused (exit 2), 1 kept
    rows += [("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "10",
              "--total", "60", "--interval", interval) for interval in ("2", "1")]
    # renormalizations of one and four tangent vectors, and an interval
    # count past the step budget
    rows += [
        ("lyapunov", "parity-systems/logistic.sys", "--x0", "0.1",
         "--transient", "1", "--total", "60", "--interval", "0.5", "--history"),
        ("lyapunov", "parity-systems/lorenz-escape.sys", "--x0", "1,1,1,0",
         "--transient", "10", "--total", "100", "--interval", "0.5", "--history"),
        ("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "0",
         "--total", "1", "--interval", "5e-324"),
    ]
    # starts whose field value is huge or overflows
    for system, plane in (("closed-orbit", Y0_PLANE), ("lorenz", LORENZ_Z27)):
        for big in ("1e20", "1e80", "1e150", "1e155", "1e200"):
            x0 = f"--x0={big},0,0"
            rows += [
                ("simulate", system, x0, "--t1", "1"),
                ("simulate", system, x0, "--t1", "1", "--method", "rk4-fixed"),
                ("bounds-check", system, x0, "--t-fwd", "1", "--t-back", "1"),
                ("lyapunov", system, x0, "--transient", "1", "--total", "1"),
                ("section", system, x0, "--plane", plane, "--iterates", "3"),
                ("refute", system, x0, "--horizon", "1"),
            ]
    # RK4 backward escapes: an overflowing stage, and the cap verdict on
    # a finite state whose slope overflows; a 4-D field past its escape
    # time; a 1-D field
    rows += [
        ("simulate", "closed-orbit", "--x0", "2,0,0", "--t1", "-1",
         "--method", "rk4-fixed"),
        ("simulate", "closed-orbit", "--x0", "2,0,0", "--t1", "-1",
         "--method", "rk4-fixed", "--step", "0.015"),
        ("simulate", "parity-systems/lorenz-escape.sys", "--x0", "1,1,1,1",
         "--t1", "1.5", "--stdout"),
        # the one Gauss–Newton path of several steps in 4-D
        ("refute", "parity-systems/lorenz-escape.sys", "--x0", "1,1,1,1", "--stdout"),
        ("simulate", "parity-systems/logistic.sys", "--x0", "0.1", "--t1", "10",
         "--stdout"),
    ]
    # spans shorter than the smallest step the controller would choose,
    # and starts beyond the blow-up cap
    rows += [
        ("refute", "closed-orbit", "--x0", "0.5,0,0", "--horizon", "1e-15"),
        ("simulate", "lorenz", "--x0", "1,1,1", "--t0", "99.99999999999999",
         "--t1", "100", "--stdout"),
        ("bounds-check", "closed-orbit", "--x0", "0.5,0,0", "--t-fwd", "1e-320",
         "--t-back", "0"),
        ("simulate", "lorenz", "--x0", "1e13,1,1", "--t1", "1"),
        ("simulate", "lorenz", "--x0", "1e13,1,1", "--t1", "1", "--method", "rk4-fixed"),
        ("refute", "closed-orbit", "--x0", "1e13,0,0"),
    ]
    # powers up to the seventh, computed as shared products
    quintic = ("parity-systems/quintic.sys", "--x0", "0.9,0.4,0.3")
    rows += [
        ("simulate", *quintic, "--t1", "10", "--stdout"),
        ("simulate", *quintic, "--t1", "-0.5", "--method", "rk4-fixed"),
        ("lyapunov", *quintic, "--transient", "1", "--total", "20",
         "--interval", "0.5", "--history"),
    ]
    rows += [
        ("simulate", "lorenz", "--x0", "1,1,1"),  # usage error: no --t1
        ("section", "lorenz", "--x0", "1,1,1", "--plane", LORENZ_Z27,
         "--iterates", "5", "--max-time=inf"),
        # a search that never returns, and a fixed step that is not finite
        ("section", "lorenz", "--x0", "1,1,1", "--plane", LORENZ_Z27,
         "--max-time", "0.01"),
        ("simulate", "lorenz", "--x0", "1,1,1", "--method", "rk4-fixed",
         "--step", "inf", "--t1", "1"),
        ("lyapunov", "lorenz", "--x0", "1,1,1", "--method", "rk4-fixed",
         "--step=inf"),
    ]
    # the system-file reader's error paths, a zeroth power of zero and a
    # file that is not UTF-8
    rows += [("simulate", f"parity-systems/{name}.sys", "--x0", "1,0,0",
              "--t1", "1", "--stdout")
             for name in ("param-error", "head-error", "expr-error",
                          "zero-power", "not-utf8")]
    return rows


def _argv(checkout: Path, row: tuple[str, ...]) -> list[str]:
    command, system, *rest = row
    sys_file = (TOOLS / system if system.endswith(".sys") else
                checkout / "src" / "flowbound" / "systems" / f"{system}.sys")
    return [command, "--system", str(sys_file), *rest, "--out", "out"]


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def _outcome(checkout: Path, work: str, code: int, stdout: bytes,
             stderr: bytes) -> dict:
    """What one row run in `work` produced, with the tools and checkout
    paths replaced by their placeholders."""
    out = Path(work) / "out"
    artifacts = sorted(out.iterdir()) if out.is_dir() else []
    tools, path = str(TOOLS).encode(), str(checkout).encode()

    def norm(data: bytes) -> bytes:
        return data.replace(tools, TOOLS_PLACEHOLDER).replace(path, PLACEHOLDER)

    return {"exit": code, "stdout": norm(stdout), "stderr": norm(stderr),
            **{f"file {p.name}": norm(p.read_bytes()) for p in artifacts}}


def _run(checkout: Path, row: tuple[str, ...]) -> dict:
    """Run one matrix row in `checkout`, in a fresh process."""
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        proc = subprocess.run(
            [sys.executable, "-m", "flowbound.cli", *_argv(checkout, row)],
            cwd=work, env=_env(checkout), capture_output=True)
        return _outcome(checkout, work, proc.returncode, proc.stdout,
                        proc.stderr)


def _run_here(checkout: str, results: str) -> None:
    """Run every matrix row through this interpreter's `flowbound.cli.main`
    (from `checkout`'s `src/`) and pickle the outcomes into `results`."""
    from flowbound.cli import main as cli_main

    checkout = Path(checkout)
    home, outcomes = os.getcwd(), []
    for row in _matrix():
        with tempfile.TemporaryDirectory(prefix="parity-") as work:
            out, err = io.StringIO(), io.StringIO()
            os.chdir(work)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli_main(_argv(checkout, row))
            except SystemExit as exc:
                code = exc.code or 0
            except Exception:  # as a fresh process would: traceback, exit 1
                traceback.print_exc(file=err)
                code = 1
            finally:
                os.chdir(home)
            outcomes.append(_outcome(checkout, work, code, out.getvalue().encode(),
                                     err.getvalue().encode()))
    Path(results).write_bytes(pickle.dumps(outcomes))


def _run_in_one_process(checkout: Path) -> list[dict]:
    """Every matrix row of `checkout`, run in one interpreter."""
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        results = Path(work) / "outcomes.pickle"
        code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import parity; "
                f"parity._run_here({str(checkout)!r}, {str(results)!r})")
        subprocess.run([sys.executable, "-c", code], cwd=work,
                       env=_env(checkout), check=True)
        return pickle.loads(results.read_bytes())


def _exception_only(outcome: dict) -> dict:
    """`outcome` with a traceback in its stderr cut to its last line, the
    exception; the frames above it differ between a fresh process and
    `_run_here`."""
    head, _, rest = outcome["stderr"].partition(TRACEBACK)
    return {**outcome, "stderr": head + b"".join(rest.splitlines(True)[-1:])}


def _differing(rows, before, after, label: str) -> int:
    """Print one line per row whose outcomes differ; return their count."""
    differing = 0
    for row, a, b in zip(rows, before, after):
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if keys:
            differing += 1
            print(f"DIFF{label} {' '.join(row)}: {', '.join(keys)}")
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/parity.py PARENT_CHECKOUT CHANGE_CHECKOUT",
              file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    rows = _matrix()
    with ThreadPoolExecutor(WORKERS) as pool:
        before = list(pool.map(lambda r: _run(parent, r), rows))
        after = list(pool.map(lambda r: _run(change, r), rows))
        in_one = list(pool.map(_run_in_one_process, (parent, change)))
    differing = _differing(rows, before, after, "")
    codes = Counter(r["exit"] for r in before)
    print(f"{differing} of {len(rows)} commands differ; parent exit codes: "
          + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
    leaking = sum(_differing(rows, map(_exception_only, fresh),
                             map(_exception_only, one),
                             f" in one process ({name})")
                  for name, fresh, one in (("parent", before, in_one[0]),
                                           ("change", after, in_one[1])))
    print(f"in one process: {leaking} command runs differ from their "
          f"fresh-process runs")
    return 1 if differing or leaking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
