"""Command-line front end: simulation, bound checks, refutation demos,
sections, periodic-orbit censuses, and Lyapunov runs.

Every command loads a system file, creates the output directory,
parses --x0, runs its one pipeline, writes machine output (CSV/JSON/SVG)
into the output directory, and prints a human summary to stderr. With
--stdout the command's primary artifact is also streamed to stdout, and
nothing else ever is: trajectory.csv (simulate), bounds.json
(bounds-check), refutation.json (refute), section.csv (section),
census.json (upo), lyapunov.json (lyapunov). Outputs carry no
timestamps and all numeric formatting is fixed, so identical inputs
produce byte-identical files.

Exit codes: 0 success, 1 file or configuration problems, 2 integration
failures, 3 a bound verification that did not hold.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .boundlaw import (
    BoundCertificate,
    certified_components,
    check_bound_tol,
    combine_reports,
    refute_nonexistence,
    verify_bounds,
)
from .integrator import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    IntegrationError,
    IntegrationOptions,
    Trajectory,
    integrate,
)
from .lyapunov import TangentCollapseError, lyapunov_spectrum
from .poincare import (
    DIRECTIONS,
    NonReturningOrbitError,
    SectionPlane,
    first_crossing,
    return_map_iterates,
)
from .polyfield import PolyField, SystemConfigError, parse_system
from .upo import SHOOT_INTEGRATION, census

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRATION = 2
EXIT_BOUNDS = 3

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MAX_POINTS = 20000
_SVG_MARGINS = (70.0, 15.0, 15.0, 45.0)  # left, right, top, bottom


def _human(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_vector(text: str, dimension: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != dimension:
        raise ValueError(
            f"--x0 has {len(parts)} components, the system has {dimension}")
    vec = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(vec)):
        raise ValueError("--x0 components must be finite")
    return vec


def _parse_plane(text: str) -> SectionPlane:
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError("--plane must look like px,py,pz/nx,ny,nz/dir")
    point = [float(p) for p in parts[0].split(",")]
    normal = [float(p) for p in parts[1].split(",")]
    if len(point) != 3 or len(normal) != 3:
        raise ValueError("--plane point and normal need three components each")
    if parts[2] not in DIRECTIONS:
        raise ValueError(f"--plane direction must be one of {DIRECTIONS}")
    return SectionPlane(np.array(point), np.array(normal), parts[2])


def _emit(args, filename: str, text: str) -> Path:
    """Write one artifact; with --stdout, mirror it if it is the primary."""
    path = args.out / filename
    path.write_text(text, encoding="utf-8")
    if args.stdout and filename == _HANDLERS[args.command][1]:
        sys.stdout.write(text)
    return path


def _header(args, x0: np.ndarray) -> dict:
    """The keys every JSON artifact opens with."""
    return {"system": str(args.system), "x0": [float(v) for v in x0],
            "seed": args.seed}


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_trajectory(traj: Trajectory) -> str:
    buf = io.StringIO()
    traj.write_csv(buf)
    return buf.getvalue()


def _svg_polyline(xs, ys, xlabel: str, ylabel: str) -> str:
    """Fixed-viewport SVG polyline: decimated, no external assets, no
    timestamps, formatting pinned so equal data gives equal bytes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    stride = max(1, math.ceil(len(xs) / _SVG_MAX_POINTS))
    if stride > 1:
        keep = np.unique(np.append(np.arange(0, len(xs), stride),
                                   len(xs) - 1))
        xs, ys = xs[keep], ys[keep]
    ml, mr, mt, mb = _SVG_MARGINS
    plot_w = _SVG_WIDTH - ml - mr
    plot_h = _SVG_HEIGHT - mt - mb

    def _range(v):
        lo, hi = float(np.min(v)), float(np.max(v))
        pad = 0.05 * (hi - lo) if hi > lo else 1.0
        return lo - pad, hi + pad

    x_lo, x_hi = _range(xs)
    y_lo, y_hi = _range(ys)
    px = ml + (xs - x_lo) / (x_hi - x_lo) * plot_w
    py = _SVG_HEIGHT - mb - (ys - y_lo) / (y_hi - y_lo) * plot_h
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    frame = (f'<rect x="{ml:.0f}" y="{mt:.0f}" width="{plot_w:.0f}" '
             f'height="{plot_h:.0f}" fill="none" stroke="#333"/>')
    labels = (
        f'<text x="{ml + plot_w / 2:.0f}" y="{_SVG_HEIGHT - 8:.0f}" '
        f'text-anchor="middle" font-size="14">{xlabel}</text>'
        f'<text x="16" y="{mt + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 16 {mt + plot_h / 2:.0f})">'
        f'{ylabel}</text>'
        f'<text x="{ml:.0f}" y="{_SVG_HEIGHT - mb + 16:.0f}" '
        f'font-size="11">{x_lo:.6g}</text>'
        f'<text x="{ml + plot_w:.0f}" y="{_SVG_HEIGHT - mb + 16:.0f}" '
        f'text-anchor="end" font-size="11">{x_hi:.6g}</text>'
        f'<text x="{ml - 4:.0f}" y="{_SVG_HEIGHT - mb:.0f}" '
        f'text-anchor="end" font-size="11">{y_lo:.6g}</text>'
        f'<text x="{ml - 4:.0f}" y="{mt + 11:.0f}" text-anchor="end" '
        f'font-size="11">{y_hi:.6g}</text>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">\n'
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#fff"/>\n'
        f'{frame}\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
        f'points="{points}"/>\n'
        f'{labels}\n'
        f'</svg>\n')


def _integration_options(args, **overrides) -> IntegrationOptions:
    return IntegrationOptions(tol=args.tol, **overrides)


def cmd_simulate(field: PolyField, x0: np.ndarray, args) -> int:
    names = list(field.variable_names)
    pair = args.project.split(",") if args.project else []
    if pair and (len(pair) != 2 or any(p not in names for p in pair)):
        raise ValueError(
            f"--project needs two of {','.join(names)} (got {args.project!r})")
    opts = _integration_options(args, method=args.method, step=args.step)
    traj = integrate(field, x0, args.t0, args.t1, opts)
    path = _emit(args, "trajectory.csv", _csv_trajectory(traj))
    _human(f"wrote {path} ({len(traj)} samples, "
           f"t={traj.t0:g}..{traj.final_time:g})")
    if pair:
        ix, iy = names.index(pair[0]), names.index(pair[1])
        svg = _svg_polyline(traj.states[:, ix], traj.states[:, iy],
                            pair[0], pair[1])
        _human(f"wrote {_emit(args, 'projection.svg', svg)}")
    return EXIT_OK


def _leg(field, x0, t_end, opts):
    """One verification leg; integration failures yield the partial
    trajectory (a finite-time escape still has checkable samples)."""
    try:
        return integrate(field, x0, 0.0, t_end, opts), None
    except IntegrationError as exc:
        if exc.trajectory is None or len(exc.trajectory) < 2:
            raise
        return exc.trajectory, str(exc)


def cmd_bounds_check(field: PolyField, x0: np.ndarray, args) -> int:
    check_bound_tol(args.bound_tol)  # also when no component is certified
    opts = _integration_options(args)
    if args.j is not None:
        certs = [BoundCertificate.certified(field, args.j)]
    else:
        certs = certified_components(field)
    # the legs do not depend on the certificate; with none, integrate nothing
    legs = [_leg(field, x0, t_end, opts)
            for t_end in (args.t_fwd, -args.t_back) if t_end != 0 and certs]
    time_reached = sorted(float(traj.final_time) for traj, _f in legs)
    notes = [failure for _traj, failure in legs if failure]
    entries = []
    all_hold = True
    for cert in certs:
        report = combine_reports(*(verify_bounds(traj, cert, tol=args.bound_tol)
                                   for traj, _f in legs))
        all_hold = all_hold and report.forward_holds and report.backward_holds
        entries.append({
            "component": cert.component_index,
            "alpha": cert.alpha,
            "source": cert.source,
            "time_reached": time_reached,
            "notes": notes,
            "report": report.to_json_dict(),
        })
        _human(f"component {cert.component_index}: alpha={cert.alpha:g} "
               f"forward={'ok' if report.forward_holds else 'VIOLATED'} "
               f"backward={'ok' if report.backward_holds else 'VIOLATED'} "
               f"naive_backward_violated={report.naive_backward_violated}")
    if not certs:
        _human("no component has a certifiable lower bound; nothing to check")
    doc = {
        **_header(args, x0),
        "t_fwd": args.t_fwd,
        "t_back": args.t_back,
        "bound_tol": args.bound_tol,
        "components": entries,
    }
    _emit(args, "bounds.json", _json_text(doc))
    return EXIT_OK if all_hold else EXIT_BOUNDS


def cmd_refute(field: PolyField, x0: np.ndarray, args) -> int:
    certs = certified_components(field)
    if not certs:
        _human("refutation needs a component with a certifiable lower bound")
        return EXIT_USAGE
    cert = certs[0]
    opts = _integration_options(args, blow_up_norm=args.cap)
    report = refute_nonexistence(field, cert, x0, args.horizon, opts)
    doc = {
        **_header(args, x0),
        "component": cert.component_index,
        "alpha": cert.alpha,
        **report.to_json_dict(),
    }
    _emit(args, "refutation.json", _json_text(doc))
    _human(f"verdict: {report.verdict}")
    return EXIT_OK


def cmd_section(field: PolyField, x0: np.ndarray, args) -> int:
    if args.iterates < 1:
        raise ValueError("--iterates must be at least 1")
    plane = _parse_plane(args.plane)
    opts = _integration_options(args)
    start, _elapsed = first_crossing(field, plane, x0, 0.0, opts,
                                     max_time=args.max_time)
    points = [start] + return_map_iterates(
        field, plane, start, args.iterates - 1, opts, max_time=args.max_time)
    rows = ["iterate,u,v,t"]
    rows += [
        f"{i},{p.coords2[0]:.17g},{p.coords2[1]:.17g},{p.time:.17g}"
        for i, p in enumerate(points)]
    path = _emit(args, "section.csv", "\n".join(rows) + "\n")
    _human(f"wrote {path} ({len(points)} section points)")
    return EXIT_OK


def cmd_upo(field: PolyField, x0: np.ndarray, args) -> int:
    plane = _parse_plane(args.plane)
    scan_opts = _integration_options(args)
    start, _elapsed = first_crossing(field, plane, x0, 0.0, scan_opts,
                                     max_time=args.max_time)
    orbits = census(field, plane, start, args.iterates, args.k_max,
                    args.threshold, scan_opts,
                    max_time=args.max_time)
    entries = []
    for idx, orbit in enumerate(orbits, start=1):
        fp = orbit.section_fixed_point
        entries.append({
            "k": orbit.k,
            "period": orbit.period,
            "section_point": {
                "coords2": [float(v) for v in fp.coords2],
                "state3": [float(v) for v in fp.state3],
            },
            "multipliers": [[m.real, m.imag]
                            for m in orbit.floquet_multipliers],
            "stability": orbit.stability,
            "residual": orbit.residual,
        })
        orbit_traj = integrate(field, fp.state3, 0.0, orbit.period,
                               SHOOT_INTEGRATION)
        _emit(args, f"orbit-{idx:03d}.csv", _csv_trajectory(orbit_traj))
        _human(f"orbit {idx}: k={orbit.k} T={orbit.period:.6f} "
               f"{orbit.stability} residual={orbit.residual:.2e}")
    doc = {
        **_header(args, x0),
        "plane": {
            "point": [float(v) for v in plane.point],
            "normal": [float(v) for v in plane.normal],
            "direction": plane.direction,
        },
        "n_iterates": args.iterates,
        "k_max": args.k_max,
        "threshold": args.threshold,
        "orbits": entries,
    }
    _emit(args, "census.json", _json_text(doc))
    _human(f"census: {len(orbits)} distinct orbits")
    return EXIT_OK


def cmd_lyapunov(field: PolyField, x0: np.ndarray, args) -> int:
    opts = _integration_options(args, method=args.method, step=args.step)
    result = lyapunov_spectrum(field, x0, args.transient, args.total,
                               args.interval, opts)
    doc = {**_header(args, x0), **result.to_json_dict()}
    _emit(args, "lyapunov.json", _json_text(doc))
    if args.history:
        rows = ["time," + ",".join(
            f"lambda{i + 1}" for i in range(field.dimension))]
        rows += [
            f"{t:.17g}," + ",".join(f"{v:.17g}" for v in ex)
            for t, ex in result.convergence_history]
        _emit(args, "convergence.csv", "\n".join(rows) + "\n")
    _human("exponents: "
           + ", ".join(f"{v:.6f}" for v in result.exponents))
    return EXIT_OK


# each command's handler and the one artifact --stdout mirrors
_HANDLERS = {
    "simulate": (cmd_simulate, "trajectory.csv"),
    "bounds-check": (cmd_bounds_check, "bounds.json"),
    "refute": (cmd_refute, "refutation.json"),
    "section": (cmd_section, "section.csv"),
    "upo": (cmd_upo, "census.json"),
    "lyapunov": (cmd_lyapunov, "lyapunov.json"),
}


def _add_common(sp) -> None:
    sp.add_argument("--system", required=True, type=Path,
                    help="system definition file")
    sp.add_argument("--x0", required=True,
                    help="initial state, comma-separated")
    sp.add_argument("--out", type=Path, default=Path("."),
                    help="output directory (created if missing)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed recorded in outputs; fixed seed means "
                         "byte-identical outputs")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="adaptive stepper tolerance, absolute and relative")
    sp.add_argument("--stdout", action="store_true",
                    help="also stream the primary machine output to stdout")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; 2 means integration
    failure here, so route usage problems to the usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # argparse would read -0.5,0,0 as a flag; no flag starts -<digit>
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowbound",
        description="Polynomial-flow toolkit: integration, component "
                    "bound laws, refutation demos, sections, periodic "
                    "orbits, Lyapunov spectra.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate and export a trajectory")
    _add_common(sp)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, required=True)
    sp.add_argument("--method", choices=(RK45_ADAPTIVE, RK4_FIXED),
                    default=RK45_ADAPTIVE)
    sp.add_argument("--step", type=float, default=None,
                    help="fixed step of rk4-fixed only (default 0.01)")
    sp.add_argument("--project", default=None, metavar="VAR,VAR",
                    help="also write an SVG projection of two variables")

    sp = sub.add_parser("bounds-check",
                        help="verify the forward/backward bound lines")
    _add_common(sp)
    sp.add_argument("--j", type=int, default=None,
                    help="1-based component index (default: all certifiable)")
    sp.add_argument("--t-fwd", type=float, default=50.0)
    sp.add_argument("--t-back", type=float, default=50.0)
    sp.add_argument("--bound-tol", type=float, default=1e-6)

    sp = sub.add_parser("refute",
                        help="search for a bounded backward orbit")
    _add_common(sp)
    sp.add_argument("--horizon", type=float, default=100.0)
    sp.add_argument("--cap", type=float, default=1e12,
                    help="norm above which the orbit counts as escaped")

    sp = sub.add_parser("section", help="Poincaré section point cloud")
    _add_common(sp)
    sp.add_argument("--plane", required=True,
                    help="px,py,pz/nx,ny,nz/dir with dir in "
                         "positive|negative|both")
    sp.add_argument("--iterates", type=int, default=100)
    sp.add_argument("--max-time", type=float, default=1000.0)

    sp = sub.add_parser("upo", help="periodic-orbit census on a section")
    _add_common(sp)
    sp.add_argument("--plane", required=True)
    sp.add_argument("--iterates", type=int, default=2000)
    sp.add_argument("--k-max", type=int, default=4)
    sp.add_argument("--threshold", type=float, default=0.1)
    sp.add_argument("--max-time", type=float, default=1000.0)

    sp = sub.add_parser("lyapunov", help="Lyapunov spectrum estimate")
    _add_common(sp)
    sp.add_argument("--transient", type=float, default=100.0)
    sp.add_argument("--total", type=float, default=1000.0)
    sp.add_argument("--interval", type=float, default=0.5)
    sp.add_argument("--method", choices=(RK45_ADAPTIVE, RK4_FIXED),
                    default=RK45_ADAPTIVE)
    sp.add_argument("--step", type=float, default=None,
                    help="fixed step of rk4-fixed only (default 0.01)")
    sp.add_argument("--history", action="store_true",
                    help="also write the convergence history CSV")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        field = parse_system(args.system.read_text(encoding="utf-8"))
    except OSError as exc:
        _human(f"cannot read system file: {exc}")
        return EXIT_USAGE
    except SystemConfigError as exc:
        _human(f"cannot parse system file: {exc}")
        return EXIT_USAGE
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        x0 = _parse_vector(args.x0, field.dimension)
        return _HANDLERS[args.command][0](field, x0, args)
    except (ValueError, OSError) as exc:
        _human(f"error: {exc}")
        return EXIT_USAGE
    except (IntegrationError, NonReturningOrbitError,
            TangentCollapseError) as exc:
        _human(f"integration failed: {exc}")
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
