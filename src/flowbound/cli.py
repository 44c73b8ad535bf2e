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
import functools
import json
import math
import re
import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

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
    _csv_blocks,
    integrate,
)
from .polyfield import PolyField, SystemConfigError, parse_system

if TYPE_CHECKING:
    from .poincare import SectionPlane

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRATION = 2
EXIT_BOUNDS = 3

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MAX_POINTS = 20000
_SVG_MARGINS = (70.0, 15.0, 15.0, 45.0)  # left, right, top, bottom
_SVG_CHUNK = 1024  # polyline points formatted at once
_FIELD_CACHE_SIZE = 16  # system texts whose parsed fields a process keeps


def _human(message: str) -> None:
    print(message, file=sys.stderr)


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _field(text: str) -> PolyField:
    """The field of a system file's text, parsed on the first command that
    reads this text; later commands share it, as a PolyField is immutable.
    A SystemConfigError is raised again on every call, never cached."""
    return parse_system(text)


def _parse_vector(text: str, dimension: int) -> list[float]:
    parts = text.split(",")
    if len(parts) != dimension:
        raise ValueError(
            f"--x0 has {len(parts)} components, the system has {dimension}")
    vec = [float(p) for p in parts]
    if not all(map(math.isfinite, vec)):
        raise ValueError("--x0 components must be finite")
    return vec


def _parse_plane(text: str) -> SectionPlane:
    from .poincare import DIRECTIONS, SectionPlane
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError("--plane must look like px,py,pz/nx,ny,nz/dir")
    point = [float(p) for p in parts[0].split(",")]
    normal = [float(p) for p in parts[1].split(",")]
    if len(point) != 3 or len(normal) != 3:
        raise ValueError("--plane point and normal need three components each")
    if parts[2] not in DIRECTIONS:
        raise ValueError(f"--plane direction must be one of {DIRECTIONS}")
    return SectionPlane(point, normal, parts[2])


def _emit(args, filename: str, text: str | Iterable[str]) -> Path:
    """Write one artifact, a string or an iterable of text blocks streamed
    into the file; with --stdout, mirror the primary once it is written."""
    path = args.out / filename
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    if args.stdout and filename == _HANDLERS[args.command][1]:
        with path.open(encoding="utf-8") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    return path


def _header(args, x0: list[float]) -> dict:
    """The keys every JSON artifact opens with."""
    return {"system": str(args.system), "x0": [float(v) for v in x0],
            "seed": args.seed}


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _svg_polyline(rows, width, ix, iy, xlabel: str, ylabel: str) -> Iterator[str]:
    """Fixed-viewport SVG polyline of values ix and iy of each `width`-value
    row of the flat `rows`, in text blocks: decimated, no external assets,
    no timestamps, formatting pinned so equal data gives equal bytes."""
    n = len(rows) // width
    stride = max(1, math.ceil(n / _SVG_MAX_POINTS))
    xs, ys = rows[ix::width * stride], rows[iy::width * stride]
    if (n - 1) % stride:  # the last sample is always drawn
        xs.append(rows[ix - width])
        ys.append(rows[iy - width])
    ml, mr, mt, mb = _SVG_MARGINS
    plot_w = _SVG_WIDTH - ml - mr
    plot_h = _SVG_HEIGHT - mt - mb

    def _range(v):  # the rows are finite: min and max meet no nan
        lo, hi = min(v), max(v)
        pad = 0.05 * (hi - lo) if hi > lo else 1.0
        return lo - pad, hi + pad

    x_lo, x_hi = _range(xs)
    y_lo, y_hi = _range(ys)
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">\n'
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#fff"/>\n'
        f'<rect x="{ml:.0f}" y="{mt:.0f}" width="{plot_w:.0f}" '
        f'height="{plot_h:.0f}" fill="none" stroke="#333"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
        f'points="')
    wx, wy, base = x_hi - x_lo, y_hi - y_lo, _SVG_HEIGHT - mb
    for i in range(0, len(xs), _SVG_CHUNK):  # the array formula's operations and order
        px = [ml + (x - x_lo) / wx * plot_w for x in xs[i:i + _SVG_CHUNK]]
        py = [base - (y - y_lo) / wy * plot_h for y in ys[i:i + _SVG_CHUNK]]
        yield (" " if i else "") + " ".join(["%.2f,%.2f" % p for p in zip(px, py)])
    yield (
        f'"/>\n'
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
        f'font-size="11">{y_hi:.6g}</text>\n'
        f'</svg>\n')


def _integration_options(args, **overrides) -> IntegrationOptions:
    """`--tol`, and `--method` and `--step` where `_add_stepper` added them."""
    stepper = {k: v for k, v in vars(args).items() if k in ("method", "step")}
    return IntegrationOptions(tol=args.tol, **stepper, **overrides)


def cmd_simulate(field: PolyField, x0: list[float], args) -> int:
    names = list(field.variable_names)
    pair = args.project.split(",") if args.project else []
    if pair and (len(pair) != 2 or any(p not in names for p in pair)):
        raise ValueError(
            f"--project needs two of {','.join(names)} (got {args.project!r})")
    opts = _integration_options(args)
    traj = integrate(field, x0, args.t0, args.t1, opts)
    path = _emit(args, "trajectory.csv", traj.csv_blocks())
    _human(f"wrote {path} ({len(traj)} samples, "
           f"t={traj.t0!r}..{traj.final_time!r})")
    if pair:
        ix, iy = names.index(pair[0]), names.index(pair[1])
        svg = _svg_polyline(traj.rows, 1 + len(names), 1 + ix, 1 + iy,
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


def cmd_bounds_check(field: PolyField, x0: list[float], args) -> int:
    check_bound_tol(args.bound_tol)  # also when no component is certified
    spans = (args.t_fwd, args.t_back)
    if not (all(0 <= t < math.inf for t in spans) and any(spans)):
        raise ValueError("--t-fwd and --t-back must be finite, nonnegative, not both 0")
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


def cmd_refute(field: PolyField, x0: list[float], args) -> int:
    certs = certified_components(field)
    if not certs:
        _human("refutation needs a component with a certifiable lower bound")
        return EXIT_USAGE
    # alpha > 0 proves every backward orbit unbounded: prefer that component
    cert = next((c for c in certs if c.alpha > 0), certs[0])
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


def cmd_section(field: PolyField, x0: list[float], args) -> int:
    from .poincare import first_crossing, return_map_iterates
    if args.iterates < 1:
        raise ValueError("--iterates must be at least 1")
    plane = _parse_plane(args.plane)
    opts = _integration_options(args)
    start, _elapsed = first_crossing(field, plane, x0, 0.0, opts,
                                     max_time=args.max_time)
    points = [start] + return_map_iterates(
        field, plane, start, args.iterates - 1, opts, max_time=args.max_time)
    path = _emit(args, "section.csv", _csv_blocks(
        ("iterate", "u", "v", "t"),
        [v for i, p in enumerate(points) for v in (i, *p.coords2.tolist(), p.time)]))
    _human(f"wrote {path} ({len(points)} section points)")
    return EXIT_OK


def cmd_upo(field: PolyField, x0: list[float], args) -> int:
    from .poincare import first_crossing
    from .upo import SHOOT_INTEGRATION, census
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
        _emit(args, f"orbit-{idx:03d}.csv", orbit_traj.csv_blocks())
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


def cmd_lyapunov(field: PolyField, x0: list[float], args) -> int:
    from .lyapunov import lyapunov_spectrum
    opts = _integration_options(args)
    result = lyapunov_spectrum(field, x0, args.transient, args.total,
                               args.interval, opts)
    doc = {**_header(args, x0), **result.to_json_dict()}
    _emit(args, "lyapunov.json", _json_text(doc))
    if args.history:
        names = [f"lambda{i + 1}" for i in range(field.dimension)]
        _emit(args, "convergence.csv", _csv_blocks(
            ("time", *names),
            [v for t, ex in result.convergence_history for v in (t, *ex)]))
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


def _add_stepper(sp) -> None:
    sp.add_argument("--method", choices=(RK45_ADAPTIVE, RK4_FIXED),
                    default=RK45_ADAPTIVE)
    sp.add_argument("--step", type=float, default=None,
                    help="fixed step of rk4-fixed only (default 0.01)")


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


@functools.cache  # built on the first main call, then reused
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
    _add_stepper(sp)
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
    _add_stepper(sp)
    sp.add_argument("--history", action="store_true",
                    help="also write the convergence history CSV")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        field = _field(args.system.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
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
    except IntegrationError as exc:
        _human(f"integration failed: {exc}")
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
