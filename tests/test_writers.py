"""The float CSV and SVG writers against the NumPy writers they replaced.

`_numpy_csv_blocks` and `_numpy_svg_polyline` are the earlier writers,
which took NumPy columns; the writers of the package take the flat
(t, x_1, ..., x_n) rows of a trajectory. Both must give the same bytes.
"""

import math
from array import array

import numpy as np
import pytest

import flowbound
from flowbound import cli, integrator
from flowbound.cli import (
    _SVG_CHUNK,
    _SVG_HEIGHT,
    _SVG_MARGINS,
    _SVG_MAX_POINTS,
    _SVG_WIDTH,
    main,
)
from flowbound.integrator import _CSV_BLOCK


def _numpy_csv_blocks(names, *columns):
    """CSV text in blocks of rows: the header `names`, then the `columns`
    side by side (a 2-D column is several), each value in "%.17g"."""
    row = ",".join(["%.17g"] * len(names)) + "\n"
    yield ",".join(names) + "\n"
    for i in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[i:i + _CSV_BLOCK] for c in columns])
        yield "".join([row % tuple(r) for r in block.tolist()])


def _numpy_svg_polyline(xs, ys, xlabel, ylabel):
    """Fixed-viewport SVG polyline in text blocks: decimated, no external
    assets, no timestamps, formatting pinned so equal data gives equal
    bytes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    stride = max(1, math.ceil(n / _SVG_MAX_POINTS))
    keep = slice(None, None, stride)
    if (n - 1) % stride:  # the last sample is always drawn
        xs, ys = np.append(xs[keep], xs[-1]), np.append(ys[keep], ys[-1])
    else:
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
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">\n'
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#fff"/>\n'
        f'<rect x="{ml:.0f}" y="{mt:.0f}" width="{plot_w:.0f}" '
        f'height="{plot_h:.0f}" fill="none" stroke="#333"/>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
        f'points="')
    for i in range(0, len(px), _SVG_CHUNK):
        chunk = zip(px[i:i + _SVG_CHUNK].tolist(), py[i:i + _SVG_CHUNK].tolist())
        yield (" " if i else "") + " ".join(["%.2f,%.2f" % p for p in chunk])
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


@pytest.fixture(scope="module")
def lorenz_traj():
    traj = flowbound.integrate(flowbound.load_system("lorenz"), [1.0, 1.0, 1.0],
                               0.0, 100.0)
    assert _SVG_MAX_POINTS < len(traj) <= 2 * _SVG_MAX_POINTS  # a stride of 2
    return traj


def _svg(rows, width, ix, iy):
    return "".join(cli._svg_polyline(rows, width, ix, iy, "a", "b"))


def _numpy_svg(table, ix, iy):
    return "".join(_numpy_svg_polyline(table[:, ix], table[:, iy], "a", "b"))


class TestTrajectory:
    def test_csv(self, lorenz_traj):
        names = ("t", "x", "y", "z")
        assert ("".join(lorenz_traj.csv_blocks())
                == "".join(_numpy_csv_blocks(names, lorenz_traj.times,
                                             lorenz_traj.states)))

    @pytest.mark.parametrize("ix, iy", [(1, 3), (0, 2), (3, 1)])
    def test_projection(self, lorenz_traj, ix, iy):
        rows = lorenz_traj.rows
        table = np.frombuffer(rows).reshape(-1, 4)
        assert (len(table) - 1) % 2  # the last sample is added to the stride
        assert _svg(rows, 4, ix, iy) == _numpy_svg(table, ix, iy)

    def test_projection_ending_on_the_stride(self, lorenz_traj):
        n = len(lorenz_traj) - 1
        rows = lorenz_traj.rows[:4 * n]
        table = np.frombuffer(rows).reshape(-1, 4)
        assert math.ceil(n / _SVG_MAX_POINTS) == 2 and (n - 1) % 2 == 0
        assert _svg(rows, 4, 1, 3) == _numpy_svg(table, 1, 3)

    def test_views_of_the_rows(self, lorenz_traj):
        # the arrays a trajectory was built from before the rows became its store
        table = np.frombuffer(lorenz_traj.rows).reshape(-1, 4)
        for view, old in ((lorenz_traj.times, table[:, 0]),
                          (lorenz_traj.states, table[:, 1:])):
            assert view.dtype == old.dtype and view.shape == old.shape
            assert view.strides == old.strides
            assert np.array_equal(view, old)
            assert np.shares_memory(view, table)
        assert lorenz_traj.times is lorenz_traj.times  # built once
        assert np.array_equal(lorenz_traj.final_state, table[-1, 1:])
        assert lorenz_traj.final_time == table[-1, 0]
        assert lorenz_traj.t0 == table[0, 0] and len(lorenz_traj) == len(table)


@pytest.mark.parametrize("n", [1, 2, 3, 20_001, 40_001])
def test_constant_column(n):
    # a column with hi == lo is padded by 1.0 on each side
    rng = np.random.default_rng(n)
    table = np.column_stack([rng.normal(size=n).cumsum(), np.full(n, 3.0),
                             np.zeros(n)])
    rows = array("d", table.ravel().tolist())
    for ix, iy in ((0, 1), (1, 0), (1, 2), (2, 2)):
        assert _svg(rows, 3, ix, iy) == _numpy_svg(table, ix, iy)


def test_section_csv(tmp_path):
    lorenz = flowbound.load_system("lorenz")
    plane = flowbound.SectionPlane([0.0, 0.0, 27.0], [0.0, 0.0, 1.0], "negative")
    start, _ = flowbound.first_crossing(lorenz, plane, [1.0, 1.0, 1.0])
    points = [start] + flowbound.return_map_iterates(lorenz, plane, start, 59)
    assert main(["section", "--system", str(flowbound.system_path("lorenz")),
                 "--x0", "1,1,1", "--plane", "0,0,27/0,0,1/negative",
                 "--iterates", "60", "--out", str(tmp_path)]) == 0
    expected = "".join(_numpy_csv_blocks(
        ("iterate", "u", "v", "t"), range(len(points)),
        [p.coords2 for p in points], [p.time for p in points]))
    assert (tmp_path / "section.csv").read_text() == expected


def test_convergence_csv(tmp_path):
    lorenz = flowbound.load_system("lorenz")
    result = flowbound.lyapunov_spectrum(lorenz, [1.0, 1.0, 1.0], 1.0, 120.0, 0.5)
    history = result.convergence_history
    assert len(history) == 2
    assert main(["lyapunov", "--system", str(flowbound.system_path("lorenz")),
                 "--x0", "1,1,1", "--transient", "1", "--total", "120",
                 "--history", "--out", str(tmp_path)]) == 0
    expected = "".join(_numpy_csv_blocks(
        ("time", "lambda1", "lambda2", "lambda3"), [t for t, _ex in history],
        [ex for _t, ex in history]))
    assert (tmp_path / "convergence.csv").read_text() == expected


def test_csv_rows_of_several_blocks():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(3 * _CSV_BLOCK + 5, 3)) * 1e5
    rows = array("d", table.ravel().tolist())
    assert ("".join(integrator._csv_blocks(("a", "b", "c"), rows))
            == "".join(_numpy_csv_blocks(("a", "b", "c"), table[:, 0], table[:, 1:])))
