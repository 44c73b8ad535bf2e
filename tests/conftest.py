import numpy as np
import pytest

from flowbound import load_system, parse_system, polyfield


@pytest.fixture(scope="session")
def lorenz():
    return load_system("lorenz")


@pytest.fixture(scope="session")
def stuart_landau():
    return load_system("stuart-landau")


@pytest.fixture(scope="session")
def closed_orbit():
    return load_system("closed-orbit")


@pytest.fixture(scope="session")
def equilibrium():
    return load_system("equilibrium")


@pytest.fixture(scope="session")
def rotation():
    """Pure rotation plus z-decay: analytic solution, period 2*pi."""
    return parse_system(
        "dx/dt = -y\n"
        "dy/dt = x\n"
        "dz/dt = -z\n")


@pytest.fixture()
def generated_sources(monkeypatch):
    """A list that collects the source of every function generated during
    the test, taken at polyfield's `exec`, the one exec site."""
    sources = []
    monkeypatch.setattr(polyfield, "exec", lambda source, ns: (
        sources.append(source), exec(source, ns))[1], raising=False)
    return sources


def lorenz_rhs(t, s):
    x, y, z = s
    return [10.0 * (y - x), x * (28.0 - z) - y,
            x * y - 2.6666666666666665 * z]


@pytest.fixture(scope="session")
def lorenz_scipy_rhs():
    return lorenz_rhs


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected)))
    assert err < tol, f"{label}: |{actual} - {expected}| = {err:.3e} >= {tol:g}"
