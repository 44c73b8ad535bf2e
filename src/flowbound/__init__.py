"""Toolkit for component-bounded polynomial flows.

Parses polynomial vector fields from plain-text system files, integrates
them forward and backward, checks the per-component linear bound lines
a lower-bounded component implies, exhibits bounded backward orbits
(equilibria, closed orbits) that refute claimed backward divergence,
and certifies chaos through Poincaré sections, unstable periodic orbits,
and Lyapunov spectra.
"""

import importlib
from pathlib import Path

from . import integrator, polyfield
from .integrator import *
from .polyfield import *

__version__ = "0.1.0"

# name -> module imported on first access (PEP 562): each module's own name
# and its __all__, which a test keeps equal to the names here; only the
# section, upo and lyapunov commands need the last three
_LAZY = {name: module for module, names in {
    "boundlaw": """VERDICT_FALSIFIED VERDICT_NO_COUNTEREXAMPLE
        VERDICT_PROVED_UNBOUNDED BoundCertificate BoundReport RefutationReport
        bound_line certified_components combine_reports find_equilibrium
        refute_nonexistence verify_bounds""",
    "lyapunov": "LyapunovResult TangentCollapseError lyapunov_spectrum",
    "poincare": """CrossingRefinementError NonReturningOrbitError SectionPlane
        SectionPoint first_crossing first_return return_map_iterates""",
    "upo": """NewtonConvergenceError PeriodicOrbit RecurrenceSeed census
        flow_determinant monodromy newton_shoot scan_close_recurrences""",
}.items() for name in (module, *names.split())}

__all__ = ["__version__", "load_system", "system_path", *integrator.__all__,
           *polyfield.__all__, *(n for n, m in _LAZY.items() if n != m)]


def __getattr__(name: str):
    """Import the module behind a lazy public name on first access and
    keep the value here, so that later lookups find it directly."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


def system_path(name: str) -> Path:
    """Filesystem path of a shipped system file (name without .sys)."""
    path = Path(__file__).parent / "systems" / f"{name}.sys"
    if not path.is_file():
        raise FileNotFoundError(f"no shipped system named {name!r}")
    return path


def load_system(name: str) -> PolyField:
    """Parse and return a shipped system by name (e.g. "lorenz")."""
    return parse_system(system_path(name).read_text(encoding="utf-8"))
