"""Modules are loaded only by the code that needs them.

`simulate` and `lyapunov` run on Python floats from `import flowbound`
on, so a process that runs only them never imports NumPy. The package
imports `polyfield` and `integrator` and resolves the other modules'
public names on first access, so `simulate`, `bounds-check` and
`refute` never compile `poincare`, `upo` or `lyapunov`. Each case runs
a fresh interpreter with `src` on its path: once imported, a module
stays in `sys.modules` for the rest of a process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import flowbound

SRC = Path(flowbound.__file__).resolve().parents[1]

# the setup code of the benchmark's workloads
SETUP = """\
import sys
import flowbound, flowbound.cli
for name in ("equilibrium", "closed-orbit", "lorenz"):
    f = flowbound.load_system(name)
    f.compiled_rhs(); f.compiled_tangent_rhs()
"""

# what SETUP and the commands that need no section, census or spectrum load
CORE = {"polyfield", "integrator", "boundlaw", "cli"}


def _loaded(cwd, *argv, code="") -> set[str]:
    """`numpy` and the `flowbound.*` modules, without their prefix, that
    are in `sys.modules` after SETUP, then, given argv, `cli.main(argv)`
    with `--system` a shipped system's name, then `code`."""
    if argv:
        command, system, *rest = argv
        code = (f"argv = [{command!r}, '--system', "
                f"str(flowbound.system_path({system!r})), *{rest!r}]\n"
                "assert flowbound.cli.main(argv) == 0\n") + code
    code = SETUP + code + (
        "print(' '.join(m.removeprefix('flowbound.') for m in sys.modules\n"
        "               if m == 'numpy' or m.startswith('flowbound.')))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return set(done.stdout.splitlines()[-1].split())


SIMULATE = ("simulate", "lorenz", "--x0", "1,1,1", "--t1", "5", "--project", "x,z")
LYAPUNOV = ("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "1",
            "--total", "60", "--history")
BOUNDS_CHECK = ("bounds-check", "equilibrium", "--x0", "0.5,0,0",
                "--t-fwd", "5", "--t-back", "5")
REFUTE = ("refute", "equilibrium", "--x0", "0.5,0,0")
LORENZ_Z27 = ("--plane", "0,0,27/0,0,1/negative")
SECTION = ("section", "lorenz", "--x0", "1,1,1", *LORENZ_Z27, "--iterates", "3")
UPO = ("upo", "lorenz", "--x0", "1,1,1", *LORENZ_Z27, "--iterates", "20",
       "--k-max", "1", "--threshold", "0.1")


@pytest.mark.parametrize("argv", [(), SIMULATE, LYAPUNOV],
                         ids=["setup", "simulate-project", "lyapunov-history"])
def test_float_paths_leave_numpy_unloaded(tmp_path, argv):
    assert "numpy" not in _loaded(tmp_path, *argv)


def test_refute_loads_numpy(tmp_path):
    # the control: the equilibrium search solves with LAPACK
    assert "numpy" in _loaded(tmp_path, *REFUTE)


@pytest.mark.parametrize("argv, extra", [
    ((), set()),
    (SIMULATE, set()),
    (BOUNDS_CHECK, set()),
    (REFUTE, set()),
    (SECTION, {"poincare"}),
    (LYAPUNOV, {"lyapunov"}),
    (UPO, {"poincare", "upo"}),
], ids=["setup", "simulate", "bounds-check", "refute", "section", "lyapunov",
        "upo"])
def test_commands_load_only_their_modules(tmp_path, argv, extra):
    # only flowbound's own modules: site preloads different stdlib modules
    # on different machines
    assert _loaded(tmp_path, *argv) - {"numpy"} == CORE | extra


def test_lazy_names_resolve_in_a_fresh_process(tmp_path):
    code = ("assert set(flowbound.__all__) <= set(dir(flowbound))\n"
            "for name in ('poincare', 'upo', 'lyapunov'):\n"
            "    assert getattr(flowbound, name) is sys.modules[f'flowbound.{name}']\n"
            "from flowbound import *\n"
            "assert not set(flowbound.__all__) - set(globals())\n")
    assert _loaded(tmp_path, code=code) - {"numpy"} == (
        CORE | {"poincare", "upo", "lyapunov"})


def test_public_names_are_their_modules_own():
    wrong = []
    for name in flowbound.__all__:
        value = getattr(flowbound, name)
        if isinstance(value, (type, FunctionType)):
            home = sys.modules[value.__module__]
        else:  # __version__ and the verdicts
            home = flowbound.boundlaw if name.startswith("VERDICT_") else flowbound
        if vars(home).get(name) is not value:
            wrong.append(name)
    assert not wrong


def test_public_names_are_declared_once():
    # the lazy table is the one copy of a lazy module's __all__ that the
    # package can read without importing the module
    lazy = {}
    for name, module in flowbound._LAZY.items():
        if name != module:
            lazy.setdefault(module, set()).add(name)
    for module, names in lazy.items():
        assert set(getattr(flowbound, module).__all__) == names, module
    assert len(flowbound.__all__) == len(set(flowbound.__all__))
    assert set(flowbound.__all__) == {
        "__version__", "load_system", "system_path",
        *flowbound.integrator.__all__, *flowbound.polyfield.__all__,
        *set().union(*lazy.values())}


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="^module 'flowbound' has no attribute 'nope'$"):
        flowbound.nope
    with pytest.raises(FileNotFoundError, match="no shipped system named 'nope'"):
        flowbound.system_path("nope")


def _is_type_checking(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"


def test_no_module_imports_numpy_at_import_time():
    # an AST scan of what each module runs when it is imported: its top
    # level and its class bodies, not function bodies or TYPE_CHECKING blocks
    sites = []

    def visit(node, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if _is_type_checking(node):
            for child in node.orelse:
                visit(child, module)
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        sites.extend((module, node.lineno) for name in names
                     if name.split(".")[0] == "numpy")
        for child in ast.iter_child_nodes(node):
            visit(child, module)

    for path in sorted((SRC / "flowbound").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == []
