"""NumPy is loaded only by the functions that need it.

`simulate` and `lyapunov` run on Python floats from `import flowbound`
on, so a process that runs only them never imports NumPy. Each case
runs a fresh interpreter with `src` on its path: once imported, NumPy
stays in `sys.modules` for the rest of a process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def _numpy_loaded(cwd, *argv) -> bool:
    """Whether NumPy is in `sys.modules` after SETUP and, given argv,
    `cli.main(argv)` with `--system` a shipped system's name."""
    code = SETUP
    if argv:
        command, system, *rest = argv
        code += (f"argv = [{command!r}, '--system', "
                 f"str(flowbound.system_path({system!r})), *{rest!r}]\n"
                 "assert flowbound.cli.main(argv) == 0\n")
    code += "print('numpy' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return done.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv", [
    (),
    ("simulate", "lorenz", "--x0", "1,1,1", "--t1", "5", "--project", "x,z"),
    ("lyapunov", "lorenz", "--x0", "1,1,1", "--transient", "1", "--total", "60",
     "--history"),
], ids=["setup", "simulate-project", "lyapunov-history"])
def test_float_paths_leave_numpy_unloaded(tmp_path, argv):
    assert not _numpy_loaded(tmp_path, *argv)


def test_refute_loads_numpy(tmp_path):
    # the control: the equilibrium search solves with LAPACK
    assert _numpy_loaded(tmp_path, "refute", "equilibrium", "--x0", "0.5,0,0")


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
