"""Checks on the source of the package itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import viscowave

# Defaulted parameters of the functions in src/viscowave.  A change that
# deletes a default lowers this number; no change may raise it.
DEFAULTED_PARAMETERS = 4

# Settable values of a run config, the leaves of cli.DEFAULTS (a list is one
# value).  A change that deletes a key lowers this number; a change that
# raises it says so in CHANGES.md.
CONFIG_KEYS = 26


def _defaulted_parameters(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
    return count


def test_counter_sees_positional_keyword_only_and_lambda_defaults():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n"
              "    def g(e=3):\n"
              "        return e\n"
              "    return lambda x, y=4: x\n"
              "class C:\n"
              "    async def h(self, z=5):\n"
              "        pass\n")
    assert _defaulted_parameters(source) == 5


def test_defaulted_parameters_do_not_grow():
    package = Path(viscowave.__file__).parent
    total = sum(_defaulted_parameters(path.read_text()) for path in sorted(package.glob("*.py")))
    assert total <= DEFAULTED_PARAMETERS


def _leaves(node) -> int:
    if isinstance(node, dict):
        return sum(_leaves(value) for value in node.values())
    return 1


def test_config_keys_do_not_grow():
    from viscowave.cli import DEFAULTS

    assert _leaves({"a": 1, "b": {"c": [1, 2], "d": {"e": None}}}) == 3
    assert _leaves(DEFAULTS) == CONFIG_KEYS


def test_the_cfl_margins_live_in_the_stepper_alone():
    # the operators carry the exact eigenvalue; the safety factor and the
    # eigenvalue margin are constants of stepper.py and of no other module
    package = Path(viscowave.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == 1.05:
                sites.append((path.name, node.value))
            elif isinstance(node, ast.Name) and node.id in ("CFL_SAFETY", "LAM_MARGIN"):
                sites.append((path.name, node.id))
    assert {name for name, _ in sites} == {"stepper.py"}
    assert 1.05 in [value for _, value in sites]


ENERGY_ABORT = "blow-up or instability: non-finite energy"


def _energy_abort_sites(source: str) -> list[int]:
    """The lines of ``source`` whose string constants hold ENERGY_ABORT."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ENERGY_ABORT in node.value]


def test_one_site_raises_the_energy_abort():
    # a run finds a record that is not finite in one place, the pass over
    # its report fields after the last step; a second site would be a
    # second check of the same records
    assert _energy_abort_sites(f"a = {ENERGY_ABORT!r}\nb = f'{ENERGY_ABORT} at {{t}}'\n") == [1, 2]
    package = Path(viscowave.__file__).parent
    sites = [(path.name, line) for path in sorted(package.glob("*.py"))
             for line in _energy_abort_sites(path.read_text())]
    assert [name for name, _ in sites] == ["stepper.py"]


# The objects a run owns: a function that takes a state reads them off the
# state's closure, so none of them is passed in beside it.
RUN_OBJECTS = {"ops", "params", "cfg", "buffer", "form", "kept"}


def _threaded_run_objects(source: str) -> list[tuple[str, list[str]]]:
    """The functions of ``source`` that take a parameter ``state`` together
    with one named in RUN_OBJECTS, and those parameters."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
            if "state" in names and names & RUN_OBJECTS:
                found.append((getattr(node, "name", "<lambda>"), sorted(names & RUN_OBJECTS)))
    return found


def test_a_state_is_stepped_and_recorded_alone():
    # a state carries its run, whose closure owns the operators, the
    # coefficients, the config, the history buffer, the record form and
    # the kept array: no function of the stepper or the energy module takes
    # one of them beside a state, so none can come from another run
    assert _threaded_run_objects("def f(state, form):\n    pass\n"
                                 "def g(state, *, kept=None):\n    pass\n"
                                 "def h(t, slots, closure):\n    pass\n") == [
        ("f", ["form"]), ("g", ["kept"])]
    package = Path(viscowave.__file__).parent
    for module in ("stepper.py", "energy.py"):
        assert _threaded_run_objects((package / module).read_text()) == [], module


def _importers(prefix: str) -> list[str]:
    """The modules of the package that import ``prefix`` or a name below it."""
    package = Path(viscowave.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.startswith(prefix) for name in names):
                importers.append(path.name)
    return importers


def _run_fresh(script: str) -> str:
    """Standard output of ``script`` run by a fresh interpreter that imports
    this package."""
    src = str(Path(viscowave.__file__).parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def test_only_assembly_imports_the_private_sparse_kernels():
    # scipy.sparse._sparsetools is private to scipy: assembly.py loads it by
    # its file and wraps it in dia_product and _csr_accumulate, so a scipy
    # that moves it breaks one module.  The load is no import statement, so
    # every mention of the name counts.
    package = Path(viscowave.__file__).parent
    names = [path.name for path in sorted(package.glob("*.py"))
             if "_sparsetools" in path.read_text()]
    assert names == ["assembly.py"]
    assert _importers("scipy.sparse._sparsetools") == []


def _sparse_modules_after_runs(faces_2d):
    # a fresh process runs a short 1D scenario when faces_2d is None, else a
    # 2D one with those acoustic faces, and prints the scipy.sparse modules
    # it then holds and whether scipy itself is loaded
    if faces_2d is None:
        domain = {"resolution": [8]}
    else:
        domain = {"dimension": 2, "extent": [1.0, 1.0], "gamma1_faces": faces_2d,
                  "resolution": [8, 8]}
    config = {"domain": domain, "stepping": {"dt": 2e-3, "t_end": 0.02, "record_every": 5}}
    script = ("import json, sys, tempfile\n"
              "import viscowave.cli as cli\n"
              "with tempfile.TemporaryDirectory() as out:\n"
              f"    cli.run_scenario(cli.parse_config({json.dumps(config)!r}), out_dir=out)\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
              "print('scipy' in sys.modules)\n")
    return _run_fresh(script).splitlines()


def test_runs_on_pinned_corners_never_import_scipy_sparse():
    # the stencils, the record operator and the closure map are the
    # package's own arrays, and the two compiled kernels it calls are
    # loaded from their file: a 1D run and a 2D run with one acoustic face
    # leave no module of scipy.sparse, nor scipy itself, in sys.modules
    for faces_2d in [None, ["right"]]:
        assert _sparse_modules_after_runs(faces_2d) == ["[]", "False"]


def test_a_free_corner_run_never_imports_scipy_sparse():
    # the CFL eigenvalue at a free corner is a small secular equation, not a
    # Lanczos solve: no module imports scipy.sparse or scipy.sparse.linalg,
    # and a 2D run whose right and top faces meet at a free corner loads
    # neither, nor scipy itself
    assert _importers("scipy.sparse") == [] and _importers("scipy.sparse.linalg") == []
    assert _sparse_modules_after_runs(["right", "top"]) == ["[]", "False"]


def test_only_a_power_law_expansion_loads_scipy_special():
    # the incomplete gamma functions place the power law's quadrature nodes,
    # and nothing else the package calls needs scipy.special: a process that
    # runs an exponential-kernel scenario never loads it
    assert _importers("scipy.special") == ["kernels.py"]
    script = ("import json, sys, tempfile\n"
              "import viscowave.cli as cli\n"
              "config = cli.parse_config(json.dumps({\n"
              "    'domain': {'resolution': [8]},\n"
              "    'stepping': {'dt': 2e-3, 't_end': 0.02, 'record_every': 5},\n"
              "}))\n"
              "with tempfile.TemporaryDirectory() as out:\n"
              "    cli.run_scenario(config, out_dir=out)\n"
              "print('scipy.special' in sys.modules)\n"
              "from viscowave import make_rate\n"
              "make_rate('power_law', 2.0).exp_sum(1.0)\n"
              "print('scipy.special' in sys.modules)\n")
    assert _run_fresh(script).split() == ["False", "True"]


def test_no_module_imports_scipy_integrate():
    # the hypothesis checks read the variation of xi off a grid that holds
    # its turning points; no verdict rests on adaptive quadrature
    assert _importers("scipy.integrate") == []


def test_no_module_imports_scipy_optimize():
    # the one root the package finds, the half-mass time t0, is a bisection
    # on the increasing partial mass
    assert _importers("scipy.optimize") == []


def test_the_only_random_draw_is_the_b_omega_verification():
    # the well constants come from one deterministic ascent; the three
    # verification directions of estimate_B_Omega are the package's one
    # random input, so a seeded start cannot come back unnoticed
    assert _importers("random") == [] and _importers("numpy.random") == []
    package = Path(viscowave.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"):
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, inside, node.attr))
    assert sites == [("stableset.py", ["estimate_B_Omega"], "default_rng")]


def test_energy_reports_are_built_in_one_function():
    # a run keeps its records as columns, and the table's report view is
    # the one function that builds EnergyReport values, so a per-record
    # tuple cannot creep back into the stepping loop unnoticed.  Every use
    # of the name counts but those in annotations and the reads of its
    # ``_fields``.
    package = Path(viscowave.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            parts = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts = [node.returns] + [a.annotation for a in ast.walk(node.args)
                                          if isinstance(a, ast.arg)]
            elif isinstance(node, ast.AnnAssign):
                parts = [node.annotation]
            elif isinstance(node, ast.Attribute) and node.attr == "_fields":
                parts = [node.value]
            skipped |= {id(n) for part in parts if part is not None for n in ast.walk(part)}
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "EnergyReport"
                    and id(node) not in skipped):
                inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, inside))
    assert sites == [("energy.py", ["_reports"])]


# The functions a step or a record runs, as (module file, class or None,
# function): the hot path of the dispatch rule.
HOT_PATH = [
    ("stepper.py", None, "step"),
    ("stepper.py", None, "_evaluate"),
    ("history.py", "HistoryBuffer", "push"),
    ("history.py", "HistoryBuffer", "_fold"),
    ("history.py", "HistoryBuffer", "convolution_force"),
    ("history.py", "HistoryBuffer", "_read_diamonds"),
    ("energy.py", None, "compute_energy"),
    ("energy.py", "_RecordForm", "_pass"),
]


def _function(tree: ast.Module, owner: str | None, name: str) -> ast.FunctionDef:
    body = tree.body
    if owner is not None:
        body = next(node for node in body if isinstance(node, ast.ClassDef)
                    and node.name == owner).body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def _matmuls(function: ast.FunctionDef) -> list[int]:
    """The lines of the ``@`` operators in ``function``, ``@=`` included."""
    return [node.lineno for node in ast.walk(function)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]


def test_the_hot_path_takes_vector_products_with_ndarray_dot():
    # on the meshes the lab steps, a product costs more in dispatch than in
    # arithmetic: the @ operator goes through the matmul ufunc, about
    # 0.3 us a call more than ndarray.dot for the same BLAS product, so no
    # function of a step or a record uses it.  The force read calls
    # np.matmul by name, as ndarray.dot copies its strided operand.
    assert _matmuls(ast.parse("def f(a, b):\n    c = a.dot(b)\n    c @= b\n    return a @ b\n")
                    .body[0]) == [3, 4]
    package = Path(viscowave.__file__).parent
    trees = {}
    found = {}
    for module, owner, name in HOT_PATH:
        tree = trees.setdefault(module, ast.parse((package / module).read_text()))
        lines = _matmuls(_function(tree, owner, name))
        if lines:
            found[f"{module}:{owner or ''}.{name}"] = lines
    assert found == {}
