"""Every module in src/gerbetool uses each name it imports and defines.

The test modules in tests/ are scanned for unused imports too.

The package __init__ is scanned like every other module: it holds the
module map and binds no name, so each name is imported from its own module,
and importing one module loads only what that module imports.  Each
module-level private name (a function, class or assignment named _x) must
be read somewhere in the package.  The scans are plain ast walks, so they
need neither pyflakes nor ruff.  The settable values (parameters with
defaults, dataclass fields with defaults and config keys) are counted and
pinned, so a new knob is a deliberate change.  Importing the CLI
in a fresh interpreter must leave scipy.optimize unloaded: it took about
0.6 s of a 1 s process start.  It must leave every scipy module unloaded,
and so must every battery, `all` included: the package runs on numpy
alone, and `all` passes with scipy made unimportable.  Every public
function and method of every module is called by `gerbetool <command>`
for one of the seven commands or `gerbetool schema`, or is on a short
allowlist that names why it stays.  The names the benchmark harness in
perfbench/ imports from the package, and the attributes of a sampled
connection its tracer reads, must exist, so a refactor cannot break a
size probe or a traced run unseen.
"""

import ast
import contextlib
import cProfile
import importlib
import inspect
import io
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gerbetool"
TESTS = Path(__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in `source` that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreferenced_private_names(sources):
    """Module-level _names defined in `sources` that none of them reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(
                    t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sin(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_scanner_flags_an_unreferenced_private_name():
    first = "_LIMIT = 3\n_a, _b = 1, 2\ndef _used():\n    return _LIMIT + _a\n"
    second = "from .first import _used\nclass _Dead:\n    pass\ndef go():\n    return _used()\n"
    assert unreferenced_private_names([first, second]) == ["_Dead", "_b"]


def test_modules_were_found():
    assert {"caloron.py", "cli.py", "grids.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_has_no_unreferenced_private_names():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


def settable_values(sources):
    """(parameters with defaults, dataclass fields with defaults) in `sources`.

    Parameters count every default of a function, method or lambda,
    keyword-only ones included; fields count every annotated assignment with
    a value in a class decorated with dataclass, field(init=False) included.
    """
    params = fields = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                params += len(node.args.defaults)
                params += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
                for d in (getattr(d, "func", d) for d in node.decorator_list)
            ):
                fields += sum(
                    isinstance(item, ast.AnnAssign) and item.value is not None for item in node.body
                )
    return params, fields


def test_scanner_counts_settable_values():
    source = (
        "from dataclasses import dataclass, field\n"
        "def go(a, b=1, *, c=2, d):\n    return lambda x=0: x\n"
        "@dataclass(frozen=True)\nclass Kit:\n    n: int\n    tol: float = 1e-9\n"
        "    cache: tuple = field(init=False)\n"
        "class Plain:\n    size: int = 3\n"
    )
    assert settable_values([source]) == (3, 2)


# Settable values in src/gerbetool: parameters with defaults, dataclass
# fields with defaults and the config keys of the commands.
SETTABLE_VALUES = 59


def test_settable_values_are_pinned():
    import gerbetool.cli as cli

    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    params, fields = settable_values(sources)
    keys = sum(len(command.defaults) for command in cli.COMMANDS.values())
    assert params + fields + keys == SETTABLE_VALUES, (
        f"{params} parameters with defaults + {fields} dataclass fields with defaults + "
        f"{keys} config keys = {params + fields + keys}, pinned at {SETTABLE_VALUES}: "
        "a new knob must update the pin and be justified in CHANGES.md"
    )


# The public names no command calls, each with the test or tool that uses
# it, or the ROADMAP item it waits for.
UNREACHED = {
    "detline.compose": "ROADMAP item 1; the per-triple oracle of TestCechTable and criterion 1",
    "detline.permutation_sign": "ROADMAP item 1: no battery hands a permuted basis yet",
    "detline.DetLine.canonical": "ROADMAP item 1: the canonical form of a permuted, gauged line",
    "fock.enumerate_states": "perfbench's size probe and the graded-basis oracle of test_fock.py",
    "spectral.Spectrum.eigenvalues": "the array view the oracles of test_spectral.py read",
}

def public_definitions(source):
    """{name: first line} of the module-level public functions and public classes' public methods.

    A method is named Class.method; the first line is the first decorator's,
    as the function's code object counts it.
    """
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members = [(f"{node.name}.", item) for item in node.body]
        else:
            members = [("", node)]
        for prefix, item in members:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                lines = [item.lineno] + [d.lineno for d in item.decorator_list]
                found[prefix + item.name] = min(lines)
    return found


def test_scanner_lists_public_functions_and_methods():
    source = (
        "def go():\n    pass\ndef _hide():\n    pass\n"
        "class Kit:\n    @property\n    def part(self):\n        pass\n"
        "    def _own(self):\n        pass\n"
        "class _Dead:\n    def run(self):\n        pass\n"
    )
    assert public_definitions(source) == {"go": 1, "Kit.part": 6}


def clear_caches(modules):
    """Empty every cache the modules hold, on module-level functions and on methods.

    A cached function that earlier tests filled is not called again, so the
    profile would miss it and every function it calls.
    """
    for module in modules:
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                if hasattr(member, "cache_clear"):
                    member.cache_clear()


def test_cache_clearing_reaches_cached_methods():
    from gerbetool.liealg import Representation

    Representation.adjoint(2).coefficient_map()
    assert Representation.coefficient_map.cache_info().currsize >= 1
    clear_caches([importlib.import_module("gerbetool.liealg")])
    assert Representation.coefficient_map.cache_info().currsize == 0


def test_commands_reach_every_public_name():
    import gerbetool.cli as cli

    modules = [importlib.import_module(f"gerbetool.{path.stem}") for path in MODULES]
    clear_caches(modules)
    profile = cProfile.Profile()
    # every command but `all`, which runs the others' batteries again
    commands = [name for name in cli.COMMANDS if name != "all"]
    for argv in [[command] for command in commands] + [["schema"]]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert profile.runcall(cli.main, argv) == 0, argv
    called = {(path, line) for path, line, _ in pstats.Stats(profile).stats}
    unreached = []
    for source, module in zip(MODULES, modules):
        unreached += [
            f"{source.stem}.{qualname}"
            for qualname, line in public_definitions(source.read_text(encoding="utf-8")).items()
            if (module.__file__, line) not in called
        ]
    assert sorted(unreached) == sorted(UNREACHED)


def test_cli_import_leaves_scipy_optimize_unloaded():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gerbetool.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert "'scipy.optimize'" not in proc.stdout
    assert "'gerbetool.cli'" in proc.stdout


def modules_after(script):
    """Names of the modules loaded after `script` runs in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout.splitlines()[-1].split()


def test_module_import_loads_only_its_imports():
    # the package binds no name, so importing one module leaves the others unloaded
    loaded = modules_after("import gerbetool.fock")
    assert "gerbetool.fock" in loaded
    others = ["gerbetool.caloron", "gerbetool.moduli", "gerbetool.presets", "gerbetool.cli"]
    assert [name for name in others if name in loaded] == []


def scipy_modules(names):
    return sorted(name for name in names if name.split(".")[0] == "scipy")


RUN_DEFAULTS = """
import gerbetool.cli as cli
for command in {commands!r}:
    job = cli.validate_scenario({{"command": command, "params": {{}}, "seed": 1}})[:3]
    assert cli.run_scenario(*job)["status"] == "pass", command
"""


def test_cli_import_loads_no_scipy():
    loaded = modules_after("import gerbetool.cli")
    assert "gerbetool.cli" in loaded
    assert scipy_modules(loaded) == []


def test_batteries_without_fock_load_no_scipy():
    commands = ["spectrum", "cover", "cocycle", "moduli", "caloron", "pairing"]
    loaded = modules_after(RUN_DEFAULTS.format(commands=commands))
    assert "gerbetool.moduli" in loaded
    assert scipy_modules(loaded) == []


def test_fock_validation_loads_no_scipy():
    # the window, band and basis rules build no matrix
    loaded = modules_after("import gerbetool.cli as cli\ncli.validate_scenario({'command': 'fock'})")
    assert "gerbetool.fock" in loaded
    assert scipy_modules(loaded) == []


def test_all_loads_no_scipy():
    loaded = modules_after(RUN_DEFAULTS.format(commands=["all"]))
    assert "gerbetool.fock" in loaded
    assert scipy_modules(loaded) == []


def test_all_passes_without_scipy():
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    script = 'import sys\nsys.modules["scipy"] = None\nimport gerbetool.cli as cli\nsys.exit(cli.main(["all"]))'
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def perfbench_names(source):
    """(module, name) pairs that `source` imports from gerbetool modules or reads off `cli`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gerbetool."):
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cli":
            names.add(("gerbetool.cli", node.attr))
    return names


def test_perfbench_worker_names_exist():
    names = perfbench_names((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    modules = {module for module, _ in names}
    assert modules == {"gerbetool.fock", "gerbetool.spectral", "gerbetool.cli"}
    assert {("gerbetool.cli", "run_scenario"), ("gerbetool.fock", "enumerate_states")} <= names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_sampled_connections_carry_what_the_tracer_reads():
    # perfbench/tracer.py counts theta_points * (base_points + 2 ghost_margin)^base_dim cells
    from gerbetool.caloron import sample_connection
    from gerbetool.moduli import ModuliFamily
    from gerbetool.presets import su2_family

    for conn in (
        sample_connection(su2_family(), 8, 6),
        ModuliFamily().connection(8, 6),
    ):
        ext = conn.base_points + 2 * conn.ghost_margin
        assert conn.theta_points * ext**conn.base_dim == conn.phi[0].size
