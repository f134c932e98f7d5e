"""The package's import path and public surface.

The fit path imports numpy only: `import aqmf`, `aqmf fit` and `aqmf inpaint`
load no scipy module at all.  scipy stays a dependency in pyproject.toml for
the skew-normal noise rows, whose first sample loads scipy.stats and
scipy.optimize, and for the tests.  Each of those checks runs in a fresh
interpreter, since this test process has loaded scipy already.  Static checks
over the library's source stand in for a linter: scipy is imported only
inside the skew-normal spec's methods, no module imports a name it never uses
or reads another library module's underscore-prefixed name, and
`aqmf.__all__` names each public object once and no test oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqmf
from aqmf import em, wl1
from aqmf.matrixio import write_csv_matrix, write_pgm
from aqmf.synth import LaplaceNoise, make_instance

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ("observed_loglik", "weighted_median", "wl1_objective")  # tests/oracles.py


def _scipy_loaded_after(code: str, cwd: Path) -> list:
    """The scipy modules, sorted, that a fresh interpreter holds after
    running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


# These two tests keep the names they had when the fit path still loaded
# scipy.special; both now assert that no scipy module loads at all.
@pytest.mark.parametrize("module", ["aqmf", "aqmf.cli"])
def test_import_loads_no_stats_or_optimize(module, tmp_path):
    assert _scipy_loaded_after(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("method", ["aq", "cwm"])
def test_cli_fit_loads_no_stats_or_optimize(method, tmp_path):
    inst = make_instance(15, 10, 2, 0.2, LaplaceNoise(0.0, 0.5), seed=2)
    write_csv_matrix(tmp_path / "data.csv", inst.observed)
    code = (
        "from aqmf import cli\n"
        f"assert cli.main(['fit', '--input', 'data.csv', '--rank', '2', '--method', "
        f"'{method}', '--max-iters', '3', '--report', 'r.json']) == 0"
    )
    assert _scipy_loaded_after(code, tmp_path) == []


def test_cli_inpaint_loads_no_scipy(tmp_path):
    rng = np.random.default_rng(3)
    write_pgm(tmp_path / "img.pgm", rng.random((12, 2)) @ rng.random((2, 10)) / 2.0)
    write_pgm(tmp_path / "mask.pgm", rng.random((12, 10)) > 0.3)
    code = (
        "from aqmf import cli\n"
        "assert cli.main(['inpaint', '--image', 'img.pgm', '--mask', 'mask.pgm', "
        "'--rank', '2', '--output', 'out.pgm']) == 0"
    )
    assert _scipy_loaded_after(code, tmp_path) == []


def test_skew_normal_sample_loads_stats_and_optimize(tmp_path):
    build = (
        "import numpy as np\n"
        "from aqmf.bench import NOISE_ROWS\n"
        "spec = NOISE_ROWS['skew_normal'][1]"
    )
    assert _scipy_loaded_after(build, tmp_path) == []
    loaded = _scipy_loaded_after(build + "\nspec.sample(3, np.random.default_rng(0))", tmp_path)
    assert {"scipy.stats", "scipy.optimize"} <= set(loaded)


def _scipy_imports(path: Path) -> list:
    """``file:scope`` for each import statement in the module that names
    scipy; ``scope`` is the dotted path of the enclosing classes and
    functions, empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_scipy_is_imported_only_inside_skew_normal_methods():
    found = [f for p in sorted((ROOT / "src" / "aqmf").glob("*.py")) for f in _scipy_imports(p)]
    assert found, "the skew-normal spec imports scipy inside its methods"
    assert [f for f in found if not f.startswith("synth.py:SkewNormalNoise.")] == []


def _unused_imports(path: Path) -> list:
    """``file:line: name`` for each name the module binds by an import
    statement, at any depth, and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_public_surface_has_no_unused_imports_or_stray_names():
    modules = sorted((ROOT / "src" / "aqmf").glob("*.py"))
    assert len(modules) > 1
    unused = [u for p in modules if p.name != "__init__.py" for u in _unused_imports(p)]
    assert unused == []
    names = aqmf.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(aqmf, n)] == []
    assert set(ORACLES).isdisjoint(names)
    assert not any(hasattr(mod, n) for mod in (aqmf, em, wl1) for n in ORACLES)


def _private_reads(path: Path, library: set) -> list:
    """``file:line: module._name`` for each underscore-prefixed name the
    module takes from another library module (one of ``library``), as an
    attribute of the module or by a ``from ... import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "aqmf"
        ):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in ("", "aqmf") and alias.name in library:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}: {source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    modules = sorted((ROOT / "src" / "aqmf").glob("*.py"))
    library = {p.stem for p in modules}
    assert {"ald", "em", "wl1"} <= library
    assert [r for p in modules for r in _private_reads(p, library)] == []
