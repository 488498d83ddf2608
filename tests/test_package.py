"""Package surface: ``mathieucf.__all__`` is assembled from the modules'
own ``__all__`` lists, so each exported name must appear once and be the
very object its defining module holds; the sorted list is pinned.  The
import graph is a stack: every
module imports cleanly when it is the first one a process imports.  The
package loads its library modules on first use of a name they export, and
its lazy lookup names every submodule on disk.  No
module of the package or its tests imports sympy, which is declared nowhere,
and the package itself imports only the standard library: it declares no
runtime dependency.  No module imports a name it never uses.
"""

import ast
import sys
from pathlib import Path

import pytest
from conftest import fresh_python

import mathieucf
from mathieucf import bounds, cf, oracles, series


def test_exports_are_unique_and_the_defining_modules_objects():
    names = mathieucf.__all__
    assert len(names) == len(set(names))
    for name in names:
        if name == "__version__":
            continue
        obj = getattr(mathieucf, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("mathieucf."), name
        assert getattr(home, name) is obj, name


def test_all_is_the_version_and_the_four_library_modules_lists():
    assert mathieucf.__all__ == [
        "__version__", *cf.__all__, *series.__all__, *bounds.__all__, *oracles.__all__
    ]


# The public surface, pinned: adding or removing an export edits this list.
PUBLIC_NAMES = [
    "AsymptoticResult", "BoundResult", "ContinuedFraction", "Convergent", "CrossoverReport",
    "Enclosure", "EvalReport", "MathieuCFParams", "TailBracket", "__version__", "ab_form",
    "ab_to_cd_witness", "alzer_bounds", "apery_form", "asymptotic", "bernoulli_numbers",
    "cd_form", "cf_bounds", "closed_form_bounds", "coefficients_positive", "convergent",
    "crossover_analysis", "equivalence_transform", "evaluate", "even_contraction",
    "iter_convergents", "kappa_lambda_form", "makai_bounds", "mathieu_direct",
    "mathieu_integral", "mathieu_partial_sum", "mathieu_trigamma", "mp_upper",
    "tail_enclosure", "tail_via_trigamma", "telescoping_residual", "theorem1_to_width",
    "trigamma",
]


def test_public_surface_is_pinned():
    assert sorted(mathieucf.__all__) == PUBLIC_NAMES


ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(path.stem for path in ROOT.glob("src/mathieucf/*.py")
                    if path.stem != "__init__")


def test_lazy_lookup_knows_every_submodule():
    # ``__main__`` is the entry point, run and never looked up as a name.
    assert sorted(mathieucf._LIBRARY + mathieucf._OTHER) == [
        name for name in SUBMODULES if name != "__main__"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_imports_first(name):
    # fresh_python raises on a non-zero exit, an import cycle's ImportError included.
    fresh_python("-c", f"import mathieucf.{name}")


# Each case runs in a fresh interpreter: this session has imported every module.
@pytest.mark.parametrize("code, printed", [
    ("import sys\n"
     "from mathieucf import cli\n"
     "print([m for m in ('mathieucf.bounds', 'mathieucf.oracles') if m in sys.modules])",
     "[]"),
    ("import mathieucf\n"
     "print(mathieucf.makai_bounds is mathieucf.bounds.makai_bounds)",
     "True"),
    ("import mathieucf\n"
     "from mathieucf import *\n"
     "print(all(globals()[name] is getattr(mathieucf, name) for name in mathieucf.__all__))",
     "True"),
    ("import mathieucf\n"
     "try:\n"
     "    mathieucf.no_such_name\n"
     "except AttributeError as exc:\n"
     "    print(exc)",
     "module 'mathieucf' has no attribute 'no_such_name'"),
    # A name loads the library modules up to its home, in ``_LIBRARY`` order;
    # an unknown one loads all four to learn that.
    ("import sys\n"
     "from mathieucf import theorem1_to_width\n"
     "print(sorted(m for m in sys.modules if m.startswith('mathieucf.')))",
     "['mathieucf.cf', 'mathieucf.series']"),
    ("import sys\n"
     "import mathieucf\n"
     "hasattr(mathieucf, 'no_such_name')\n"
     "print(sorted(m for m in sys.modules if m.startswith('mathieucf.')))",
     "['mathieucf.bounds', 'mathieucf.cf', 'mathieucf.oracles', 'mathieucf.series']"),
    # ``from . import commands`` in a csv eval asks the package for the name
    # first, and must not load the library to learn it is a submodule.
    ("import sys\n"
     "from mathieucf import cli\n"
     "cli.main(['eval', '--r', '1', '--format', 'csv'])\n"
     "print([m for m in ('mathieucf.cf', 'mathieucf.bounds', 'mathieucf.oracles')"
     " if m in sys.modules])",
     "[]"),
    # Apery's fraction lives in ``cf``; ``bounds`` reads only the constant.
    ("import sys\n"
     "import mathieucf.bounds\n"
     "print('mathieucf.cf' in sys.modules)",
     "False"),
    # ``bounds`` reads zeta(3) from ``series``, beside S, and loads no oracle.
    ("import sys\n"
     "import mathieucf.bounds\n"
     "print(sorted(m for m in sys.modules if m.startswith('mathieucf.')))",
     "['mathieucf.bounds', 'mathieucf.series']"),
    # The tail interval's float kernel is a leaf: it imports nothing from the package.
    ("import sys\n"
     "import mathieucf.tail_interval\n"
     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mathieucf'))",
     "['mathieucf', 'mathieucf.tail_interval']"),
    # The large-r expansion lives in ``oracles``; ``series`` re-exports its
    # three names, each kept in its globals from the first lookup on.
    ("from mathieucf import oracles, series\n"
     "names = ('asymptotic', 'bernoulli_numbers', 'AsymptoticResult')\n"
     "print([name in vars(series) for name in names],\n"
     "      all(getattr(series, name) is getattr(oracles, name) for name in names),\n"
     "      all(name in vars(series) for name in names))",
     "[False, False, False] True True"),
], ids=["cli-alone", "name-is-module-object", "star-import", "unknown-name",
        "name-loads-up-to-its-home", "unknown-name-loads-the-library", "csv-eval",
        "bounds-without-cf", "bounds-without-oracles", "tail-interval-leaf",
        "series-re-exports-the-expansion"])
def test_lazy_package_surface(code, printed):
    assert fresh_python("-c", code).splitlines()[-1] == printed


def test_unknown_name_raises_in_process():
    # The "unknown-name" case above, in this process, where every library
    # module is already loaded.
    with pytest.raises(AttributeError, match="^module 'mathieucf' has no attribute 'no_such_name'$"):
        mathieucf.no_such_name


def _imports(paths):
    """(path, line, top-level module) of every absolute import in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path, node.lineno, name.split(".")[0]


def test_nothing_imports_sympy():
    paths = [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]
    for path, line, top in _imports(paths):
        assert top != "sympy", (path, line)


def test_the_package_needs_only_the_standard_library():
    for path, line, top in _imports(ROOT.glob("src/**/*.py")):
        assert top in sys.stdlib_module_names or top == "mathieucf", (path, line)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def _unused_imports(tree):
    """Names ``tree`` imports and never reads.  A name in ``__all__`` or in an
    annotation counts as used, and ``__future__`` and ``TYPE_CHECKING``
    imports are not counted."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            skipped.update(map(id, ast.walk(node)))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in skipped
              and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_unused_import_check_sees_one():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, sys\n"
                     "from typing import TYPE_CHECKING, List, Tuple\n"
                     "if TYPE_CHECKING:\n"
                     "    import argparse\n"
                     "__all__ = ['Tuple']\n"
                     "def f(x: List) -> None:\n"
                     "    return os.sep\n")
    assert _unused_imports(tree) == [(2, "sys")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/mathieucf/*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("name", ["series.py", "tail_interval.py"])
def test_the_eval_path_runs_in_one_arithmetic(name):
    # The walk and the tail interval run in float64 for any real input: no
    # type test and no exact type (docstrings are strings, not names).
    names = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "mathieucf" / name).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[0] for alias in node.names)
            names.add(getattr(node, "module", None))
    assert not names & {"isinstance", "Fraction", "fractions"}
