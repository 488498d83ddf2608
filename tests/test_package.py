"""Package surface: ``mathieucf.__all__`` is assembled from the modules'
own ``__all__`` lists, so each exported name must appear once and be the
very object its defining module holds.  The import graph is a stack: every
module imports cleanly when it is the first one a process imports.  The
package loads its library modules on first use of a name they export.
"""

import sys

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


@pytest.mark.parametrize("name", ["cf", "series", "oracles", "bounds", "selftest", "cli",
                                  "commands", "tail_interval", "__main__"])
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
    # The tail interval's float kernel is a leaf: it imports nothing from the package.
    ("import sys\n"
     "import mathieucf.tail_interval\n"
     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mathieucf'))",
     "['mathieucf', 'mathieucf.tail_interval']"),
], ids=["cli-alone", "name-is-module-object", "star-import", "unknown-name", "csv-eval",
        "bounds-without-cf", "tail-interval-leaf"])
def test_lazy_package_surface(code, printed):
    assert fresh_python("-c", code).splitlines()[-1] == printed
