"""Package surface: ``mathieucf.__all__`` is assembled from the modules'
own ``__all__`` lists, so each exported name must appear once and be the
very object its defining module holds.  The import graph is a stack: every
module imports cleanly when it is the first one a process imports.
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
                                  "__main__"])
def test_module_imports_first(name):
    # fresh_python raises on a non-zero exit, an import cycle's ImportError included.
    fresh_python("-c", f"import mathieucf.{name}")
