"""Package surface: ``mathieucf.__all__`` is assembled from the modules'
own ``__all__`` lists, so each exported name must appear once and be the
very object its defining module holds.
"""

import sys

import mathieucf


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
