"""Certified enclosures for the Mathieu-type series S(r) = sum 2m/(m^2+r^2)^2.

The series tail from any offset x > 1/2 equals a generalized continued
fraction whose even/odd approximants bracket the value whenever the partial
coefficients are positive; splitting the series and bracketing the tail
turns a slowly decaying sum into certified enclosures at a tiny term count.
At r = 0 the same fraction is Apery's fraction for zeta(3) = S(0)/2.
The package bundles the fraction engine, the series representations,
classical bounds with their crossover analysis, independent numerical
oracles (trigamma, oscillatory integral) with the constant zeta(3), a
built-in invariant suite, and a CLI.
"""

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so ``python -m mathieucf eval`` imports only
# the modules it runs.
_LIBRARY = ("cf", "series", "bounds", "oracles")
_OTHER = ("cli", "commands", "selftest", "tail_interval")


def _submodule(name: str):
    # Through the import statement's own machinery, so ``-X importtime``
    # still lists the module on its own line.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _LIBRARY:
        return _submodule(name)
    # Private names and the other submodules are in no library ``__all__``.
    # ``from mathieucf import cli`` (or ``from . import commands``) asks for
    # the name here before importing the submodule, and must not load the
    # library to learn that.
    if (name.startswith("_") and name != "__all__") or name in _OTHER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [_submodule(module) for module in _LIBRARY]
    if name == "__all__":
        value = ["__version__", *(export for module in modules for export in module.__all__)]
    else:
        home = next((module for module in modules if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value
