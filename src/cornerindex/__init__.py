"""Jumbled (letter-count) substring queries on binary strings.

Build a small index from a string's run-length encoding, then answer
"does a substring with exactly x a's and y b's exist" in logarithmic time,
and recover both prefix normal forms from the same structure.

Importing the package imports none of its modules. Each export resolves on
first use: the lookup imports the module whose ``__all__`` holds the name
and keeps the value here, so later lookups are plain attribute reads.
``__all__`` is the union of the modules' lists, so reading it, ``dir()`` or
``from cornerindex import *`` imports them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# In dependency order: each module imports only modules listed before it,
# so a lookup imports the modules up to the one that holds the name; build
# follows the serving modules, so that no serving name's lookup imports it.
_SUBMODULES = ("rle", "corner", "persist", "pnf", "build", "textgen", "oracle")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*(n for sub in sorted(_SUBMODULES)
                   for n in import_module(f"{__name__}.{sub}").__all__),
                 "__version__"]
    else:
        value = _export(name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})


def _export(name: str):
    """The value of export ``name``, from the first module in
    ``_SUBMODULES`` whose ``__all__`` holds it."""
    for sub in _SUBMODULES:
        module = import_module(f"{__name__}.{sub}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
