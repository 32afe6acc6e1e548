"""The scipy functions jitterkit calls, each imported on its first use.

``from . import _scipy`` loads no scipy module. The first read of
``_scipy.ndtr`` imports ``scipy.special`` and keeps the function as an
attribute of this module, so every later read is a plain attribute
lookup with no import statement on the call's path. So ``import
jitterkit`` loads no scipy, and a process imports ``scipy.special`` or
``scipy.integrate`` only when it calls a function that needs it.
"""

from __future__ import annotations

import importlib

_HOMES = {
    "betainc": "scipy.special",
    "ndtr": "scipy.special",
    "ndtri": "scipy.special",
    "quad": "scipy.integrate",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    function = globals()[name] = getattr(importlib.import_module(_HOMES[name]), name)
    return function
