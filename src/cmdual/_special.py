"""``scipy.special``, imported on first use, so the discrete paths never
load scipy.  The first access to a name binds it in this module; every
later call is a plain module attribute lookup."""

import importlib


def __getattr__(name):
    if name.startswith("_"):  # module dunders are never scipy's
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("scipy.special"), name)
    globals()[name] = value
    return value
