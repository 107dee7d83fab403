"""``scipy.special``, imported on first use.  Discrete laws, Gauss-Hermite
rules and full-range measure moments never bind a name here, so those
commands load no scipy.  What does: a lognormal CDF or quantile (``ndtr``,
``log_ndtr``, ``ndtri``: dominance witnesses of a violated pair), a
truncated measure piece (``gammainc``, ``gammaincc``) and the ``exp1``
terms of ``exp_difference_moment``.  The first access to a name binds it
in this module; every later call is a plain module attribute lookup."""

import importlib


def __getattr__(name):
    if name.startswith("_"):  # module dunders are never scipy's
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("scipy.special"), name)
    globals()[name] = value
    return value
