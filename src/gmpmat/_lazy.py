"""numpy, bound at import and executed on first use.

Every library module takes numpy as ``from ._lazy import np``.  A command
that never touches ``np`` (the point evaluations, ``--help``, an input
error) then never pays numpy's import, the largest part of a cold call.
"""

import importlib.util
import sys


def _bind_numpy():
    """numpy as imported, or a module that executes numpy on first attribute access.

    This is the ``importlib.util.LazyLoader`` recipe of the importlib docs.
    Once executed, the module is a plain module again, so attribute access
    costs nothing extra.  Before Python 3.12 the first access is not
    thread-safe: two threads touching the module at once may both execute it.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _bind_numpy()
