"""SciPy's LAPACK extension, ``scipy.linalg._flapack``, loaded without ``scipy.linalg``.

The package takes three routines from it: ``dgbtrf`` and ``dgbtrs`` (``lq``'s
banded factor and solve) and ``dtbtrs`` (``gradient.solve_costates``).
They are loaded this way because ``import scipy.linalg`` cost 0.26 s of
``import dyngames``'s 0.42 s (``python -X importtime``, scipy 1.17), 0.17 s of
it in ``scipy._lib.array_api_compat``'s ``clone_module("numpy")``, which
reads every attribute of numpy and so imports ``numpy.f2py``,
``numpy.testing``, ``numpy.random`` and ``numpy.ma``, none of which the
package needs at import.  The extension is kept in ``sys.modules`` under its own name,
so its routines are the very objects ``scipy.linalg.lapack`` exposes,
whichever of the two is imported first, and every result is what
``scipy.linalg.lapack`` gives.

``import scipy`` (the top-level package only) still runs scipy's platform
set-up before the extension loads.  There is no fallback: a scipy without
the extension in its ``linalg`` directory fails the import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import scipy

NAME = "scipy.linalg._flapack"


def load_flapack(directory: str) -> ModuleType:
    """The ``_flapack`` extension in ``directory``, kept in ``sys.modules`` as ``NAME``.

    Raises ImportError naming ``directory`` when the extension is not there.
    """
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(NAME)
    if spec is None:
        raise ImportError(f"no LAPACK extension {NAME} in {directory}", name=NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[NAME] = module
    return module


lapack = sys.modules.get(NAME) or load_flapack(os.path.join(scipy.__path__[0], "linalg"))
