"""numpy, imported when first used.

A verdict on a row of fewer than COLUMNAR_MIN_GROUPS groups runs in plain
Python, and importing numpy is over half of such a run. So the package reads
numpy through this module's ``np``.

A numpy that is already imported is ``np`` itself: a caller that imported
numpy first gets the very module it holds, at no cost per use. Otherwise
``np`` is a stand-in whose first read of a name imports numpy and keeps that
name's value. The import system locks a module while it runs, so threads
that first use numpy at once each get it whole; importlib.util.LazyLoader,
which loads numpy into the module object on first use, lets a second thread
read that object half-built on Python 3.11.
"""

import sys
import types


class _Numpy(types.ModuleType):
    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = sys.modules.get("numpy") or _Numpy("numpy")
