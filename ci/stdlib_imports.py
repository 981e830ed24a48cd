"""Fail unless romik and each of its modules import only the standard library.

Run from the root of a checkout:

    PYTHONPATH=src python -W error ci/stdlib_imports.py
"""

import importlib
import pkgutil
import sys

before = set(sys.modules)  # whatever site or .pth files loaded is not romik's
import romik  # noqa: E402

for info in pkgutil.iter_modules(romik.__path__, "romik."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
outside = sorted(loaded - set(sys.stdlib_module_names) - {"romik"})
if outside:
    sys.exit(f"romik imports modules outside the standard library: {outside}")
print("romik and its modules import only the standard library")
