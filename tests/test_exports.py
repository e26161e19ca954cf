import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import geoaccess

MODULES = ["geoaccess"] + [f"geoaccess.{info.name}"
                           for info in pkgutil.iter_modules(geoaccess.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_importing_the_package_loads_no_scipy():
    # In a fresh interpreter, so that no other test's import counts.
    script = "import sys, geoaccess; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(geoaccess.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
