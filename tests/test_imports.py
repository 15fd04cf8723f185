"""Every ``repro`` package imports on its own, in a fresh interpreter.

An import cycle between packages only shows when the cycle's first
module is the *first* one imported; inside one pytest process some other
test has almost always imported the rest of the cycle already.  Each
package is therefore imported in its own child interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(_ROOT).parts)
    for init in _ROOT.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_a_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(_ROOT.parent), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
