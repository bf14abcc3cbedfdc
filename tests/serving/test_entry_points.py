"""The two serving entry points run once, as ``__main__``.

``python -m repro.serving.server`` imports the ``repro.serving`` package
before runpy executes the module.  If the package imported the entry
module eagerly, runpy would warn and run it a second time, and the
process would hold two copies of its classes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.serving

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)


@pytest.mark.parametrize("module", ["repro.serving.server", "repro.serving.loadgen"])
def test_entry_point_help_raises_no_runtime_warning(module):
    result = _python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_package_import_leaves_entry_modules_unloaded():
    result = _python("-c", "import sys, repro.serving; print(sorted(m for m in "
                           "('repro.serving.server', 'repro.serving.loadgen') "
                           "if m in sys.modules))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_lazy_names_resolve_to_the_entry_modules():
    from repro.serving import loadgen, server
    assert repro.serving.ServingServer is server.ServingServer
    assert repro.serving.serve_from_directory is server.serve_from_directory
    assert repro.serving.ApiError is server.ApiError
    assert repro.serving.run_chaos is loadgen.run_chaos
    assert repro.serving.LoadSummary is loadgen.LoadSummary
    for name in repro.serving.__all__:
        assert getattr(repro.serving, name) is not None
    with pytest.raises(AttributeError):
        repro.serving.no_such_name
