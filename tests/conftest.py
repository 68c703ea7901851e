"""Shared fixtures, and the compiled kernel for installs without one.

The enumeration pins and the bracket's state-sum oracle run on every
kernel in `presentation.KERNELS`.  When the install has no compiled
kernel, `src/tanglekit/_enumcore.c` is built here into a temporary
directory, with the flags `setup.py` uses, loaded as
`tanglekit._enumcore` and added to `KERNELS` after `pure`, so the
default kernel, and every report, stays `pure`.  Without a C compiler
or the Python headers the run is pure-only.  The report header names
the kernels that ran and why.
"""

import importlib.util
import inspect
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

from tanglekit import presentation

SOURCE = Path(__file__).resolve().parents[1] / "src" / "tanglekit" / "_enumcore.c"
KERNELS_NOTE = pytest.StashKey[str]()


def build_compiled_kernel() -> str:
    """Build and load the compiled kernel unless it is installed; say how
    the kernels in `KERNELS` came to be there."""
    if "compiled" in presentation.KERNELS:
        return "compiled kernel installed"
    cc = sysconfig.get_config_var("CC")
    include = Path(sysconfig.get_paths()["include"])
    if not cc:
        return "compiled kernel not built: no C compiler configured"
    if not (include / "Python.h").is_file():
        return f"compiled kernel not built: no Python headers in {include}"
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
        target = Path(tmp) / ("_enumcore" + sysconfig.get_config_var("EXT_SUFFIX"))
        command = [*shlex.split(cc), "-O3", "-shared", "-fPIC", "-I", str(include),
                   str(SOURCE), "-o", str(target)]
        try:
            subprocess.run(command, check=True, capture_output=True)
        except OSError as exc:
            return f"compiled kernel not built: {exc}"
        except subprocess.CalledProcessError as exc:
            return f"compiled kernel not built: {cc} exited with status {exc.returncode}"
        # a loaded extension stays mapped after its file is removed
        spec = importlib.util.spec_from_file_location("tanglekit._enumcore", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    sys.modules[spec.name] = module
    presentation.KERNELS["compiled"] = module
    return f"compiled kernel built from {SOURCE.name} for this run"


def pytest_configure(config):
    config.stash[KERNELS_NOTE] = build_compiled_kernel()


def pytest_report_header(config):
    note = config.stash[KERNELS_NOTE]
    return f"tanglekit kernels: {', '.join(presentation.KERNELS)} ({note})"


@pytest.fixture
def shallow_stack():
    """Lower the recursion limit to 100 frames above the test's depth, so
    code that recurses once per input element fails on small inputs."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    yield
    sys.setrecursionlimit(limit)
