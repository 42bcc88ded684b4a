"""Fixtures shared by the test modules."""

import ctypes
import shutil
import subprocess
from pathlib import Path

import pytest

from mambapress import kernels

_PTR, _SIZE = ctypes.c_void_p, ctypes.c_ssize_t

# The exports of probe.c, typed for ctypes as kernels._build_library types
# the library's, every array argument a raw pointer: tests call the probe
# directly, passing each array's address, not through kernels._call.
PROBE_EXPORTS = {
    "probe_vexp": ([_PTR, _PTR, _SIZE], None),
    "probe_vdecay": ([_PTR, _PTR, _SIZE], None),
    "probe_scan_states": ([_PTR] * 8 + [_SIZE] * 3 + [ctypes.c_int], ctypes.c_int),
}


@pytest.fixture(params=["compiled", "fallback"])
def path(request, monkeypatch):
    """Runs a test on the compiled kernels and again on the numpy fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(kernels, "_library", lambda: None)
    elif kernels._library() is None:
        pytest.skip("no compiled library: the numpy fallback is the kernel")
    return request.param


def build_probe(out: Path, *extra_flags: str) -> subprocess.CompletedProcess:
    """Compile tests/probe.c, which includes the kernels' source, to ``out``."""
    return subprocess.run(
        ["gcc", *kernels._CFLAGS, *extra_flags, "-I", str(kernels._SOURCE.parent),
         str(Path(__file__).with_name("probe.c")), "-o", str(out), "-lm"],
        capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="session")
def probe(tmp_path_factory):
    """The probe library, built once per session with the library's flags;
    ``None`` where no gcc is on PATH."""
    if shutil.which("gcc") is None:
        return None
    out = tmp_path_factory.mktemp("probe") / "probe.so"
    done = build_probe(out)
    assert done.returncode == 0, done.stderr
    lib = ctypes.CDLL(str(out))
    for name, (argtypes, restype) in PROBE_EXPORTS.items():
        export = getattr(lib, name)
        export.argtypes, export.restype = argtypes, restype
    return lib
