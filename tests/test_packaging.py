"""The installed package carries the C source and builds its library from it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_built_package_ships_and_compiles_the_kernels(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH: an installed package would run the numpy fallback")
    lib = tmp_path / "lib"
    # egg_info -e keeps the metadata out of the source tree.
    subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                    "egg_info", "-e", str(tmp_path), "build_py", "-d", str(lib)],
                   cwd=ROOT, check=True, capture_output=True, timeout=300)
    shipped = lib / "mambapress" / "_kernels.c"
    assert shipped.read_bytes() == (ROOT / "src" / "mambapress" / "_kernels.c").read_bytes()

    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(lib), XDG_CACHE_HOME=str(cache))
    probe = ("from mambapress import kernels; "
             "print(kernels.__file__); print(kernels._library() is not None)")
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    where, loaded = done.stdout.split()
    assert Path(where).parent == lib / "mambapress"
    assert loaded == "True"
    assert [p.name.startswith("kernels-") for p in (cache / "mambapress").iterdir()] == [True]
