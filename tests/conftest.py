"""Fixtures shared by the test modules."""

import pytest

from mambapress import kernels


@pytest.fixture(params=["compiled", "fallback"])
def path(request, monkeypatch):
    """Runs a test on the compiled kernels and again on the numpy fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(kernels, "_compiled_ltr", lambda: None)
    elif kernels._compiled_ltr() is None:
        pytest.skip("no compiled library: the numpy fallback is the kernel")
    return request.param
