"""Fixtures shared by the test files."""

import pytest

from repro.core import placement_kernel


@pytest.fixture
def python_loops(monkeypatch):
    """The whole compile flow on its Python loops, as on a host without a
    compiler: the one resolver of the flow's C library answers ``None``."""
    monkeypatch.setattr(placement_kernel, "library", lambda: None)


@pytest.fixture
def native_loops():
    """The compile flow's C library (:class:`placement_kernel.Library`);
    skips where it can be neither built nor loaded."""
    lib = placement_kernel.library()
    if lib is None:
        pytest.skip("no C compiler and no cached compile library here")
    return lib
