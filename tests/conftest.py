"""Shared fixtures."""

import ctypes
import functools
import importlib
import os
import pkgutil

import pytest

import sepball


def _package_modules() -> list:
    return [sepball] + [
        importlib.import_module(f"sepball.{info.name}")
        for info in pkgutil.iter_modules(sepball.__path__)
    ]


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """After every test, this process has no child left, running or unreaped."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@functools.cache
def _openblas() -> tuple:
    """(get, set) of the thread count of every OpenBLAS this process has loaded.

    Found here with ``ctypes``, apart from the package's own lookup: the
    mapped files named like OpenBLAS in ``/proc/self/maps``, each with the
    first pair of thread-count functions it exports.  Empty where there is
    no OpenBLAS or no ``/proc``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                      "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@pytest.fixture(autouse=True)
def blas_threads_left_as_found():
    """After every test, each loaded OpenBLAS runs the thread count it had before."""
    before = [get() for get, _ in _openblas()]
    yield
    assert [get() for get, _ in _openblas()] == before


@pytest.fixture
def blas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, put back after the test.

    The test is skipped where no OpenBLAS is loaded.
    """
    if not _openblas():
        pytest.skip("no OpenBLAS is loaded")
    get, set_ = _openblas()[0]
    count = get()
    yield get, set_
    set_(count)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` counts calls of ``module.name``.

    The function is replaced under every name bound to it in the package
    (``from .matcore import hermitian`` copies it into the importer), so
    every call is seen.  Returns the list the calls are appended to.
    """

    def install(module, name: str) -> list:
        fn = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        for mod in [module, *_package_modules()]:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counting)
        return calls

    return install
