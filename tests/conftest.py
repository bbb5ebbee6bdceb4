"""Shared fixtures."""

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
