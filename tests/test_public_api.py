"""Every exported name resolves: no ``__all__`` entry outlives its object."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

_PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)


@pytest.mark.parametrize("package", _PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
