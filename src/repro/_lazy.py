"""Lazy package exports (PEP 562).

Each package ``__init__`` under :mod:`repro` re-exports the public names
of its submodules without importing them: one table maps every exported
name to the submodule that defines it, and a module ``__getattr__``
imports that submodule on the first access of the name.  A process then
loads only the modules it uses (``repro serve`` never imports the SNE
model), whatever it imported first.  docs/ARCHITECTURE.md, "Import
layering", states the rules this module keeps.
"""

from __future__ import annotations

import importlib
import sys
import types


class _LazyPackage(types.ModuleType):
    """A package whose exports keep their names over same-named submodules.

    The import system binds every submodule it loads as an attribute of
    its package.  Where an exported name is also a submodule's name
    (the function :func:`repro.hw.fuzz.fuzz` of the module
    ``repro.hw.fuzz``), the export keeps the name, as the eager
    ``from .fuzz import fuzz`` it replaces did, whichever import ran
    first.
    """

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: dict[str, str]):
    """Return the ``(__getattr__, __dir__)`` pair of a lazy package.

    ``exports`` maps each exported name to the submodule of ``package``
    that defines it, relative (``"config"``, ``"kernels"``); a
    ``"module:attr"`` value exports ``attr`` under another name.  A
    name outside the table that names a submodule resolves to it, as
    it did when the package imported every submodule eagerly.
    """
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            if name.startswith("__"):
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        submodule, _, attr = source.partition(":")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), attr or name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(module.__dict__) | set(exports))

    return __getattr__, __dir__
