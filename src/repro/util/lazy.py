"""Shared PEP 562 lazy-export machinery for package ``__init__``\\ s.

The curated packages (:mod:`repro`, :mod:`repro.core`,
:mod:`repro.experiments`, :mod:`repro.study`) all export by name ->
``(module, attribute)`` mapping, resolved on first attribute access so
importing a package costs nothing until a name is used.  This helper
keeps the ``__getattr__``/``__dir__`` implementation in one place.

Usage::

    _EXPORTS = {"Thing": ("pkg.module", "Thing"), ...}
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Mapping, Tuple


def lazy_exports(module_name: str, namespace: Dict[str, Any],
                 exports: Mapping[str, Tuple[str, str]],
                 ) -> Tuple[Callable[[str], Any], Callable[[], list]]:
    """Build the ``(__getattr__, __dir__)`` pair for one package."""

    def __getattr__(name: str) -> Any:
        try:
            module, attr = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr)
        namespace[name] = value  # cache: resolve each name at most once
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
