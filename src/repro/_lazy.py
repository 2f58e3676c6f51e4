"""PEP 562 package exports that resolve on first use.

A package lists its public names in a name -> module table and installs
the pair this module builds as its ``__getattr__`` / ``__dir__``.  The
first read of a name imports that name's module and caches the value in
the package namespace, so every later read is an ordinary attribute
lookup and a process loads only the submodules it touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``exports``."""

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
