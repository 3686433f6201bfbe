"""Lazy package re-exports (PEP 562).

Each package ``__init__`` keeps a literal table naming the submodule
that defines every name it re-exports, and calls :func:`attach` for the
module-level ``__getattr__`` and ``__dir__``.  A name's defining module
is imported the first time the name is read, and the value is then
cached in the package's globals, so later reads are plain attribute
lookups.  Importing a package therefore loads none of its submodules:
``import repro.optimizer.api`` runs the ``repro`` and
``repro.optimizer`` ``__init__``s but loads only what ``api`` itself
imports.

Submodules named in an explicit ``submodules`` tuple are reachable as
attributes too (``repro.graph`` after a bare ``import repro``).  Any
other name raises :class:`AttributeError` without importing anything,
so ``getattr(package, name, None)`` probes over ``sys.modules`` stay
free of side effects.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def attach(
    namespace: Dict[str, object],
    exports: Mapping[str, str],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package owning ``namespace``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    re-exported name to the absolute name of its defining module; and
    ``submodules`` names the package's own modules reachable as
    attributes.
    """
    package = namespace["__name__"]
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports) | submodules)

    return __getattr__, __dir__
