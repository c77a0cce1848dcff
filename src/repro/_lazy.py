"""Lazy re-exports for the package façades (PEP 562).

Every package ``__init__`` re-exports its public names for convenience
(``from repro import Simulator``).  Done eagerly, any import below a
package pays for all of it: ``import repro.sim.config`` ran
``repro/__init__`` and with it the engine, the routers and every routing
algorithm — 70 ms before a verb that only probes the result cache had
done anything.  The façades therefore resolve a re-export on first
attribute access and cache it in the package namespace.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for the façade ``package``.

    ``exports`` maps a defining module, named relative to ``package``,
    to the space-separated names re-exported from it.  Any other public
    attribute is tried as a submodule, so ``repro.harness.parallel``
    keeps working after a bare ``import repro.harness``; what is neither
    raises the usual :class:`AttributeError`.
    """
    origin = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names.split()
    }

    def __getattr__(name: str) -> object:
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )
        if name in origin:
            value = getattr(import_module(origin[name]), name)
        elif name.startswith("_"):
            # inspect, doctest and pytest probe modules for dunders;
            # none of them is a submodule worth a trip to the finders.
            raise missing
        else:
            submodule = f"{package}.{name}"
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise  # the submodule exists; its own import failed
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(origin.keys() | vars(sys.modules[package]).keys())

    return list(origin), __getattr__, __dir__
