"""Build a JSON-able snapshot of the repro public API surface.

The snapshot maps every public name (``repro.__all__`` plus each listed
subpackage's ``__all__``) to a compact description: kind (class /
function / object) and, for callables, the full signature string.  The
frozen copy lives in ``tests/data/public_api_surface.json``;
``test_public_api.py`` diffs the live surface against it so that any
signature change to the public API is an explicit, reviewed edit to the
snapshot -- not an accident noticed by downstream users.

Regenerate after an intentional API change with::

    PYTHONPATH=src python tests/api_surface.py > tests/data/public_api_surface.json
"""

from __future__ import annotations

import importlib
import inspect
import json

#: The modules whose ``__all__`` constitutes the frozen surface.
PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.sim",
    "repro.obs",
    "repro.mesh16",
    "repro.overlay",
    "repro.qos",
    "repro.traffic",
    "repro.faults",
    "repro.resilience",
    "repro.mobility",
    "repro.phy",
    "repro.runtime",
]

#: Methods of facade/result classes that are part of the contract.
PUBLIC_CLASS_METHODS = {
    "repro.api.Scenario": ["__init__", "route", "schedule", "simulate",
                           "simulate_qos", "simulate_mobility"],
    "repro.core.minslots.MinSlotResult": [],
    "repro.core.engine.SolverEngine": [
        "__init__", "conflict_index", "interference_index",
        "solve"],
    "repro.core.policy.SolverPolicy": [
        "__init__", "coerce", "resolve_mode"],
}


def _signature_of(obj) -> str | None:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return None


def _describe(obj) -> dict:
    if inspect.isclass(obj):
        entry = {"kind": "class"}
        init = _signature_of(obj)
        if init is not None:
            entry["signature"] = init
        return entry
    if callable(obj):
        entry = {"kind": "function"}
        sig = _signature_of(obj)
        if sig is not None:
            entry["signature"] = sig
        return entry
    return {"kind": type(obj).__name__}


def build_surface() -> dict:
    """The live public surface, as a nested name -> description dict."""
    surface: dict[str, dict] = {}
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        names = sorted(getattr(module, "__all__", []))
        surface[module_name] = {
            name: _describe(getattr(module, name)) for name in names}
    for dotted, methods in PUBLIC_CLASS_METHODS.items():
        module_name, _, class_name = dotted.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            sig = _signature_of(getattr(cls, method))
            if sig is not None:
                surface.setdefault(dotted, {})[method] = {
                    "kind": "method", "signature": sig}
    return surface


def surface_json() -> str:
    return json.dumps(build_surface(), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    print(surface_json(), end="")
