"""The traced benchmark harness can still wrap every name it lists.

``perfbench/tracer.py`` patches library entry points by name (its
``WRAPS`` table).  A library change that unbinds one of those names would
otherwise break only the traced benchmark run (``perfbench/run.py
--trace 1``); installing and uninstalling the tracer here makes the test
suite fail as well.
"""

import importlib
import pathlib

import pytest

from repro import obs

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _owner_and_attr(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def test_tracer_installs_and_uninstalls_every_wrap(tracer_module):
    originals = []
    for module_name, path, ____ in tracer_module.WRAPS:
        owner, attr = _owner_and_attr(module_name, path)
        assert attr in owner.__dict__, f"{module_name}.{path} is unbound"
        originals.append((owner, attr, owner.__dict__[attr]))
    registry = obs.get_registry()

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
        assert obs.get_registry() is tracer.registry
    finally:
        tracer.uninstall()

    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert obs.get_registry() is registry
