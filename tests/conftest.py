import importlib

import pytest


@pytest.fixture
def integrate_calls(monkeypatch):
    """The span of every call to the integrate module's `integrate`, which
    every trajectory except a hybrid rollout goes through."""
    # the package attribute odesr.integrate is the function, not the module
    module = importlib.import_module("odesr.integrate")
    calls = []
    original = module.integrate

    def counting(rhs, x0, span, *args, **kwargs):
        calls.append(tuple(span))
        return original(rhs, x0, span, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", counting)
    return calls
