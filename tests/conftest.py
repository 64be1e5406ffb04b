import pytest

from odesr import integrate


@pytest.fixture
def integrate_calls(monkeypatch):
    """The span of every call to the integrate module's `integrate`, which
    every trajectory except a hybrid rollout goes through."""
    calls = []
    original = integrate.integrate

    def counting(rhs, x0, span, *args, **kwargs):
        calls.append(tuple(span))
        return original(rhs, x0, span, *args, **kwargs)

    monkeypatch.setattr(integrate, "integrate", counting)
    return calls
