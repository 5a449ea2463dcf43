"""Backend-test fixtures: a registered backend whose library is absent."""

from __future__ import annotations

import pytest

from repro.backend import BACKENDS, register_backend
from repro.backend.base import _INSTANCES
from repro.backend.numpy_backend import NumpyBackend

#: Registry name of the test-local unavailable backend.
UNAVAILABLE_NAME = "absent-test-backend"


@pytest.fixture()
def unavailable_backend():
    """Register a backend whose ``is_available()`` is False, as an
    optional backend does where its library does not import; yields its
    name and unregisters it afterwards."""

    @register_backend
    class _AbsentBackend(NumpyBackend):
        name = UNAVAILABLE_NAME

        @classmethod
        def is_available(cls) -> bool:
            return False

        @classmethod
        def unavailable_reason(cls) -> str:
            return "absentlib is not installed"

    try:
        yield UNAVAILABLE_NAME
    finally:
        BACKENDS.pop(UNAVAILABLE_NAME, None)
        _INSTANCES.pop(UNAVAILABLE_NAME, None)
