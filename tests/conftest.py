"""Suite-wide hygiene checks."""

import pytest

from tests.hygiene import io_threads


@pytest.fixture(autouse=True)
def no_leaked_io_threads():
    """A test that leaves a ``repro-io-*`` thread alive forgot to close
    a ``FileBackend`` (or a ``System`` over one) -- or ``close`` lost
    the thread.  Only the test that started it is blamed."""
    before = io_threads()
    yield
    leaked = [name for name in io_threads() if name not in before]
    assert not leaked, f"I/O threads left alive: {leaked}"
