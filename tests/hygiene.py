"""Helpers shared by the tests that check what a run leaves behind."""

import contextlib
import signal
import threading


def io_threads() -> list[str]:
    """Names of the live ``repro-io-*`` (file read-ahead) threads."""
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith("repro-io-"))


@contextlib.contextmanager
def within(seconds: float):
    """Turn a hang into a failure: SIGALRM raises inside the block."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
