"""Bounded retry-with-backoff for transient I/O errors.

A single ``EINTR`` or transient ``OSError`` (NFS hiccup, overlay-fs
flush glitch, container freezer pause) should not kill an hours-long
search whose cache or session log write happened to hit it.
:func:`retry_transient` retries a callable a bounded number of times
with exponential backoff, then re-raises the last error -- persistent
failures still fail, they just get a fair number of chances first.

Determinism contract: tests (and any caller that must not sleep) switch
the module into no-sleep mode via :func:`set_retry_sleep` -- backoff
delays are computed identically but never waited on, so retry behaviour
is observable without wall-clock coupling.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, Type, TypeVar

__all__ = [
    "DEFAULT_RETRY_ATTEMPTS",
    "DEFAULT_RETRY_BASE_DELAY",
    "retry_transient",
    "set_retry_sleep",
]

T = TypeVar("T")

#: Total attempts (first try + retries) when the caller does not say.
DEFAULT_RETRY_ATTEMPTS = 4

#: First backoff delay in seconds; doubles per retry (0.01, 0.02, 0.04...).
DEFAULT_RETRY_BASE_DELAY = 0.01

# The module-level sleep hook. ``None`` = no-sleep mode (deterministic
# tests); otherwise a ``sleep(seconds)`` callable. Swapped atomically by
# set_retry_sleep, read once per retry.
_sleep: Optional[Callable[[float], None]] = time.sleep


def set_retry_sleep(
    sleep: Optional[Callable[[float], None]],
) -> Optional[Callable[[float], None]]:
    """Install the backoff sleep hook; returns the previous one.

    Pass ``None`` for deterministic no-sleep mode (retries happen
    immediately), or a custom callable to observe the computed delays.
    Restore the returned previous hook when done.
    """
    global _sleep
    previous = _sleep
    _sleep = sleep
    return previous


def retry_transient(
    fn: Callable[[], T],
    attempts: int = DEFAULT_RETRY_ATTEMPTS,
    base_delay: float = DEFAULT_RETRY_BASE_DELAY,
    transient: Tuple[Type[BaseException], ...] = (OSError,),
) -> T:
    """Call ``fn`` with up to ``attempts`` tries; backoff between tries.

    Retries on ``transient`` exceptions only (default: ``OSError``, which
    includes ``InterruptedError``/EINTR). The final failure re-raises the
    original exception unchanged so callers' error mapping still applies.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if base_delay < 0:
        raise ValueError(f"base_delay must be >= 0, got {base_delay}")
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return fn()
        except transient as exc:  # noqa: PERF203 - bounded, cold path
            last = exc
            if attempt == attempts - 1:
                raise
            sleep = _sleep
            if sleep is not None:
                sleep(base_delay * (2**attempt))
    raise last  # pragma: no cover - unreachable (loop raises or returns)
