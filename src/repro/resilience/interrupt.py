"""Graceful SIGINT/SIGTERM handling for interruptible CLI runs.

``KeyboardInterrupt`` already gives SIGINT a catchable shape; SIGTERM (the
default ``kill``, and what CI runners and container orchestrators send on
timeout) normally kills the process with no chance to clean up.
:func:`graceful_interrupts` maps SIGTERM onto ``KeyboardInterrupt`` for
the duration of a ``with`` block, so one ``except KeyboardInterrupt``
covers both "the user pressed Ctrl-C" and "the scheduler said wrap it up".
Searches need nothing more: each completed shard is already in the
result cache when the interrupt lands.

Flush hooks cover what the cache does not: an open *session log*
(:class:`repro.replay.SessionStore`) has no handler of its own on the
interrupt path. Writers register a zero-argument flushable with
:func:`register_flush_hook`; when an interrupt escapes the ``with``
block, :func:`graceful_interrupts` runs every registered hook (inner
handlers first having already done their own flushing) before re-raising,
so a SIGINT/SIGTERM-killed run leaves a sealed, replayable session log.

The previous handlers are restored on exit, including on exceptions, and
the context manager degrades to a no-op off the main thread (Python only
delivers signals to the main thread) -- flush hooks still run there.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import threading
from typing import Callable, Dict, Iterator

__all__ = [
    "graceful_interrupts",
    "register_flush_hook",
    "unregister_flush_hook",
]

_hooks_lock = threading.Lock()
_hooks: Dict[int, Callable[[], None]] = {}
_handles = itertools.count()


def register_flush_hook(hook: Callable[[], None]) -> int:
    """Register a flushable to run if an interrupt escapes the guard.

    Returns a handle for :func:`unregister_flush_hook`. Hooks must be
    idempotent and exception-safe in spirit; exceptions they raise are
    swallowed so one broken writer cannot block another's flush.
    """
    with _hooks_lock:
        handle = next(_handles)
        _hooks[handle] = hook
        return handle


def unregister_flush_hook(handle: int) -> None:
    """Remove a previously registered hook (missing handles are ignored)."""
    with _hooks_lock:
        _hooks.pop(handle, None)


def _run_flush_hooks() -> None:
    with _hooks_lock:
        hooks = list(_hooks.values())
    for hook in hooks:
        try:
            hook()
        except Exception:
            pass  # a failed flush must not mask the interrupt itself


@contextlib.contextmanager
def graceful_interrupts() -> Iterator[None]:
    """Within the block, SIGTERM raises KeyboardInterrupt like SIGINT does.

    On the way out of an interrupt (either signal), every registered
    flush hook runs -- sealing open session logs -- before the
    ``KeyboardInterrupt`` continues to the caller's handler.
    """
    if threading.current_thread() is not threading.main_thread():
        # Signals are main-thread only; nothing to install, nothing to
        # break -- but flush hooks still honor an interrupt raised here.
        try:
            yield
        except KeyboardInterrupt:
            _run_flush_hooks()
            raise
        return

    def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt(f"signal {signum}")

    previous = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        yield
    except KeyboardInterrupt:
        _run_flush_hooks()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
