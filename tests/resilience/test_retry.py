"""Unit tests for the shared transient-I/O retry policy."""

import errno

import pytest

from repro.cache import ResultCache
from repro.resilience import (
    DEFAULT_RETRY_ATTEMPTS,
    retry_transient,
    set_retry_sleep,
)

KEY = "ab" * 32


class _Flaky:
    """Raises a transient error the first ``failures`` times it is called."""

    def __init__(self, failures, error=None):
        self.failures = failures
        self.calls = 0
        self.error = error or OSError(errno.EINTR, "interrupted system call")

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


@pytest.fixture(autouse=True)
def no_sleep():
    previous = set_retry_sleep(None)
    yield
    set_retry_sleep(previous)


class TestRetryTransient:
    def test_first_try_success_is_single_call(self):
        flaky = _Flaky(failures=0)
        assert retry_transient(flaky) == "ok"
        assert flaky.calls == 1

    def test_transient_failures_retried(self):
        flaky = _Flaky(failures=DEFAULT_RETRY_ATTEMPTS - 1)
        assert retry_transient(flaky) == "ok"
        assert flaky.calls == DEFAULT_RETRY_ATTEMPTS

    def test_persistent_failure_reraises_original(self):
        error = OSError(errno.EIO, "dead disk")
        flaky = _Flaky(failures=99, error=error)
        with pytest.raises(OSError) as excinfo:
            retry_transient(flaky)
        assert excinfo.value is error
        assert flaky.calls == DEFAULT_RETRY_ATTEMPTS

    def test_non_transient_errors_not_retried(self):
        flaky = _Flaky(failures=99, error=KeyError("not io"))
        with pytest.raises(KeyError):
            retry_transient(flaky, transient=(OSError,))
        assert flaky.calls == 1

    def test_backoff_delays_double(self):
        delays = []
        set_retry_sleep(delays.append)
        flaky = _Flaky(failures=3)
        assert retry_transient(flaky, attempts=4, base_delay=0.01) == "ok"
        assert delays == [0.01, 0.02, 0.04]

    def test_no_sleep_mode_never_sleeps(self):
        # the autouse fixture installed None; a sleep call would TypeError
        flaky = _Flaky(failures=2)
        assert retry_transient(flaky) == "ok"

    def test_attempt_bounds_validated(self):
        with pytest.raises(ValueError):
            retry_transient(lambda: None, attempts=0)
        with pytest.raises(ValueError):
            retry_transient(lambda: None, base_delay=-1)


class TestCheckpointRetry:
    """Cache publication -- what ``--checkpoint DIR`` writes -- is retried."""

    def test_transient_replace_failure_survives(self, tmp_path, monkeypatch):
        import os as os_module

        real_replace = os_module.replace
        failures = [2]

        def flaky_replace(src, dst):
            if failures[0] > 0:
                failures[0] -= 1
                raise OSError(errno.EINTR, "interrupted system call")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.cache.store.os.replace", flaky_replace)
        cache = ResultCache(str(tmp_path))
        assert cache.put(KEY, "unit", {"cursor": 7})
        assert cache.get(KEY) == {"cursor": 7}
        # failed attempts left no temp files behind
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_persistent_failure_degrades_to_not_cached(self, tmp_path, monkeypatch):
        def always_fail(src, dst):
            raise OSError(errno.EIO, "dead disk")

        monkeypatch.setattr("repro.cache.store.os.replace", always_fail)
        cache = ResultCache(str(tmp_path))
        assert cache.put(KEY, "unit", {}) is False
        assert cache.get(KEY) is None
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
