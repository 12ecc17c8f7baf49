"""Library-level engine API: requests in, schema-versioned results out.

Build an :class:`EngineRequest`, hand it to :func:`execute`, get an
:class:`EngineResult` whose payload is canonical-JSON-shaped and
byte-identical whether it was computed fresh or served from an attached
:class:`repro.cache.ResultCache`::

    from repro.cache import ResultCache
    from repro.engine import EngineRequest, execute

    cache = ResultCache(".repro-cache")
    result = execute(EngineRequest("exhaustive", {"n": 6}), cache=cache)
    again = execute(EngineRequest("exhaustive", {"n": 6}), cache=cache)
    assert again.cached and again.payload == result.payload

The CLI subcommands and :mod:`repro.replay.engines` are thin adapters
over this module.
"""

from repro.engine.core import (
    execute,
    execute_run,
    run_payload,
    run_record,
    sweep_rows_from_payload,
)
from repro.engine.request import (
    ENGINE_KINDS,
    ENGINE_RESULT_VERSION,
    EngineOptions,
    EngineRequest,
    EngineResult,
    normalize_params,
)

__all__ = [
    "ENGINE_KINDS",
    "ENGINE_RESULT_VERSION",
    "EngineOptions",
    "EngineRequest",
    "EngineResult",
    "execute",
    "execute_run",
    "normalize_params",
    "run_payload",
    "run_record",
    "sweep_rows_from_payload",
]
